//! The single export schema. One [`MetricsSnapshot`] structure is
//! produced by the in-process API, carried verbatim over the wire by
//! `Response::Metrics`, and rendered by the Prometheus-text and JSON
//! encoders here.

use crate::events::Event;
use crate::hist::HistogramSnapshot;
use std::fmt::Write as _;

/// Version of the snapshot schema (carried in every encoding).
pub const SNAPSHOT_VERSION: u32 = 1;

/// A point-in-time view of every registered metric plus the retained
/// event ring. All series are sorted by name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Schema version ([`SNAPSHOT_VERSION`]).
    pub version: u32,
    /// Monotone counters as `(name, value)`.
    pub counters: Vec<(String, u64)>,
    /// Instantaneous gauges as `(name, value)`.
    pub gauges: Vec<(String, u64)>,
    /// Histograms as `(name, snapshot)`.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// Retained rare events, oldest first.
    pub events: Vec<Event>,
    /// Events dropped or evicted from the ring.
    pub events_dropped: u64,
}

impl MetricsSnapshot {
    /// Value of a counter, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        lookup(&self.counters, name).copied()
    }

    /// Value of a gauge, if present.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        lookup(&self.gauges, name).copied()
    }

    /// A histogram snapshot, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        lookup(&self.histograms, name)
    }

    /// Folds another snapshot in: counters and drop counts add
    /// (saturating), gauges keep the maximum, histograms merge
    /// bucket-wise, events concatenate in time order.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        merge_series(&mut self.counters, &other.counters, |a, b| {
            *a = a.saturating_add(b)
        });
        merge_series(&mut self.gauges, &other.gauges, |a, b| *a = (*a).max(b));
        for (name, hist) in &other.histograms {
            match self
                .histograms
                .binary_search_by(|(n, _)| n.as_str().cmp(name))
            {
                Ok(i) => self.histograms[i].1.merge(hist),
                Err(i) => self.histograms.insert(i, (name.clone(), hist.clone())),
            }
        }
        self.events.extend(other.events.iter().cloned());
        self.events.sort_by_key(|e| e.at_micros);
        self.events_dropped = self.events_dropped.saturating_add(other.events_dropped);
    }

    /// Prometheus text exposition: counters and gauges as themselves,
    /// histograms as summaries (p50/p95/p99 quantile series plus
    /// `_sum`/`_count`/`_max`). Events have no Prometheus shape and are
    /// exported only by the JSON encoding; their drop count is exposed
    /// as `dynamis_events_dropped`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, "# TYPE {name} counter\n{name} {v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "# TYPE {name} gauge\n{name} {v}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(out, "# TYPE {name} summary");
            for q in ["0.5", "0.95", "0.99"] {
                let v = h.quantile(q.parse().unwrap());
                let _ = writeln!(out, "{name}{{quantile=\"{q}\"}} {v}");
            }
            let _ = writeln!(out, "{name}_sum {}", h.sum);
            let _ = writeln!(out, "{name}_count {}", h.count);
            let _ = writeln!(out, "# TYPE {name}_max gauge\n{name}_max {}", h.max);
        }
        let _ = writeln!(
            out,
            "# TYPE dynamis_events_dropped counter\ndynamis_events_dropped {}",
            self.events_dropped
        );
        out
    }

    /// JSON encoding of the full snapshot (handwritten — the workspace
    /// is offline and serde-free).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(out, "\"version\":{}", self.version);
        out.push_str(",\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            let _ = write!(out, "{}{}:{v}", comma(i), json_str(name));
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            let _ = write!(out, "{}{}:{v}", comma(i), json_str(name));
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            let _ = write!(
                out,
                "{}{}:{{\"count\":{},\"sum\":{},\"max\":{},\"buckets\":[",
                comma(i),
                json_str(name),
                h.count,
                h.sum,
                h.max
            );
            for (j, (b, c)) in h.buckets.iter().enumerate() {
                let _ = write!(out, "{}[{b},{c}]", comma(j));
            }
            out.push_str("]}");
        }
        out.push_str("},\"events\":[");
        for (i, e) in self.events.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"at_micros\":{},\"kind\":{},\"detail\":{}}}",
                comma(i),
                e.at_micros,
                json_str(&e.kind),
                json_str(&e.detail)
            );
        }
        let _ = write!(out, "],\"events_dropped\":{}}}", self.events_dropped);
        out
    }
}

fn lookup<'a, T>(series: &'a [(String, T)], name: &str) -> Option<&'a T> {
    series
        .binary_search_by(|(n, _)| n.as_str().cmp(name))
        .ok()
        .map(|i| &series[i].1)
}

fn merge_series(into: &mut Vec<(String, u64)>, from: &[(String, u64)], f: impl Fn(&mut u64, u64)) {
    for (name, v) in from {
        match into.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
            Ok(i) => f(&mut into[i].1, *v),
            Err(i) => into.insert(i, (name.clone(), *v)),
        }
    }
}

fn comma(i: usize) -> &'static str {
    if i == 0 {
        ""
    } else {
        ","
    }
}

/// JSON string literal (quoted, escaped).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsSnapshot {
        MetricsSnapshot {
            version: SNAPSHOT_VERSION,
            counters: vec![("a_total".into(), 3), ("b_total".into(), u64::MAX)],
            gauges: vec![("depth".into(), 9)],
            histograms: vec![(
                "lat_ns".into(),
                HistogramSnapshot {
                    count: 4,
                    sum: 1234,
                    max: 1000,
                    buckets: vec![(0, 1), (17, 2), (100, 1)],
                },
            )],
            events: vec![Event {
                at_micros: 55,
                kind: "shed_on".into(),
                detail: "queue \"deep\"\nline2".into(),
            }],
            events_dropped: 7,
        }
    }

    /// Every series, `u64::MAX`, and an event detail that needs escaping
    /// (a quote and a newline).
    #[test]
    fn json_of_sample_is_exact() {
        assert_eq!(
            sample().to_json(),
            concat!(
                r#"{"version":1,"counters":{"a_total":3,"b_total":18446744073709551615},"#,
                r#""gauges":{"depth":9},"#,
                r#""histograms":{"lat_ns":{"count":4,"sum":1234,"max":1000,"#,
                r#""buckets":[[0,1],[17,2],[100,1]]}},"#,
                r#""events":[{"at_micros":55,"kind":"shed_on","detail":"queue \"deep\"\nline2"}],"#,
                r#""events_dropped":7}"#,
            )
        );
    }

    #[test]
    fn json_of_empty_snapshot_is_exact() {
        let snap = MetricsSnapshot {
            version: SNAPSHOT_VERSION,
            ..MetricsSnapshot::default()
        };
        assert_eq!(
            snap.to_json(),
            r#"{"version":1,"counters":{},"gauges":{},"histograms":{},"events":[],"events_dropped":0}"#
        );
    }

    #[test]
    fn prometheus_text_has_all_series() {
        let text = sample().to_prometheus();
        assert!(text.contains("# TYPE a_total counter\na_total 3"));
        assert!(text.contains("# TYPE depth gauge\ndepth 9"));
        assert!(text.contains("lat_ns{quantile=\"0.95\"}"));
        assert!(text.contains("lat_ns_count 4"));
        assert!(text.contains("lat_ns_sum 1234"));
        assert!(text.contains("dynamis_events_dropped 7"));
    }

    #[test]
    fn merge_combines_series() {
        let mut a = sample();
        let mut b = sample();
        b.counters[0].1 = 2;
        b.gauges[0].1 = 4;
        b.counters.push(("z_total".into(), 1));
        b.counters.sort();
        a.merge(&b);
        assert_eq!(a.counter("a_total"), Some(5));
        assert_eq!(a.counter("b_total"), Some(u64::MAX), "saturates");
        assert_eq!(a.counter("z_total"), Some(1));
        assert_eq!(a.gauge("depth"), Some(9), "gauge keeps max");
        assert_eq!(a.histogram("lat_ns").unwrap().count, 8);
        assert_eq!(a.events.len(), 2);
        assert_eq!(a.events_dropped, 14);
    }
}
