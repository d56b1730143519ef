//! Telemetry overhead guard: the engine hot path with stage timers
//! enabled must stay within a few percent of the same loop with the
//! process-wide obs gate off.
//!
//! Runs the paper's default power-law dynamic workload through
//! `DyOneSwap` and `DyTwoSwap`. Measuring the two modes as separate
//! whole runs does not work on a shared host — the machines this runs
//! on show double-digit throughput swings at multi-second scale, far
//! above the ≲3% effect under test. Instead each pass over the stream
//! **interleaves** the modes at millisecond granularity: the stream is
//! split into chunks and the obs gate alternates per chunk, so any
//! interference burst lands on both modes in nearly equal measure.
//! The alternation phase flips on every pass, cancelling both
//! position-in-stream cost differences and any first-vs-second bias
//! within a chunk pair. Each pass yields one `t_enabled/t_disabled`
//! ratio; the reported overhead is the median across passes.
//!
//! Reports per engine: per-mode updates/sec (over summed chunk times)
//! and the median relative overhead. The enabled chunks' registry
//! snapshot is embedded in the JSON so the report doubles as evidence
//! the timers actually recorded (a gate stuck off would show 0%
//! overhead *and* empty histograms).
//!
//! Writes the JSON report only to the path named by `DYNAMIS_BENCH_OUT`;
//! unset, it writes no file, so a guard run leaves the committed
//! `BENCH_PR8.json` alone. Honors `DYNAMIS_FAST=1` for a quick run. The
//! ≤3% bound is asserted only under `DYNAMIS_ENFORCE_OVERHEAD=1` — even
//! interleaved measurement can flake on a badly disturbed runner, so the
//! hard gate is opt-in.

use dynamis_core::{DyOneSwap, DyTwoSwap, DynamicMis, EngineBuilder};
use dynamis_gen::powerlaw::chung_lu;
use dynamis_gen::{StreamConfig, UpdateStream};
use dynamis_graph::{DynamicGraph, Update};
use std::fmt::Write as _;
use std::time::Instant;

const MAX_OVERHEAD_PCT: f64 = 3.0;
/// Updates per timed chunk: ~2–4 ms of work, two orders of magnitude
/// finer than the interference bursts being cancelled.
const CHUNK: usize = 2048;

struct ModeTotals {
    /// Summed chunk wall time across all passes, seconds.
    secs: f64,
    updates: u64,
    updates_per_sec: f64,
}

struct EngineReport {
    name: &'static str,
    disabled: ModeTotals,
    enabled: ModeTotals,
    overhead_pct: f64,
}

/// One pass: a fresh engine consumes the whole stream, the obs gate
/// alternating per chunk (`phase` flips which parity is enabled).
/// Returns (disabled_secs, enabled_secs, disabled_updates,
/// enabled_updates) for this pass; construction is untimed — it is
/// identical in both modes and would only dilute the signal.
fn interleaved_pass<E, B>(build: &B, ups: &[Update], phase: usize) -> (f64, f64, u64, u64)
where
    E: DynamicMis,
    B: Fn() -> E,
{
    let mut engine = build();
    let (mut t_dis, mut t_en) = (0.0, 0.0);
    let (mut n_dis, mut n_en) = (0u64, 0u64);
    for (ci, chunk) in ups.chunks(CHUNK).enumerate() {
        let on = (ci + phase) % 2 == 1;
        dynamis_obs::set_enabled(on);
        let t = Instant::now();
        for u in chunk {
            engine.try_apply(u).expect("generated stream is valid");
        }
        let secs = t.elapsed().as_secs_f64();
        if on {
            t_en += secs;
            n_en += chunk.len() as u64;
        } else {
            t_dis += secs;
            n_dis += chunk.len() as u64;
        }
    }
    // Keep the solution observable so the loop cannot be dead-code
    // eliminated out from under the timers.
    assert!(engine.size() > 0);
    (t_dis, t_en, n_dis, n_en)
}

fn bench_engine<E, B>(name: &'static str, build: B, ups: &[Update], passes: usize) -> EngineReport
where
    E: DynamicMis,
    B: Fn() -> E,
{
    // One untimed warm-up pass to fault in the allocator and branch
    // predictors before anything is measured.
    interleaved_pass(&build, ups, 0);

    let (mut dis, mut en) = (
        ModeTotals {
            secs: 0.0,
            updates: 0,
            updates_per_sec: 0.0,
        },
        ModeTotals {
            secs: 0.0,
            updates: 0,
            updates_per_sec: 0.0,
        },
    );
    let mut ratios = Vec::with_capacity(passes);
    for phase in 0..passes {
        let (t_dis, t_en, n_dis, n_en) = interleaved_pass(&build, ups, phase);
        dis.secs += t_dis;
        dis.updates += n_dis;
        en.secs += t_en;
        en.updates += n_en;
        // Normalize by update counts: with an odd chunk count the two
        // modes cover slightly different shares of the stream.
        ratios.push((t_en / n_en as f64) / (t_dis / n_dis as f64));
    }
    dynamis_obs::set_enabled(false);
    dis.updates_per_sec = dis.updates as f64 / dis.secs;
    en.updates_per_sec = en.updates as f64 / en.secs;

    // Median across passes: robust to a badly disturbed pass.
    ratios.sort_by(|a, b| a.total_cmp(b));
    let median = if ratios.len() % 2 == 1 {
        ratios[ratios.len() / 2]
    } else {
        (ratios[ratios.len() / 2 - 1] + ratios[ratios.len() / 2]) / 2.0
    };

    EngineReport {
        name,
        disabled: dis,
        enabled: en,
        overhead_pct: (median - 1.0) * 100.0,
    }
}

fn main() {
    let fast = dynamis_bench::fast_mode();
    let (n, updates, passes) = if fast {
        (10_000, 20_000, 5)
    } else {
        (100_000, 200_000, 9)
    };
    let (beta, avg_degree, seed) = (2.4, 8.0, 77);

    eprintln!("obs: building Chung-Lu base graph (n = {n}, beta = {beta}, d = {avg_degree})");
    let base = chung_lu(n, beta, avg_degree, seed);
    let ups =
        UpdateStream::new(&base, StreamConfig::default(), seed ^ 0xfeed).take_updates(updates);
    eprintln!(
        "obs: m = {}, {} updates; {passes} interleaved passes ({CHUNK}-update chunks) x 2 engines",
        base.num_edges(),
        ups.len()
    );

    let build1 = {
        let base: DynamicGraph = base.clone();
        move || -> DyOneSwap { EngineBuilder::on(base.clone()).build_as().unwrap() }
    };
    let build2 = {
        let base = base.clone();
        move || -> DyTwoSwap { EngineBuilder::on(base.clone()).build_as().unwrap() }
    };
    let reports = vec![
        bench_engine("DyOneSwap", build1, &ups, passes),
        bench_engine("DyTwoSwap", build2, &ups, passes),
    ];

    // The enabled chunks above populated the global registry; a
    // zero-count core histogram here means the gate never opened and
    // the "overhead" numbers are vacuous.
    let snap = dynamis_obs::global().snapshot();
    let core_samples = snap.histogram("core_apply_ns").map_or(0, |h| h.count);
    assert!(
        core_samples > 0,
        "enabled chunks must record core_apply_ns samples"
    );

    let mut table = dynamis_bench::Table::new(vec![
        "engine",
        "off updates/s",
        "on updates/s",
        "overhead %",
    ]);
    for r in &reports {
        table.row(vec![
            r.name.to_string(),
            format!("{:.0}", r.disabled.updates_per_sec),
            format!("{:.0}", r.enabled.updates_per_sec),
            format!("{:+.2}", r.overhead_pct),
        ]);
    }
    table.print();

    let enforce = std::env::var("DYNAMIS_ENFORCE_OVERHEAD").is_ok_and(|v| v == "1");
    for r in &reports {
        if enforce {
            assert!(
                r.overhead_pct <= MAX_OVERHEAD_PCT,
                "{}: telemetry overhead {:.2}% exceeds the {MAX_OVERHEAD_PCT}% budget",
                r.name,
                r.overhead_pct
            );
        } else if r.overhead_pct > MAX_OVERHEAD_PCT {
            eprintln!(
                "obs: WARNING {}: overhead {:.2}% exceeds {MAX_OVERHEAD_PCT}% \
                 (not enforced; set DYNAMIS_ENFORCE_OVERHEAD=1 to fail)",
                r.name, r.overhead_pct
            );
        }
    }

    let Ok(out) = std::env::var("DYNAMIS_BENCH_OUT") else {
        return;
    };
    let mut json = String::new();
    writeln!(json, "{{").unwrap();
    writeln!(json, "  \"bench\": \"obs-overhead\",").unwrap();
    writeln!(
        json,
        "  \"workload\": {{\"model\": \"chung_lu\", \"n\": {n}, \"beta\": {beta}, \
         \"avg_degree\": {avg_degree}, \"updates\": {}, \"seed\": {seed}, \
         \"passes\": {passes}, \"chunk\": {CHUNK}, \"fast\": {fast}}},",
        ups.len()
    )
    .unwrap();
    writeln!(json, "  \"max_overhead_pct\": {MAX_OVERHEAD_PCT},").unwrap();
    writeln!(json, "  \"enforced\": {enforce},").unwrap();
    writeln!(json, "  \"engines\": [").unwrap();
    for (i, r) in reports.iter().enumerate() {
        writeln!(
            json,
            "    {{\"name\": \"{}\", \
             \"disabled\": {{\"secs\": {:.4}, \"updates\": {}, \"updates_per_sec\": {:.1}}}, \
             \"enabled\": {{\"secs\": {:.4}, \"updates\": {}, \"updates_per_sec\": {:.1}}}, \
             \"overhead_pct\": {:.3}}}{}",
            r.name,
            r.disabled.secs,
            r.disabled.updates,
            r.disabled.updates_per_sec,
            r.enabled.secs,
            r.enabled.updates,
            r.enabled.updates_per_sec,
            r.overhead_pct,
            if i + 1 < reports.len() { "," } else { "" }
        )
        .unwrap();
    }
    writeln!(json, "  ],").unwrap();
    writeln!(json, "  \"snapshot\": {}", snap.to_json()).unwrap();
    writeln!(json, "}}").unwrap();

    std::fs::write(&out, &json).expect("write bench report");
    eprintln!("obs: wrote {out}");
}
