//! The load generator: simulates many concurrent client connections
//! (readers ≫ writers) against one server and reports latency
//! percentiles, ingest throughput (applied updates only), and
//! delta-stream integrity.
//!
//! Subscribers dominate, so they are cheap: each pool thread owns up
//! to a few thousand non-blocking subscription sockets and sweeps them
//! with [`Subscription::poll_events`], tracking only sequence-number
//! integrity per socket (exactly-once, in-order, nothing lost). A
//! handful of *verifier* subscribers additionally maintain a full
//! [`RemoteMirror`] so the stream's content — not just its numbering —
//! is checked against the server's snapshot at the end. Writers are
//! full request/response clients measuring per-call round-trip times;
//! each owns a disjoint class of vertex pairs, inserts only pairs it
//! has not seen present, and removes only edges it inserted, so its
//! updates apply.

use crate::client::{NetClient, RemoteMirror, SubEvent, Subscription};
use crate::error::NetError;
use dynamis_core::EngineError;
use dynamis_graph::Update;
use dynamis_obs::Histogram;
use rand::{rngs::SmallRng, Rng, SeedableRng};
use std::collections::HashSet;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Subscriber sockets per pool thread.
const POOL_SIZE: usize = 2500;
/// Subscribers that maintain a full verifying mirror.
const VERIFIERS: usize = 4;
/// Draws a writer makes for a free pair of its class before it deems
/// the class full.
const MAX_DRAWS: usize = 1024;

/// Parameters of one load run.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Server address, e.g. `"127.0.0.1:4820"`.
    pub addr: String,
    /// Concurrent subscription connections.
    pub subscribers: usize,
    /// Concurrent writer connections.
    pub writers: usize,
    /// Total updates across all writers.
    pub updates: usize,
    /// Writers draw edge endpoints from `0..vertices`. Every id in it
    /// must be a live vertex of the served graph, or its updates are
    /// rejected; the server does not report its vertex count.
    pub vertices: u32,
    /// Updates per `ApplyBatch` request (1 = single-update `Apply`).
    pub batch: usize,
    /// Deterministic stream seed.
    pub seed: u64,
    /// Seed every subscriber from a snapshot cold-start
    /// ([`NetClient::bootstrap`]) instead of replaying from sequence 0.
    pub bootstrap: bool,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            addr: "127.0.0.1:4820".into(),
            subscribers: 1000,
            writers: 2,
            updates: 10_000,
            vertices: 10_000,
            batch: 16,
            seed: 42,
            bootstrap: false,
        }
    }
}

/// What one load run measured.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Subscription connections that reached the server.
    pub subscribers: usize,
    /// Writer connections.
    pub writers: usize,
    /// Updates sent (applied + rejected, excluding busy retries).
    pub updates: u64,
    /// Updates the engine applied.
    pub applied: u64,
    /// Updates the engine rejected (typed verdicts). Writers send only
    /// updates they expect to apply, so the one rejection a correct
    /// run owes is an insert of an edge the served graph already held.
    pub rejected: u64,
    /// Requests shed with `Busy` (each was retried until accepted).
    pub busy_retries: u64,
    /// Wall-clock seconds of the write phase.
    pub elapsed_s: f64,
    /// Applied updates per second through the write phase. Rejected
    /// updates are answered but not counted.
    pub throughput: f64,
    /// Median request round-trip, microseconds. Percentiles come from a
    /// lock-free log-bucketed [`Histogram`] shared by every writer
    /// thread (no per-call `Vec` growth, no end-of-run sort); each is a
    /// bucket upper bound, within
    /// [`dynamis_obs::MAX_QUANTILE_ERROR`] of the exact rank value.
    pub p50_us: u64,
    /// 95th-percentile round-trip.
    pub p95_us: u64,
    /// 99th-percentile round-trip.
    pub p99_us: u64,
    /// Worst observed round-trip.
    pub max_us: u64,
    /// Delta events delivered across every subscriber.
    pub sub_events: u64,
    /// Checkpoint fallbacks delivered.
    pub sub_checkpoints: u64,
    /// Sequence-number gaps observed (must be 0).
    pub gaps: u64,
    /// Deltas subscribers never received before the drain deadline
    /// (must be 0).
    pub lost_deltas: u64,
    /// Subscriber reconnect-and-resume cycles (dropped by the server
    /// under pressure, resumed from the last applied seq).
    pub reconnects: u64,
    /// Verifying mirrors whose final solution matched the server's
    /// snapshot exactly.
    pub verified_mirrors: usize,
    /// Verifying-mirror apply failures (gaps, contradictions; must be 0).
    pub mirror_errors: u64,
    /// Final broadcast-log head.
    pub final_head: u64,
    /// Snapshot cold-starts performed (one per subscriber when
    /// [`LoadConfig::bootstrap`] is set).
    pub bootstraps: u64,
    /// Median round-trip of `Busy` sheds, microseconds. Sheds are
    /// accounted in their own histogram — `busy_retries` counts them,
    /// this times them — and never pollute the service-time
    /// percentiles above.
    pub busy_p50_us: u64,
    /// Worst observed `Busy` round-trip.
    pub busy_max_us: u64,
}

impl LoadReport {
    /// Flat JSON object (handwritten — no serialization dependency).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"subscribers\": {}, \"writers\": {}, \"updates\": {}, ",
                "\"applied\": {}, \"rejected\": {}, \"busy_retries\": {}, ",
                "\"elapsed_s\": {:.3}, \"applied_upd_s\": {:.0}, ",
                "\"p50_us\": {}, \"p95_us\": {}, \"p99_us\": {}, \"max_us\": {}, ",
                "\"sub_events\": {}, \"sub_checkpoints\": {}, \"gaps\": {}, ",
                "\"lost_deltas\": {}, \"reconnects\": {}, ",
                "\"verified_mirrors\": {}, \"mirror_errors\": {}, \"final_head\": {}, ",
                "\"bootstraps\": {}, \"busy_p50_us\": {}, \"busy_max_us\": {}}}"
            ),
            self.subscribers,
            self.writers,
            self.updates,
            self.applied,
            self.rejected,
            self.busy_retries,
            self.elapsed_s,
            self.throughput,
            self.p50_us,
            self.p95_us,
            self.p99_us,
            self.max_us,
            self.sub_events,
            self.sub_checkpoints,
            self.gaps,
            self.lost_deltas,
            self.reconnects,
            self.verified_mirrors,
            self.mirror_errors,
            self.final_head,
            self.bootstraps,
            self.busy_p50_us,
            self.busy_max_us
        )
    }
}

struct SubState {
    sub: Subscription,
    last_seq: u64,
    events: u64,
    checkpoints: u64,
    gaps: u64,
    closed: bool,
    verifier: Option<RemoteMirror>,
    verifier_errors: u64,
}

#[derive(Default)]
struct PoolSummary {
    events: u64,
    checkpoints: u64,
    gaps: u64,
    lost: u64,
    reconnects: u64,
    mirror_errors: u64,
    bootstraps: u64,
    verifier_solutions: Vec<(u64, Vec<u32>)>,
}

struct WriterSummary {
    applied: u64,
    rejected: u64,
    busy: u64,
}

/// Runs one load scenario against a listening server. Blocks until
/// writers finished, the ingest queue drained, and every subscriber
/// either caught up to the final head or hit the drain deadline.
pub fn run(cfg: &LoadConfig) -> Result<LoadReport, NetError> {
    let final_head = Arc::new(AtomicU64::new(0));

    // --- subscriber pools -------------------------------------------------
    let mut pool_joins = Vec::new();
    let mut global = 0usize;
    while global < cfg.subscribers {
        let count = POOL_SIZE.min(cfg.subscribers - global);
        let addr = cfg.addr.clone();
        let head = Arc::clone(&final_head);
        let start_idx = global;
        let bootstrap = cfg.bootstrap;
        global += count;
        pool_joins.push(
            thread::Builder::new()
                .name("net-load-subs".into())
                .spawn(move || pool_thread(&addr, start_idx, count, bootstrap, &head))
                .expect("failed to spawn subscriber pool thread"),
        );
    }

    // --- writers ----------------------------------------------------------
    // One lock-free histogram shared by every writer: each call records
    // a few relaxed atomic adds, and the percentiles fall out of the
    // merged snapshot (no Vec growth, no sort). Busy sheds go into
    // their own histogram — a shed's round trip measures the backoff
    // path, not service time, and must never poison the percentiles.
    let latency_us = Arc::new(Histogram::new());
    let busy_us = Arc::new(Histogram::new());
    let per_writer = cfg.updates / cfg.writers.max(1);
    let started = Instant::now();
    let mut writer_joins = Vec::new();
    for w in 0..cfg.writers {
        let addr = cfg.addr.clone();
        let n = if w == 0 {
            cfg.updates - per_writer * (cfg.writers - 1)
        } else {
            per_writer
        };
        let book = PairBook::new(w, cfg.writers, cfg.vertices);
        let (batch, seed) = (cfg.batch.max(1), cfg.seed + w as u64);
        let lat = Arc::clone(&latency_us);
        let busy = Arc::clone(&busy_us);
        writer_joins.push(
            thread::Builder::new()
                .name("net-load-writer".into())
                .spawn(move || writer_thread(&addr, n, book, batch, seed, &lat, &busy))
                .expect("failed to spawn writer thread"),
        );
    }

    let mut report = LoadReport {
        subscribers: cfg.subscribers,
        writers: cfg.writers,
        ..LoadReport::default()
    };
    for j in writer_joins {
        let w = j.join().expect("writer thread panicked")?;
        report.applied += w.applied;
        report.rejected += w.rejected;
        report.busy_retries += w.busy;
    }
    report.updates = report.applied + report.rejected;
    report.elapsed_s = started.elapsed().as_secs_f64();
    report.throughput = report.applied as f64 / report.elapsed_s.max(1e-9);
    let lat = latency_us.snapshot();
    report.p50_us = lat.quantile(0.50);
    report.p95_us = lat.quantile(0.95);
    report.p99_us = lat.quantile(0.99);
    report.max_us = lat.max;
    let busy = busy_us.snapshot();
    report.busy_p50_us = busy.quantile(0.50);
    report.busy_max_us = busy.max;

    // --- drain: wait for the queue to empty, then release the pools ------
    let mut probe = NetClient::connect(&cfg.addr)?;
    let drain_deadline = Instant::now() + Duration::from_secs(60);
    let head = loop {
        let s = probe.stats()?;
        if s.queue_depth == 0 {
            break s.head_seq;
        }
        if Instant::now() > drain_deadline {
            break s.head_seq;
        }
        thread::sleep(Duration::from_millis(2));
    };
    report.final_head = head;
    final_head.store(head.max(1), Ordering::SeqCst);

    for j in pool_joins {
        let p = j.join().expect("subscriber pool thread panicked")?;
        report.sub_events += p.events;
        report.sub_checkpoints += p.checkpoints;
        report.gaps += p.gaps;
        report.lost_deltas += p.lost;
        report.reconnects += p.reconnects;
        report.mirror_errors += p.mirror_errors;
        report.bootstraps += p.bootstraps;
        for (seq, solution) in p.verifier_solutions {
            if seq == head {
                let (snap_seq, snap) = probe.snapshot()?;
                if snap_seq == seq && snap == solution {
                    report.verified_mirrors += 1;
                }
            }
        }
    }
    Ok(report)
}

fn pool_thread(
    addr: &str,
    start_idx: usize,
    count: usize,
    bootstrap: bool,
    final_head: &AtomicU64,
) -> Result<PoolSummary, NetError> {
    let mut summary = PoolSummary::default();
    let mut subs = Vec::with_capacity(count);
    for i in 0..count {
        let start = connect_sub(addr, 0, bootstrap)?;
        start.sub.set_nonblocking(true)?;
        let mut verifier = (start_idx + i < VERIFIERS).then(RemoteMirror::new);
        if let (Some(m), Some((seq, solution))) = (verifier.as_mut(), start.checkpoint.as_ref()) {
            // Seed the verifying mirror exactly the way a production
            // cold-start would: apply the bootstrap checkpoint, then
            // let the stream continue from its sequence number.
            m.apply_event(&SubEvent::Checkpoint {
                seq: *seq,
                solution: solution.clone(),
            })?;
        }
        if start.checkpoint.is_some() {
            summary.bootstraps += 1;
        }
        subs.push(SubState {
            sub: start.sub,
            last_seq: start.seq,
            events: 0,
            checkpoints: 0,
            gaps: 0,
            closed: false,
            verifier,
            verifier_errors: 0,
        });
    }
    let mut drain_deadline: Option<Instant> = None;
    loop {
        let target = final_head.load(Ordering::SeqCst);
        let mut any_progress = false;
        let mut all_done = target != 0;
        for st in subs.iter_mut() {
            if st.closed {
                // Reconnect and resume from the last applied sequence —
                // the production recovery path for a shed subscriber
                // (no re-bootstrap, resume carries state).
                match connect_sub(addr, st.last_seq, false) {
                    Ok(start) => {
                        let _ = start.sub.set_nonblocking(true);
                        st.sub = start.sub;
                        st.closed = false;
                        summary.reconnects += 1;
                    }
                    Err(_) => {
                        all_done = false;
                        continue;
                    }
                }
            }
            let before = st.events;
            let res = st.sub.poll_events(|ev| {
                st.events += 1;
                match &ev {
                    SubEvent::Delta { seq, .. } => {
                        if *seq != st.last_seq + 1 {
                            st.gaps += 1;
                        }
                        st.last_seq = *seq;
                    }
                    SubEvent::Checkpoint { seq, .. } => {
                        st.checkpoints += 1;
                        st.last_seq = *seq;
                    }
                }
                if let Some(m) = st.verifier.as_mut() {
                    if m.apply_event(&ev).is_err() {
                        st.verifier_errors += 1;
                    }
                }
            });
            match res {
                Ok(true) => {}
                Ok(false) | Err(_) => st.closed = true,
            }
            any_progress |= st.events != before;
            if st.last_seq < target || st.closed {
                all_done = false;
            }
        }
        if target != 0 {
            let dl =
                *drain_deadline.get_or_insert_with(|| Instant::now() + Duration::from_secs(60));
            if all_done || Instant::now() > dl {
                break;
            }
        }
        if !any_progress {
            thread::sleep(Duration::from_millis(1));
        }
    }
    let target = final_head.load(Ordering::SeqCst);
    for st in subs {
        summary.events += st.events;
        summary.checkpoints += st.checkpoints;
        summary.gaps += st.gaps;
        summary.lost += target.saturating_sub(st.last_seq);
        summary.mirror_errors += st.verifier_errors;
        if let Some(m) = st.verifier {
            summary.verifier_solutions.push((m.seq(), m.solution()));
        }
    }
    Ok(summary)
}

/// A freshly established subscription: the stream itself, the sequence
/// number it starts after, and (when cold-started) the bootstrap
/// checkpoint used to seed it.
struct SubStart {
    sub: Subscription,
    seq: u64,
    checkpoint: Option<(u64, Vec<u32>)>,
}

fn connect_sub(addr: &str, after_seq: u64, bootstrap: bool) -> Result<SubStart, NetError> {
    // The session cap (or a full accept backlog during a 10k-connection
    // ramp) answers Busy: back off briefly and retry a few times.
    let mut tries = 0;
    loop {
        let attempt = (|| {
            let mut client = NetClient::connect(addr)?;
            let (resume, checkpoint) = if bootstrap {
                // Snapshot cold-start: seed from the server's base
                // checkpoint and subscribe right after it — no replay
                // from sequence 0.
                let (seq, members) = client.bootstrap()?;
                (seq, Some((seq, members)))
            } else {
                (after_seq, None)
            };
            let sub = client.subscribe(resume)?;
            Ok(SubStart {
                sub,
                seq: resume,
                checkpoint,
            })
        })();
        match attempt {
            Ok(start) => return Ok(start),
            Err(e) => {
                tries += 1;
                if tries > 50 {
                    return Err(e);
                }
                thread::sleep(Duration::from_millis(2 * tries));
            }
        }
    }
}

/// Routes one writer round-trip sample into the right histogram: a
/// successful call feeds the service-time percentiles, a `Busy` shed
/// feeds the separate shed histogram. Keeping the routing in one
/// place pins the invariant that shed round trips (which measure the
/// backoff path, not service time) can never leak into the latency
/// percentiles the report advertises.
fn record_rtt(shed: bool, us: u64, latency_us: &Histogram, busy_us: &Histogram) {
    if shed {
        busy_us.record(us);
    } else {
        latency_us.record(us);
    }
}

/// One writer's share of the vertex pairs, and what it knows of them.
/// Writer `class` of `of` touches only the unordered pairs `{a, b}`
/// with `(a + b) % of == class`, so no writer can invalidate another
/// writer's update. It removes only pairs it inserted and saw applied,
/// and never inserts a pair that is live, in flight, or that the server
/// refused as already present — so the only rejection left is an
/// insert of an edge the served graph held before the run.
struct PairBook {
    class: u64,
    of: u64,
    vertices: u32,
    /// Pairs inserted and seen applied: the only removable ones.
    live: Vec<(u32, u32)>,
    /// Pairs not to insert: live, in flight, or refused as present.
    taken: HashSet<(u32, u32)>,
}

impl PairBook {
    fn new(class: usize, of: usize, vertices: u32) -> PairBook {
        PairBook {
            class: class as u64,
            of: of as u64,
            vertices,
            live: Vec::new(),
            taken: HashSet::new(),
        }
    }

    /// A pair of this class that is not taken, or `None` if
    /// [`MAX_DRAWS`] draws found none.
    fn free_pair(&self, rng: &mut SmallRng) -> Option<(u32, u32)> {
        let n = u64::from(self.vertices);
        if n < 2 {
            return None;
        }
        for _ in 0..MAX_DRAWS {
            let a = rng.gen_range(0..n);
            // `a`'s partners in this class: b ≡ class − a (mod of).
            let first = (self.class + self.of - a % self.of) % self.of;
            if first >= n {
                continue;
            }
            let b = first + self.of * rng.gen_range(0..(n - 1 - first) / self.of + 1);
            // Both ids are below `vertices`, a u32.
            let pair = (a.min(b) as u32, a.max(b) as u32);
            if a != b && !self.taken.contains(&pair) {
                return Some(pair);
            }
        }
        None
    }

    /// Draws up to `take` updates, half of them removals while any
    /// pair is removable. Pairs inserted in this batch become removable
    /// only once [`PairBook::settle`] sees their verdicts. Returns fewer
    /// when the class has no free pair and nothing to remove.
    fn next_batch(&mut self, rng: &mut SmallRng, take: usize) -> Vec<Update> {
        let mut batch = Vec::with_capacity(take);
        while batch.len() < take {
            let remove = !self.live.is_empty() && rng.gen_bool(0.5);
            match if remove { None } else { self.free_pair(rng) } {
                Some(pair) => {
                    self.taken.insert(pair);
                    batch.push(Update::InsertEdge(pair.0, pair.1));
                }
                None if !self.live.is_empty() => {
                    let (a, b) = self.live.swap_remove(rng.gen_range(0..self.live.len()));
                    batch.push(Update::RemoveEdge(a, b));
                }
                None => break,
            }
        }
        batch
    }

    /// Records a batch's verdicts: an applied insert becomes removable,
    /// a refused one stays taken (the edge was already present), and a
    /// removal frees its pair either way (the edge is gone).
    fn settle(&mut self, updates: &[Update], verdicts: &[Result<u64, EngineError>]) {
        for (u, v) in updates.iter().zip(verdicts) {
            match *u {
                Update::InsertEdge(a, b) if v.is_ok() => self.live.push((a, b)),
                Update::RemoveEdge(a, b) => {
                    self.taken.remove(&(a, b));
                }
                _ => {}
            }
        }
    }
}

fn writer_thread(
    addr: &str,
    n: usize,
    mut book: PairBook,
    batch: usize,
    seed: u64,
    latency_us: &Histogram,
    busy_us: &Histogram,
) -> Result<WriterSummary, NetError> {
    let mut client = NetClient::connect(addr)?;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = WriterSummary {
        applied: 0,
        rejected: 0,
        busy: 0,
    };
    let mut sent = 0usize;
    while sent < n {
        let updates = book.next_batch(&mut rng, batch.min(n - sent));
        if updates.is_empty() {
            return Err(NetError::Io(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a writer's class of vertex pairs is full: too few vertices for the run",
            )));
        }
        sent += updates.len();
        // Retry the same batch through Busy sheds: admission control
        // parks the client, never the combining submitter inside the
        // server.
        loop {
            let t = Instant::now();
            match client.apply_batch(updates.clone()) {
                Ok(verdicts) => {
                    record_rtt(false, t.elapsed().as_micros() as u64, latency_us, busy_us);
                    for v in &verdicts {
                        match v {
                            Ok(_) => out.applied += 1,
                            Err(_) => out.rejected += 1,
                        }
                    }
                    book.settle(&updates, &verdicts);
                    break;
                }
                Err(NetError::Busy { .. }) => {
                    record_rtt(true, t.elapsed().as_micros() as u64, latency_us, busy_us);
                    out.busy += 1;
                    thread::sleep(Duration::from_millis(1));
                }
                Err(e) => return Err(e),
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins the error bound the report's percentiles inherit from the
    /// log-bucketed histogram: against an exact sorted-Vec percentile
    /// (the implementation this replaced), every reported quantile is
    /// an overestimate by at most `MAX_QUANTILE_ERROR` relative.
    #[test]
    fn bucket_quantiles_match_exact_percentiles_within_bound() {
        use dynamis_obs::MAX_QUANTILE_ERROR;
        let mut rng = SmallRng::seed_from_u64(7);
        let hist = Histogram::new();
        let mut exact: Vec<u64> = Vec::new();
        for _ in 0..10_000 {
            // Round-trip-like spread: tens of µs to hundreds of ms.
            let us = 10u64 + rng.gen_range(0..1_000_000u64);
            hist.record(us);
            exact.push(us);
        }
        exact.sort_unstable();
        let snap = hist.snapshot();
        for q in [0.50, 0.90, 0.95, 0.99, 1.0] {
            let rank = ((exact.len() as f64 * q).ceil() as usize).clamp(1, exact.len());
            let truth = exact[rank - 1];
            let got = snap.quantile(q);
            assert!(got >= truth, "q{q}: bucket bound {got} below exact {truth}");
            assert!(
                (got - truth) as f64 <= truth as f64 * MAX_QUANTILE_ERROR,
                "q{q}: {got} overshoots exact {truth} beyond {MAX_QUANTILE_ERROR}"
            );
        }
        assert_eq!(snap.max, *exact.last().unwrap(), "max is tracked exactly");
    }

    /// Pins the Busy-shed accounting split: shed round trips go to
    /// their own histogram and never inflate the latency percentiles,
    /// no matter how slow the backoff path is.
    #[test]
    fn busy_samples_never_enter_latency_histogram() {
        let latency = Histogram::new();
        let busy = Histogram::new();
        for _ in 0..100 {
            record_rtt(false, 100, &latency, &busy);
        }
        for _ in 0..100 {
            // Sheds an order of magnitude slower than real service
            // time — exactly the samples that used to poison p99.
            record_rtt(true, 50_000, &latency, &busy);
        }
        let lat = latency.snapshot();
        let shed = busy.snapshot();
        assert_eq!(lat.count, 100);
        assert_eq!(shed.count, 100);
        assert_eq!(lat.max, 100, "no shed sample reached the latency histogram");
        assert!(lat.quantile(0.99) < 50_000);
        assert!(shed.max >= 50_000);
    }

    /// Three writers' books, settled against a shared edge set standing
    /// in for the server: each writer stays in its own class, and the
    /// only rejections are inserts of edges the start graph held.
    #[test]
    fn writers_send_only_updates_that_apply() {
        let vertices = 60u32;
        let start: HashSet<(u32, u32)> = (0..vertices - 1).map(|v| (v, v + 1)).collect();
        let mut edges = start.clone();
        let mut books: Vec<PairBook> = (0..3).map(|w| PairBook::new(w, 3, vertices)).collect();
        let mut rng = SmallRng::seed_from_u64(5);
        let (mut applied, mut refused) = (0, 0);
        for round in 0..400 {
            let w = round % books.len();
            let updates = books[w].next_batch(&mut rng, 8);
            assert_eq!(updates.len(), 8);
            let verdicts: Vec<Result<u64, EngineError>> = updates
                .iter()
                .map(|u| {
                    let (a, b, ok) = match *u {
                        Update::InsertEdge(a, b) => (a, b, edges.insert((a, b))),
                        Update::RemoveEdge(a, b) => (a, b, edges.remove(&(a, b))),
                        _ => unreachable!("writers send edge updates only"),
                    };
                    assert!(a < b && b < vertices);
                    assert_eq!((a + b) as usize % 3, w, "pair outside the writer's class");
                    if ok {
                        applied += 1;
                        Ok(0)
                    } else {
                        assert!(
                            matches!(u, Update::InsertEdge(..)) && start.contains(&(a, b)),
                            "{u:?} was rejected"
                        );
                        refused += 1;
                        Err(EngineError::DuplicateEdge(a, b))
                    }
                })
                .collect();
            books[w].settle(&updates, &verdicts);
        }
        assert!(
            applied > 0 && refused <= start.len(),
            "{applied} / {refused}"
        );
    }
}
