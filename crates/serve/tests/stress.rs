//! Concurrency contract of the serving layer.
//!
//! * **Convergence**: with several reader threads hammering queries
//!   through thousands of mixed updates, every reader's mirror equals
//!   the engine's `solution()` at quiesce — readers only ever consumed
//!   broadcast deltas (there is no engine lock to block on; only the
//!   combining submitter touches the engine).
//! * **Flush on shutdown**: everything submitted before `shutdown()`
//!   is applied and broadcast, and commands queued behind a busy
//!   combiner merge into one round.
//! * **Backpressure**: a full bounded queue fails `try_submit`
//!   deterministically (pinned with a gated engine, not with timing).
//! * **Hand-over**: a combiner runs exactly one round and hands the
//!   role to the owner of the queue head; under random mixed traffic
//!   every submission is accounted for and no hand-over is lost.
//! * **Typed rejections**: invalid updates inside a burst reach their
//!   tickets as `EngineError`s while the rest of the burst applies.

use dynamis_core::{DynamicMis, EngineBuilder, EngineError, SolutionDelta};
use dynamis_gen::adversarial::{AdversarialConfig, AdversarialStream};
use dynamis_gen::uniform::gnm;
use dynamis_gen::{StreamConfig, UpdateStream};
use dynamis_graph::{DynamicGraph, Update};
use dynamis_serve::{MisService, ReaderHandle, ServeConfig, ServeError, ServiceHandle};
use rand::{rngs::SmallRng, Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Barrier, Condvar, Mutex};
use std::thread::{self, JoinHandle, ThreadId};
use std::time::{Duration, Instant};

/// Scale knob: thousands of updates, kept debug-buildable; CI runs
/// this same test under `--release` where it is ~20× faster.
const STRESS_UPDATES: usize = 4000;

#[test]
fn stress_multithreaded_readers_converge_at_quiesce() {
    let g = gnm(150, 400, 42);
    let ups = UpdateStream::new(&g, StreamConfig::default(), 7).take_updates(STRESS_UPDATES);
    let (service, mut reader0) = MisService::spawn(
        EngineBuilder::on(g).k(2),
        ServeConfig {
            queue_updates: 64,
            burst: 128,
            log_window: 64, // small window: force checkpoint resyncs too
            first_seq: 0,
        },
    )
    .unwrap();

    // Two dedicated reader threads querying as fast as they can. The
    // feeder starts only once both have queried: it applies every
    // update on its own thread, fast enough to finish before a reader
    // that is not yet scheduled issues its first query.
    let stop = Arc::new(AtomicBool::new(false));
    let started = Arc::new(Barrier::new(3));
    let reader_threads: Vec<_> = (0..2)
        .map(|_| {
            let mut r = service.reader();
            let stop = Arc::clone(&stop);
            let started = Arc::clone(&started);
            thread::spawn(move || {
                let mut queries = 0u64;
                let mut members = 0u64;
                loop {
                    if r.contains((queries % 512) as u32) {
                        members += 1;
                    }
                    let _ = r.len();
                    queries += 2;
                    if queries == 2 {
                        started.wait();
                    }
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                }
                (r, queries, members)
            })
        })
        .collect();
    started.wait();

    // Feeder: mixed valid updates, every 50th doubled with an invalid
    // one whose ticket must carry the typed rejection.
    let mut tickets = Vec::new();
    let mut invalid = 0u64;
    for (i, u) in ups.iter().enumerate() {
        if i % 50 == 0 {
            let t = service.submit(Update::RemoveVertex(9_999)).unwrap();
            tickets.push((t, true));
            invalid += 1;
        }
        if i % 16 == 0 {
            let t = service.submit(u.clone()).unwrap();
            tickets.push((t, false));
        } else {
            service.submit_detached(u.clone()).unwrap();
        }
    }
    for (t, expect_reject) in tickets {
        match t.wait() {
            Ok(seq) => assert!(!expect_reject, "invalid update got applied at seq {seq}"),
            Err(ServeError::Rejected(e)) => {
                assert!(expect_reject, "valid update rejected: {e}")
            }
            Err(other) => panic!("unexpected ticket failure: {other}"),
        }
    }

    let report = service.shutdown();
    stop.store(true, Ordering::Relaxed);

    assert_eq!(report.stats.applied, STRESS_UPDATES as u64);
    assert_eq!(report.stats.rejected, invalid);
    assert_eq!(report.stats.queue_depth, 0, "shutdown flushed the queue");
    assert!(report.stats.desyncs == 0, "broadcast must never desync");

    // Every reader — the spawn-time one and the per-thread forks —
    // lands exactly on the engine's final solution.
    assert_eq!(reader0.snapshot(), report.solution);
    assert_eq!(reader0.seq(), report.head_seq);
    for h in reader_threads {
        let (mut r, queries, _members) = h.join().unwrap();
        assert!(queries > 0);
        assert_eq!(r.snapshot(), report.solution);
        assert!(r.last_desync().is_none());
    }
}

#[test]
fn shutdown_flushes_everything_already_queued() {
    let g = gnm(60, 150, 3);
    let ups = UpdateStream::new(&g, StreamConfig::edges_only(), 5).take_updates(1500);
    let (service, mut reader) = MisService::spawn(
        EngineBuilder::on(g),
        ServeConfig {
            queue_updates: 4096,
            burst: 64,
            log_window: 128,
            first_seq: 0,
        },
    )
    .unwrap();
    // Everything fire-and-forget; nothing waited on…
    for u in &ups {
        service.submit_detached(u.clone()).unwrap();
    }
    // …yet the report must account for every update.
    let report = service.shutdown();
    assert_eq!(report.stats.submitted, 1500);
    assert_eq!(report.stats.applied, 1500);
    assert_eq!(report.stats.rejected, 0);
    assert_eq!(report.stats.queue_depth, 0);
    assert_eq!(reader.snapshot(), report.solution);

    // Merging happens under contention: a gated engine holds one
    // combiner inside its round while K submitters enqueue behind it,
    // and `shutdown`, called meanwhile, must wait for all of them.
    const K: u32 = 8;
    let gate = Arc::new(Gate::default());
    let (service, mut reader, _calls) = spawn_gated(
        &gate,
        DynamicGraph::from_edges(16, &[]),
        ServeConfig {
            queue_updates: 64,
            burst: 64,
            log_window: 16,
            first_seq: 0,
        },
    );
    let first = submit_from_thread(&service, Update::InsertEdge(0, 1));
    gate.wait_entered(1);
    let feeders: Vec<_> = (2..2 + K)
        .map(|v| {
            let ingest = service.ingest();
            thread::spawn(move || ingest.submit_detached(Update::InsertEdge(0, v)))
        })
        .collect();
    wait_queued(&service, K as u64);
    let done = thread::spawn(move || service.shutdown());
    gate.open();
    join_within(first, "the gated submitter").unwrap();
    for f in feeders {
        join_within(f, "a queued submitter").unwrap();
    }
    let report = join_within(done, "shutdown");
    assert_eq!(report.stats.applied, 1 + K as u64);
    assert_eq!(report.stats.queue_depth, 0);
    assert_eq!(reader.snapshot(), report.solution);
    // The next combiner took all K queued commands as one round.
    assert_eq!(
        report.stats.batches, 2,
        "expected the gated round plus one merged round"
    );
    let mut hist = [0u64; dynamis_serve::HIST_BUCKETS];
    hist[0] = 1; // the gated round of 1
    hist[K.ilog2() as usize] = 1; // the K merged commands
    assert_eq!(report.stats.batch_hist, hist);
}

/// An engine wrapper whose batch application blocks on a gate — makes
/// queue-full states deterministic instead of timing-dependent — and
/// records the thread of every engine call.
struct GatedEngine {
    inner: Box<dyn DynamicMis>,
    gate: Arc<Gate>,
    calls: Arc<Mutex<Vec<ThreadId>>>,
}

/// A gate with permits: `step` lets one engine call through, `open`
/// lets every call through from then on.
#[derive(Default)]
struct Gate {
    state: Mutex<GateState>,
    cv: Condvar,
}

#[derive(Default)]
struct GateState {
    permits: u64,
    entered: u64,
}

impl Gate {
    /// Engine side: announce entry, then wait for a permit.
    fn pass(&self) {
        let mut st = self.state.lock().unwrap();
        st.entered += 1;
        self.cv.notify_all();
        while st.permits == 0 {
            st = self.cv.wait(st).unwrap();
        }
        st.permits -= 1;
    }

    /// Test side: wait until the engine is provably inside `pass`
    /// (failing, not hanging, if it never gets there).
    fn wait_entered(&self, n: u64) {
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut st = self.state.lock().unwrap();
        while st.entered < n {
            let left = deadline.saturating_duration_since(Instant::now());
            assert!(!left.is_zero(), "no engine call #{n} within 10 s");
            st = self.cv.wait_timeout(st, left).unwrap().0;
        }
    }

    fn step(&self) {
        self.state.lock().unwrap().permits += 1;
        self.cv.notify_all();
    }

    fn open(&self) {
        self.state.lock().unwrap().permits = u64::MAX;
        self.cv.notify_all();
    }
}

impl GatedEngine {
    fn enter(&self) {
        self.calls.lock().unwrap().push(thread::current().id());
        self.gate.pass();
    }
}

impl DynamicMis for GatedEngine {
    fn name(&self) -> &'static str {
        "GatedEngine"
    }
    fn graph(&self) -> &DynamicGraph {
        self.inner.graph()
    }
    fn try_apply(&mut self, u: &Update) -> Result<SolutionDelta, EngineError> {
        self.enter();
        self.inner.try_apply(u)
    }
    fn try_apply_batch(&mut self, updates: &[Update]) -> Result<SolutionDelta, EngineError> {
        self.enter();
        self.inner.try_apply_batch(updates)
    }
    fn drain_delta(&mut self) -> SolutionDelta {
        self.inner.drain_delta()
    }
    fn size(&self) -> usize {
        self.inner.size()
    }
    fn solution(&self) -> Vec<u32> {
        self.inner.solution()
    }
    fn contains(&self, v: u32) -> bool {
        self.inner.contains(v)
    }
    fn heap_bytes(&self) -> usize {
        self.inner.heap_bytes()
    }
}

/// A service over a [`GatedEngine`] on `g`, plus the engine's call log.
fn spawn_gated(
    gate: &Arc<Gate>,
    g: DynamicGraph,
    cfg: ServeConfig,
) -> (ServiceHandle, ReaderHandle, Arc<Mutex<Vec<ThreadId>>>) {
    let calls = Arc::new(Mutex::new(Vec::new()));
    let (gate, engine_calls) = (Arc::clone(gate), Arc::clone(&calls));
    let (service, reader) = MisService::spawn_with(
        move || {
            Ok(Box::new(GatedEngine {
                inner: EngineBuilder::on(g).build()?,
                gate,
                calls: engine_calls,
            }))
        },
        cfg,
    )
    .unwrap();
    (service, reader, calls)
}

/// Submits `u` from a new thread: with a gated engine the submitter
/// may run the round itself and block inside it.
fn submit_from_thread(service: &ServiceHandle, u: Update) -> JoinHandle<Result<u64, ServeError>> {
    let ingest = service.ingest();
    thread::spawn(move || ingest.submit(u).and_then(|t| t.wait()))
}

/// Joins `h`, failing instead of hanging if it does not finish in 10 s.
fn join_within<T>(h: JoinHandle<T>, what: &str) -> T {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !h.is_finished() {
        assert!(Instant::now() < deadline, "{what} did not return");
        thread::sleep(Duration::from_millis(1));
    }
    h.join().expect("a submitter must not unwind")
}

/// Waits until at least `n` updates sit in the queue.
fn wait_queued(service: &ServiceHandle, n: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while service.stats().queue_depth < n {
        assert!(Instant::now() < deadline, "{n} updates never queued");
        thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn bounded_queue_applies_backpressure() {
    let gate = Arc::new(Gate::default());
    let (service, _reader, _calls) = spawn_gated(
        &gate,
        DynamicGraph::from_edges(6, &[(0, 1), (2, 3)]),
        ServeConfig {
            queue_updates: 1,
            burst: 1,
            log_window: 16,
            first_seq: 0,
        },
    );

    // First submission: its submitter finds the engine free, runs the
    // round on its own thread and blocks inside the engine (provably —
    // we wait for the gate entry).
    let first = submit_from_thread(&service, Update::InsertEdge(0, 2));
    gate.wait_entered(1);
    // Second submission parks in the queue's single slot.
    let second = submit_from_thread(&service, Update::InsertEdge(1, 3));
    wait_queued(&service, 1);
    // The queue is now full: the non-blocking path must say so.
    match service.try_submit(Update::InsertEdge(4, 5)) {
        Err(ServeError::QueueFull) => {}
        other => panic!("expected QueueFull, got {other:?}"),
    }
    assert!(service.stats().queue_depth >= 1);

    // Open the gate: everything flows, both submitters return applied.
    gate.open();
    join_within(first, "the gated submitter").unwrap();
    join_within(second, "the queued submitter").unwrap();
    // The rejected-by-backpressure update was never queued; submitting
    // it again (blocking) succeeds now.
    service
        .submit(Update::InsertEdge(4, 5))
        .unwrap()
        .wait()
        .unwrap();
    let report = service.shutdown();
    assert_eq!(report.stats.applied, 3);
    assert_eq!(report.engine, "GatedEngine");
}

#[test]
fn combiner_hands_the_role_to_the_queue_head() {
    let gate = Arc::new(Gate::default());
    let (service, _reader, calls) = spawn_gated(
        &gate,
        DynamicGraph::from_edges(8, &[]),
        ServeConfig {
            queue_updates: 64,
            burst: 64,
            log_window: 16,
            first_seq: 0,
        },
    );
    // A finds the engine free and combines; the gate holds its round.
    let a = submit_from_thread(&service, Update::InsertEdge(0, 1));
    gate.wait_entered(1);
    // B, then C, enqueue behind it.
    let b = submit_from_thread(&service, Update::InsertEdge(2, 3));
    wait_queued(&service, 1);
    let c = submit_from_thread(&service, Update::InsertEdge(4, 5));
    wait_queued(&service, 2);
    let (ta, tb) = (a.thread().id(), b.thread().id());

    // One permit: A's round completes, and A returns while the next
    // round is still held at the gate — it ran its own round only.
    gate.step();
    let seq_a = join_within(a, "A, after its own round").unwrap();
    gate.wait_entered(2);
    assert_eq!(
        *calls.lock().unwrap(),
        [ta, tb],
        "the second round must run on B's thread, the owner of the queue head"
    );
    gate.open();
    let seq_b = join_within(b, "B").unwrap();
    let seq_c = join_within(c, "C").unwrap();
    assert!(seq_a < seq_b);
    assert_eq!(seq_b, seq_c, "C's command rides in B's round");
    let report = service.shutdown();
    assert_eq!(report.stats.batches, 2);
    assert_eq!(calls.lock().unwrap().len(), 2, "C never ran a round");
}

/// One randomized hand-over run: 4 threads make 500 submissions each
/// through every submit variant against a small queue.
fn handover_run(seed: u64) {
    const N: u32 = 64;
    let (service, mut reader) = MisService::spawn(
        EngineBuilder::on(gnm(N as usize, 160, seed)).k(2),
        ServeConfig {
            queue_updates: 16,
            burst: 8,
            log_window: 32,
            first_seq: 0,
        },
    )
    .unwrap();
    let feeders: Vec<_> = (0..4u64)
        .map(|t| {
            let ingest = service.ingest();
            thread::spawn(move || {
                let mut rng = SmallRng::seed_from_u64(seed * 8 + t);
                let update = |rng: &mut SmallRng| {
                    let a = rng.gen_range(0..N);
                    let b = (a + 1 + rng.gen_range(0..N - 1)) % N;
                    if rng.gen_bool(0.5) {
                        Update::InsertEdge(a, b)
                    } else {
                        Update::RemoveEdge(a, b)
                    }
                };
                let mut admitted = 0u64;
                for _ in 0..500 {
                    // Batches of 1..20 (oversized ones pass the gate
                    // alone), each with a dead-vertex update that the
                    // engine must reject mid-batch.
                    let len = rng.gen_range(1..21usize);
                    let mut batch: Vec<Update> = (1..len).map(|_| update(&mut rng)).collect();
                    batch.insert(rng.gen_range(0..len), Update::RemoveVertex(9_999));
                    match rng.gen_range(0..5u32) {
                        0 => match ingest.submit(update(&mut rng)).unwrap().wait() {
                            Ok(_) | Err(ServeError::Rejected(_)) => admitted += 1,
                            Err(e) => panic!("submit: {e}"),
                        },
                        1 => {
                            let verdicts = ingest.submit_batch(batch).unwrap().wait().unwrap();
                            assert_eq!(verdicts.len(), len);
                            assert!(verdicts.iter().any(|v| v.is_err()));
                            admitted += len as u64;
                        }
                        2 => match ingest.try_submit(update(&mut rng)) {
                            Ok(_) => admitted += 1,
                            Err(ServeError::QueueFull) => {}
                            Err(e) => panic!("try_submit: {e}"),
                        },
                        3 => {
                            ingest.submit_detached(update(&mut rng)).unwrap();
                            admitted += 1;
                        }
                        _ => {
                            ingest.submit_batch_detached(batch).unwrap();
                            admitted += len as u64;
                        }
                    }
                }
                admitted
            })
        })
        .collect();
    let submitted: u64 = feeders.into_iter().map(|h| h.join().unwrap()).sum();
    let report = service.shutdown();
    assert_eq!(report.stats.submitted, submitted);
    assert_eq!(report.stats.applied + report.stats.rejected, submitted);
    assert_eq!(report.stats.queue_depth, 0);
    assert_eq!(reader.snapshot(), report.solution);
}

#[test]
fn randomized_handover_accounts_for_every_submission() {
    for iteration in 0..20u64 {
        let (tx, rx) = mpsc::channel();
        thread::spawn(move || {
            handover_run(iteration);
            let _ = tx.send(());
        });
        match rx.recv_timeout(Duration::from_secs(10)) {
            Ok(()) => {}
            Err(RecvTimeoutError::Timeout) => {
                panic!("iteration {iteration} stalled: a submitter was never resolved")
            }
            Err(RecvTimeoutError::Disconnected) => panic!("iteration {iteration} failed"),
        }
    }
}

/// An engine that waits at the gate, then panics — models a buggy
/// custom `DynamicMis` dying mid-apply.
struct PanickingEngine {
    inner: Box<dyn DynamicMis>,
    gate: Arc<Gate>,
}

impl DynamicMis for PanickingEngine {
    fn name(&self) -> &'static str {
        "PanickingEngine"
    }
    fn graph(&self) -> &DynamicGraph {
        self.inner.graph()
    }
    fn try_apply(&mut self, _u: &Update) -> Result<SolutionDelta, EngineError> {
        self.gate.pass();
        panic!("engine bug");
    }
    fn try_apply_batch(&mut self, _updates: &[Update]) -> Result<SolutionDelta, EngineError> {
        self.gate.pass();
        panic!("engine bug");
    }
    fn drain_delta(&mut self) -> SolutionDelta {
        self.inner.drain_delta()
    }
    fn size(&self) -> usize {
        self.inner.size()
    }
    fn solution(&self) -> Vec<u32> {
        self.inner.solution()
    }
    fn contains(&self, v: u32) -> bool {
        self.inner.contains(v)
    }
    fn heap_bytes(&self) -> usize {
        self.inner.heap_bytes()
    }
}

#[test]
fn writer_panic_unblocks_parked_feeders() {
    let gate = Arc::new(Gate::default());
    let factory_gate = Arc::clone(&gate);
    let (service, _reader) = MisService::spawn_with(
        move || {
            let g = DynamicGraph::from_edges(6, &[(0, 1), (2, 3)]);
            Ok(Box::new(PanickingEngine {
                inner: EngineBuilder::on(g).build()?,
                gate: factory_gate,
            }))
        },
        ServeConfig {
            queue_updates: 1,
            burst: 1,
            log_window: 16,
            first_seq: 0,
        },
    )
    .unwrap();

    // First update: its submitter combines and blocks at the gate.
    let in_round = submit_from_thread(&service, Update::InsertEdge(0, 2));
    gate.wait_entered(1);
    // Second update: occupies the queue's single slot.
    let queued = submit_from_thread(&service, Update::InsertEdge(1, 3));
    wait_queued(&service, 1);
    // Third feeder: parks in the backpressure gate (or arrives after the
    // crash — either way it must FAIL, not hang forever).
    let parked = submit_from_thread(&service, Update::InsertEdge(4, 5));
    // Let the engine "crash": the combiner catches the panic and closes
    // the service, so the in-round, queued and parked submitters all
    // return `Stopped` instead of unwinding or hanging.
    gate.open();
    for (who, h) in [
        ("in-round", in_round),
        ("queued", queued),
        ("parked", parked),
    ] {
        match join_within(h, who) {
            Err(ServeError::Stopped) => {}
            other => panic!("{who} submitter should observe Stopped, got {other:?}"),
        }
    }
    // The dead service rejects any further submit, and `shutdown`
    // reports the engine panic.
    assert!(matches!(
        service.submit(Update::InsertEdge(4, 5)),
        Err(ServeError::Stopped)
    ));
    let shutdown = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| service.shutdown()));
    assert!(shutdown.is_err());
}

#[test]
fn batch_tickets_carry_per_update_verdicts() {
    let g = DynamicGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
    let (service, mut reader) =
        MisService::spawn(EngineBuilder::on(g).k(1), ServeConfig::default()).unwrap();
    let outcome = service
        .submit_batch(vec![
            Update::RemoveEdge(1, 2), // valid
            Update::InsertEdge(0, 1), // duplicate → rejected
            Update::InsertEdge(0, 2), // valid — still applied after the rejection
            Update::RemoveVertex(99), // dead → rejected
            Update::InsertEdge(2, 4), // valid
        ])
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(outcome.len(), 5);
    assert!(outcome[0].is_ok());
    assert_eq!(
        outcome[1].as_ref().unwrap_err(),
        &EngineError::DuplicateEdge(0, 1)
    );
    assert!(outcome[2].is_ok());
    assert!(matches!(
        outcome[3].as_ref().unwrap_err(),
        EngineError::Graph(_)
    ));
    assert!(outcome[4].is_ok());
    let report = service.shutdown();
    assert_eq!(report.stats.applied, 3);
    assert_eq!(report.stats.rejected, 2);
    assert_eq!(reader.snapshot(), report.solution);
}

#[test]
fn submitting_after_shutdown_reports_stopped() {
    let g = DynamicGraph::from_edges(3, &[(0, 1)]);
    let (service, _reader) =
        MisService::spawn(EngineBuilder::on(g), ServeConfig::default()).unwrap();
    let ingest = service.ingest();
    // Hold an extra ingest handle: shutdown still waits for the queue,
    // and the clone keeps working until dropped.
    ingest.submit(Update::InsertEdge(0, 2)).unwrap();
    let done = thread::spawn(move || service.shutdown());
    ingest
        .submit(Update::RemoveEdge(0, 2))
        .unwrap()
        .wait()
        .unwrap();
    drop(ingest);
    let report = done.join().unwrap();
    assert_eq!(report.stats.applied, 2);
}

#[test]
fn serves_the_adversarial_stream() {
    // The deletion-heavy worst case from `dynamis_gen::adversarial`,
    // end to end through the service.
    let g = gnm(120, 360, 17);
    let ups = AdversarialStream::new(
        &g,
        AdversarialConfig {
            burst: 48,
            targets: 12,
            replace: true,
        },
        23,
    )
    .take_updates(2000);
    let (service, mut reader) = MisService::spawn(
        EngineBuilder::on(g).k(2),
        ServeConfig {
            queue_updates: 128,
            burst: 64,
            log_window: 64,
            first_seq: 0,
        },
    )
    .unwrap();
    for u in ups {
        service.submit_detached(u).unwrap();
    }
    let report = service.shutdown();
    assert_eq!(report.stats.applied, 2000);
    assert_eq!(report.stats.rejected, 0, "adversarial stream is valid");
    assert_eq!(reader.snapshot(), report.solution);
}
