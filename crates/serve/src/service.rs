//! The service: one engine, written by flat combining — the submitter
//! that finds the engine free runs the round on its own thread (see the
//! crate docs).

use crate::error::ServeError;
use crate::log::SharedLog;
use crate::reader::ReaderHandle;
use crate::stats::{ServiceStats, StatsShared};
use dynamis_core::{DynamicMis, EngineBuilder, EngineError};
use dynamis_graph::Update;
use dynamis_obs::{Counter, Gauge, Stage};
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, Thread};
use std::time::Instant;

/// Tuning knobs for [`MisService::spawn`].
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Ingest-queue capacity, in *updates* (a batch counts its length;
    /// an oversized batch is admitted alone into an empty queue). A
    /// full queue blocks `submit` and fails `try_submit` — the
    /// service's backpressure. The gate uses hysteresis: the combining
    /// submitter frees a whole round at once, so a saturating feeder
    /// parks once per round, not once per update.
    pub queue_updates: usize,
    /// Maximum updates merged into one engine batch. The combining
    /// submitter takes whatever is queued up to this burst, so queue
    /// pressure automatically amortizes per-update overhead (deferred
    /// swap search, one broadcast per burst).
    pub burst: usize,
    /// Delta-log entries retained before folding into the checkpoint;
    /// readers lagging by more than this re-seed from the checkpoint.
    pub log_window: usize,
    /// Re-bases the broadcast log at this sequence number (0 = fresh
    /// start). A restarted durable service sets it to one past its
    /// recovered update count: the engine's construction-time solution
    /// is installed as the log's base checkpoint instead of being
    /// broadcast as a bootstrap delta, so subscribers from the previous
    /// life re-seed from the recovered state and resume gap-free.
    pub first_seq: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_updates: 1024,
            burst: 256,
            log_window: 1024,
            first_seq: 0,
        }
    }
}

/// One queued command: its updates, whether its owner wants verdicts,
/// and the owner's mailbox — absent when the owner runs the round.
struct Cmd {
    updates: Vec<Update>,
    detached: bool,
    mailbox: Option<Arc<Mailbox>>,
    /// Submission time, captured only while stage timing is enabled —
    /// the combiner charges `enqueue → round` to the ingest-wait stage.
    queued_at: Option<Instant>,
}

/// Backpressure weight: an empty batch still occupies one slot so a
/// flood of no-op commands cannot bypass the gate.
fn weight(updates: &[Update]) -> u64 {
    (updates.len() as u64).max(1)
}

/// One verdict per update of a command, in submission order (none for a
/// detached command): its broadcast sequence number, or the rejection.
type Verdicts = Vec<Result<u64, EngineError>>;

/// Where a parked submitter learns that its command was resolved or
/// that the combining role was handed to it.
struct Mailbox {
    letter: Mutex<Option<Letter>>,
    owner: Thread,
}

enum Letter {
    /// Run the next round.
    Combine,
    /// Resolved; `Stopped` when the engine panicked first.
    Done(Result<Verdicts, ServeError>),
}

impl Mailbox {
    fn post(&self, letter: Letter) {
        *self.letter.lock().expect(LOCK) = Some(letter);
        self.owner.unpark();
    }
}

/// What submitters coordinate on, behind [`Shared::state`].
#[derive(Default)]
struct State {
    queue: VecDeque<Cmd>,
    /// Queued weight: the backpressure gate (`ServeConfig::queue_updates`).
    depth: u64,
    /// A submitter is running a round (or was handed the next one).
    /// While it is clear the queue is empty.
    combining: bool,
    /// The engine panicked: every submission fails with `Stopped`.
    closed: bool,
    /// Live [`IngestHandle`]s, the service handle's own included.
    handles: usize,
    /// Feeders blocked at the gate: a round signals only if any wait.
    gated: usize,
}

/// Everything the handles share. Nothing in it points back at a
/// handle, so the engine drops with the last one.
struct Shared {
    state: Mutex<State>,
    /// Feeders parked at the gate and `shutdown` wait here; the last
    /// handle's drop wakes `shutdown`.
    cv: Condvar,
    /// The engine and its round buffers; `None` once the engine panicked
    /// or was shut down. Only the combiner takes this lock (under
    /// `state`, and it re-takes `state` under it) while the service runs.
    core: Mutex<Option<Core>>,
    log: Arc<SharedLog>,
    stats: Arc<StatsShared>,
    limit: u64,
    burst: usize,
}

/// No engine code runs under the state and mailbox locks, and engine
/// panics are caught inside the core lock, so none of them is poisoned.
const LOCK: &str = "serve lock poisoned";

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect(LOCK)
    }

    /// Passes the gate, enqueues one command and returns once it was
    /// applied or refused — on this thread, if the engine was free or
    /// the role is handed here.
    fn submit(
        &self,
        updates: Vec<Update>,
        detached: bool,
        blocking: bool,
    ) -> Result<Verdicts, ServeError> {
        let n = updates.len() as u64;
        let weight = weight(&updates);
        let mut st = self.lock();
        while !st.closed && st.depth > 0 && st.depth + weight > self.limit {
            if !blocking {
                return Err(ServeError::QueueFull);
            }
            st.gated += 1;
            st = self.cv.wait(st).expect(LOCK);
            st.gated -= 1;
        }
        if st.closed {
            return Err(ServeError::Stopped);
        }
        st.depth += weight;
        self.stats.submitted.fetch_add(n, Ordering::Relaxed);
        self.stats.queued.fetch_add(n as i64, Ordering::Relaxed);
        let mailbox = st.combining.then(|| {
            Arc::new(Mailbox {
                letter: Mutex::new(None),
                owner: thread::current(),
            })
        });
        st.combining = true;
        st.queue.push_back(Cmd {
            updates,
            detached,
            mailbox: mailbox.clone(),
            queued_at: dynamis_obs::mark(),
        });
        let Some(mailbox) = mailbox else {
            return self.combine(st);
        };
        drop(st);
        loop {
            let letter = mailbox.letter.lock().expect(LOCK).take();
            match letter {
                None => thread::park(),
                Some(Letter::Combine) => return self.combine(self.lock()),
                Some(Letter::Done(verdicts)) => return verdicts,
            }
        }
    }

    /// Runs one round on the calling thread, whose command heads the
    /// queue, then resolves the round's commands and either clears
    /// `combining` or hands the role to the owner of the queue head.
    /// An engine panic is caught here: it closes the service instead of
    /// unwinding into the caller.
    fn combine(&self, mut st: MutexGuard<'_, State>) -> Result<Verdicts, ServeError> {
        let mut core_guard = self.core.lock().expect(LOCK);
        let core = core_guard
            .as_mut()
            .expect("combiners run only while the engine lives");
        let t_drain = core.obs.batch_drain.begin();
        let (mut total, mut weight) = (0, 0);
        // Adaptive batching: whatever is queued right now rides along,
        // up to the burst cap. An idle queue means batch size 1 (lowest
        // latency); a saturated queue means full bursts (highest
        // amortization).
        while total < self.burst {
            let Some(cmd) = st.queue.pop_front() else {
                break;
            };
            total += cmd.updates.len();
            weight += self::weight(&cmd.updates);
            core.round.push(cmd);
        }
        // Free the whole round's queue budget in one step — blocked
        // feeders wake once per round and refill while the engine
        // works on this batch.
        st.depth -= weight;
        if st.gated > 0 {
            self.cv.notify_all();
        }
        drop(st);
        core.obs.batch_drain.end(t_drain);

        let seq = catch_unwind(AssertUnwindSafe(|| {
            core.apply_round(&self.log, &self.stats)
        }));
        let mut own = None;
        let mut ranges = core.ranges.drain(..);
        for cmd in core.round.drain(..) {
            let verdicts = match (&seq, ranges.next()) {
                (Ok(_), _) if cmd.detached => Ok(Vec::new()),
                (Ok(seq), Some(range)) => Ok(range
                    .map(|i| core.outcomes[i].take().map_or(Ok(*seq), Err))
                    .collect()),
                _ => Err(ServeError::Stopped),
            };
            if own.is_none() {
                own = Some(verdicts);
            } else if let Some(mailbox) = cmd.mailbox {
                mailbox.post(Letter::Done(verdicts));
            }
        }
        drop(ranges);
        let mut st = self.lock();
        let mut dead = None;
        if seq.is_err() {
            // The engine panicked mid-round: fail every queued command
            // too, close the gate, and drop the engine.
            st.closed = true;
            st.depth = 0;
            for cmd in std::mem::take(&mut st.queue) {
                let n = cmd.updates.len() as i64;
                self.stats.queued.fetch_sub(n, Ordering::Relaxed);
                if let Some(mailbox) = cmd.mailbox {
                    mailbox.post(Letter::Done(Err(ServeError::Stopped)));
                }
            }
            self.cv.notify_all();
            dead = core_guard.take();
        }
        // Every queued command has a parked owner: hand it the role.
        let next = st.queue.front().and_then(|cmd| cmd.mailbox.clone());
        st.combining = next.is_some();
        // Release the engine first: whoever sees the role free next
        // finds it unlocked.
        drop(core_guard);
        drop(st);
        if let Some(mailbox) = next {
            mailbox.post(Letter::Combine);
        }
        drop(dead);
        own.expect("a round holds the combiner's own command")
    }
}

/// The engine plus the combiner's round buffers, reused round over
/// round.
struct Core {
    engine: Box<dyn DynamicMis>,
    obs: ServeObs,
    round: Vec<Cmd>,
    updates: Vec<Update>,
    outcomes: Vec<Option<EngineError>>,
    ranges: Vec<Range<usize>>,
}

impl Core {
    /// Applies the merged round and publishes its net delta; returns the
    /// round's sequence number. Verdicts are left in `outcomes`, indexed
    /// through `ranges`.
    fn apply_round(&mut self, log: &SharedLog, stats: &StatsShared) -> u64 {
        let obs = &self.obs;
        // Stage: ingest wait — charge each command's queue time against
        // one clock read (timestamps exist only while stage timing is
        // enabled).
        if self.round.iter().any(|c| c.queued_at.is_some()) {
            let now = Instant::now();
            for cmd in &self.round {
                obs.ingest_wait.end_at(cmd.queued_at, now);
            }
        }
        self.updates.clear();
        self.ranges.clear();
        for cmd in &mut self.round {
            let start = self.updates.len();
            self.updates.append(&mut cmd.updates);
            self.ranges.push(start..self.updates.len());
        }
        let n = self.updates.len();
        stats.queued.fetch_sub(n as i64, Ordering::Relaxed);
        obs.queue_depth
            .set(stats.queued.load(Ordering::Relaxed).max(0) as u64);

        // Feed the merged slice through the engine's real batch path.
        // `try_apply_batch` stops at the first rejection with the valid
        // prefix applied; resume right after the rejected update so
        // every update gets an individual verdict.
        let t_apply = obs.engine_apply.begin();
        self.outcomes.clear();
        self.outcomes.resize(n, None);
        let mut start = 0;
        while start < n {
            match self.engine.try_apply_batch(&self.updates[start..]) {
                Ok(_) => break,
                Err(EngineError::Batch { index, cause }) => {
                    self.outcomes[start + index] = Some(*cause);
                    start += index + 1;
                }
                Err(other) => {
                    // Engines wrap batch failures in `EngineError::Batch`;
                    // treat anything else as the first update failing.
                    self.outcomes[start] = Some(other);
                    start += 1;
                }
            }
        }
        obs.engine_apply.end(t_apply);

        // One broadcast per round: the net delta of everything the
        // engine accepted (the drainable feed nets rejected prefixes
        // correctly).
        let t_bcast = obs.delta_broadcast.begin();
        let delta = self.engine.drain_delta();
        let seq = if delta.is_empty() {
            log.head()
        } else {
            publish(delta, log, stats)
        };
        obs.delta_broadcast.end(t_bcast);

        let rejected = self.outcomes.iter().filter(|o| o.is_some()).count();
        stats
            .applied
            .fetch_add((n - rejected) as u64, Ordering::Relaxed);
        stats.rejected.fetch_add(rejected as u64, Ordering::Relaxed);
        stats.batches.fetch_add(1, Ordering::Relaxed);
        stats.batch_hist.record(n as u64);
        obs.applied.add((n - rejected) as u64);
        obs.rejected.add(rejected as u64);
        seq
    }
}

/// What [`ServiceHandle::shutdown`] hands back.
#[derive(Debug, Clone, Default)]
pub struct ServiceReport {
    /// `DynamicMis::name` of the served engine.
    pub engine: String,
    /// The engine's final materialized solution (sorted).
    pub solution: Vec<u32>,
    /// Final head of the broadcast log.
    pub head_seq: u64,
    /// Final counter snapshot.
    pub stats: ServiceStats,
}

/// Receipt for a single-update submission. The submitting call returned
/// only once the update was applied or rejected, so the receipt already
/// holds the verdict.
#[derive(Debug)]
pub struct Ticket {
    verdict: Result<u64, EngineError>,
}

impl Ticket {
    /// The update's verdict: the sequence number of the broadcast batch
    /// containing it, or the engine's typed error as
    /// [`ServeError::Rejected`].
    pub fn wait(self) -> Result<u64, ServeError> {
        self.verdict.map_err(ServeError::Rejected)
    }
}

/// Receipt for a batch submission: one `Result` per submitted update,
/// in submission order.
#[derive(Debug)]
pub struct BatchTicket {
    verdicts: Verdicts,
}

impl BatchTicket {
    /// The batch's verdicts. Unlike
    /// [`dynamis_core::DynamicMis::try_apply_batch`], a rejection does
    /// not stop the rest of the batch: each update gets its own
    /// `Result` (the sequence number of its broadcast, or the engine's
    /// rejection).
    pub fn wait(self) -> Result<Vec<Result<u64, EngineError>>, ServeError> {
        Ok(self.verdicts)
    }
}

/// A cloneable, submit-only handle for feeder threads. All clones feed
/// the same bounded queue; [`ServiceHandle::shutdown`] returns only
/// after every ingest handle (and the [`ServiceHandle`]) is dropped.
///
/// Every submit returns once its own command was applied or refused —
/// on the calling thread, whenever the engine is free. A call fails
/// with [`ServeError::Stopped`] if the engine panicked before applying
/// it.
pub struct IngestHandle {
    shared: Arc<Shared>,
}

impl Clone for IngestHandle {
    fn clone(&self) -> Self {
        self.shared.lock().handles += 1;
        IngestHandle {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl Drop for IngestHandle {
    fn drop(&mut self) {
        if let Ok(mut st) = self.shared.state.lock() {
            st.handles -= 1;
            self.shared.cv.notify_all();
        }
    }
}

impl IngestHandle {
    fn one(&self, update: Update, blocking: bool) -> Result<Ticket, ServeError> {
        let mut verdicts = self.shared.submit(vec![update], false, blocking)?;
        let verdict = verdicts.pop().expect("one verdict per update");
        Ok(Ticket { verdict })
    }

    /// Applies one update, blocking while the queue is full. The
    /// ticket reports the typed outcome.
    pub fn submit(&self, update: Update) -> Result<Ticket, ServeError> {
        self.one(update, true)
    }

    /// Like [`IngestHandle::submit`], but fails with
    /// [`ServeError::QueueFull`] instead of blocking.
    pub fn try_submit(&self, update: Update) -> Result<Ticket, ServeError> {
        self.one(update, false)
    }

    /// Applies one update without a verdict (rejections are only
    /// visible in [`ServiceStats::rejected`]).
    pub fn submit_detached(&self, update: Update) -> Result<(), ServeError> {
        self.shared.submit(vec![update], true, true).map(drop)
    }

    /// Applies a pre-formed batch as one command, blocking while the
    /// queue is full.
    pub fn submit_batch(&self, updates: Vec<Update>) -> Result<BatchTicket, ServeError> {
        let verdicts = self.shared.submit(updates, false, true)?;
        Ok(BatchTicket { verdicts })
    }

    /// Applies a batch without verdicts.
    pub fn submit_batch_detached(&self, updates: Vec<Update>) -> Result<(), ServeError> {
        self.shared.submit(updates, true, true).map(drop)
    }

    /// Point-in-time counter snapshot, available to feeder threads that
    /// only hold an ingest handle (the network front end's session
    /// threads).
    pub fn stats(&self) -> ServiceStats {
        self.shared.stats.snapshot()
    }

    /// Updates currently admitted into the queue and not yet applied —
    /// the signal admission control samples to shed clients *before*
    /// they hit the blocking backpressure gate.
    pub fn queue_depth(&self) -> u64 {
        self.shared.stats.queued.load(Ordering::Relaxed).max(0) as u64
    }
}

/// The owning handle of a running service: submits updates (through
/// the [`IngestHandle`] it dereferences to), creates readers, reads
/// stats, and shuts the service down.
///
/// Dropping the handle without calling [`ServiceHandle::shutdown`]
/// discards the final [`ServiceReport`]; the engine is dropped with the
/// last handle, [`IngestHandle`] clones included.
pub struct ServiceHandle {
    ingest: IngestHandle,
}

impl std::ops::Deref for ServiceHandle {
    type Target = IngestHandle;

    fn deref(&self) -> &IngestHandle {
        &self.ingest
    }
}

impl ServiceHandle {
    /// A cloneable submit-only handle for feeder threads.
    pub fn ingest(&self) -> IngestHandle {
        self.ingest.clone()
    }

    /// A new reader. Starts at sequence 0 and catches up on first use —
    /// including the bootstrap delta, so it reconstructs the engine's
    /// current solution without ever materializing it from the engine.
    pub fn reader(&self) -> ReaderHandle {
        let shared = &self.ingest.shared;
        ReaderHandle::new(Arc::clone(&shared.log), Arc::clone(&shared.stats))
    }

    /// The service's broadcast log — the sequenced delta stream a
    /// network front end serializes for its subscribers.
    pub fn log(&self) -> Arc<SharedLog> {
        Arc::clone(&self.ingest.shared.log)
    }

    /// Graceful shutdown: waits until every [`IngestHandle`] clone is
    /// dropped and no round is in flight — so every submitted update was
    /// applied and broadcast — then returns the final report. The engine
    /// is dropped before this returns.
    ///
    /// # Panics
    ///
    /// If the engine panicked in an earlier round.
    pub fn shutdown(self) -> ServiceReport {
        let shared = Arc::clone(&self.ingest.shared);
        drop(self);
        let mut st = shared.lock();
        while st.handles > 0 || st.combining {
            st = shared.cv.wait(st).expect(LOCK);
        }
        drop(st);
        let core = shared
            .core
            .lock()
            .expect(LOCK)
            .take()
            .expect("serve engine panicked");
        ServiceReport {
            engine: core.engine.name().to_string(),
            solution: core.engine.solution(),
            head_seq: shared.log.head(),
            stats: shared.stats.snapshot(),
        }
    }
}

/// Entry point: turns any engine into a concurrently served one.
///
/// ```
/// use dynamis_core::EngineBuilder;
/// use dynamis_graph::{DynamicGraph, Update};
/// use dynamis_serve::{MisService, ServeConfig};
///
/// let g = DynamicGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
/// let (service, mut reader) =
///     MisService::spawn(EngineBuilder::on(g).k(1), ServeConfig::default()).unwrap();
///
/// // Applied updates report their broadcast sequence number…
/// assert!(service.submit(Update::RemoveEdge(1, 2)).unwrap().wait().is_ok());
/// // …invalid ones come back as the engine's typed rejection.
/// assert!(service.submit(Update::RemoveEdge(1, 2)).unwrap().wait().is_err());
///
/// let report = service.shutdown();
/// assert_eq!(reader.snapshot(), report.solution);
/// ```
pub struct MisService;

impl MisService {
    /// Starts a service over the paper engine `builder` describes
    /// ([`EngineBuilder::build`]). Returns the owning [`ServiceHandle`]
    /// plus a first [`ReaderHandle`], or the construction error.
    pub fn spawn(
        builder: EngineBuilder,
        cfg: ServeConfig,
    ) -> Result<(ServiceHandle, ReaderHandle), EngineError> {
        Self::spawn_with(move || builder.build(), cfg)
    }

    /// Like [`MisService::spawn`], but with an arbitrary engine
    /// factory — any [`DynamicMis`], including baselines or wrappers.
    /// The factory runs on the calling thread.
    pub fn spawn_with<F>(
        factory: F,
        cfg: ServeConfig,
    ) -> Result<(ServiceHandle, ReaderHandle), EngineError>
    where
        F: FnOnce() -> Result<Box<dyn DynamicMis>, EngineError> + Send + 'static,
    {
        let mut engine = factory()?;
        let log = Arc::new(SharedLog::new(cfg.log_window));
        let stats = Arc::new(StatsShared::default());
        // Expose the construction-time bootstrap before returning, so a
        // reader created right after `spawn` already sees the initial
        // solution: a fresh service broadcasts it as the first delta, a
        // resumed one (first_seq > 0) installs it as the log's base
        // checkpoint so old subscribers re-seed cleanly.
        if cfg.first_seq > 0 {
            let _ = engine.drain_delta();
            log.install_checkpoint(cfg.first_seq, &engine.solution());
            stats.head_seq.store(cfg.first_seq, Ordering::Relaxed);
        } else {
            publish(engine.drain_delta(), &log, &stats);
        }
        let core = Core {
            engine,
            obs: ServeObs::new(&stats),
            round: Vec::new(),
            updates: Vec::new(),
            outcomes: Vec::new(),
            ranges: Vec::new(),
        };
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                handles: 1,
                ..State::default()
            }),
            cv: Condvar::new(),
            core: Mutex::new(Some(core)),
            log,
            stats,
            limit: cfg.queue_updates.max(1) as u64,
            burst: cfg.burst.max(1),
        });
        let handle = ServiceHandle {
            ingest: IngestHandle { shared },
        };
        let reader = handle.reader();
        Ok((handle, reader))
    }
}

/// The combiner's cached telemetry handles: the four round latency
/// stages plus the registry-exported series. Built once per service.
struct ServeObs {
    ingest_wait: Stage,
    batch_drain: Stage,
    engine_apply: Stage,
    delta_broadcast: Stage,
    queue_depth: Arc<Gauge>,
    applied: Arc<Counter>,
    rejected: Arc<Counter>,
}

impl ServeObs {
    fn new(stats: &StatsShared) -> ServeObs {
        let g = dynamis_obs::global();
        // The service owns its batch-size histogram (per-service
        // isolation for `ServiceStats`); exporting the same instance
        // puts the full-resolution distribution in the snapshot.
        g.register_histogram("serve_batch_size", Arc::clone(&stats.batch_hist));
        ServeObs {
            ingest_wait: Stage::global("serve_ingest_wait_ns"),
            batch_drain: Stage::global("serve_batch_drain_ns"),
            engine_apply: Stage::global("serve_engine_apply_ns"),
            delta_broadcast: Stage::global("serve_delta_broadcast_ns"),
            queue_depth: g.gauge("serve_queue_depth"),
            applied: g.counter("serve_applied_total"),
            rejected: g.counter("serve_rejected_total"),
        }
    }
}

/// Publishes one non-empty delta and mirrors the head into the stats.
fn publish(delta: dynamis_core::SolutionDelta, log: &SharedLog, stats: &StatsShared) -> u64 {
    let seq = log.publish(delta);
    stats.head_seq.store(seq, Ordering::Relaxed);
    seq
}
