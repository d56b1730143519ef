//! The sequenced delta log: the broadcast channel between the writer
//! thread and every reader.
//!
//! The writer publishes each applied batch's net [`SolutionDelta`] as
//! an `Arc`-shared, sequence-numbered entry. Readers catch up lazily:
//! they clone the `Arc`s of the entries they have not seen (a short
//! critical section on the log mutex — **never** any engine state) and
//! apply them to their private [`SolutionMirror`] outside the lock.
//!
//! The log is bounded: when it outgrows its window, the oldest entries
//! are folded into a **checkpoint** mirror. A reader that fell behind
//! the window re-seeds from the checkpoint (a clone) and replays the
//! remaining entries — so slow readers cost a resync, never unbounded
//! log growth, and a brand-new reader is just a reader at sequence 0
//! resyncing like any other.
//!
//! Consumers that tail the log on a thread of their own (the network
//! fan-out hubs) need not poll it: a thread registered with
//! [`SharedLog::wake_on_publish`] is unparked by every publish, so it
//! can sleep in [`std::thread::park`] until there is something new.

use dynamis_core::{MirrorError, SolutionDelta, SolutionMirror};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, Thread, ThreadId};

/// One broadcast entry: the net solution change of one applied batch.
#[derive(Debug)]
pub struct SeqEntry {
    /// Sequence number of this entry (1-based; `seq` is the log head
    /// right after it was published).
    pub seq: u64,
    /// The net solution change it broadcasts.
    pub delta: SolutionDelta,
}

/// What [`SharedLog::tail_after`] found for a consumer at a given
/// sequence number — the primitive a subscription stream is built on.
#[derive(Debug)]
pub enum LogTail {
    /// The consumer is at the head; nothing new.
    UpToDate,
    /// The next entries, oldest first, contiguous from `seq + 1`.
    Entries(Vec<Arc<SeqEntry>>),
    /// The consumer fell behind the retained window: it must re-seed
    /// from this checkpoint (the full membership as of `seq`) and ask
    /// again from there.
    Checkpoint {
        /// Sequence number the checkpoint covers up to (inclusive).
        seq: u64,
        /// Sorted solution membership at that sequence number.
        solution: Vec<u32>,
    },
}

#[derive(Debug, Default)]
struct LogInner {
    /// Checkpoint covering sequences `..= base_seq`.
    base: SolutionMirror,
    base_seq: u64,
    /// Entries `base_seq + 1 ..= head`, oldest first.
    entries: VecDeque<Arc<SeqEntry>>,
    head: u64,
}

/// What one [`SharedLog::catch_up`] call did.
#[derive(Debug, Default)]
pub(crate) struct CatchUp {
    /// The reader's new sequence number.
    pub seq: u64,
    /// The reader re-seeded from the checkpoint (fell behind the
    /// window, was brand new, or recovered from a desync).
    pub resynced: bool,
    /// The mirror refused an entry (recovered via resync). Impossible
    /// by construction — surfaced for observability, typed.
    pub desync: Option<MirrorError>,
}

/// The shared, bounded, sequence-numbered broadcast log.
///
/// This is the transport between one delta producer and any number of
/// mirror-holding consumers. [`crate::MisService`] owns one for the
/// whole engine; the sharded layer (`dynamis-shard`) gives each shard
/// its own, published from that shard's writer thread, and merges them
/// behind a [`crate::ShardedReader`].
#[derive(Debug)]
pub struct SharedLog {
    inner: Mutex<LogInner>,
    /// Maximum retained entries before folding into the checkpoint.
    window: usize,
    /// Mirror of `inner.head`, updated under the lock: lets a
    /// caught-up reader answer "anything new?" with one atomic load —
    /// the query fast path takes **no lock at all**.
    head: AtomicU64,
    /// Threads every publish unparks (see [`SharedLog::wake_on_publish`]).
    wakers: Mutex<Vec<Thread>>,
}

impl SharedLog {
    /// An empty log retaining at most `window` entries before folding
    /// the oldest into its checkpoint.
    pub fn new(window: usize) -> Self {
        SharedLog {
            inner: Mutex::new(LogInner::default()),
            window: window.max(1),
            head: AtomicU64::new(0),
            wakers: Mutex::new(Vec::new()),
        }
    }

    /// Appends one delta as the next sequence number and folds the
    /// overflow into the checkpoint, then unparks every thread
    /// registered with [`SharedLog::wake_on_publish`]. Writer-side only.
    /// Empty deltas are legal entries: multi-log producers publish one
    /// per epoch on every log so consumers can align heads into a
    /// consistent cut.
    pub fn publish(&self, delta: SolutionDelta) -> u64 {
        let seq = {
            let mut g = self.inner.lock().unwrap();
            g.head += 1;
            let seq = g.head;
            g.entries.push_back(Arc::new(SeqEntry { seq, delta }));
            while g.entries.len() > self.window {
                let oldest = g.entries.pop_front().unwrap();
                g.base
                    .apply(&oldest.delta)
                    .expect("log entries are sequential and exact");
                g.base_seq = oldest.seq;
            }
            // Published under the lock: a reader that observes the new
            // head and then takes the lock is guaranteed to find the
            // entry.
            self.head.store(seq, Ordering::Release);
            seq
        };
        // Wake only after the lock is released: a woken consumer goes
        // straight for `tail_after`, which takes it.
        for t in self.wakers.lock().unwrap().iter() {
            t.unpark();
        }
        seq
    }

    /// Registers the calling thread to be unparked by every later
    /// [`SharedLog::publish`], until the returned registration drops.
    /// A thread tailing the log can then sleep in [`thread::park`] (or
    /// [`thread::park_timeout`]) instead of polling [`SharedLog::head`].
    ///
    /// No publish is missed: `publish` stores the new head before it
    /// unparks, and an unpark that lands before the park makes the park
    /// return at once. So a consumer that found nothing new with
    /// [`SharedLog::tail_after`] and then parks is woken by any entry
    /// published after that check.
    pub fn wake_on_publish(&self) -> PublishWake<'_> {
        let me = thread::current();
        let id = me.id();
        self.wakers.lock().unwrap().push(me);
        PublishWake { log: self, id }
    }

    /// Newest published sequence number (lock-free).
    pub fn head(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Re-bases a **virgin** log at `seq` with `solution` as its base
    /// checkpoint — how a restarted service resumes its broadcast
    /// stream after crash recovery (`dynamis-durable`). Every consumer
    /// at or below `seq` (any subscriber from the previous life, and
    /// every brand-new reader at 0) re-seeds from this checkpoint; the
    /// next published entry continues at `seq + 1`.
    ///
    /// # Panics
    ///
    /// If anything was already published — re-basing a live log would
    /// yank history out from under its readers.
    pub fn install_checkpoint(&self, seq: u64, solution: &[u32]) {
        let mut g = self.inner.lock().unwrap();
        assert!(
            g.head == 0 && g.entries.is_empty(),
            "install_checkpoint requires a virgin log"
        );
        g.base = SolutionMirror::from_solution(solution);
        g.base_seq = seq;
        g.head = seq;
        self.head.store(seq, Ordering::Release);
    }

    /// Maximum entries retained before the oldest fold into the base
    /// checkpoint — the catch-up horizon a straggling consumer has.
    pub fn window(&self) -> usize {
        self.window
    }

    /// The log's base checkpoint: the oldest state it can serve — the
    /// fold of everything that aged out of the window, or the installed
    /// recovery checkpoint on a restarted service. The sequence number
    /// is in *broadcast* numbering, so it is a valid
    /// `tail_after`/`Subscribe` resume point: a consumer seeded from
    /// this state streams entries from `seq + 1` with no gap. This is
    /// what a snapshot cold-start serves instead of replaying from 0.
    pub fn base_checkpoint(&self) -> (u64, Vec<u32>) {
        let g = self.inner.lock().unwrap();
        (g.base_seq, g.base.solution())
    }

    /// Full membership at the current head: the base checkpoint with
    /// every retained entry folded in. O(window) — meant for rare
    /// reseeds of a hopeless straggler, not per-query reads (those go
    /// through a `ReaderHandle`). The lock is held only to clone the
    /// base and the entry `Arc`s; folding happens outside it.
    pub fn snapshot_at_head(&self) -> (u64, Vec<u32>) {
        let (mut m, head, entries) = {
            let g = self.inner.lock().unwrap();
            (
                g.base.clone(),
                g.head,
                g.entries.iter().cloned().collect::<Vec<_>>(),
            )
        };
        for e in &entries {
            m.apply(&e.delta)
                .expect("log entries are sequential and exact");
        }
        (head, m.solution())
    }

    /// The entries a consumer at `seq` has not yet seen, up to `max` of
    /// them — or the checkpoint, if `seq` fell behind the retained
    /// window. This is the subscription-stream primitive: a network
    /// front end calls it per subscriber, serializes what comes back,
    /// and a remote mirror replays exactly what an in-process
    /// [`crate::ReaderHandle`] would. A caught-up consumer costs one
    /// atomic load; the lock is held only to clone `Arc`s (or the
    /// checkpoint, on fall-behind).
    pub fn tail_after(&self, seq: u64, max: usize) -> LogTail {
        if self.head.load(Ordering::Acquire) <= seq {
            return LogTail::UpToDate;
        }
        let g = self.inner.lock().unwrap();
        if g.head <= seq {
            return LogTail::UpToDate;
        }
        if seq < g.base_seq {
            return LogTail::Checkpoint {
                seq: g.base_seq,
                solution: g.base.solution(),
            };
        }
        let skip = (seq - g.base_seq) as usize;
        LogTail::Entries(
            g.entries
                .iter()
                .skip(skip)
                .take(max.max(1))
                .cloned()
                .collect(),
        )
    }

    /// Advances `mirror` (currently at `seq`) to the log head.
    ///
    /// A caught-up reader returns after one atomic load, without
    /// touching the lock. `scratch` is the reader's reusable `Arc`
    /// buffer — in steady state no allocation happens here. The lock is
    /// held only while cloning `Arc`s (or the checkpoint, on resync);
    /// deltas are applied outside it.
    pub(crate) fn catch_up(
        &self,
        mirror: &mut SolutionMirror,
        seq: u64,
        scratch: &mut Vec<Arc<SeqEntry>>,
    ) -> CatchUp {
        self.catch_up_to(mirror, seq, u64::MAX, scratch)
    }

    /// Like [`SharedLog::catch_up`] but stops at `target` instead of the
    /// head. Multi-log consumers use it to advance every per-shard
    /// mirror to the same epoch — the consistent cut — even while some
    /// logs have already published past it. A `target` at or below the
    /// checkpoint still resyncs (the checkpoint is the oldest state the
    /// log can serve), so the reported `seq` may exceed `target` after a
    /// fall-behind.
    pub(crate) fn catch_up_to(
        &self,
        mirror: &mut SolutionMirror,
        mut seq: u64,
        target: u64,
        scratch: &mut Vec<Arc<SeqEntry>>,
    ) -> CatchUp {
        let mut out = CatchUp::default();
        if self.head.load(Ordering::Acquire).min(target) <= seq {
            out.seq = seq;
            return out;
        }
        // Two passes at most: a desync (impossible by construction)
        // triggers one checkpoint re-seed and one replay.
        for attempt in 0..2 {
            scratch.clear();
            {
                let g = self.inner.lock().unwrap();
                if seq >= g.head.min(target) && attempt == 0 {
                    out.seq = seq;
                    return out;
                }
                if seq < g.base_seq || attempt > 0 {
                    *mirror = g.base.clone();
                    seq = g.base_seq;
                    out.resynced = true;
                }
                let skip = (seq - g.base_seq) as usize;
                scratch.extend(
                    g.entries
                        .iter()
                        .skip(skip)
                        .take_while(|e| e.seq <= target)
                        .cloned(),
                );
            }
            let mut failed = false;
            for e in scratch.iter() {
                debug_assert_eq!(e.seq, seq + 1, "log entries must be sequential");
                match mirror.apply(&e.delta) {
                    Ok(()) => seq = e.seq,
                    Err(err) => {
                        out.desync = Some(err);
                        failed = true;
                        break;
                    }
                }
            }
            if !failed {
                break;
            }
        }
        out.seq = seq;
        out
    }
}

/// A thread's registration with [`SharedLog::wake_on_publish`]: every
/// publish unparks the thread until this drops.
#[must_use = "publishes stop waking the thread once the registration drops"]
#[derive(Debug)]
pub struct PublishWake<'a> {
    log: &'a SharedLog,
    id: ThreadId,
}

impl Drop for PublishWake<'_> {
    fn drop(&mut self) {
        // Never panic in drop: a poisoned list is still a valid list.
        let mut wakers = self
            .log
            .wakers
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if let Some(i) = wakers.iter().position(|t| t.id() == self.id) {
            wakers.swap_remove(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynamis_core::EngineStats;
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    fn delta(entered: Vec<u32>, left: Vec<u32>) -> SolutionDelta {
        SolutionDelta {
            entered,
            left,
            stats: EngineStats::default(),
        }
    }

    #[test]
    fn readers_catch_up_incrementally() {
        let log = SharedLog::new(16);
        assert_eq!(log.publish(delta(vec![1, 2], vec![])), 1);
        assert_eq!(log.publish(delta(vec![3], vec![1])), 2);
        let mut m = SolutionMirror::new();
        let mut scratch = Vec::new();
        let r = log.catch_up(&mut m, 0, &mut scratch);
        assert_eq!(r.seq, 2);
        assert!(!r.resynced && r.desync.is_none());
        assert_eq!(m.solution(), vec![2, 3]);
        // Already caught up: a no-op.
        let r = log.catch_up(&mut m, 2, &mut scratch);
        assert_eq!(r.seq, 2);
        // New entries continue from where the reader stands.
        log.publish(delta(vec![7], vec![]));
        let r = log.catch_up(&mut m, 2, &mut scratch);
        assert_eq!(r.seq, 3);
        assert_eq!(m.solution(), vec![2, 3, 7]);
    }

    #[test]
    fn lagging_reader_resyncs_from_checkpoint() {
        let log = SharedLog::new(2);
        log.publish(delta(vec![1], vec![]));
        log.publish(delta(vec![2], vec![]));
        log.publish(delta(vec![3], vec![1])); // folds seq 1 into the base
        log.publish(delta(vec![4], vec![])); // folds seq 2
        let mut m = SolutionMirror::new();
        let mut scratch = Vec::new();
        let r = log.catch_up(&mut m, 0, &mut scratch);
        assert_eq!(r.seq, 4);
        assert!(r.resynced, "seq 0 is behind the retained window");
        assert!(r.desync.is_none());
        assert_eq!(m.solution(), vec![2, 3, 4]);
        assert_eq!(log.head(), 4);
    }

    #[test]
    fn tail_after_serves_entries_or_checkpoint() {
        let log = SharedLog::new(2);
        assert!(matches!(log.tail_after(0, 64), LogTail::UpToDate));
        log.publish(delta(vec![1], vec![]));
        log.publish(delta(vec![2], vec![]));
        // Caught-up consumer: one atomic load, nothing returned.
        assert!(matches!(log.tail_after(2, 64), LogTail::UpToDate));
        // In-window consumer: contiguous entries from seq + 1, capped.
        match log.tail_after(0, 1) {
            LogTail::Entries(es) => {
                assert_eq!(es.len(), 1);
                assert_eq!(es[0].seq, 1);
            }
            other => panic!("expected entries, got {other:?}"),
        }
        // Fold seq 1 and 2 into the checkpoint.
        log.publish(delta(vec![3], vec![1]));
        log.publish(delta(vec![4], vec![]));
        match log.tail_after(1, 64) {
            LogTail::Checkpoint { seq, solution } => {
                assert_eq!(seq, 2);
                assert_eq!(solution, vec![1, 2]);
            }
            other => panic!("expected checkpoint, got {other:?}"),
        }
        // From the checkpoint seq, plain entries again.
        match log.tail_after(2, 64) {
            LogTail::Entries(es) => {
                assert_eq!(es.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![3, 4]);
            }
            other => panic!("expected entries, got {other:?}"),
        }
    }

    #[test]
    fn desynced_mirror_self_heals() {
        let log = SharedLog::new(16);
        log.publish(delta(vec![1], vec![]));
        log.publish(delta(vec![2], vec![]));
        // A mirror claiming seq 1 but already holding vertex 2: applying
        // seq 2 refuses; the catch-up re-seeds from the checkpoint.
        let mut m = SolutionMirror::from_solution(&[1, 2]);
        let mut scratch = Vec::new();
        let r = log.catch_up(&mut m, 1, &mut scratch);
        assert_eq!(r.seq, 2);
        assert!(r.resynced);
        let err = r.desync.expect("the refusal is reported, typed");
        assert_eq!(err.vertex(), 2);
        assert_eq!(m.solution(), vec![1, 2], "healed to the true state");
    }

    #[test]
    fn publish_unparks_a_registered_thread() {
        let log = Arc::new(SharedLog::new(16));
        let (ready_tx, ready_rx) = mpsc::channel();
        let waiter = {
            let log = Arc::clone(&log);
            thread::spawn(move || {
                let _wake = log.wake_on_publish();
                ready_tx.send(()).unwrap();
                // Parks may return spuriously; only the entry ends the
                // wait. A lost wake would hold the thread for a minute.
                while log.head() == 0 {
                    thread::park_timeout(Duration::from_secs(60));
                }
                Instant::now()
            })
        };
        ready_rx.recv().unwrap();
        let published = Instant::now();
        log.publish(delta(vec![1], vec![]));
        let woke = waiter.join().unwrap();
        assert!(
            woke.duration_since(published) < Duration::from_secs(10),
            "the publish must wake the parked thread, not its timeout"
        );
        assert!(
            log.wakers.lock().unwrap().is_empty(),
            "the registration is withdrawn when it drops"
        );
    }
}
