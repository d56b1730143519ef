//! Service observability: lock-free counters shared by the combining
//! submitter, the ingest handles, and the readers, snapshotted on
//! demand into a [`ServiceStats`].

use dynamis_obs::Histogram;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};

/// Number of batch-size histogram buckets: bucket `i` counts merged
/// batches of `2^i ..= 2^(i+1) - 1` updates (the last bucket is
/// open-ended).
pub const HIST_BUCKETS: usize = 9;

/// Histogram bucket for a merged batch of `size` updates.
pub(crate) fn hist_bucket(size: usize) -> usize {
    (usize::BITS - 1 - size.max(1).leading_zeros()).min(HIST_BUCKETS as u32 - 1) as usize
}

/// Shared mutable counters (all relaxed atomics — observability only,
/// never synchronization).
#[derive(Debug, Default)]
pub(crate) struct StatsShared {
    pub submitted: AtomicU64,
    /// Updates accepted into the queue and not yet handed to the
    /// engine. Signed: the submit-side increment and the combiner-side
    /// decrement race benignly.
    pub queued: AtomicI64,
    pub applied: AtomicU64,
    pub rejected: AtomicU64,
    pub batches: AtomicU64,
    /// Merged-batch sizes, on the shared telemetry histogram type so
    /// the full-resolution distribution can also be exported through
    /// the metrics registry. [`ServiceStats::batch_hist`] keeps its 9
    /// power-of-two buckets by folding this (the fold is exact: no
    /// log-bucket crosses an octave).
    pub batch_hist: Arc<Histogram>,
    pub head_seq: AtomicU64,
    pub resyncs: AtomicU64,
    pub desyncs: AtomicU64,
    /// Per-reader last-synced sequence numbers (weak: a dropped reader
    /// deregisters itself by virtue of the Arc dying).
    readers: Mutex<Vec<Weak<AtomicU64>>>,
}

impl StatsShared {
    /// Registers a reader's sequence slot for lag reporting.
    pub fn register_reader(&self, start_seq: u64) -> Arc<AtomicU64> {
        let slot = Arc::new(AtomicU64::new(start_seq));
        let mut readers = self.readers.lock().unwrap();
        readers.retain(|w| w.strong_count() > 0);
        readers.push(Arc::downgrade(&slot));
        slot
    }

    /// Consistent snapshot (counter-by-counter; relaxed).
    pub fn snapshot(&self) -> ServiceStats {
        let head_seq = self.head_seq.load(Ordering::Relaxed);
        let mut reader_count = 0usize;
        let mut min_reader_seq = None;
        for w in self.readers.lock().unwrap().iter() {
            if let Some(slot) = w.upgrade() {
                let s = slot.load(Ordering::Relaxed);
                reader_count += 1;
                min_reader_seq = Some(min_reader_seq.map_or(s, |m: u64| m.min(s)));
            }
        }
        let mut batch_hist = [0u64; HIST_BUCKETS];
        for (idx, count) in self.batch_hist.snapshot().buckets {
            let (lo, _) = dynamis_obs::bucket_bounds(idx as usize);
            let b = hist_bucket(lo as usize);
            batch_hist[b] = batch_hist[b].saturating_add(count);
        }
        ServiceStats {
            queue_depth: self.queued.load(Ordering::Relaxed).max(0) as u64,
            submitted: self.submitted.load(Ordering::Relaxed),
            applied: self.applied.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            batch_hist,
            head_seq,
            readers: reader_count,
            max_reader_lag: min_reader_seq.map_or(0, |m| head_seq.saturating_sub(m)),
            resyncs: self.resyncs.load(Ordering::Relaxed),
            desyncs: self.desyncs.load(Ordering::Relaxed),
            connections: 0,
            sessions: 0,
            subscriptions: 0,
            shed: 0,
            max_sub_lag: 0,
            mean_sub_lag: 0,
        }
    }
}

/// A point-in-time view of the service's counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Updates accepted into the ingest queue and not yet applied.
    pub queue_depth: u64,
    /// Updates ever accepted into the queue.
    pub submitted: u64,
    /// Updates the engine applied.
    pub applied: u64,
    /// Updates the engine rejected (each one's [`dynamis_core::EngineError`]
    /// went to its ticket).
    pub rejected: u64,
    /// Merged batches (rounds) fed through `try_apply_batch`.
    pub batches: u64,
    /// Batch-size histogram: bucket `i` counts batches of
    /// `2^i ..= 2^(i+1) - 1` updates (last bucket open-ended) — the
    /// shape shows how much adaptive batching amortized per-update cost.
    pub batch_hist: [u64; HIST_BUCKETS],
    /// Sequence number of the newest broadcast delta.
    pub head_seq: u64,
    /// Live reader handles.
    pub readers: usize,
    /// `head_seq` minus the most-lagging reader's synced sequence.
    pub max_reader_lag: u64,
    /// Times a reader re-seeded from the log's checkpoint (it fell
    /// behind the retained window).
    pub resyncs: u64,
    /// Times a reader's mirror refused a delta (a
    /// [`dynamis_core::MirrorError`] — recovered by re-seeding; nonzero
    /// values indicate a broadcast bug).
    pub desyncs: u64,
    /// TCP connections ever accepted by a network front end (0 for an
    /// in-process service — these four counters are filled in by
    /// `dynamis-net` when the service is exposed over the wire).
    pub connections: u64,
    /// Network sessions currently live.
    pub sessions: u64,
    /// Delta subscriptions currently streaming.
    pub subscriptions: u64,
    /// Requests shed by admission control with a typed `Busy` reply.
    pub shed: u64,
    /// `head_seq` minus the most-lagging *network subscriber's* applied
    /// sequence, sampled by the hub each fan-out round (0 for an
    /// in-process service).
    pub max_sub_lag: u64,
    /// Mean network-subscriber lag across live subscriptions, rounded
    /// down (0 for an in-process service).
    pub mean_sub_lag: u64,
}

impl ServiceStats {
    /// Mean merged-batch size (0 when no batch ran yet).
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            (self.applied + self.rejected) as f64 / self.batches as f64
        }
    }
}

impl std::fmt::Display for ServiceStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "seq {} | queue {} | applied {} / rejected {} in {} batches (mean {:.1}) | \
             {} readers, max lag {} | resyncs {} desyncs {}",
            self.head_seq,
            self.queue_depth,
            self.applied,
            self.rejected,
            self.batches,
            self.mean_batch(),
            self.readers,
            self.max_reader_lag,
            self.resyncs,
            self.desyncs
        )?;
        if self.connections > 0 || self.sessions > 0 || self.subscriptions > 0 || self.shed > 0 {
            write!(
                f,
                " | net: {} conns, {} sessions, {} subs, {} shed, sub lag max {} mean {}",
                self.connections,
                self.sessions,
                self.subscriptions,
                self.shed,
                self.max_sub_lag,
                self.mean_sub_lag
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        assert_eq!(hist_bucket(1), 0);
        assert_eq!(hist_bucket(2), 1);
        assert_eq!(hist_bucket(3), 1);
        assert_eq!(hist_bucket(4), 2);
        assert_eq!(hist_bucket(255), 7);
        assert_eq!(hist_bucket(256), 8);
        assert_eq!(hist_bucket(1 << 20), HIST_BUCKETS - 1);
    }

    #[test]
    fn snapshot_reports_reader_lag() {
        let s = StatsShared::default();
        s.head_seq.store(10, Ordering::Relaxed);
        let fast = s.register_reader(0);
        let slow = s.register_reader(0);
        fast.store(10, Ordering::Relaxed);
        slow.store(4, Ordering::Relaxed);
        let snap = s.snapshot();
        assert_eq!(snap.readers, 2);
        assert_eq!(snap.max_reader_lag, 6);
        drop(slow);
        let snap = s.snapshot();
        assert_eq!(snap.readers, 1, "dropped reader deregisters");
        assert_eq!(snap.max_reader_lag, 0);
        assert!(snap.to_string().contains("seq 10"));
    }
}
