//! The engine wrapper that makes any [`DynamicMis`] durable, and the
//! two-phase open protocol that recovers a directory before serving
//! from it.
//!
//! The phases exist because serve engine factories run *inside* the
//! writer thread, while the recovered sequence number must be known
//! *before* the service spawns (it re-bases the broadcast log):
//!
//! 1. [`prepare`] — on the caller thread: initialize or scan the
//!    directory, apply repairs, and surface [`Prepared::recovered_seq`].
//! 2. [`Prepared::resume_builder`] then [`Prepared::attach`] — inside
//!    the engine factory: resume the engine from the recovered
//!    snapshot, replay the WAL tail, and wrap the engine in [`Logged`].

use crate::error::DurableError;
use crate::format::{
    checkpoint_name, encode_checkpoint, encode_manifest, parse_checkpoint_name, parse_segment_name,
    MANIFEST_NAME,
};
use crate::recover::{apply_repairs, replay_tail, scan};
use crate::storage::WalStorage;
use crate::wal::{GroupCommit, SyncPolicy, Wal, STREAMS};
use dynamis_core::{DynamicMis, EngineBuilder, EngineError, Snapshot, SolutionDelta};
use dynamis_graph::{DynamicGraph, Update};
use std::sync::Arc;

/// Tuning for a durable directory. Every accepted update goes to one
/// WAL stream; the manifest pins `k` and that single stream.
#[derive(Debug, Clone, Copy)]
pub struct DurableOptions {
    /// When appends reach stable storage.
    pub sync: SyncPolicy,
    /// Accepted updates between snapshot checkpoints.
    pub checkpoint_every: u64,
    /// Segment roll threshold in bytes.
    pub segment_bytes: u64,
    /// Checkpoints retained; older segments are pruned only below the
    /// *oldest* retained checkpoint, so a damaged newest checkpoint can
    /// always fall back to the previous one plus the WAL.
    pub keep_checkpoints: usize,
}

impl Default for DurableOptions {
    fn default() -> Self {
        DurableOptions {
            sync: SyncPolicy::Group,
            // A checkpoint stalls the writer for 14–25 ms on a Chung–Lu
            // graph with n = 100k and ~400k edges (2-vCPU VM, ladder
            // `durable.checkpoint_ms`); the engine ingests a few hundred
            // thousand updates a second, so a cadence of thousands would
            // spend more time checkpointing than serving. 128Ki keeps the
            // amortized cost in the noise while bounding recovery replay
            // below a couple hundred milliseconds.
            checkpoint_every: 131_072,
            segment_bytes: 4 << 20,
            keep_checkpoints: 2,
        }
    }
}

/// A recovered (or freshly initialized) directory, ready to build its
/// engine. Produced by [`prepare`]; consumed by [`Prepared::attach`].
pub struct Prepared {
    /// Last sequence number of the recovered prefix (0 when fresh).
    pub recovered_seq: u64,
    /// Sequence the recovered checkpoint covered (0 when fresh).
    pub checkpoint_seq: u64,
    /// WAL tail length replayed on top of the checkpoint.
    pub replayed: u64,
    /// Whether the directory was initialized by this call.
    pub fresh: bool,
    snapshot: Option<Snapshot>,
    tail: Vec<Update>,
    storage: Arc<dyn WalStorage>,
    opts: DurableOptions,
    k: u32,
}

/// Opens a durable directory: initializes an empty one (manifest now,
/// bootstrap checkpoint at attach), or scans + repairs an existing one.
/// `k` must match the manifest of an existing directory, and the
/// manifest must record one WAL stream — mismatches are typed refusals.
pub fn prepare(
    storage: Arc<dyn WalStorage>,
    k: u32,
    opts: DurableOptions,
) -> Result<Prepared, DurableError> {
    let names = storage.list()?;
    let has_manifest = names.iter().any(|n| n == MANIFEST_NAME);
    let has_state = names
        .iter()
        .any(|n| parse_checkpoint_name(n).is_some() || parse_segment_name(n).is_some());
    if !has_manifest || !has_state {
        // Fresh directory — or one whose initialization crashed before
        // the bootstrap checkpoint was published (nothing could have
        // been acknowledged yet, so re-initializing loses nothing).
        if has_manifest {
            let m = crate::format::decode_manifest(&storage.read(MANIFEST_NAME)?)?;
            if m.k != k {
                return Err(DurableError::KMismatch {
                    found: m.k,
                    expected: k,
                });
            }
            if m.streams != STREAMS {
                return Err(DurableError::StreamMismatch {
                    found: m.streams,
                    expected: STREAMS,
                });
            }
        } else {
            let tmp = "MANIFEST.tmp";
            storage.create(tmp)?;
            storage.append(tmp, &encode_manifest(k, STREAMS))?;
            storage.sync(tmp)?;
            storage.rename(tmp, MANIFEST_NAME)?;
        }
        // Clear leftovers of the crashed init, if any.
        for n in names.iter().filter(|n| crate::format::is_tmp_name(n)) {
            let _ = storage.remove(n);
        }
        return Ok(Prepared {
            recovered_seq: 0,
            checkpoint_seq: 0,
            replayed: 0,
            fresh: true,
            snapshot: None,
            tail: Vec::new(),
            storage,
            opts,
            k,
        });
    }
    let report = scan(&*storage, Some(k))?;
    apply_repairs(&*storage, &report.repairs)?;
    Ok(Prepared {
        recovered_seq: report.recovered_seq,
        checkpoint_seq: report.checkpoint_seq,
        replayed: report.tail.len() as u64,
        fresh: false,
        snapshot: Some(report.snapshot),
        tail: report.tail,
        storage,
        opts,
        k,
    })
}

impl Prepared {
    /// Resumes `builder` from the recovered checkpoint (fresh
    /// directories return it unchanged). Must be called before
    /// [`Prepared::attach`] so the engine is built over the recovered
    /// graph and solution rather than the cold-start inputs.
    pub fn resume_builder(&mut self, builder: EngineBuilder) -> EngineBuilder {
        match self.snapshot.take() {
            Some(snapshot) => builder.resume(snapshot),
            None => builder,
        }
    }

    /// The sequence number a restarted broadcast log should re-base at
    /// (`ServeConfig::first_seq`): strictly above every sequence an old
    /// subscriber can hold, so reconnecting mirrors re-seed from the
    /// recovered checkpoint instead of chasing a history that restarted
    /// under them.
    pub fn first_broadcast_seq(&self) -> u64 {
        self.recovered_seq + 1
    }

    /// Replays the WAL tail into `engine` (built from the builder
    /// [`Prepared::resume_builder`] returned) through [`replay_tail`],
    /// then wraps it in a [`Logged`] that logs every accepted update
    /// from here on.
    ///
    /// Writes a checkpoint before returning when the directory is fresh
    /// (the bootstrap checkpoint recovery relies on) or when a tail was
    /// replayed (compacting the just-recovered history).
    pub fn attach(mut self, mut engine: Box<dyn DynamicMis>) -> Result<Logged, DurableError> {
        assert!(
            self.snapshot.is_none(),
            "Prepared::attach before resume_builder: the engine would not see the recovered state"
        );
        replay_tail(
            &mut *engine,
            self.checkpoint_seq,
            &std::mem::take(&mut self.tail),
        )?;
        let g = dynamis_obs::global();
        let wal = Wal::new(
            Arc::clone(&self.storage),
            self.recovered_seq + 1,
            self.opts.segment_bytes,
            // Under `Never` nothing ever drains the synced-names set, so
            // don't accumulate it.
            !matches!(self.opts.sync, SyncPolicy::Never),
        );
        let group = matches!(self.opts.sync, SyncPolicy::Group)
            .then(|| GroupCommit::spawn(Arc::clone(&self.storage), wal.shared()));
        let mut logged = Logged {
            inner: engine,
            wal,
            storage: self.storage,
            sync: self.opts.sync,
            group,
            checkpoint_every: self.opts.checkpoint_every.max(1),
            since_checkpoint: 0,
            keep_checkpoints: self.opts.keep_checkpoints.max(1),
            k: self.k,
            dead: false,
            records: g.counter("durable_wal_records_total"),
            checkpoints: g.counter("durable_checkpoints_total"),
            wal_errors: g.counter("durable_wal_errors_total"),
        };
        if self.fresh || self.replayed > 0 {
            logged.write_checkpoint()?;
        }
        Ok(logged)
    }
}

/// A [`DynamicMis`] that logs its accepted update stream.
///
/// Updates are appended *after* the inner engine accepts them and
/// *before* the call returns — so the log always holds a prefix of the
/// accepted stream, never a rejected update, and (under
/// [`SyncPolicy::Always`]) never acknowledges before durability.
///
/// Storage failures after attach **fail open**: the engine keeps
/// serving, logging stops, the `durable_wal_errors_total` counter and a
/// one-time stderr line report it. Crash recovery then yields the
/// prefix persisted up to the failure — consistent, merely older.
pub struct Logged {
    inner: Box<dyn DynamicMis>,
    wal: Wal,
    storage: Arc<dyn WalStorage>,
    sync: SyncPolicy,
    group: Option<GroupCommit>,
    checkpoint_every: u64,
    since_checkpoint: u64,
    keep_checkpoints: usize,
    k: u32,
    dead: bool,
    records: Arc<dynamis_obs::Counter>,
    checkpoints: Arc<dynamis_obs::Counter>,
    wal_errors: Arc<dynamis_obs::Counter>,
}

impl Logged {
    /// Sequence number of the last logged update.
    pub fn last_seq(&self) -> u64 {
        self.wal.next_seq - 1
    }

    /// `false` once a storage failure stopped logging (fail-open).
    pub fn wal_healthy(&self) -> bool {
        !self.dead
    }

    fn fail(&mut self, err: std::io::Error) {
        if !self.dead {
            eprintln!("durable: WAL failed, logging stopped (serving continues): {err}");
        }
        self.dead = true;
        self.wal_errors.add(1);
    }

    /// Logs the accepted `updates`, then applies the sync policy and
    /// the checkpoint cadence.
    fn persist(&mut self, updates: &[Update]) {
        if self.dead || updates.is_empty() {
            return;
        }
        if let Err(e) = self.wal.append(updates) {
            self.fail(e);
            return;
        }
        self.records.add(updates.len() as u64);
        match self.sync {
            SyncPolicy::Always => {
                if let Err(e) = self.wal.sync() {
                    self.fail(e);
                    return;
                }
            }
            SyncPolicy::Group => {
                // The tick thread drains and fsyncs the buffers on its
                // own clock; the writer only surfaces its failures.
                if self.group.as_ref().is_some_and(|g| g.failed()) {
                    self.fail(std::io::Error::other(
                        "group-commit sync thread hit a storage error",
                    ));
                    return;
                }
            }
            SyncPolicy::Never => {}
        }
        self.since_checkpoint += updates.len() as u64;
        if self.since_checkpoint >= self.checkpoint_every {
            self.since_checkpoint = 0;
            if let Err(e) = self.write_checkpoint() {
                self.fail(e);
            }
        }
    }

    /// Encodes the engine's state, publishes it atomically (tmp → sync →
    /// rename), rolls the segments, and prunes history below the oldest
    /// retained checkpoint.
    fn write_checkpoint(&mut self) -> std::io::Result<()> {
        // Records the checkpoint covers must be on storage before the
        // checkpoint that supersedes them: a damaged newest checkpoint
        // falls back to an older one plus exactly these records.
        self.wal.flush()?;
        let seq = self.last_seq();
        // Straight from the live engine into the file buffer: no copy of
        // the graph, no intermediate body buffer.
        let (graph, solution) = (self.inner.graph(), self.inner.solution());
        let bytes = encode_checkpoint(self.k, STREAMS, seq, |body| {
            Snapshot::encode_parts(graph, &solution, body)
        });
        let tmp = format!("ckpt-{seq:016}.tmp");
        let name = checkpoint_name(seq);
        self.storage.create(&tmp)?;
        self.storage.append(&tmp, &bytes)?;
        self.storage.sync(&tmp)?;
        self.storage.rename(&tmp, &name)?;
        self.checkpoints.add(1);
        self.wal.roll()?;
        self.prune()
    }

    /// Removes checkpoints beyond the retention count and every segment
    /// whose records all lie at or below the oldest retained checkpoint.
    fn prune(&self) -> std::io::Result<()> {
        let names = self.storage.list()?;
        let mut ckpts: Vec<(u64, &String)> = names
            .iter()
            .filter_map(|n| parse_checkpoint_name(n).map(|s| (s, n)))
            .collect();
        ckpts.sort_by_key(|c| std::cmp::Reverse(c.0));
        if ckpts.is_empty() {
            return Ok(());
        }
        for &(_, name) in ckpts.iter().skip(self.keep_checkpoints) {
            self.storage.remove(name)?;
        }
        let oldest_kept = self.keep_checkpoints.min(ckpts.len()) - 1;
        let horizon = ckpts[oldest_kept].0;
        // A segment is removable when its successor starts at or below
        // `horizon + 1` — then every record it holds is covered by the
        // oldest retained checkpoint.
        let mut files: Vec<(u64, &String)> = names
            .iter()
            .filter_map(|n| parse_segment_name(n).map(|(_, start)| (start, n)))
            .collect();
        files.sort();
        for w in files.windows(2) {
            let (_, name) = w[0];
            let (next_start, _) = w[1];
            if next_start <= horizon + 1 {
                self.storage.remove(name)?;
            }
        }
        Ok(())
    }
}

impl DynamicMis for Logged {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn graph(&self) -> &DynamicGraph {
        self.inner.graph()
    }

    fn try_apply(&mut self, u: &Update) -> Result<SolutionDelta, EngineError> {
        let r = self.inner.try_apply(u);
        if r.is_ok() {
            self.persist(std::slice::from_ref(u));
        }
        r
    }

    fn try_apply_batch(&mut self, updates: &[Update]) -> Result<SolutionDelta, EngineError> {
        let r = self.inner.try_apply_batch(updates);
        // On rejection the valid prefix was applied (and stays applied);
        // log exactly that prefix. Non-`Batch` errors reject the first
        // update, applying nothing — mirroring the serve writer loop.
        let accepted = match &r {
            Ok(_) => updates.len(),
            Err(EngineError::Batch { index, .. }) => *index,
            Err(_) => 0,
        };
        self.persist(&updates[..accepted]);
        r
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

impl Drop for Logged {
    fn drop(&mut self) {
        // Clean shutdown leaves everything durable: write the buffers
        // through and fsync (under `Never`, write through only), then
        // drop the group committer — its Drop joins after fsyncing any
        // still-queued requests for already-closed segments.
        if !self.dead {
            let _ = if self.sync == SyncPolicy::Never {
                self.wal.flush()
            } else {
                self.wal.sync()
            };
        }
        self.group.take();
    }
}
