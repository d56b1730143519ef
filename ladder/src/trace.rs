//! Benchmark-side tracing: decorators around the public seams of the
//! engine and WAL storage layers. Spans stay in memory and are written
//! out when the run ends; nothing inside the program is instrumented.

use dynamis_core::{DynamicMis, EngineError, SolutionDelta};
use dynamis_durable::format::parse_segment_name;
use dynamis_durable::{FileStorage, WalStorage};
use dynamis_graph::{DynamicGraph, Update};
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds on one monotonic clock shared by every thread.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One engine call seen by a [`Spanned`] decorator.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    pub start: u64,
    pub end: u64,
    pub updates: u32,
    /// |entered| + |left| of the returned delta.
    pub adjusted: u32,
}

impl Call {
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// Where a decorator's spans land. Engines run on the serve writer
/// thread, so the log is shared.
#[derive(Clone, Default)]
pub struct CallLog(Arc<Mutex<Vec<Call>>>);

impl CallLog {
    pub fn take(&self) -> Vec<Call> {
        std::mem::take(&mut *self.0.lock().expect("call log poisoned"))
    }

    fn push(&self, call: Call) {
        self.0.lock().expect("call log poisoned").push(call);
    }
}

/// A [`DynamicMis`] that times every apply call of the engine it wraps.
pub struct Spanned {
    inner: Box<dyn DynamicMis>,
    log: CallLog,
}

impl Spanned {
    pub fn wrap(inner: Box<dyn DynamicMis>, log: &CallLog) -> Box<dyn DynamicMis> {
        Box::new(Spanned {
            inner,
            log: log.clone(),
        })
    }

    fn timed(
        &mut self,
        updates: usize,
        f: impl FnOnce(&mut dyn DynamicMis) -> Result<SolutionDelta, EngineError>,
    ) -> Result<SolutionDelta, EngineError> {
        let start = now_ns();
        let r = f(self.inner.as_mut());
        let end = now_ns();
        self.log.push(Call {
            start,
            end,
            updates: updates as u32,
            adjusted: r.as_ref().map_or(0, |d| d.adjusted() as u32),
        });
        r
    }
}

impl DynamicMis for Spanned {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn graph(&self) -> &DynamicGraph {
        self.inner.graph()
    }

    fn try_apply(&mut self, u: &Update) -> Result<SolutionDelta, EngineError> {
        self.timed(1, |e| e.try_apply(u))
    }

    fn try_apply_batch(&mut self, updates: &[Update]) -> Result<SolutionDelta, EngineError> {
        self.timed(updates.len(), |e| e.try_apply_batch(updates))
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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Append,
    Sync,
    Rename,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    Segment,
    Checkpoint,
    Other,
}

/// Checkpoints are written as `ckpt-*.tmp` and renamed to `ckpt-*.snap`.
fn kind_of(name: &str) -> FileKind {
    if parse_segment_name(name).is_some() {
        FileKind::Segment
    } else if name.starts_with("ckpt-") {
        FileKind::Checkpoint
    } else {
        FileKind::Other
    }
}

/// One storage call seen by [`TracedStorage`]; a rename is classed by
/// its target.
#[derive(Debug, Clone, Copy)]
pub struct StorageOp {
    pub op: Op,
    pub file: FileKind,
    pub bytes: u64,
    pub start: u64,
    pub end: u64,
}

/// A [`WalStorage`] over [`FileStorage`] that records appends, fsyncs
/// and renames — the group-commit thread's writes as well as the
/// writer's checkpoint publishes.
pub struct TracedStorage {
    inner: FileStorage,
    ops: Mutex<Vec<StorageOp>>,
}

impl TracedStorage {
    pub fn open(dir: &Path) -> io::Result<TracedStorage> {
        Ok(TracedStorage {
            inner: FileStorage::open(dir)?,
            ops: Mutex::new(Vec::new()),
        })
    }

    pub fn take(&self) -> Vec<StorageOp> {
        std::mem::take(&mut *self.ops.lock().expect("storage trace poisoned"))
    }

    fn timed(
        &self,
        op: Op,
        name: &str,
        bytes: u64,
        f: impl FnOnce() -> io::Result<()>,
    ) -> io::Result<()> {
        let start = now_ns();
        let r = f();
        let end = now_ns();
        self.ops
            .lock()
            .expect("storage trace poisoned")
            .push(StorageOp {
                op,
                file: kind_of(name),
                bytes,
                start,
                end,
            });
        r
    }
}

impl WalStorage for TracedStorage {
    fn list(&self) -> io::Result<Vec<String>> {
        self.inner.list()
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        self.inner.read(name)
    }

    fn create(&self, name: &str) -> io::Result<()> {
        self.inner.create(name)
    }

    fn append(&self, name: &str, data: &[u8]) -> io::Result<()> {
        self.timed(Op::Append, name, data.len() as u64, || {
            self.inner.append(name, data)
        })
    }

    fn sync(&self, name: &str) -> io::Result<()> {
        self.timed(Op::Sync, name, 0, || self.inner.sync(name))
    }

    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        self.inner.truncate(name, len)
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        self.timed(Op::Rename, to, 0, || self.inner.rename(from, to))
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        self.inner.remove(name)
    }

    fn size(&self, name: &str) -> io::Result<u64> {
        self.inner.size(name)
    }
}
