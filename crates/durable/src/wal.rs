//! The write side: segmented append-only logging of accepted updates,
//! with group-commit write-through and fsync batching off the writer
//! thread.
//!
//! The writer encodes records into one user-space buffer under a short
//! mutex; under [`SyncPolicy::Group`] a background thread ticks
//! every couple of milliseconds, writes the buffered bytes through, and
//! fsyncs the touched segments. The ingest hot path therefore costs a
//! memcpy, not a syscall, and the durability lag of an acknowledged
//! update is time-bounded by the tick interval rather than by when the
//! next flush threshold happens to be crossed.

use crate::format::{encode_record, encode_segment_header, segment_name};
use crate::storage::WalStorage;
use dynamis_graph::Update;
use std::collections::BTreeSet;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// When appended records are forced to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Never fsync explicitly (tests and benchmarks; the OS still
    /// writes back eventually).
    Never,
    /// Fsync before every acknowledgement: an accepted update is
    /// durable before its delta is broadcast or its ticket resolves.
    /// The strongest guarantee — and the slowest path.
    Always,
    /// Group commit: appends are acknowledged immediately; a background
    /// thread writes the buffered records through and fsyncs on a fixed
    /// interval, coalescing everything that accumulated since the last
    /// tick. A crash loses at most the suffix of the last couple of
    /// milliseconds — recovery still yields a consistent prefix.
    Group,
}

/// Backstop on the bytes the log may buffer in user space before the
/// writer itself writes through inline. Under [`SyncPolicy::Group`] the
/// tick thread normally drains buffers long before this; the cap only
/// bounds memory if storage stalls or ingest outruns the tick. Under
/// [`SyncPolicy::Never`] it is the only write-through trigger besides
/// rolls, checkpoints, and shutdown.
const MAX_BUFFER: usize = 256 << 10;

/// How often the group-commit thread wakes to write buffers through
/// and fsync. This interval bounds the durability lag of updates
/// acknowledged under [`SyncPolicy::Group`] — at any ingest rate, not
/// just when a size threshold fills.
const SYNC_INTERVAL: std::time::Duration = std::time::Duration::from_millis(2);

/// The stream count every manifest and checkpoint records. The on-disk
/// format keeps a `streams` word; this layer writes one stream, index 0
/// in every segment name and header, and refuses any other count.
pub(crate) const STREAMS: u32 = 1;

/// The WAL's open segment.
struct Seg {
    name: String,
    /// Bytes already written through to storage.
    written: u64,
    /// Encoded records (and, initially, the header) not yet written.
    buf: Vec<u8>,
}

impl Seg {
    /// Logical size: what the file will hold once the buffer flushes.
    fn logical(&self) -> u64 {
        self.written + self.buf.len() as u64
    }
}

/// State shared between the writer and the group-commit thread: the
/// open segment (with its pending buffer) and the names written
/// through since the last fsync round.
pub(crate) struct Shared {
    seg: Option<Seg>,
    /// Names with bytes on storage not yet covered by an fsync —
    /// drained by the group tick or by [`Wal::sync`]. Only maintained
    /// when someone will drain it (not under [`SyncPolicy::Never`]).
    flushed: BTreeSet<String>,
    track_flushed: bool,
}

impl Shared {
    /// Writes the open segment's buffer through to storage. Must run
    /// under the shared lock — ordering between the writer's inline
    /// flushes (rolls, checkpoints) and the tick thread's drains depends
    /// on it.
    fn write_through(&mut self, storage: &dyn WalStorage) -> io::Result<()> {
        if let Some(seg) = self.seg.as_mut() {
            if !seg.buf.is_empty() {
                storage.append(&seg.name, &seg.buf)?;
                seg.written += seg.buf.len() as u64;
                seg.buf.clear();
                if self.track_flushed {
                    self.flushed.insert(seg.name.clone());
                }
            }
        }
        Ok(())
    }
}

/// The segmented writer: buffers encoded records and rolls segments at
/// a size threshold. The buffer lives behind a mutex shared with the
/// group-commit thread, which drains it on its tick.
pub(crate) struct Wal {
    storage: Arc<dyn WalStorage>,
    shared: Arc<Mutex<Shared>>,
    seg_bytes: u64,
    /// Sequence number the next accepted update will get (1-based).
    pub(crate) next_seq: u64,
}

impl Wal {
    pub(crate) fn new(
        storage: Arc<dyn WalStorage>,
        next_seq: u64,
        seg_bytes: u64,
        track_flushed: bool,
    ) -> Wal {
        Wal {
            storage,
            shared: Arc::new(Mutex::new(Shared {
                seg: None,
                flushed: BTreeSet::new(),
                track_flushed,
            })),
            seg_bytes: seg_bytes.max(1024),
            next_seq,
        }
    }

    /// Handle for a [`GroupCommit`] thread to drain the buffer.
    pub(crate) fn shared(&self) -> Arc<Mutex<Shared>> {
        Arc::clone(&self.shared)
    }

    /// Appends the accepted `updates` as the next sequence numbers,
    /// under one lock. Each record lands in the open segment's buffer;
    /// it reaches storage on the next group tick, at a roll/checkpoint/sync,
    /// or at the buffer backstop. On an error the records before the
    /// failing one stay appended.
    pub(crate) fn append(&mut self, updates: &[Update]) -> io::Result<()> {
        let g = &mut *self
            .shared
            .lock()
            .expect("WAL buffers poisoned: the group-commit thread panicked");
        for update in updates {
            let seq = self.next_seq;
            if g.seg
                .as_ref()
                .is_some_and(|seg| seg.logical() >= self.seg_bytes)
            {
                // Write the closing segment out in full before dropping
                // it: a checkpoint fallback replays these records from
                // disk.
                g.write_through(&*self.storage)?;
                g.seg = None;
            }
            let seg = match &mut g.seg {
                Some(seg) => seg,
                empty => {
                    let name = segment_name(0, seq);
                    self.storage.create(&name)?;
                    let mut buf = Vec::with_capacity(4096);
                    buf.extend_from_slice(&encode_segment_header(0, seq));
                    empty.insert(Seg {
                        name,
                        written: 0,
                        buf,
                    })
                }
            };
            encode_record(seq, update, &mut seg.buf);
            self.next_seq = seq + 1;
            if seg.buf.len() >= MAX_BUFFER {
                g.write_through(&*self.storage)?;
            }
        }
        Ok(())
    }

    /// Writes the buffer through to storage (no fsync).
    pub(crate) fn flush(&mut self) -> io::Result<()> {
        self.shared.lock().unwrap().write_through(&*self.storage)
    }

    /// Flushes, then fsyncs every segment written through since the
    /// last sync round plus the open segment (the
    /// [`SyncPolicy::Always`] path and the shutdown path).
    pub(crate) fn sync(&mut self) -> io::Result<()> {
        let names = {
            let g = &mut *self.shared.lock().unwrap();
            g.write_through(&*self.storage)?;
            let mut names = std::mem::take(&mut g.flushed);
            names.extend(g.seg.iter().map(|s| s.name.clone()));
            names
        };
        for name in &names {
            self.storage.sync(name)?;
        }
        Ok(())
    }

    /// Flushes and closes the open segment; the next append starts a
    /// fresh one. Called after a checkpoint so pruning can reason in
    /// whole segments.
    pub(crate) fn roll(&mut self) -> io::Result<()> {
        let g = &mut *self.shared.lock().unwrap();
        g.write_through(&*self.storage)?;
        g.seg = None;
        Ok(())
    }
}

/// The group-commit thread: wakes on a fixed interval, writes the
/// buffered records through, and fsyncs each touched segment
/// once no matter how much piled up since the last tick — that
/// coalescing is the whole point. Storage failures set a flag the
/// writer checks on its next acknowledgement (fail-open) and are
/// counted; the data already written stays consistent.
pub(crate) struct GroupCommit {
    stop: Arc<AtomicBool>,
    failed: Arc<AtomicBool>,
    join: Option<JoinHandle<()>>,
}

impl GroupCommit {
    pub(crate) fn spawn(storage: Arc<dyn WalStorage>, shared: Arc<Mutex<Shared>>) -> GroupCommit {
        let stop = Arc::new(AtomicBool::new(false));
        let failed = Arc::new(AtomicBool::new(false));
        let errors = dynamis_obs::global().counter("durable_sync_errors_total");
        let syncs = dynamis_obs::global().counter("durable_group_syncs_total");
        let join = {
            let (stop, failed) = (Arc::clone(&stop), Arc::clone(&failed));
            std::thread::Builder::new()
                .name("dynamis-wal-sync".into())
                .spawn(move || loop {
                    let stopping = stop.load(Ordering::Acquire);
                    if !stopping {
                        std::thread::sleep(SYNC_INTERVAL);
                    }
                    let names = {
                        let g = &mut *shared.lock().unwrap();
                        if let Err(_e) = g.write_through(&*storage) {
                            errors.add(1);
                            failed.store(true, Ordering::Release);
                        }
                        std::mem::take(&mut g.flushed)
                    };
                    for name in &names {
                        if storage.sync(name).is_err() {
                            errors.add(1);
                            failed.store(true, Ordering::Release);
                        }
                    }
                    if !names.is_empty() {
                        syncs.add(1);
                    }
                    if stopping {
                        break;
                    }
                })
                .expect("failed to spawn WAL sync thread")
        };
        GroupCommit {
            stop,
            failed,
            join: Some(join),
        }
    }

    /// Whether the tick thread hit a storage error (sticky).
    pub(crate) fn failed(&self) -> bool {
        self.failed.load(Ordering::Acquire)
    }
}

impl Drop for GroupCommit {
    fn drop(&mut self) {
        // Ask for one final drain-and-fsync tick, then wait for it — a
        // clean shutdown leaves everything acknowledged durable.
        self.stop.store(true, Ordering::Release);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{decode_record, decode_segment_header, RecordStep, SEGMENT_HEADER_LEN};
    use crate::storage::MemStorage;

    #[test]
    fn records_stay_in_order_and_segments_roll() {
        let st = MemStorage::new();
        let mut wal = Wal::new(Arc::new(st.clone()), 1, 1024, true);
        let updates: Vec<_> = (0..6u32).map(|i| Update::InsertEdge(i, i + 1)).collect();
        wal.append(&updates).unwrap();
        assert_eq!(wal.next_seq, 7);
        // Records buffer in user space until a flush point.
        wal.flush().unwrap();
        let names = st.list().unwrap();
        assert_eq!(names, vec![segment_name(0, 1)], "one open segment");
        let bytes = st.read(&names[0]).unwrap();
        let hdr = decode_segment_header(&bytes).unwrap();
        assert_eq!((hdr.stream, hdr.start_seq), (0, 1));
        let mut off = SEGMENT_HEADER_LEN;
        let mut seqs = Vec::new();
        loop {
            match decode_record(&bytes, off) {
                RecordStep::Record { seq, next, .. } => {
                    seqs.push(seq);
                    off = next;
                }
                RecordStep::End => break,
                RecordStep::Damaged(what) => panic!("clean segment damaged: {what}"),
            }
        }
        assert_eq!(seqs, (1..=6).collect::<Vec<u64>>());
        // Roll: the next append opens a fresh segment at its seq.
        wal.roll().unwrap();
        wal.append(&[Update::InsertEdge(90, 91), Update::InsertEdge(92, 93)])
            .unwrap();
        wal.flush().unwrap();
        assert_eq!(
            st.list().unwrap(),
            vec![segment_name(0, 1), segment_name(0, 7)]
        );
    }

    #[test]
    fn group_tick_drains_buffers_without_writer_involvement() {
        let st = MemStorage::new();
        let mut wal = Wal::new(Arc::new(st.clone()), 1, 1 << 20, true);
        let group = GroupCommit::spawn(Arc::new(st.clone()), wal.shared());
        wal.append(&[Update::InsertEdge(1, 2)]).unwrap();
        let name = segment_name(0, 1);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while st.read(&name).unwrap().len() <= SEGMENT_HEADER_LEN {
            assert!(std::time::Instant::now() < deadline, "tick never drained");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(!group.failed());
        drop(group);
    }
}
