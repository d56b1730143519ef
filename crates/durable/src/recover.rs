//! The read side: scan a durable directory, validate every byte, and
//! reconstruct the longest consistent prefix of the accepted stream.
//!
//! Recovery invariants:
//!
//! - The newest **valid** checkpoint is the base; checkpoints damaged
//!   by a crash mid-publish are skipped in favor of an older one (the
//!   writer keeps more than one for exactly this reason).
//! - A newer *format version*, a mismatched *k*, or a stream count
//!   other than one is a typed refusal, never a fallback — those mean
//!   operator error, and guessing would silently produce a different
//!   solution.
//! - Only the **final** segment may end in damage (the torn tail of the
//!   crashed write); recovery truncates it rather than trusting it.
//!   Damage anywhere else cannot be produced by a crash and is reported
//!   as corruption.
//! - The recovered stream is the longest *contiguous* run of sequence
//!   numbers above the checkpoint. Records beyond a gap (possible only
//!   when a segment file went missing) are dropped and their bytes
//!   scheduled for truncation, so a reopened log never collides with
//!   stale sequence numbers.

use crate::error::DurableError;
use crate::format::{
    decode_checkpoint, decode_manifest, decode_record, decode_segment_header, is_tmp_name,
    parse_checkpoint_name, parse_segment_name, CheckpointOutcome, Manifest, RecordStep,
    MANIFEST_NAME, SEGMENT_HEADER_LEN,
};
use crate::storage::WalStorage;
use crate::wal::STREAMS;
use dynamis_core::{DynamicMis, Snapshot};
use dynamis_graph::Update;
use std::collections::BTreeMap;

/// A mutation `scan` prescribes but does not perform: dropping torn
/// tails, stale temporaries, and orphaned records. `verify` mode
/// reports them; `replay` mode (and every reopen-for-writing) applies
/// them via [`apply_repairs`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Repair {
    /// Cut `name` down to `len` bytes.
    Truncate {
        /// File to truncate.
        name: String,
        /// Valid byte length to keep.
        len: u64,
    },
    /// Delete `name` entirely.
    Remove {
        /// File to delete.
        name: String,
    },
}

/// Everything a scan learned about a durable directory.
#[derive(Debug)]
pub struct ScanReport {
    /// The directory's pinned identity.
    pub manifest: Manifest,
    /// Sequence number the recovered snapshot covers (inclusive).
    pub checkpoint_seq: u64,
    /// The engine state at `checkpoint_seq`.
    pub snapshot: Snapshot,
    /// Last sequence number of the recovered prefix; the directory
    /// holds the exact state of an uninterrupted run of this length.
    pub recovered_seq: u64,
    /// The WAL tail to replay: updates `checkpoint_seq + 1 ..= recovered_seq`.
    pub tail: Vec<Update>,
    /// Mutations required to make the directory clean for appending.
    pub repairs: Vec<Repair>,
    /// Newest-first checkpoints skipped as damaged before one validated.
    pub skipped_checkpoints: usize,
    /// Bytes of torn tail scheduled for truncation.
    pub torn_bytes: u64,
    /// Decodable records dropped because they lie beyond a sequence gap.
    pub dropped_records: u64,
}

/// The newest valid checkpoint in a durable directory — the read path
/// a cold-starting consumer needs without a full [`scan`].
#[derive(Debug)]
pub struct NewestCheckpoint {
    /// Sequence number the checkpoint covers (inclusive).
    pub seq: u64,
    /// The engine state at `seq`.
    pub snapshot: Snapshot,
    /// Checkpoint files skipped as damaged (crash artifacts) before one
    /// validated, newest-first. Mutating callers schedule these for
    /// removal; read-only callers just report them.
    pub damaged: Vec<String>,
}

/// Selects the newest **valid** checkpoint among `names`, skipping
/// crash-damaged ones in favor of an older survivor. This is the
/// checkpoint read path shared by [`scan`] and external cold-start
/// consumers (e.g. a snapshot bootstrap server deciding what a fresh
/// remote mirror should seed from). A checkpoint with a mismatched `k`,
/// a stream count other than one, or a newer format version is a typed
/// refusal — never a fallback.
pub fn newest_checkpoint(
    storage: &dyn WalStorage,
    manifest: &Manifest,
    names: &[String],
) -> Result<NewestCheckpoint, DurableError> {
    let mut ckpts: Vec<(u64, &String)> = names
        .iter()
        .filter_map(|n| parse_checkpoint_name(n).map(|seq| (seq, n)))
        .collect();
    ckpts.sort_by_key(|c| std::cmp::Reverse(c.0));
    let mut damaged = Vec::new();
    for &(name_seq, name) in &ckpts {
        match decode_checkpoint(&storage.read(name)?) {
            CheckpointOutcome::Valid(hdr, snapshot) => {
                if hdr.k != manifest.k {
                    return Err(DurableError::KMismatch {
                        found: hdr.k,
                        expected: manifest.k,
                    });
                }
                if hdr.streams != STREAMS {
                    return Err(DurableError::StreamMismatch {
                        found: hdr.streams,
                        expected: STREAMS,
                    });
                }
                if hdr.seq != name_seq {
                    // A checkpoint lying about its own name is damage.
                    damaged.push(name.clone());
                    continue;
                }
                return Ok(NewestCheckpoint {
                    seq: hdr.seq,
                    snapshot,
                    damaged,
                });
            }
            CheckpointOutcome::NewerVersion(found) => {
                return Err(DurableError::UnsupportedVersion {
                    found,
                    supported: crate::format::FORMAT_VERSION,
                });
            }
            CheckpointOutcome::Damaged(_) => damaged.push(name.clone()),
        }
    }
    Err(DurableError::NoCheckpoint)
}

/// Scans `storage` without mutating it. `expected_k` (when given) must
/// match the manifest, and the manifest must record one stream, else
/// the scan is refused with the corresponding typed error.
pub fn scan(storage: &dyn WalStorage, expected_k: Option<u32>) -> Result<ScanReport, DurableError> {
    let names = storage.list()?;
    if !names.iter().any(|n| n == MANIFEST_NAME) {
        return Err(DurableError::NotInitialized);
    }
    let manifest = decode_manifest(&storage.read(MANIFEST_NAME)?)?;
    if let Some(k) = expected_k {
        if manifest.k != k {
            return Err(DurableError::KMismatch {
                found: manifest.k,
                expected: k,
            });
        }
    }
    if manifest.streams != STREAMS {
        return Err(DurableError::StreamMismatch {
            found: manifest.streams,
            expected: STREAMS,
        });
    }

    let mut removes: Vec<String> = names.iter().filter(|n| is_tmp_name(n)).cloned().collect();
    let mut truncates: BTreeMap<String, u64> = BTreeMap::new();
    let mut torn_bytes = 0u64;

    // ---- newest valid checkpoint, skipping crash-damaged ones --------
    let picked = newest_checkpoint(storage, &manifest, &names)?;
    let skipped_checkpoints = picked.damaged.len();
    removes.extend(picked.damaged);
    let (checkpoint_seq, snapshot) = (picked.seq, picked.snapshot);

    // ---- decode the segments, oldest first ---------------------------
    let mut files: Vec<(u64, String)> = Vec::new();
    for n in &names {
        if let Some((stream, start_seq)) = parse_segment_name(n) {
            if stream != 0 {
                return Err(DurableError::Corrupt {
                    file: n.clone(),
                    what: "segment stream index out of range",
                });
            }
            files.push((start_seq, n.clone()));
        }
    }
    files.sort();
    // The longest contiguous prefix above the checkpoint, and where the
    // first record beyond a gap lives so the orphans can be cut.
    let mut recovered_seq = checkpoint_seq;
    let mut tail = Vec::new();
    let mut orphan: Option<(usize, u64)> = None;
    let mut dropped_records = 0u64;
    let mut last_seq: Option<u64> = None;
    for (fi, (start_seq, name)) in files.iter().enumerate() {
        let last_file = fi == files.len() - 1;
        let bytes = storage.read(name)?;
        // Damage verdict for this position in the log: the final
        // segment's tail is a legal crash artifact (truncate it);
        // anything earlier no crash can produce.
        let hdr = match decode_segment_header(&bytes) {
            Ok(hdr) => hdr,
            Err(what) => {
                if last_file {
                    removes.push(name.clone());
                    torn_bytes += bytes.len() as u64;
                    break;
                }
                return Err(DurableError::Corrupt {
                    file: name.clone(),
                    what,
                });
            }
        };
        if hdr.stream != 0 || hdr.start_seq != *start_seq {
            if last_file {
                removes.push(name.clone());
                torn_bytes += bytes.len() as u64;
                break;
            }
            return Err(DurableError::Corrupt {
                file: name.clone(),
                what: "segment header disagrees with its file name",
            });
        }
        let mut off = SEGMENT_HEADER_LEN;
        loop {
            match decode_record(&bytes, off) {
                RecordStep::End => break,
                RecordStep::Damaged(what) => {
                    if last_file {
                        truncates.insert(name.clone(), off as u64);
                        torn_bytes += (bytes.len() - off) as u64;
                        break;
                    }
                    return Err(DurableError::Corrupt {
                        file: name.clone(),
                        what,
                    });
                }
                RecordStep::Record { seq, update, next } => {
                    if last_seq.is_some_and(|p| seq <= p) {
                        return Err(DurableError::Corrupt {
                            file: name.clone(),
                            what: "sequence numbers not increasing",
                        });
                    }
                    last_seq = Some(seq);
                    if seq > checkpoint_seq {
                        if orphan.is_none() && seq == recovered_seq + 1 {
                            recovered_seq = seq;
                            tail.push(update);
                        } else {
                            orphan.get_or_insert((fi, off as u64));
                            dropped_records += 1;
                        }
                    }
                    off = next;
                }
            }
        }
    }
    if let Some((fi, off)) = orphan {
        // Cut the log at its first orphan so reopened appends can never
        // collide with stale sequence numbers.
        let name = &files[fi].1;
        let cut = truncates.get(name).map_or(off, |&t| t.min(off));
        truncates.insert(name.clone(), cut);
        for (_, later) in &files[fi + 1..] {
            removes.push(later.clone());
        }
    }

    let mut repairs: Vec<Repair> = Vec::new();
    for name in removes {
        truncates.remove(&name);
        repairs.push(Repair::Remove { name });
    }
    repairs.extend(
        truncates
            .into_iter()
            .map(|(name, len)| Repair::Truncate { name, len }),
    );

    Ok(ScanReport {
        manifest,
        checkpoint_seq,
        snapshot,
        recovered_seq,
        tail,
        repairs,
        skipped_checkpoints,
        torn_bytes,
        dropped_records,
    })
}

/// Replays a WAL tail into `engine` (built from the checkpoint at
/// `checkpoint_seq`), one update per call, never a batch: batched
/// application is free to skip intermediate swap cascades (the state is
/// k-maximal either way but need not be *the same* state), and recovery
/// promises the exact per-update state. Every consumer that rebuilds a
/// recovered state goes through here, so they all land on the same one.
pub fn replay_tail(
    engine: &mut dyn DynamicMis,
    checkpoint_seq: u64,
    tail: &[Update],
) -> Result<(), DurableError> {
    for (index, u) in tail.iter().enumerate() {
        if let Err(cause) = engine.try_apply(u) {
            return Err(DurableError::Replay {
                seq: checkpoint_seq + 1 + index as u64,
                cause,
            });
        }
    }
    Ok(())
}

/// Applies the repairs a scan prescribed. Idempotent: re-running after
/// a crash mid-repair converges to the same clean directory.
pub fn apply_repairs(storage: &dyn WalStorage, repairs: &[Repair]) -> std::io::Result<()> {
    for r in repairs {
        match r {
            Repair::Truncate { name, len } => storage.truncate(name, *len)?,
            Repair::Remove { name } => match storage.remove(name) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            },
        }
    }
    Ok(())
}
