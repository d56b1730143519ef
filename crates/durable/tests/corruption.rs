//! Corruption fuzz: flip bits and truncate prefixes across **every
//! file** of a recorded durable directory, and require of each mutation
//! that recovery (a) never panics, (b) either returns a typed error or
//! recovers a strict prefix of the reference run — never a forged or
//! reordered stream. CRC32 catches every single-bit flip, so a flipped
//! record can only fall off the end (torn tail) or surface as a typed
//! `Corrupt`; a flipped checkpoint falls back to the older retained one.

use dynamis_core::{DynamicMis, EngineBuilder};
use dynamis_durable::format::{self, CKPT_K_OFFSET, CKPT_VERSION_OFFSET};
use dynamis_durable::{
    prepare, scan, DurableError, DurableOptions, MemStorage, SyncPolicy, WalStorage,
};
use dynamis_graph::{DynamicGraph, Update};
use rand::{rngs::SmallRng, Rng, SeedableRng};
use std::sync::Arc;

/// A clean recorded run: manifest, ≥ 2 retained checkpoints, several
/// rolled segments, plus the accepted stream for prefix checks.
struct Recorded {
    storage: MemStorage,
    accepted: Vec<Update>,
}

fn record(seed: u64) -> Recorded {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = 18u32;
    let mut edges = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.gen_range(0..4u32) == 0 {
                edges.push((u, v));
            }
        }
    }
    let g = DynamicGraph::from_edges(n as usize, &edges);
    let storage = MemStorage::new();
    let arc: Arc<dyn WalStorage> = Arc::new(storage.clone());
    let opts = DurableOptions {
        sync: SyncPolicy::Never,
        checkpoint_every: 12,
        segment_bytes: 200,
        keep_checkpoints: 2,
    };
    let mut prepared = prepare(arc, 2, opts).unwrap();
    let builder = prepared.resume_builder(EngineBuilder::on(g).k(2));
    let mut engine = prepared.attach(builder.build().unwrap()).unwrap();
    let mut accepted = Vec::new();
    for _ in 0..40 {
        let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
        let u = if rng.gen_range(0..2u32) == 0 {
            Update::InsertEdge(a, b)
        } else {
            Update::RemoveEdge(a, b)
        };
        if engine.try_apply(&u).is_ok() {
            accepted.push(u);
        }
    }
    drop(engine);
    Recorded { storage, accepted }
}

/// Deep-copies the recorded directory into a fresh [`MemStorage`]
/// (clones share state, so mutation tests need a real copy).
fn fork(of: &MemStorage) -> MemStorage {
    let copy = MemStorage::new();
    for name in of.list().unwrap() {
        copy.overwrite(&name, of.read(&name).unwrap());
    }
    copy
}

/// A scan outcome is acceptable iff it is a typed error or a strict
/// prefix of the reference accepted stream.
fn assert_survivable(result: Result<dynamis_durable::ScanReport, DurableError>, r: &Recorded) {
    match result {
        Ok(rep) => {
            let total = r.accepted.len() as u64;
            assert!(
                rep.recovered_seq <= total,
                "recovered {} beyond reference {}",
                rep.recovered_seq,
                total
            );
            assert!(rep.checkpoint_seq <= rep.recovered_seq);
            // The replay tail must be exactly the reference updates in
            // (checkpoint_seq, recovered_seq] — same order, no forgeries.
            let want = &r.accepted[rep.checkpoint_seq as usize..rep.recovered_seq as usize];
            assert_eq!(rep.tail, want, "recovered tail is not a reference slice");
        }
        Err(
            DurableError::Corrupt { .. }
            | DurableError::UnsupportedVersion { .. }
            | DurableError::KMismatch { .. }
            | DurableError::StreamMismatch { .. }
            | DurableError::NoCheckpoint
            | DurableError::NotInitialized,
        ) => {}
        Err(other) => panic!("scan failed with a non-recovery error: {other}"),
    }
}

#[test]
fn every_byte_bit_flip_never_panics_and_never_forges() {
    let r = record(11);
    let names = r.storage.list().unwrap();
    assert!(names.iter().filter(|n| n.starts_with("ckpt-")).count() >= 2);
    assert!(names.iter().filter(|n| n.starts_with("wal-")).count() >= 2);
    for name in &names {
        let len = r.storage.read(name).unwrap().len();
        for off in 0..len {
            // Low and high bit per byte: covers every field boundary
            // without an 8× blowup; CRC coverage is bit-position blind.
            for mask in [0x01u8, 0x80] {
                let fs = fork(&r.storage);
                fs.corrupt(name, off, mask);
                assert_survivable(scan(&fs, None), &r);
            }
        }
    }
}

#[test]
fn every_prefix_truncation_never_panics_and_never_forges() {
    let r = record(12);
    for name in r.storage.list().unwrap() {
        let len = r.storage.read(&name).unwrap().len();
        for keep in 0..len {
            let fs = fork(&r.storage);
            fs.truncate(&name, keep as u64).unwrap();
            assert_survivable(scan(&fs, None), &r);
        }
    }
}

#[test]
fn file_removal_never_panics_and_never_forges() {
    let r = record(13);
    for name in r.storage.list().unwrap() {
        let fs = fork(&r.storage);
        fs.remove(&name).unwrap();
        assert_survivable(scan(&fs, None), &r);
    }
}

/// A damaged newest checkpoint must fall back to the older retained one
/// and re-reach the same recovered sequence through the kept WAL.
#[test]
fn damaged_newest_checkpoint_falls_back_without_losing_updates() {
    let r = record(14);
    let reference = scan(&r.storage, None).unwrap();
    let mut ckpts: Vec<String> = r
        .storage
        .list()
        .unwrap()
        .into_iter()
        .filter(|n| format::parse_checkpoint_name(n).is_some())
        .collect();
    ckpts.sort();
    assert!(ckpts.len() >= 2, "need two retained checkpoints");
    let newest = ckpts.last().unwrap();

    let fs = fork(&r.storage);
    fs.corrupt(newest, format::CKPT_HEADER_LEN + 3, 0xFF); // body flip
    let rep = scan(&fs, None).unwrap();
    assert_eq!(rep.skipped_checkpoints, 1);
    assert!(rep.checkpoint_seq < reference.checkpoint_seq);
    assert_eq!(
        rep.recovered_seq, reference.recovered_seq,
        "fallback lost acknowledged updates"
    );
}

/// A checkpoint whose checksum is intact but whose graph section holds a
/// malformed edge list (each input reaches the decoder's degree count)
/// is damage: the decoder refuses it without panicking, and recovery
/// falls back to the older checkpoint without losing updates.
#[test]
fn checksummed_checkpoint_with_bad_edges_falls_back() {
    let r = record(20);
    let reference = scan(&r.storage, None).unwrap();
    let newest = format::checkpoint_name(reference.checkpoint_seq);
    let file = r.storage.read(&newest).unwrap();
    let (header, body) = file.split_at(format::CKPT_HEADER_LEN);
    let field = |at: usize| u32::from_le_bytes(header[at..at + 4].try_into().unwrap());
    let (k, streams) = (field(CKPT_K_OFFSET), field(CKPT_K_OFFSET + 4));
    // DYNG: magic, version, slots, bitmap, free count + stack, then m.
    let slots = u32::from_le_bytes(body[6..10].try_into().unwrap());
    let bitmap_end = 10 + slots.div_ceil(8) as usize;
    let nfree = u32::from_le_bytes(body[bitmap_end..bitmap_end + 4].try_into().unwrap());
    let m_at = bitmap_end + 4 + 4 * nfree as usize;
    let m = u64::from_le_bytes(body[m_at..m_at + 8].try_into().unwrap());
    assert!(m >= 2, "the recorded graph needs two edges to patch");
    let edge = |i: usize| m_at + 8 + 8 * i;
    let first = body[edge(0)..edge(1)].to_vec();
    let with = |at: usize, bytes: &[u8]| {
        let mut b = body.to_vec();
        b[at..at + bytes.len()].copy_from_slice(bytes);
        b
    };
    let pair = |u: u32, v: u32| [u.to_le_bytes(), v.to_le_bytes()].concat();
    // Clearing the first edge's lower endpoint in the liveness bitmap
    // leaves that edge on a dead slot.
    let u0 = u32::from_le_bytes(first[..4].try_into().unwrap());
    let alive_byte = 10 + (u0 / 8) as usize;
    let bad_bodies = [
        ("endpoint past the slots", with(edge(0), &pair(0, slots))),
        (
            "endpoint on a dead slot",
            with(alive_byte, &[body[alive_byte] & !(1 << (u0 % 8))]),
        ),
        ("reversed endpoints", with(edge(0), &pair(1, 0))),
        ("duplicate edge", with(edge(1), &first)),
        (
            "edge count past the section",
            with(m_at, &(m + 2).to_le_bytes()),
        ),
        (
            "overflowing edge count",
            with(m_at, &u64::MAX.to_le_bytes()),
        ),
    ];
    for (what, bad) in bad_bodies {
        let patched = format::encode_checkpoint(k, streams, reference.checkpoint_seq, |out| {
            out.extend_from_slice(&bad)
        });
        assert!(
            matches!(
                format::decode_checkpoint(&patched),
                format::CheckpointOutcome::Damaged("checkpoint snapshot does not decode")
            ),
            "{what}: not refused as an undecodable snapshot"
        );
        let fs = fork(&r.storage);
        fs.overwrite(&newest, patched);
        let rep = scan(&fs, None).unwrap();
        assert_eq!(rep.skipped_checkpoints, 1, "{what}");
        assert!(rep.checkpoint_seq < reference.checkpoint_seq, "{what}");
        assert_eq!(rep.recovered_seq, reference.recovered_seq, "{what}");
    }
}

/// Both retained checkpoints damaged: recovery refuses with the typed
/// `NoCheckpoint` rather than inventing an empty state.
#[test]
fn all_checkpoints_damaged_is_a_typed_refusal() {
    let r = record(15);
    let fs = fork(&r.storage);
    for name in fs.list().unwrap() {
        if format::parse_checkpoint_name(&name).is_some() {
            fs.corrupt(&name, CKPT_VERSION_OFFSET + 20, 0x55);
        }
    }
    match scan(&fs, None) {
        Err(DurableError::NoCheckpoint) => {}
        other => panic!("expected NoCheckpoint, got {other:?}"),
    }
}

#[test]
fn manifest_damage_is_a_typed_error() {
    let r = record(16);
    // Truncated manifest.
    let fs = fork(&r.storage);
    fs.truncate(format::MANIFEST_NAME, 10).unwrap();
    assert!(matches!(scan(&fs, None), Err(DurableError::Corrupt { .. })));
    // Missing manifest.
    let fs = fork(&r.storage);
    fs.remove(format::MANIFEST_NAME).unwrap();
    assert!(matches!(scan(&fs, None), Err(DurableError::NotInitialized)));
}

/// A checkpoint from a future format version is refused outright even
/// though its checksum is intact — never misread, never deleted.
#[test]
fn newer_checkpoint_version_is_refused_not_skipped() {
    let r = record(17);
    let fs = fork(&r.storage);
    let ckpt = fs
        .list()
        .unwrap()
        .into_iter()
        .rfind(|n| format::parse_checkpoint_name(n).is_some())
        .unwrap();
    // Bump the version field; the header CRC does not cover it (the
    // version gate must fire before any version-specific parsing).
    fs.corrupt(&ckpt, CKPT_VERSION_OFFSET, 0x02);
    match scan(&fs, None) {
        Err(DurableError::UnsupportedVersion { found, supported }) => {
            assert_eq!(found, format::FORMAT_VERSION | 0x02);
            assert_eq!(supported, format::FORMAT_VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

/// `prepare` against a k the directory was not written with is refused
/// before any repair runs.
#[test]
fn k_mismatch_refused_before_any_mutation() {
    let r = record(18);
    let fs = fork(&r.storage);
    let before: Vec<_> = fs.list().unwrap();
    let arc: Arc<dyn WalStorage> = Arc::new(fs.clone());
    match prepare(arc, 3, DurableOptions::default()) {
        Err(DurableError::KMismatch {
            found: 2,
            expected: 3,
        }) => {}
        Err(other) => panic!("expected KMismatch, got {other:?}"),
        Ok(_) => panic!("expected KMismatch, got Ok"),
    }
    assert_eq!(fs.list().unwrap(), before, "refusal must not mutate");
}

/// A checkpoint whose header claims a different `k` than the manifest
/// is a typed refusal — an honestly-written directory can never contain
/// one, and silently loading it would swap the engine's parameter.
#[test]
fn checkpoint_k_flip_is_a_typed_refusal() {
    let r = record(19);
    let fs = fork(&r.storage);
    let ckpt = fs
        .list()
        .unwrap()
        .into_iter()
        .rfind(|n| format::parse_checkpoint_name(n).is_some())
        .unwrap();
    fs.corrupt(&ckpt, CKPT_K_OFFSET, 0x01); // k: 2 → 3
    match scan(&fs, None) {
        Err(DurableError::KMismatch {
            found: 3,
            expected: 2,
        }) => {}
        other => panic!("expected KMismatch, got {other:?}"),
    }
}

/// A directory whose MANIFEST records two WAL streams cannot be read by
/// a single-stream writer: `prepare` refuses it whether or not any
/// other state exists, and so does `scan`, before any repair runs.
#[test]
fn multi_stream_manifest_is_a_typed_refusal() {
    let expect_mismatch = |what: &str, result: Result<_, DurableError>| match result {
        Err(DurableError::StreamMismatch {
            found: 2,
            expected: 1,
        }) => {}
        Err(other) => panic!("{what}: expected StreamMismatch, got {other:?}"),
        Ok(_) => panic!("{what}: expected StreamMismatch, got Ok"),
    };
    // A manifest and nothing else: the fresh-directory path.
    let fs = MemStorage::new();
    fs.overwrite(format::MANIFEST_NAME, format::encode_manifest(2, 2));
    let arc: Arc<dyn WalStorage> = Arc::new(fs.clone());
    expect_mismatch(
        "bare manifest",
        prepare(arc, 2, DurableOptions::default()).map(|_| ()),
    );
    assert_eq!(fs.list().unwrap(), vec![format::MANIFEST_NAME.to_string()]);

    // The same manifest over a valid directory's checkpoints and WAL.
    let r = record(21);
    let fs = fork(&r.storage);
    fs.overwrite(format::MANIFEST_NAME, format::encode_manifest(2, 2));
    let before = fs.list().unwrap();
    let arc: Arc<dyn WalStorage> = Arc::new(fs.clone());
    expect_mismatch(
        "prepare",
        prepare(arc, 2, DurableOptions::default()).map(|_| ()),
    );
    expect_mismatch("scan", scan(&fs, None).map(|_| ()));
    assert_eq!(fs.list().unwrap(), before, "refusal must not mutate");
}

/// A segment named for WAL stream 1 is corruption: a single-stream
/// writer never creates one, and its records cannot be placed.
#[test]
fn segment_of_a_second_stream_is_corrupt() {
    let r = record(22);
    let fs = fork(&r.storage);
    let stray = format::segment_name(1, 1);
    let mut bytes = format::encode_segment_header(1, 1);
    format::encode_record(1, &r.accepted[0], &mut bytes);
    fs.overwrite(&stray, bytes);
    match scan(&fs, None) {
        Err(DurableError::Corrupt { file, what }) => {
            assert_eq!(file, stray);
            assert_eq!(what, "segment stream index out of range");
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

/// A checkpoint whose header records two WAL streams is refused with
/// the typed error, never skipped as damage in favor of an older one.
#[test]
fn multi_stream_checkpoint_is_a_typed_refusal() {
    let r = record(23);
    let reference = scan(&r.storage, None).unwrap();
    let newest = format::checkpoint_name(reference.checkpoint_seq);
    let file = r.storage.read(&newest).unwrap();
    let k = u32::from_le_bytes(file[CKPT_K_OFFSET..CKPT_K_OFFSET + 4].try_into().unwrap());
    let body = &file[format::CKPT_HEADER_LEN..];
    let fs = fork(&r.storage);
    fs.overwrite(
        &newest,
        format::encode_checkpoint(k, 2, reference.checkpoint_seq, |out| {
            out.extend_from_slice(body)
        }),
    );
    match scan(&fs, None) {
        Err(DurableError::StreamMismatch {
            found: 2,
            expected: 1,
        }) => {}
        other => panic!("expected StreamMismatch, got {other:?}"),
    }
}
