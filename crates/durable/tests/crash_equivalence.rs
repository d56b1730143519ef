//! The central durability theorem, checked exhaustively: crash the
//! process at **every byte offset** of a recorded run, recover, replay
//! the remainder of the input stream — and the final solution, sequence
//! number, and a delta-fed [`SolutionMirror`] all equal those of a run
//! that never crashed. Both runs apply one update per `try_apply` call,
//! as `replay_tail` does, and engines driven that way are pure functions
//! of their accepted stream, so recovery that restores any consistent
//! prefix and re-feeds the rest must land on the identical state; any
//! divergence means the WAL lost, duplicated, or reordered an accepted
//! update. (Calls of several updates through `try_apply_batch`, as a
//! served run makes, can reach another state; this sweep does not
//! cover them.)
//!
//! One sweep crashes at every byte; a proptest randomizes the update
//! stream and the crash offset together.

use dynamis_core::{DynamicMis, EngineBuilder, SolutionMirror};
use dynamis_durable::{prepare, DurableOptions, Logged, MemStorage, SyncPolicy, WalStorage};
use dynamis_graph::{DynamicGraph, Update};
use proptest::prelude::*;
use rand::{rngs::SmallRng, Rng, SeedableRng};
use std::sync::Arc;

/// A small dense-ish graph plus a mixed update stream over it. Roughly
/// half the updates are rejected (duplicate edges, missing endpoints) —
/// deliberately, to pin that only *accepted* updates reach the WAL.
fn workload(n: u32, updates: usize, seed: u64) -> (DynamicGraph, Vec<Update>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut edges = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.gen_range(0..4u32) == 0 {
                edges.push((u, v));
            }
        }
    }
    let g = DynamicGraph::from_edges(n as usize, &edges);
    let mut stream = Vec::with_capacity(updates);
    let mut next_vertex = n;
    for _ in 0..updates {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        stream.push(match rng.gen_range(0..10u32) {
            0..=3 => Update::InsertEdge(a, b),
            4..=7 => Update::RemoveEdge(a, b),
            8 => {
                next_vertex += 1;
                Update::InsertVertex {
                    id: next_vertex,
                    neighbors: vec![a, b],
                }
            }
            _ => Update::RemoveVertex(a),
        });
    }
    (g, stream)
}

fn opts() -> DurableOptions {
    DurableOptions {
        sync: SyncPolicy::Always,
        checkpoint_every: 16,
        segment_bytes: 256, // force rolls so sweeps cross segment seams
        ..DurableOptions::default()
    }
}

/// The uninterrupted reference run.
struct Reference {
    /// `pos_of_seq[s - 1]` = stream index of the update that got seq `s`.
    pos_of_seq: Vec<usize>,
    solution: Vec<u32>,
    accepted: u64,
    /// Total bytes the run appended — the crash sweep's coordinate space.
    bytes: u64,
}

fn reference(g: &DynamicGraph, stream: &[Update]) -> Reference {
    let storage = MemStorage::new();
    let arc: Arc<dyn WalStorage> = Arc::new(storage.clone());
    let mut prepared = prepare(arc, 2, opts()).unwrap();
    let builder = prepared.resume_builder(EngineBuilder::on(g.clone()).k(2));
    let mut engine = prepared.attach(builder.build().unwrap()).unwrap();
    let mut pos_of_seq = Vec::new();
    for (i, u) in stream.iter().enumerate() {
        if engine.try_apply(u).is_ok() {
            pos_of_seq.push(i);
        }
    }
    assert!(engine.wal_healthy());
    let solution = engine.solution();
    let accepted = engine.last_seq();
    drop(engine);
    Reference {
        pos_of_seq,
        solution,
        accepted,
        bytes: storage.total_appended(),
    }
}

/// One crash trial: run until the storage dies at byte `budget`, then
/// restart, recover, and replay the rest of the input stream. Returns
/// (solution, last_seq, mirror solution) of the second life.
fn crash_at(
    g: &DynamicGraph,
    stream: &[Update],
    reference: &Reference,
    budget: u64,
) -> (Vec<u32>, u64, Vec<u32>) {
    let storage = MemStorage::with_budget(budget);
    let arc: Arc<dyn WalStorage> = Arc::new(storage.clone());

    // First life: any stage — init, bootstrap checkpoint, append, mid-run
    // checkpoint — may hit the fault. The process "dies" at the first
    // storage failure (fail-open would keep serving, but a crash test
    // models the host going down with it).
    let first_life = (|| -> Result<(), ()> {
        let mut prepared = prepare(Arc::clone(&arc), 2, opts()).map_err(|_| ())?;
        let builder = prepared.resume_builder(EngineBuilder::on(g.clone()).k(2));
        let mut engine = prepared.attach(builder.build().unwrap()).map_err(|_| ())?;
        for u in stream {
            let _ = engine.try_apply(u);
            if storage.is_dead() {
                // The process is gone; the destructor's final sync
                // cannot reach the dead storage, so dropping here
                // mutates nothing post-crash.
                break;
            }
        }
        drop(engine);
        Ok(())
    })();
    let _ = first_life;

    // Second life: restart against the surviving bytes.
    storage.revive();
    let mut prepared = prepare(arc, 2, opts()).unwrap();
    let recovered = prepared.recovered_seq;
    assert!(
        recovered <= reference.accepted,
        "recovered seq {recovered} beyond reference {}",
        reference.accepted
    );
    let resume_at = if recovered == 0 {
        0
    } else {
        reference.pos_of_seq[recovered as usize - 1] + 1
    };
    let builder = prepared.resume_builder(EngineBuilder::on(g.clone()).k(2));
    let mut engine = prepared.attach(builder.build().unwrap()).unwrap();
    let _ = engine.drain_delta();
    let mut mirror = SolutionMirror::from_solution(&engine.solution());
    for u in &stream[resume_at..] {
        if let Ok(delta) = engine.try_apply(u) {
            mirror.apply(&delta).unwrap();
        }
    }
    assert!(engine.wal_healthy());
    let out = (
        engine.solution(),
        engine.last_seq(),
        mirror.solution().to_vec(),
    );
    drop(engine);
    out
}

fn check_equivalence(n: u32, updates: usize, seed: u64, stride: u64) {
    let (g, stream) = workload(n, updates, seed);
    let r = reference(&g, &stream);
    assert!(r.accepted > 0, "degenerate workload: nothing accepted");
    let mut offset = 0;
    while offset <= r.bytes {
        let (solution, seq, mirror) = crash_at(&g, &stream, &r, offset);
        assert_eq!(
            solution, r.solution,
            "crash at byte {offset}: solution diverged"
        );
        assert_eq!(seq, r.accepted, "crash at byte {offset}: seq diverged");
        assert_eq!(
            mirror, r.solution,
            "crash at byte {offset}: delta mirror diverged"
        );
        offset += stride;
    }
}

#[test]
fn single_writer_crash_at_every_byte() {
    check_equivalence(24, 48, 0xD15C0, 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random workload × random crash offset.
    #[test]
    fn random_stream_random_crash(seed in 0u64..1u32 as u64 * 1000, frac in 0.0f64..1.0) {
        let (g, stream) = workload(20, 32, seed);
        let r = reference(&g, &stream);
        prop_assert!(r.accepted > 0, "degenerate workload: nothing accepted");
        let offset = (frac * r.bytes as f64) as u64;
        let (solution, seq, mirror) = crash_at(&g, &stream, &r, offset);
        prop_assert_eq!(&solution, &r.solution);
        prop_assert_eq!(seq, r.accepted);
        prop_assert_eq!(&mirror, &r.solution);
    }
}

/// The recovered engine must also be *reusable*: appends after recovery
/// land in fresh segments and a subsequent recovery sees both epochs.
#[test]
fn recovery_then_more_updates_then_recovery_again() {
    let (g, stream) = workload(20, 40, 7);
    let r = reference(&g, &stream);
    let half = stream.len() / 2;

    // Enough budget to get past init and into the update stream; the
    // every-byte sweeps above cover crashes inside init itself.
    let storage = MemStorage::with_budget(r.bytes * 2 / 3);
    let arc: Arc<dyn WalStorage> = Arc::new(storage.clone());
    {
        let mut prepared = prepare(Arc::clone(&arc), 2, opts()).unwrap();
        let builder = prepared.resume_builder(EngineBuilder::on(g.clone()).k(2));
        let mut engine = prepared.attach(builder.build().unwrap()).unwrap();
        for u in &stream[..half] {
            let _ = engine.try_apply(u);
            if storage.is_dead() {
                break;
            }
        }
    }

    storage.revive();
    let mut prepared = prepare(Arc::clone(&arc), 2, opts()).unwrap();
    let recovered = prepared.recovered_seq;
    let resume_at = if recovered == 0 {
        0
    } else {
        r.pos_of_seq[recovered as usize - 1] + 1
    };
    let builder = prepared.resume_builder(EngineBuilder::on(g.clone()).k(2));
    let mut engine: Logged = prepared.attach(builder.build().unwrap()).unwrap();
    for u in &stream[resume_at..] {
        let _ = engine.try_apply(u);
    }
    assert!(engine.wal_healthy());
    drop(engine); // clean shutdown this time

    // Third life: everything including the post-crash epoch is there.
    let mut prepared = prepare(arc, 2, opts()).unwrap();
    assert_eq!(prepared.recovered_seq, r.accepted);
    let builder = prepared.resume_builder(EngineBuilder::on(g).k(2));
    let engine = prepared.attach(builder.build().unwrap()).unwrap();
    assert_eq!(engine.solution(), r.solution);
}

/// A checkpoint taken after vertex slots were freed out of id order
/// must recycle them in the live order on recovery: the WAL tail's
/// vertex insertion takes the most recently freed slot again.
#[test]
fn checkpoint_with_out_of_order_frees_replays_a_vertex_insert() {
    let storage = MemStorage::new();
    let arc: Arc<dyn WalStorage> = Arc::new(storage.clone());
    let opts = DurableOptions {
        sync: SyncPolicy::Never,
        checkpoint_every: 4,
        ..DurableOptions::default()
    };
    let g = DynamicGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
    let mut prepared = prepare(Arc::clone(&arc), 2, opts).unwrap();
    let builder = prepared.resume_builder(EngineBuilder::on(g).k(2));
    let mut live = prepared.attach(builder.build().unwrap()).unwrap();
    // Four accepted updates: the checkpoint at seq 4 holds slots 3 and
    // 1 free, with 1 next in line.
    for u in [
        Update::RemoveVertex(3),
        Update::RemoveVertex(1),
        Update::InsertEdge(0, 2),
        Update::InsertEdge(0, 5),
    ] {
        live.try_apply(&u).unwrap();
    }
    assert_eq!(live.graph().next_vertex_id(), 1);
    live.try_apply(&Update::InsertVertex {
        id: 1,
        neighbors: vec![0, 4],
    })
    .unwrap();
    let (solution, seq) = (live.solution(), live.last_seq());
    let mut edges: Vec<_> = live.graph().edges().collect();
    let next_id = live.graph().next_vertex_id();
    drop(live);

    let mut prepared = prepare(arc, 2, opts).unwrap();
    assert_eq!(
        (prepared.checkpoint_seq, prepared.recovered_seq),
        (4, seq),
        "the vertex insert is in the replayed tail"
    );
    let builder = prepared.resume_builder(EngineBuilder::on(DynamicGraph::new()).k(2));
    let recovered = prepared.attach(builder.build().unwrap()).unwrap();
    assert_eq!(recovered.solution(), solution);
    assert_eq!(recovered.graph().next_vertex_id(), next_id);
    let mut recovered_edges: Vec<_> = recovered.graph().edges().collect();
    edges.sort_unstable();
    recovered_edges.sort_unstable();
    assert_eq!(recovered_edges, edges);
}
