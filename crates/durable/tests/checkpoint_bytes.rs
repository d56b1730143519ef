//! Checkpoints are encoded straight from the live engine, in one pass
//! over its graph. This pins that every checkpoint file `Logged` writes
//! is byte for byte what the earlier copy-and-sort path wrote: clone the
//! graph, encode it with the collect-and-sort reference, append the
//! solution section, and wrap the body with `encode_checkpoint`. That
//! equality is why the one-pass encoder needed no format version bump.

use dynamis_core::{DynamicMis, EngineBuilder};
use dynamis_durable::format::{checkpoint_name, encode_checkpoint};
use dynamis_durable::{prepare, DurableOptions, MemStorage, SyncPolicy, WalStorage};
use dynamis_graph::{DynamicGraph, Update};
use proptest::prelude::*;
use rand::{rngs::SmallRng, Rng, SeedableRng};
use std::sync::Arc;

#[path = "../../graph/src/io/binary_reference.rs"]
mod binary_reference;

/// The checkpoint file the copy-and-sort path wrote for `engine` at `seq`.
fn reference_checkpoint(k: u32, seq: u64, engine: &dyn DynamicMis) -> Vec<u8> {
    let graph = engine.graph().clone();
    let mut body = binary_reference::encode_sorted(&graph);
    let solution = engine.solution();
    body.extend_from_slice(&(solution.len() as u64).to_le_bytes());
    for v in solution {
        body.extend_from_slice(&v.to_le_bytes());
    }
    encode_checkpoint(k, 1, seq, |out| out.extend_from_slice(&body))
}

/// A random update over the engine's current graph. Vertex removals and
/// insertions (at the id the graph hands out next) are frequent, so free
/// slots pile up out of id order and get recycled.
fn random_update(rng: &mut SmallRng, g: &DynamicGraph) -> Update {
    let slots = g.capacity().max(1) as u32;
    let (a, b) = (rng.gen_range(0..slots), rng.gen_range(0..slots));
    match rng.gen_range(0..10u32) {
        0..=3 => Update::InsertEdge(a, b),
        4..=5 => Update::RemoveEdge(a, b),
        6..=7 => Update::RemoveVertex(a),
        _ => Update::InsertVertex {
            id: g.next_vertex_id(),
            neighbors: if a == b { vec![a] } else { vec![a, b] },
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn logged_checkpoints_equal_the_copy_and_sort_encoding(
        seed in 0u64..1_000_000,
        k in 1u32..3,
        every in 1u64..4,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = rng.gen_range(8..40u32);
        let mut edges = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                if rng.gen_range(0..5u32) == 0 {
                    edges.push((u, v));
                }
            }
        }
        let storage = MemStorage::new();
        let arc: Arc<dyn WalStorage> = Arc::new(storage.clone());
        let opts = DurableOptions {
            sync: SyncPolicy::Never,
            checkpoint_every: every,
            ..DurableOptions::default()
        };
        let mut prepared = prepare(arc, k, opts).unwrap();
        let builder = prepared
            .resume_builder(EngineBuilder::on(DynamicGraph::from_edges(n as usize, &edges)).k(k as usize));
        let mut engine = prepared.attach(builder.build().unwrap()).unwrap();
        prop_assert_eq!(
            storage.read(&checkpoint_name(0)).unwrap(),
            reference_checkpoint(k, 0, &engine)
        );
        // Checkpoints compared while two or more freed slots await reuse.
        let mut with_free_stack = 0;
        for _ in 0..150 {
            let update = random_update(&mut rng, engine.graph());
            if engine.try_apply(&update).is_err() {
                continue;
            }
            let seq = engine.last_seq();
            // A checkpoint is written by the update that completes its
            // interval, so the engine still holds the state it encoded.
            if let Ok(file) = storage.read(&checkpoint_name(seq)) {
                prop_assert_eq!(file, reference_checkpoint(k, seq, &engine), "checkpoint {}", seq);
                let g = engine.graph();
                if g.capacity() - g.num_vertices() >= 2 {
                    with_free_stack += 1;
                }
            }
        }
        prop_assert!(with_free_stack > 0, "no checkpoint held two free slots");
    }
}
