//! Hot-path budget of the two production engines: allocator calls per
//! update, peak heap bytes per edge, and hash probes.
//!
//! The shape is the one the bounds were calibrated at: a Chung–Lu
//! graph (n = 10,000, β = 2.4, average degree 8, seed 77) and 20,000
//! updates of the paper's mixed stream. Every figure is a count of
//! allocator calls or bytes, so debug and release builds measure the
//! same numbers.

use dynamis_bench::alloc_track::{self, TrackingAlloc};
use dynamis_core::{DyOneSwap, DyTwoSwap, DynamicMis, EngineBuilder, EngineStats};
use dynamis_gen::powerlaw::chung_lu;
use dynamis_gen::{StreamConfig, UpdateStream};
use dynamis_graph::{DynamicGraph, Update};

// The counters are process-wide and the harness runs tests on parallel
// threads, so this binary holds one test, which measures both engines.
#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc;

/// What one engine spent over its whole life on the stream.
struct Spend {
    allocs_per_update: f64,
    peak_bytes_per_edge: f64,
    stats: EngineStats,
}

/// Clones `base`, builds an engine on the clone and applies `ups`. The
/// peak covers the clone, the build and every update.
fn spend<E: DynamicMis>(
    base: &DynamicGraph,
    ups: &[Update],
    build: impl FnOnce(DynamicGraph) -> E,
    stats: impl Fn(&E) -> EngineStats,
) -> Spend {
    alloc_track::reset_peak();
    let heap_before = alloc_track::current_bytes();
    let mut engine = build(base.clone());
    let allocs_before = alloc_track::alloc_count();
    for u in ups {
        engine.try_apply(u).expect("generated stream is valid");
    }
    let allocs = alloc_track::alloc_count() - allocs_before;
    let peak = alloc_track::peak_bytes() - heap_before;
    Spend {
        allocs_per_update: allocs as f64 / ups.len() as f64,
        peak_bytes_per_edge: peak as f64 / engine.graph().num_edges() as f64,
        stats: stats(&engine),
    }
}

#[test]
fn engines_stay_within_their_hot_path_budget() {
    let base = chung_lu(10_000, 2.4, 8.0, 77);
    let ups = UpdateStream::new(&base, StreamConfig::default(), 77 ^ 0xfeed).take_updates(20_000);

    let one = spend(
        &base,
        &ups,
        |g| EngineBuilder::on(g).build_as::<DyOneSwap>().unwrap(),
        DyOneSwap::stats,
    );
    let two = spend(
        &base,
        &ups,
        |g| EngineBuilder::on(g).build_as::<DyTwoSwap>().unwrap(),
        DyTwoSwap::stats,
    );

    // The graph keeps adjacency only. This shape measures 110.3 (k=1)
    // and 135.1 (k=2) bytes per edge; a pair-keyed edge index beside
    // the adjacency measured 138.4 and 163.2. The bounds leave under
    // 10% headroom, so such an index cannot return unnoticed.
    for (name, s, heap_bound) in [("DyOneSwap", one, 120.0), ("DyTwoSwap", two, 148.0)] {
        // Candidate-vector pooling (C₁ recycle + in-place validation)
        // keeps steady-state allocations near 1.09 (k=1) / 1.27 (k=2):
        // the remainder is the delta vectors handed to callers by
        // ownership. The bound sits between that and the pre-pooling
        // ~1.53/1.85, so a dead pool fails while normal variance does
        // not.
        assert!(
            s.allocs_per_update < 1.4,
            "{name}: {:.3} allocations per update (pooling broken?)",
            s.allocs_per_update
        );
        assert!(
            s.peak_bytes_per_edge < heap_bound,
            "{name}: peak heap grew to {:.1} bytes per edge (bound {heap_bound})",
            s.peak_bytes_per_edge
        );
        assert_eq!(
            (s.stats.entry_hash_probes, s.stats.hot_hash_probes),
            (0, 0),
            "{name}: the update path must not hash"
        );
    }
}
