//! Batch-mode extension: `try_apply_batch` must preserve every invariant
//! of per-update application (k-maximality, framework consistency) while
//! skipping intermediate swap cascades. The eager engines override the
//! trait default with a real deferred-drain batch path; every baseline
//! gets a correct batch path from the trait default — covered uniformly
//! here.

use dynamis::gen::{powerlaw::chung_lu, rng, stream::StreamConfig, uniform::gnm, UpdateStream};
use dynamis::statics::verify::{is_k_maximal_dynamic, is_maximal_dynamic};
use dynamis::EngineBuilder;
use dynamis::{
    BuildableEngine, DgDis, DyArw, DyOneSwap, DyTwoSwap, DynamicGraph, DynamicMis, EngineError,
    MaximalOnly, Restart, RestartSolver, SolutionMirror, Update,
};
use rand::Rng;

#[test]
fn batched_one_swap_is_one_maximal() {
    for seed in 0..5u64 {
        let g = gnm(30, 60, seed);
        let ups = UpdateStream::new(&g, StreamConfig::default(), seed ^ 1).take_updates(300);
        let mut e = EngineBuilder::on(g).build_as::<DyOneSwap>().unwrap();
        for chunk in ups.chunks(50) {
            e.try_apply_batch(chunk).unwrap();
            e.check_consistency()
                .unwrap_or_else(|err| panic!("seed {seed}: {err}"));
            assert!(
                is_k_maximal_dynamic(e.graph(), &e.solution(), 1),
                "seed {seed}: batch left a 1-swap open"
            );
        }
    }
}

#[test]
fn batched_two_swap_is_two_maximal() {
    for seed in 0..4u64 {
        let g = gnm(22, 40, seed + 9);
        let ups = UpdateStream::new(&g, StreamConfig::default(), seed ^ 3).take_updates(200);
        let mut e = EngineBuilder::on(g).build_as::<DyTwoSwap>().unwrap();
        for chunk in ups.chunks(40) {
            e.try_apply_batch(chunk).unwrap();
            e.check_consistency()
                .unwrap_or_else(|err| panic!("seed {seed}: {err}"));
            assert!(
                is_k_maximal_dynamic(e.graph(), &e.solution(), 2),
                "seed {seed}: batch left a ≤2-swap open"
            );
        }
    }
}

#[test]
fn batch_and_per_update_reach_same_graph() {
    let g = gnm(40, 80, 17);
    let ups = UpdateStream::new(&g, StreamConfig::default(), 18).take_updates(400);
    let mut per = EngineBuilder::on(g.clone())
        .build_as::<DyTwoSwap>()
        .unwrap();
    let mut bat = EngineBuilder::on(g).build_as::<DyTwoSwap>().unwrap();
    for u in &ups {
        per.try_apply(u).unwrap();
    }
    bat.try_apply_batch(&ups).unwrap();
    assert_eq!(per.graph().num_edges(), bat.graph().num_edges());
    assert_eq!(per.graph().num_vertices(), bat.graph().num_vertices());
    // Solutions may differ (both are valid 2-maximal sets), but both are
    // bound by the same guarantee and neither may be trivially bad.
    let floor = per.size().min(bat.size()) as f64;
    let ceil = per.size().max(bat.size()) as f64;
    assert!(
        ceil / floor < 1.25,
        "batch quality collapsed: {floor} vs {ceil}"
    );
}

#[test]
fn batch_skips_intermediate_swaps() {
    // A burst that inserts and immediately deletes the same edge over and
    // over: per-update mode churns swaps, batch mode sees a near-no-op.
    let g = gnm(30, 60, 23);
    let mut ups = Vec::new();
    let stream_edges: Vec<(u32, u32)> = g.edges().take(10).collect();
    for _ in 0..20 {
        for &(u, v) in &stream_edges {
            ups.push(dynamis::Update::RemoveEdge(u, v));
            ups.push(dynamis::Update::InsertEdge(u, v));
        }
    }
    let mut per = EngineBuilder::on(g.clone())
        .build_as::<DyOneSwap>()
        .unwrap();
    let mut bat = EngineBuilder::on(g).build_as::<DyOneSwap>().unwrap();
    for u in &ups {
        per.try_apply(u).unwrap();
    }
    bat.try_apply_batch(&ups).unwrap();
    assert!(
        bat.stats().one_swaps <= per.stats().one_swaps,
        "batching should not create extra swap work"
    );
    bat.check_consistency().unwrap();
}

/// Every baseline answers `try_apply_batch` through the trait default:
/// chunked batch application reaches the same graph as per-update
/// application, stays maximal (the invariant all four maintain), and
/// the returned deltas merge into an exact mirror of the solution.
#[test]
fn baselines_batch_via_the_trait_default() {
    let g = gnm(30, 60, 41);
    let ups = UpdateStream::new(&g, StreamConfig::default(), 42).take_updates(240);
    let on = |g: &DynamicGraph| EngineBuilder::on(g.clone());
    let engines: Vec<Box<dyn DynamicMis>> = vec![
        Box::new(on(&g).build_as::<DyArw>().unwrap()),
        Box::new(on(&g).build_as::<MaximalOnly>().unwrap()),
        Box::new(DgDis::one_dis(on(&g)).unwrap()),
        Box::new(DgDis::two_dis(on(&g)).unwrap()),
        Box::new(Restart::from_builder(on(&g), RestartSolver::Greedy, 16).unwrap()),
    ];
    for mut e in engines {
        let name = e.name();
        let mut mirror = SolutionMirror::new();
        mirror.apply(&e.drain_delta()).unwrap();
        for chunk in ups.chunks(48) {
            let delta = e
                .try_apply_batch(chunk)
                .unwrap_or_else(|err| panic!("{name}: batch rejected: {err}"));
            mirror.apply(&delta).unwrap();
            assert_eq!(
                mirror.solution(),
                e.solution(),
                "{name}: batch delta drifted"
            );
        }
        // Restart is only guaranteed maximal right after a solve; the
        // others maintain maximality continuously.
        if !name.starts_with("Restart") {
            assert!(
                is_maximal_dynamic(e.graph(), &e.solution()),
                "{name}: batch left the solution non-maximal"
            );
        }
    }
}

/// A rejected update inside a batch reports its index, keeps the valid
/// prefix applied, and leaves the engine consistent — for the real
/// batch path (eager engines) and the trait default (baselines) alike.
#[test]
fn batch_rejection_reports_index_and_keeps_prefix() {
    let edges = [(0, 1), (1, 2), (2, 3), (3, 4)];
    let schedule = [
        dynamis::Update::RemoveEdge(1, 2), // valid
        dynamis::Update::InsertEdge(0, 1), // duplicate → rejected at 1
        dynamis::Update::RemoveEdge(3, 4), // never reached
    ];
    // Eager engine: overridden batch path.
    let g = DynamicGraph::from_edges(5, &edges);
    let mut eager: DyTwoSwap = EngineBuilder::on(g).build_as().unwrap();
    let err = eager.try_apply_batch(&schedule).unwrap_err();
    assert!(matches!(err, dynamis::EngineError::Batch { index: 1, .. }));
    assert!(!eager.graph().has_edge(1, 2), "prefix applied");
    assert!(eager.graph().has_edge(3, 4), "suffix not applied");
    eager.check_consistency().unwrap();
    assert!(is_k_maximal_dynamic(eager.graph(), &eager.solution(), 2));
    // Baseline: trait-default batch path.
    let g = DynamicGraph::from_edges(5, &edges);
    let mut base: DyArw = EngineBuilder::on(g).build_as().unwrap();
    let err = base.try_apply_batch(&schedule).unwrap_err();
    assert!(matches!(err, dynamis::EngineError::Batch { index: 1, .. }));
    assert!(!base.graph().has_edge(1, 2));
    assert!(base.graph().has_edge(3, 4));
}

/// Drives twin engines with `try_apply(u)` and `try_apply_batch(&[u])`.
/// After every step they must give the same verdict and the same
/// `entered`/`left`, and hold the same solution. Returns how many
/// updates both rejected.
fn single_update_batches_match<E: BuildableEngine>(g: &DynamicGraph, ups: &[Update]) -> usize {
    let mut single: E = EngineBuilder::on(g.clone()).build_as().unwrap();
    let mut batch: E = EngineBuilder::on(g.clone()).build_as().unwrap();
    let name = single.name();
    let mut rejected = 0;
    for (i, u) in ups.iter().enumerate() {
        match (
            single.try_apply(u),
            batch.try_apply_batch(std::slice::from_ref(u)),
        ) {
            (Ok(a), Ok(b)) => assert_eq!(
                (a.entered, a.left),
                (b.entered, b.left),
                "{name} step {i}: deltas differ"
            ),
            (Err(a), Err(EngineError::Batch { index: 0, cause })) => {
                assert_eq!(a, *cause, "{name} step {i}: rejections differ");
                rejected += 1;
            }
            (a, b) => panic!("{name} step {i}: verdicts differ: {a:?} vs {b:?}"),
        }
        assert_eq!(
            single.solution(),
            batch.solution(),
            "{name} step {i}: solutions differ"
        );
    }
    rejected
}

/// Four seeded `gnm(60, 140)` mixed streams of 400 updates and one
/// `chung_lu(1000, 2.4, 8.0)` stream of 3,000, each with every 25th
/// update sent twice. The repeat is invalid (a duplicate or missing edge,
/// a dead vertex or a taken vertex id), so a twin test that refuses
/// exactly the repeats refuses `ups.len() / 26` updates.
fn streams_with_repeats() -> Vec<(DynamicGraph, Vec<Update>)> {
    let with_repeats = |ups: Vec<Update>| -> Vec<Update> {
        let mut out = Vec::with_capacity(ups.len() + ups.len() / 25);
        for (i, u) in ups.into_iter().enumerate() {
            if i % 25 == 24 {
                out.push(u.clone());
            }
            out.push(u);
        }
        out
    };
    let mut cases: Vec<(DynamicGraph, Vec<Update>)> = (0..4u64)
        .map(|seed| {
            let g = gnm(60, 140, seed);
            let ups =
                UpdateStream::new(&g, StreamConfig::default(), seed ^ 0x5eed).take_updates(400);
            (g, with_repeats(ups))
        })
        .collect();
    let g = chung_lu(1000, 2.4, 8.0, 5);
    let ups = UpdateStream::new(&g, StreamConfig::default(), 6).take_updates(3000);
    cases.push((g, with_repeats(ups)));
    cases
}

/// On the engines that override the batch path, a one-update batch is
/// the same call as `try_apply`, so a logged one-update frame may be
/// replayed through either. Both twins must refuse each repeat alike.
#[test]
fn single_update_batch_matches_try_apply() {
    for (g, ups) in &streams_with_repeats() {
        let repeats = ups.len() / 26;
        assert_eq!(single_update_batches_match::<DyOneSwap>(g, ups), repeats);
        assert_eq!(single_update_batches_match::<DyTwoSwap>(g, ups), repeats);
    }
}

/// Drives twin engines through the same seeded calls of 1–64 updates.
/// One twin gets each call whole. When that call is refused at index
/// `i`, the other gets only `call[..i]`, and both go on from `i + 1`.
/// After every call they must have drained the same `entered`/`left` and
/// hold the same solution and edge count. Returns the number of refusals.
fn refused_batches_match_their_prefix<E: BuildableEngine>(
    g: &DynamicGraph,
    ups: &[Update],
    perturbation: bool,
    seed: u64,
) -> usize {
    let build = || -> E {
        EngineBuilder::on(g.clone())
            .perturbation(perturbation)
            .build_as()
            .unwrap()
    };
    let (mut whole, mut prefix) = (build(), build());
    let name = whole.name();
    let mut sizes = rng(seed);
    let (mut at, mut refused) = (0, 0);
    while at < ups.len() {
        let call = &ups[at..(at + sizes.gen_range(1..65usize)).min(ups.len())];
        match whole.try_apply_batch(call) {
            Ok(_) => {
                prefix.try_apply_batch(call).unwrap();
                at += call.len();
            }
            Err(EngineError::Batch { index, .. }) => {
                prefix.try_apply_batch(&call[..index]).unwrap();
                refused += 1;
                at += index + 1;
            }
            Err(e) => panic!("{name}: a batch failed without an index: {e}"),
        }
        let (a, b) = (whole.drain_delta(), prefix.drain_delta());
        assert_eq!(
            (a.entered, a.left),
            (b.entered, b.left),
            "{name}: deltas differ before update {at}"
        );
        assert_eq!(
            whole.solution(),
            prefix.solution(),
            "{name}: solutions differ before update {at}"
        );
        assert_eq!(
            whole.graph().num_edges(),
            prefix.graph().num_edges(),
            "{name}: edge counts differ before update {at}"
        );
    }
    refused
}

/// `try_apply_batch` documents that a refused batch keeps its valid
/// prefix applied and still runs the drain. So it must leave the engine
/// exactly where the prefix alone, as a batch of its own, does: that
/// prefix is what a log of accepted updates holds for the call.
#[test]
fn refused_batch_matches_its_prefix_batch() {
    for (seed, (g, ups)) in (0u64..).zip(&streams_with_repeats()) {
        let repeats = ups.len() / 26;
        for perturbation in [false, true] {
            assert_eq!(
                refused_batches_match_their_prefix::<DyOneSwap>(g, ups, perturbation, seed),
                repeats
            );
            assert_eq!(
                refused_batches_match_their_prefix::<DyTwoSwap>(g, ups, perturbation, seed),
                repeats
            );
        }
    }
}
