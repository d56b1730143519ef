//! Property-based tests for the extension modules: snapshots, certify,
//! Restart, GenericKSwap at k = 3, temporal workloads, and the intrusive
//! half-edge payload layer.

use dynamis::baselines::{Restart, RestartSolver};
use dynamis::gen::temporal::{burst, BurstConfig};
use dynamis::gen::{stream::StreamConfig, uniform::gnm, UpdateStream};
use dynamis::statics::certify::{certify_independent, certify_one_maximal};
use dynamis::statics::verify::{compact_live, is_k_maximal_dynamic};
use dynamis::EngineBuilder;
use dynamis::{DyOneSwap, DyTwoSwap, DynamicMis, GenericKSwap, Snapshot};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Snapshot capture → encode → decode → resume is lossless and the
    /// resumed engine is immediately consistent.
    #[test]
    fn snapshot_round_trip_any_engine_state(seed in 0u64..10_000, n in 6usize..24, steps in 0usize..60) {
        let m = (2 * n).min(n * (n - 1) / 2);
        let g = gnm(n, m, seed);
        let ups = UpdateStream::new(&g, StreamConfig::default(), seed ^ 0x51a).take_updates(steps);
        let mut e = EngineBuilder::on(g).build_as::<DyTwoSwap>().unwrap();
        for u in &ups {
            e.try_apply(u).unwrap();
        }
        let snap = Snapshot::capture(&e);
        let back = Snapshot::decode(&snap.encode()).map_err(|x| TestCaseError::fail(x.to_string()))?;
        prop_assert_eq!(&back.solution, &snap.solution);
        let resumed = EngineBuilder::new().resume(back.clone()).build_as::<DyTwoSwap>().unwrap();
        resumed.check_consistency().map_err(TestCaseError::fail)?;
        prop_assert_eq!(resumed.size(), e.size());
    }

    /// The scalable certifier accepts every engine state the brute-force
    /// checker accepts, on arbitrary schedules.
    #[test]
    fn certifier_accepts_engine_output(seed in 0u64..10_000, n in 6usize..24, steps in 0usize..50) {
        let m = (2 * n).min(n * (n - 1) / 2);
        let g = gnm(n, m, seed);
        let ups = UpdateStream::new(&g, StreamConfig::default(), seed ^ 0xcafe).take_updates(steps);
        let mut e = EngineBuilder::on(g).build_as::<DyOneSwap>().unwrap();
        for u in &ups {
            e.try_apply(u).unwrap();
        }
        let sol = e.solution();
        certify_independent(e.graph(), &sol).map_err(|v| TestCaseError::fail(v.to_string()))?;
        certify_one_maximal(e.graph(), &sol).map_err(|v| TestCaseError::fail(v.to_string()))?;
        prop_assert!(is_k_maximal_dynamic(e.graph(), &sol, 1));
    }

    /// GenericKSwap(k = 3) maintains 3-maximality (and hence 1-/2-) on
    /// arbitrary schedules.
    #[test]
    fn generic_k3_invariant(seed in 0u64..10_000, n in 6usize..16, steps in 0usize..40) {
        let m = (2 * n).min(n * (n - 1) / 2);
        let g = gnm(n, m, seed);
        let ups = UpdateStream::new(&g, StreamConfig::default(), seed ^ 0xabba).take_updates(steps);
        let mut e = EngineBuilder::on(g).k(3).build_as::<GenericKSwap>().unwrap();
        for u in &ups {
            e.try_apply(u).unwrap();
        }
        prop_assert!(is_k_maximal_dynamic(e.graph(), &e.solution(), 3));
    }

    /// Restart keeps a valid independent set at every interval setting.
    #[test]
    fn restart_always_valid(seed in 0u64..10_000, n in 6usize..24, steps in 1usize..50, interval in 1usize..20) {
        let m = (2 * n).min(n * (n - 1) / 2);
        let g = gnm(n, m, seed);
        let ups = UpdateStream::new(&g, StreamConfig::default(), seed ^ 0xf00d).take_updates(steps);
        let mut e = Restart::from_builder(EngineBuilder::on(g), RestartSolver::Greedy, interval).unwrap();
        for u in &ups {
            e.try_apply(u).unwrap();
            e.check_valid().map_err(TestCaseError::fail)?;
        }
    }

    /// Burst workloads replay cleanly and leave engines 1-maximal.
    #[test]
    fn burst_workloads_preserve_invariants(seed in 0u64..10_000, n in 8usize..30, bursts in 1usize..5) {
        let base = gnm(n, n, seed);
        let wl = burst(base, BurstConfig { bursts, burst_size: 6, decay: 0.5 }, seed ^ 0xd00d);
        let mut e = EngineBuilder::on(wl.graph.clone()).build_as::<DyOneSwap>().unwrap();
        for u in &wl.updates {
            e.try_apply(u).unwrap();
        }
        e.check_consistency().map_err(TestCaseError::fail)?;
        prop_assert!(is_k_maximal_dynamic(e.graph(), &e.solution(), 1));
    }

    /// The two certifier entry points agree with a from-scratch solution
    /// check on arbitrary (graph, subset) pairs, including invalid ones.
    #[test]
    fn certifier_rejects_what_it_should(seed in 0u64..10_000, n in 4usize..20) {
        let m = (2 * n).min(n * (n - 1) / 2);
        let g = gnm(n, m, seed);
        // Candidate "solution": every third vertex — often not independent.
        let cand: Vec<u32> = (0..n as u32).step_by(3).collect();
        let ok = certify_independent(&g, &cand).is_ok();
        let truly_independent = {
            let (csr, map) = compact_live(&g);
            let mapped: Vec<u32> = cand.iter().map(|&v| map[v as usize]).collect();
            let set: std::collections::BTreeSet<u32> = mapped.iter().copied().collect();
            let mut ind = true;
            'outer: for &v in &mapped {
                for &u in csr.neighbors(v) {
                    if set.contains(&u) {
                        ind = false;
                        break 'outer;
                    }
                }
            }
            ind
        };
        prop_assert_eq!(ok, truly_independent);
    }
}

/// Shadow-model property for the intrusive half-edge payload layer:
/// a `DynamicGraph` driven through random insert/remove/mark/unmark
/// interleavings must (a) pass the full mirror + payload consistency
/// check and (b) report exactly the marked-neighbor sets an independent
/// shadow model predicts.
mod payload_slots {
    use dynamis::DynamicGraph;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    /// One random interleaving step applied to both the graph and the
    /// shadow set of marked (owner, neighbor) pairs.
    fn step(g: &mut DynamicGraph, shadow: &mut BTreeSet<(u32, u32)>, rng: &mut SmallRng) {
        let cap = g.capacity() as u32;
        match rng.gen_range(0u32..100) {
            // Insert a random edge.
            0..=39 => {
                let (u, v) = (rng.gen_range(0..cap), rng.gen_range(0..cap));
                if u != v && g.is_alive(u) && g.is_alive(v) {
                    g.insert_edge(u, v).unwrap();
                }
            }
            // Remove a random edge: its marks die with it.
            40..=64 => {
                let (u, v) = (rng.gen_range(0..cap), rng.gen_range(0..cap));
                if u != v && g.is_alive(u) && g.is_alive(v) && g.remove_edge(u, v).unwrap() {
                    shadow.remove(&(u, v));
                    shadow.remove(&(v, u));
                }
            }
            // Toggle a mark on a random half-edge.
            65..=89 => {
                let u = rng.gen_range(0..cap);
                if g.is_alive(u) && g.degree(u) > 0 {
                    let pos = rng.gen_range(0..g.degree(u)) as u32;
                    let n = g.neighbor_at(u, pos as usize);
                    if g.is_marked(u, pos) {
                        g.unmark_neighbor(u, pos);
                        assert!(shadow.remove(&(u, n)), "shadow missing a mark");
                    } else {
                        g.mark_neighbor(u, pos);
                        assert!(shadow.insert((u, n)), "shadow had a phantom mark");
                    }
                }
            }
            // Remove a vertex: marks it held and marks on edges to it die.
            _ => {
                let v = rng.gen_range(0..cap);
                if g.is_alive(v) && g.num_vertices() > 2 {
                    g.remove_vertex(v).unwrap();
                    shadow.retain(|&(a, b)| a != v && b != v);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Mirror/payload-slot consistency survives arbitrary
        /// interleavings, and the marked sets match the shadow exactly.
        #[test]
        fn marks_track_shadow_model(seed in 0u64..100_000, n in 4usize..40, steps in 1usize..400) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut g = DynamicGraph::new();
            g.add_vertices(n);
            let mut shadow: BTreeSet<(u32, u32)> = BTreeSet::new();
            for _ in 0..steps {
                step(&mut g, &mut shadow, &mut rng);
            }
            g.check_consistency().map_err(TestCaseError::fail)?;
            // The graph's marked sets must equal the shadow's, per vertex.
            for v in 0..g.capacity() as u32 {
                let mut got: Vec<u32> = if g.is_alive(v) {
                    g.marked_neighbors(v).collect()
                } else {
                    Vec::new()
                };
                got.sort_unstable();
                let want: Vec<u32> = shadow
                    .range((v, 0)..=(v, u32::MAX))
                    .map(|&(_, n)| n)
                    .collect();
                prop_assert_eq!(got, want, "marked set of vertex {} diverged", v);
            }
        }

        /// Handles stay coherent: after arbitrary churn, every edge's
        /// handle resolves to half-edges that point back at each other.
        #[test]
        fn edge_handles_stay_reciprocal(seed in 0u64..100_000, n in 4usize..30, steps in 1usize..250) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut g = DynamicGraph::new();
            g.add_vertices(n);
            let mut shadow = BTreeSet::new();
            for _ in 0..steps {
                step(&mut g, &mut shadow, &mut rng);
            }
            let edges: Vec<(u32, u32)> = g.edges().collect();
            for (u, v) in edges {
                let h = g.edge_handle(u, v).expect("listed edge must resolve");
                prop_assert_eq!(g.neighbor_at(h.u, h.pos_u as usize), h.v);
                prop_assert_eq!(g.neighbor_at(h.v, h.pos_v as usize), h.u);
            }
        }
    }
}
