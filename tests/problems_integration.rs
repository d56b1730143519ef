//! The engines on the conflict graph of an application problem: interval
//! scheduling, where α is exact at any size. The graph and α are built
//! inline, so the check needs nothing beyond the engines and the verifier.

use dynamis::statics::verify::is_independent;
use dynamis::EngineBuilder;
use dynamis::{CsrGraph, DyTwoSwap, DynamicGraph, DynamicMis};

/// α of an interval graph: the earliest-finish greedy picks a maximum
/// set of pairwise non-overlapping half-open intervals `[start, end)`.
fn interval_alpha(intervals: &[(i64, i64)]) -> usize {
    let mut by_end = intervals.to_vec();
    by_end.sort_unstable_by_key(|&(_, end)| end);
    let mut frontier = i64::MIN;
    let mut alpha = 0;
    for (start, end) in by_end {
        if start >= frontier {
            alpha += 1;
            frontier = end;
        }
    }
    alpha
}

/// Interval graphs give exact ground truth at scale: the engines'
/// solutions on the conflict graph must respect α from the earliest-finish
/// greedy, and a 2-maximal solution on these small instances should land
/// close to optimal.
#[test]
fn engines_on_interval_conflict_graphs() {
    let mut state = 0xfeedface_u64;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for round in 0..6 {
        let n = 30 + (rng() % 30) as usize;
        let intervals: Vec<(i64, i64)> = (0..n)
            .map(|_| {
                let s = (rng() % 200) as i64;
                (s, s + 1 + (rng() % 25) as i64)
            })
            .collect();
        // Half-open intervals overlap iff each starts before the other ends.
        let mut edges = Vec::new();
        for (i, &(si, ei)) in intervals.iter().enumerate() {
            for (j, &(sj, ej)) in intervals.iter().enumerate().skip(i + 1) {
                if si < ej && sj < ei {
                    edges.push((i as u32, j as u32));
                }
            }
        }
        let alpha = interval_alpha(&intervals);
        let g = DynamicGraph::from_edges(n, &edges);
        let e = EngineBuilder::on(g).build_as::<DyTwoSwap>().unwrap();
        assert!(e.size() <= alpha, "round {round}: beats the optimum?!");
        // Interval graphs are perfect; 2-maximal local optima are strong
        // here. Require at least 2/3 of optimal as a regression tripwire.
        assert!(
            3 * e.size() >= 2 * alpha,
            "round {round}: {} far below alpha {alpha}",
            e.size()
        );
        let csr = CsrGraph::from_edges(n, &edges);
        let sol = e.solution();
        assert!(is_independent(&csr, &sol));
    }
}
