//! `DyOneSwap` — the dynamic (Δ/2 + 1)-approximation algorithm that
//! maintains a **1-maximal** independent set (Algorithm 2).
//!
//! Worst-case O(m_t) per update; O((1 + t)·n_t) on power-law bounded
//! graphs (§IV-A).

use crate::builder::{BuildableEngine, EngineBuilder, Session};
use crate::delta::SolutionDelta;
use crate::engine::{EngineStats, SwapEngine};
use crate::error::EngineError;
use crate::DynamicMis;
use dynamis_graph::{DynamicGraph, Update};

/// Dynamic 1-maximal independent set maintenance.
///
/// Constructed through the [`EngineBuilder`] session API. `k` is fixed
/// at 1 by the type: a builder that explicitly requests any other `k`
/// is rejected — a session asking for 2-maximality must not silently
/// receive the weaker invariant.
///
/// # Example
/// ```
/// use dynamis_graph::{DynamicGraph, Update};
/// use dynamis_core::{DyOneSwap, DynamicMis, EngineBuilder};
///
/// // A star: the greedy initial set {0} is improved to the leaves.
/// let g = DynamicGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
/// let mut engine: DyOneSwap = EngineBuilder::on(g).initial(&[0]).build_as().unwrap();
/// assert_eq!(engine.size(), 3); // 1-swap fixed the initial set
/// let delta = engine.try_apply(&Update::RemoveEdge(0, 1)).unwrap();
/// assert_eq!(engine.size(), 3);
/// assert!(delta.net() >= 0);
/// ```
#[derive(Debug)]
pub struct DyOneSwap {
    inner: SwapEngine,
}

impl DyOneSwap {
    /// Builds from a validated [`Session`] (use [`EngineBuilder`]).
    pub(crate) fn from_session(session: Session) -> Self {
        DyOneSwap {
            inner: SwapEngine::new(session.graph, &session.initial, false, session.config),
        }
    }

    /// Engine statistics (swaps, repairs, perturbations).
    pub fn stats(&self) -> EngineStats {
        self.inner.stats
    }

    /// Full framework-invariant check (tests/debug only).
    pub fn check_consistency(&self) -> Result<(), String> {
        self.inner.st.check_consistency()
    }
}

impl BuildableEngine for DyOneSwap {
    fn from_builder(builder: EngineBuilder) -> Result<Self, EngineError> {
        if builder.requested_k().is_some_and(|k| k != 1) {
            return Err(EngineError::BadParameter(
                "DyOneSwap maintains k = 1; use EngineBuilder::build (or GenericKSwap) for other k",
            ));
        }
        builder.into_session().map(Self::from_session)
    }
}

impl DynamicMis for DyOneSwap {
    fn name(&self) -> &'static str {
        "DyOneSwap"
    }

    fn graph(&self) -> &DynamicGraph {
        &self.inner.st.g
    }

    fn try_apply(&mut self, u: &Update) -> Result<SolutionDelta, EngineError> {
        self.inner.try_apply(u)
    }

    /// The real batch path: one swap-search pass for the whole burst
    /// (see `SwapEngine::try_apply_batch`). The final solution is
    /// 1-maximal, exactly as with per-update application.
    fn try_apply_batch(&mut self, updates: &[Update]) -> Result<SolutionDelta, EngineError> {
        self.inner.try_apply_batch(updates)
    }

    fn drain_delta(&mut self) -> SolutionDelta {
        self.inner.st.feed.drain()
    }

    fn size(&self) -> usize {
        self.inner.st.size()
    }

    fn solution(&self) -> Vec<u32> {
        self.inner.st.solution()
    }

    fn contains(&self, v: u32) -> bool {
        self.inner.st.in_solution(v)
    }

    fn heap_bytes(&self) -> usize {
        self.inner.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(g: DynamicGraph, initial: &[u32]) -> DyOneSwap {
        EngineBuilder::on(g).initial(initial).build_as().unwrap()
    }

    #[test]
    fn bootstrap_reaches_one_maximality_on_star() {
        let g = DynamicGraph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let e = build(g, &[0]);
        assert_eq!(e.size(), 4);
        assert_eq!(e.stats().one_swaps, 1);
        e.check_consistency().unwrap();
    }

    #[test]
    fn empty_initial_set_is_maximalized() {
        let g = DynamicGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let e = build(g, &[]);
        assert!(e.size() >= 2);
        e.check_consistency().unwrap();
    }

    #[test]
    fn updates_issue_no_hash_probes() {
        let g = DynamicGraph::from_edges(4, &[(0, 1), (1, 2)]);
        let mut e = build(g, &[]);
        let mut probes = |u: Update| {
            let s = e.try_apply(&u).unwrap().stats;
            (s.entry_hash_probes, s.hot_hash_probes)
        };
        assert_eq!(probes(Update::InsertEdge(2, 3)), (0, 0));
        assert_eq!(probes(Update::RemoveEdge(0, 1)), (0, 0));
        let grow = Update::InsertVertex {
            id: 4,
            neighbors: vec![0, 3],
        };
        assert_eq!(probes(grow), (0, 0));
        assert_eq!(probes(Update::RemoveVertex(1)), (0, 0));
    }

    #[test]
    fn invalid_updates_are_rejected_without_state_change() {
        let g = DynamicGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let mut e = build(g, &[]);
        let sol = e.solution();
        let _ = e.drain_delta();
        for bad in [
            Update::InsertEdge(0, 1), // duplicate
            Update::RemoveEdge(0, 2), // missing
            Update::InsertEdge(0, 9), // dead endpoint
            Update::RemoveVertex(9),  // dead vertex
            Update::InsertVertex {
                id: 9, // allocator would hand out 4
                neighbors: vec![0],
            },
        ] {
            assert!(e.try_apply(&bad).is_err(), "{bad:?} must be rejected");
            assert_eq!(e.solution(), sol, "{bad:?} must not change the solution");
            assert!(e.drain_delta().is_empty(), "{bad:?} must not emit a delta");
            e.check_consistency().unwrap();
        }
    }

    #[test]
    fn fig4_style_conflicting_insert_keeps_one_maximality() {
        // Modeled on the running example of §IV-A (Fig. 4): an edge is
        // inserted between two solution vertices; the engine evicts one
        // endpoint and restores 1-maximality via swaps and repairs.
        let edges = [
            (1, 3),
            (2, 3),
            (2, 4),
            (4, 5),
            (5, 6),
            (6, 8),
            (3, 7),
            (7, 9),
            (9, 10),
        ];
        let e0: Vec<(u32, u32)> = edges.iter().map(|&(a, b)| (a - 1, b - 1)).collect();
        let g = DynamicGraph::from_edges(10, &e0);
        let mut e = build(g, &[2, 3, 5, 8]); // v3, v4, v6, v9
        let before = e.size();
        assert!(before >= 4);
        e.try_apply(&Update::InsertEdge(2, 3)).unwrap();
        assert!(e.size() >= before - 1, "at most the evicted endpoint lost");
        e.check_consistency().unwrap();
        // Behavioral contract: the result is 1-maximal.
        let csr = dynamis_graph::CsrGraph::from_dynamic(e.graph());
        assert!(dynamis_static::verify::is_k_maximal(&csr, &e.solution(), 1));
    }
}
