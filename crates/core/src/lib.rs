//! # dynamis-core — dynamic approximate maximum independent set
//!
//! Rust implementation of the maintenance framework of *Dynamic
//! Approximate Maximum Independent Set on Massive Graphs* (ICDE 2022):
//! a `k`-maximal independent set — one admitting no j-swap for any
//! `j ≤ k` — is maintained over a fully dynamic graph, guaranteeing a
//! `(Δ/2 + 1)`-approximate maximum independent set at all times
//! (Theorem 6), and a parameter-dependent **constant** approximation on
//! power-law bounded graphs (Theorem 4).
//!
//! ## The session API
//!
//! Construction goes through one path, the [`EngineBuilder`]: a
//! *session* is `(graph, initial set, k, tuning)`, whether the graph
//! comes from a loader or a resumed [`Snapshot`]. Updates go through
//! [`DynamicMis::try_apply`]: invalid operations (duplicate edge,
//! missing edge, dead vertex, diverging vertex id) are **rejected with
//! an [`EngineError`]** — engine state untouched — instead of
//! panicking, and every accepted update returns a [`SolutionDelta`]
//! naming the few vertices that entered and left the solution, so
//! consumers mirror `I` incrementally (via [`SolutionMirror`]) instead
//! of rematerializing it.
//!
//! Three engines implement the trait here:
//!
//! * [`DyOneSwap`] — k = 1 (Algorithm 2), worst-case linear time per
//!   update sequence;
//! * [`DyTwoSwap`] — k = 2 (Algorithm 3), near-linear expected time on
//!   power-law bounded graphs, empirically larger solutions;
//! * [`GenericKSwap`] — any k, in the §III-B lazy-collection mode (used
//!   for the k-sweep and lazy-vs-eager experiments).
//!
//! ```
//! use dynamis_core::{DynamicMis, EngineBuilder, SolutionMirror};
//! use dynamis_graph::{DynamicGraph, Update};
//!
//! let g = DynamicGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
//! let mut engine = EngineBuilder::on(g).k(2).build().unwrap();
//!
//! // A mirror fed from the delta feed tracks the solution exactly.
//! let mut mirror = SolutionMirror::new();
//! mirror.apply(&engine.drain_delta()).unwrap(); // bootstrap delta
//!
//! let delta = engine.try_apply(&Update::RemoveEdge(2, 3)).unwrap();
//! mirror.apply(&delta).unwrap();
//! assert_eq!(mirror.solution(), engine.solution());
//!
//! // Invalid updates are rejected, not panicked on.
//! assert!(engine.try_apply(&Update::RemoveEdge(2, 3)).is_err());
//! ```
//!
//! ## The engine invariants
//!
//! Everything downstream — the mirrors, the serving layer's broadcast
//! logs, the durable WAL — leans on three contracts, each pinned
//! by a dedicated test suite in the workspace root:
//!
//! * **Delta shape.** Every [`SolutionDelta`] an engine reports (from
//!   `try_apply`, `try_apply_batch`, or `drain_delta`) has `entered`
//!   and `left` strictly sorted, duplicate-free, and disjoint, and is
//!   *net*: a vertex that oscillated during one span appears in
//!   neither list. [`SolutionMirror::apply`] enforces the shape and
//!   refuses inconsistent streams with a typed [`MirrorError`];
//!   `tests/delta_feed.rs` proves, for **all ten** maintainers, that
//!   replaying the deltas from an empty mirror reproduces `solution()`
//!   after every update.
//! * **Rejection is total.** When `try_apply` returns an
//!   [`EngineError`], the engine — graph, solution, counts, queues —
//!   is exactly as it was; when `try_apply_batch` fails at index `i`,
//!   the prefix `..i` is applied, the invariant is re-established, and
//!   everything from `i` on is untouched (see [`EngineError::Batch`]
//!   for the mirror-recovery rules). Pinned by
//!   `tests/engine_behavior.rs` and the batch-rejection cases of
//!   `tests/batching.rs`.
//! * **k-swap local optimality.** After every accepted update the
//!   maintained set is independent, maximal, and admits **no j-swap
//!   for any j ≤ k** — removing j members never allows inserting
//!   j + 1 outsiders. This is the paper's k-maximality, the source of
//!   the `(Δ/2 + 1)` bound, and it holds at *every* update boundary,
//!   not just eventually. `tests/invariants.rs` checks it against
//!   brute-force swap search (`dynamis_static::verify::find_swap`)
//!   over randomized schedules, and `tests/proptest_engines.rs`
//!   against from-scratch rebuilds.

pub mod builder;
pub mod delta;
mod engine;
pub mod error;
pub mod generic;
pub mod one_swap;
mod queues;
pub mod snapshot;
pub mod state;
pub mod two_swap;

pub use builder::{BuildableEngine, EngineBuilder, Session};
pub use delta::{DeltaFeed, SolutionDelta, SolutionMirror};
pub use engine::{EngineConfig, EngineStats};
pub use error::{validate_update, EngineError, MirrorError};
pub use generic::GenericKSwap;
pub use one_swap::DyOneSwap;
pub use snapshot::Snapshot;
pub use two_swap::DyTwoSwap;

use dynamis_graph::{DynamicGraph, Update};

/// Common interface of every dynamic MaxIS maintainer in this workspace
/// (the two paper engines, the generic-k engine, and the baselines in
/// `dynamis-baselines`). Engines are constructed with an
/// [`EngineBuilder`] and driven with fallible, delta-reporting updates.
pub trait DynamicMis {
    /// Algorithm name as printed in the paper's tables.
    fn name(&self) -> &'static str;

    /// The maintained graph (engines own their copy).
    fn graph(&self) -> &DynamicGraph;

    /// Applies one update and restores the engine's invariant.
    ///
    /// Returns the [`SolutionDelta`] the update caused. An invalid
    /// update — duplicate-edge insert, missing-edge remove, an
    /// operation naming a dead vertex, or a vertex insert whose id
    /// diverges from the graph's allocator — is rejected with engine
    /// state **unchanged**.
    fn try_apply(&mut self, u: &Update) -> Result<SolutionDelta, EngineError>;

    /// Applies a whole burst of updates, returning the net delta.
    ///
    /// The default loops [`DynamicMis::try_apply`]; engines with a real
    /// batch path (deferred swap search) override it. On a rejected
    /// update the valid prefix **stays applied** (with the engine's
    /// invariant re-established) and the error reports the failing
    /// index. The prefix's delta is not returned, but its flips remain
    /// in the drainable feed: feed-driven mirrors just drain as usual,
    /// while mirrors fed from return deltas must re-seed via
    /// [`SolutionMirror::from_solution`] (see [`EngineError::Batch`]).
    fn try_apply_batch(&mut self, updates: &[Update]) -> Result<SolutionDelta, EngineError> {
        let mut total = SolutionDelta::default();
        for (index, u) in updates.iter().enumerate() {
            match self.try_apply(u) {
                Ok(delta) => total.merge(delta),
                Err(cause) => return Err(cause.in_batch(index)),
            }
        }
        Ok(total)
    }

    /// Drains the engine's delta feed: the net solution change since
    /// the previous drain (or since construction — the first drain
    /// includes the bootstrap, so a mirror started empty reconstructs
    /// the solution exactly).
    fn drain_delta(&mut self) -> SolutionDelta;

    /// Current solution size |I|.
    fn size(&self) -> usize;

    /// Materializes the solution (sorted vertex ids).
    fn solution(&self) -> Vec<u32>;

    /// O(1) membership test.
    fn contains(&self, v: u32) -> bool;

    /// Approximate heap footprint, for the memory experiments
    /// (Fig. 5b / 6b / 7b).
    fn heap_bytes(&self) -> usize;
}

/// The worst-case approximation guarantee of Theorem 6: any k-maximal
/// independent set satisfies `α(G) ≤ (Δ/2 + 1) · |I|`.
pub fn approximation_bound(max_degree: usize) -> f64 {
    max_degree as f64 / 2.0 + 1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_formula() {
        assert_eq!(approximation_bound(0), 1.0);
        assert_eq!(approximation_bound(4), 3.0);
        assert_eq!(approximation_bound(7), 4.5);
    }

    #[test]
    fn batch_default_runs_full_schedule_and_merges_deltas() {
        let g = DynamicGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let mut e: DyOneSwap = EngineBuilder::on(g).build_as().unwrap();
        let _ = e.drain_delta();
        let delta = e
            .try_apply_batch(&[
                Update::RemoveEdge(1, 2),
                Update::InsertEdge(0, 2),
                Update::InsertEdge(1, 3),
            ])
            .unwrap();
        e.check_consistency().unwrap();
        let mut mirror = SolutionMirror::from_solution(&{
            let g = DynamicGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
            let e: DyOneSwap = EngineBuilder::on(g).build_as().unwrap();
            e.solution()
        });
        mirror.apply(&delta).unwrap();
        assert_eq!(mirror.solution(), e.solution());
    }

    #[test]
    fn batch_default_reports_failing_index_with_prefix_applied() {
        let g = DynamicGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let mut e: DyOneSwap = EngineBuilder::on(g).build_as().unwrap();
        let err = e
            .try_apply_batch(&[
                Update::RemoveEdge(0, 1), // fine
                Update::InsertEdge(1, 2), // duplicate → rejected
                Update::RemoveEdge(2, 3), // never reached
            ])
            .unwrap_err();
        assert!(matches!(err, EngineError::Batch { index: 1, .. }));
        assert!(!e.graph().has_edge(0, 1), "prefix stays applied");
        assert!(e.graph().has_edge(2, 3), "suffix is not applied");
        e.check_consistency().unwrap();
    }
}
