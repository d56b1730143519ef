//! The single construction path for every engine: a builder describing
//! one maintenance *session*.
//!
//! A session is `(graph, initial set, k, tuning)` — whether the graph
//! comes from a loader, a generator, or a [`crate::Snapshot`] being
//! resumed, and whether the engine is a paper engine or a baseline. The
//! builder validates the whole description up front (the graph exists,
//! every initial member is alive, the initial set is independent,
//! `k ≥ 1`) and hands engines a proven-good [`Session`], so no engine
//! constructor needs a panicking precondition.
//!
//! ```
//! use dynamis_core::{DynamicMis, DyTwoSwap, EngineBuilder};
//! use dynamis_graph::DynamicGraph;
//!
//! let g = DynamicGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
//! let engine: DyTwoSwap = EngineBuilder::on(g).initial(&[1, 3]).build_as().unwrap();
//! assert_eq!(engine.size(), 3); // driven to 2-maximality at build time
//! ```
//!
//! [`EngineBuilder::build`] selects the paper engine for the session's
//! `k` behind `Box<dyn DynamicMis>`; [`EngineBuilder::build_as`] builds
//! a concrete engine type (including the baselines in
//! `dynamis-baselines`, which implement [`BuildableEngine`] in their
//! own crate).

use crate::engine::EngineConfig;
use crate::error::EngineError;
use crate::snapshot::Snapshot;
use crate::{DyOneSwap, DyTwoSwap, DynamicMis, GenericKSwap};
use dynamis_graph::DynamicGraph;

/// Describes one maintenance session; see the module docs.
#[derive(Debug, Clone, Default)]
pub struct EngineBuilder {
    k: Option<usize>,
    config: EngineConfig,
    initial: Vec<u32>,
    graph: Option<DynamicGraph>,
}

impl EngineBuilder {
    /// An empty builder (`k` defaults to 1, no graph yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Shorthand for `EngineBuilder::new().graph(g)` — the common case.
    pub fn on(graph: DynamicGraph) -> Self {
        Self::new().graph(graph)
    }

    /// The swap depth to maintain (`k ≥ 1`). [`EngineBuilder::build`]
    /// also uses it to pick the engine: the eager `DyOneSwap` /
    /// `DyTwoSwap` for `k ≤ 2`, the lazy `GenericKSwap` beyond.
    pub fn k(mut self, k: usize) -> Self {
        self.k = Some(k);
        self
    }

    /// Full tuning-knob set.
    pub fn config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// Toggles the §III-B perturbation (plateau moves toward low-degree
    /// vertices) without replacing the rest of the config.
    pub fn perturbation(mut self, on: bool) -> Self {
        self.config.perturbation = on;
        self
    }

    /// The graph to maintain over (the engine owns it).
    pub fn graph(mut self, graph: DynamicGraph) -> Self {
        self.graph = Some(graph);
        self
    }

    /// The starting independent set (validated at build time; extended
    /// to maximality and driven to k-maximality by the engine).
    pub fn initial(mut self, initial: &[u32]) -> Self {
        self.initial = initial.to_vec();
        self
    }

    /// The `k` this builder was explicitly configured with, if any.
    /// The fixed-k engines ([`DyOneSwap`], [`DyTwoSwap`]) use it to
    /// reject a session whose requested depth they cannot maintain.
    pub fn requested_k(&self) -> Option<usize> {
        self.k
    }

    /// Resumes from a checkpoint: the snapshot's graph and solution
    /// become the session's graph and initial set. This subsumes the
    /// per-engine `resume_*` constructors — any engine type (any `k`,
    /// any baseline) can pick up where a snapshot left off.
    pub fn resume(mut self, snapshot: Snapshot) -> Self {
        self.initial = snapshot.solution;
        self.graph = Some(snapshot.graph);
        self
    }

    /// Reads a snapshot from disk and resumes from it.
    pub fn resume_path<P: AsRef<std::path::Path>>(self, path: P) -> Result<Self, EngineError> {
        let snapshot = Snapshot::read_path(path)?;
        Ok(self.resume(snapshot))
    }

    /// Validates the description and yields the proven-good [`Session`]
    /// engine constructors consume.
    pub fn into_session(self) -> Result<Session, EngineError> {
        let k = self.k.unwrap_or(1);
        if k == 0 {
            return Err(EngineError::BadK(0));
        }
        let graph = self.graph.ok_or(EngineError::MissingGraph)?;
        let mut initial = self.initial;
        initial.sort_unstable();
        initial.dedup();
        for &v in &initial {
            if !graph.is_alive(v) {
                return Err(EngineError::DeadInitial(v));
            }
        }
        if let Some((v, u)) = edge_within(&graph, &initial) {
            return Err(EngineError::NotIndependent(v.min(u), v.max(u)));
        }
        Ok(Session {
            graph,
            initial,
            k,
            config: self.config,
        })
    }

    /// Builds the paper engine matching the session's `k`:
    /// [`DyOneSwap`] (k = 1), [`DyTwoSwap`] (k = 2), or the lazy
    /// [`GenericKSwap`] (k ≥ 3).
    pub fn build(self) -> Result<Box<dyn DynamicMis>, EngineError> {
        let session = self.into_session()?;
        Ok(match session.k {
            1 => Box::new(DyOneSwap::from_session(session)),
            2 => Box::new(DyTwoSwap::from_session(session)),
            _ => Box::new(GenericKSwap::from_session(session)),
        })
    }

    /// Builds a concrete engine type from this session description.
    pub fn build_as<E: BuildableEngine>(self) -> Result<E, EngineError> {
        E::from_builder(self)
    }
}

/// The first edge `(v, u)` with both ends in `members` (live vertices),
/// scanning members in order and each one's neighbors in adjacency
/// order: one pass over the members' neighborhoods against a dense
/// membership bitmap. `None` when `members` is independent.
pub(crate) fn edge_within(graph: &DynamicGraph, members: &[u32]) -> Option<(u32, u32)> {
    let mut member = vec![false; graph.capacity()];
    for &v in members {
        member[v as usize] = true;
    }
    members.iter().find_map(|&v| {
        graph
            .neighbors(v)
            .find(|&u| member[u as usize])
            .map(|u| (v, u))
    })
}

/// A validated session description: the graph, a duplicate-free,
/// provably independent initial set of live vertices, `k ≥ 1`, and the
/// tuning config. Obtained from [`EngineBuilder::into_session`]; engine
/// constructors trust it.
#[derive(Debug)]
pub struct Session {
    /// The graph the engine will own.
    pub graph: DynamicGraph,
    /// Sorted, duplicate-free independent set of live vertices.
    pub initial: Vec<u32>,
    /// Swap depth (`≥ 1`).
    pub k: usize,
    /// Tuning knobs.
    pub config: EngineConfig,
}

/// Engine types constructible from an [`EngineBuilder`] — implemented
/// by the paper engines here and by the baselines in their crate, so
/// `EngineBuilder::build_as::<E>()` is the one construction spelling
/// everywhere.
pub trait BuildableEngine: DynamicMis + Sized {
    /// Validates the builder and constructs the engine.
    fn from_builder(builder: EngineBuilder) -> Result<Self, EngineError>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynamis_graph::Update;

    fn p5() -> DynamicGraph {
        DynamicGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)])
    }

    #[test]
    fn builder_validates_the_session() {
        assert_eq!(
            EngineBuilder::new().build().map(|_| ()).unwrap_err(),
            EngineError::MissingGraph
        );
        assert_eq!(
            EngineBuilder::on(p5())
                .k(0)
                .build()
                .map(|_| ())
                .unwrap_err(),
            EngineError::BadK(0)
        );
        assert_eq!(
            EngineBuilder::on(p5())
                .initial(&[9])
                .build()
                .map(|_| ())
                .unwrap_err(),
            EngineError::DeadInitial(9)
        );
        assert_eq!(
            EngineBuilder::on(p5())
                .initial(&[1, 2])
                .build()
                .map(|_| ())
                .unwrap_err(),
            EngineError::NotIndependent(1, 2)
        );
    }

    #[test]
    fn build_selects_engine_by_k() {
        for (k, name) in [(1, "DyOneSwap"), (2, "DyTwoSwap"), (3, "GenericKSwap(k=3)")] {
            let e = EngineBuilder::on(p5()).k(k).build().unwrap();
            assert_eq!(e.name(), name);
            assert!(e.size() >= 2);
        }
    }

    #[test]
    fn fixed_k_engines_reject_a_mismatched_explicit_k() {
        // Silent downgrade is the trap: a session asking for k = 2 must
        // not get a 1-maximal engine without an error.
        assert!(matches!(
            EngineBuilder::on(p5()).k(2).build_as::<DyOneSwap>(),
            Err(EngineError::BadParameter(_))
        ));
        assert!(matches!(
            EngineBuilder::on(p5()).k(1).build_as::<DyTwoSwap>(),
            Err(EngineError::BadParameter(_))
        ));
        // Matching or unset k stays fine — the type picks the depth.
        assert!(EngineBuilder::on(p5()).k(1).build_as::<DyOneSwap>().is_ok());
        assert!(EngineBuilder::on(p5()).build_as::<DyTwoSwap>().is_ok());
    }

    #[test]
    fn duplicate_initial_members_are_collapsed() {
        let e: DyOneSwap = EngineBuilder::on(p5())
            .initial(&[0, 0, 2, 4, 4])
            .build_as()
            .unwrap();
        assert_eq!(e.solution(), vec![0, 2, 4]);
    }

    #[test]
    fn snapshot_resume_round_trip_for_any_engine() {
        let mut e: DyTwoSwap = EngineBuilder::on(p5()).build_as().unwrap();
        e.try_apply(&Update::RemoveEdge(1, 2)).unwrap();
        let snap = Snapshot::capture(&e);
        // Resume the same k…
        let r2: DyTwoSwap = EngineBuilder::new()
            .resume(snap.clone())
            .build_as()
            .unwrap();
        assert_eq!(r2.solution(), e.solution());
        // …and a different one: a 2-maximal set is 1-maximal already.
        let r1: DyOneSwap = EngineBuilder::new().resume(snap).build_as().unwrap();
        r1.check_consistency().unwrap();
        assert!(r1.size() >= e.size());
    }
}
