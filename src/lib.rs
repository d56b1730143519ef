//! # dynamis — Dynamic Approximate Maximum Independent Set on Massive Graphs
//!
//! A Rust reproduction of the ICDE 2022 paper of the same name: maintain
//! an independent set over a fully dynamic graph (vertex/edge insertions
//! and deletions) with a **provable** approximation guarantee — `(Δ/2+1)`
//! in general, a parameter-dependent constant on power-law bounded
//! graphs — by keeping the set *k-maximal* (no j-swap exists for any
//! j ≤ k).
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | contents |
//! |---|---|
//! | [`graph`] | dynamic graph substrate, CSR snapshots, I/O |
//! | [`core`] | the maintenance framework: [`DyOneSwap`], [`DyTwoSwap`], [`GenericKSwap`] |
//! | [`statics`] | greedy, ARW local search, exact branch-and-reduce, reducing–peeling |
//! | [`baselines`] | DyARW and the DGOneDIS/DGTwoDIS dependency-index emulation |
//! | [`gen`] | graph generators, update streams, PLB estimation, dataset registry |
//! | [`serve`] | concurrent serving layer: one engine applied by flat combining on the submitting threads, batched ingest, delta-broadcast readers |
//! | [`net`] | network front end: length-prefixed wire protocol, per-client sessions, delta subscriptions, admission control |
//! | [`durable`] | crash durability: segmented checksummed WAL of the accepted stream, snapshot checkpoints, torn-tail recovery |
//!
//! ## Quickstart
//!
//! Engines are built through the [`EngineBuilder`] **session API** and
//! driven with fallible, delta-reporting updates: [`DynamicMis::try_apply`]
//! rejects invalid operations gracefully (no panics) and reports exactly
//! which vertices entered and left the solution, so downstream consumers
//! can mirror it incrementally instead of rematerializing.
//!
//! ```
//! use dynamis::{DynamicMis, EngineBuilder, SolutionMirror};
//! use dynamis::graph::{DynamicGraph, Update};
//!
//! // A small collaboration network, maintained at k = 2.
//! let g = DynamicGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
//! let mut engine = EngineBuilder::on(g).k(2).build().unwrap();
//! assert!(engine.size() >= 3);
//!
//! // A mirror fed from the delta feed tracks the solution exactly.
//! let mut mirror = SolutionMirror::new();
//! mirror.apply(&engine.drain_delta()).unwrap();
//!
//! // The network evolves; each update reports its adjustment.
//! for u in [Update::InsertEdge(0, 3), Update::RemoveEdge(2, 3)] {
//!     let delta = engine.try_apply(&u).unwrap();
//!     mirror.apply(&delta).unwrap();
//! }
//! assert_eq!(mirror.solution(), engine.solution());
//!
//! // Invalid updates are rejected with the engine untouched.
//! assert!(engine.try_apply(&Update::RemoveEdge(2, 3)).is_err());
//! ```

pub use dynamis_baselines as baselines;
pub use dynamis_core as core;
pub use dynamis_durable as durable;
pub use dynamis_gen as gen;
pub use dynamis_graph as graph;
pub use dynamis_net as net;
pub use dynamis_obs as obs;
pub use dynamis_serve as serve;
pub use dynamis_static as statics;

pub use dynamis_baselines::{DgDis, DyArw, MaximalOnly, Restart, RestartSolver};
pub use dynamis_core::{
    BuildableEngine, DyOneSwap, DyTwoSwap, DynamicMis, EngineBuilder, EngineConfig, EngineError,
    GenericKSwap, MirrorError, Snapshot, SolutionDelta, SolutionMirror,
};
pub use dynamis_gen::{StreamConfig, UpdateStream, Workload};
pub use dynamis_graph::{CsrGraph, DynamicGraph, GraphError, Update};
pub use dynamis_serve::{MisService, ReaderHandle, ServeConfig, ServeError, ServiceStats};
