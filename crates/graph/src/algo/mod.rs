//! Classic graph algorithms over [`CsrGraph`](crate::CsrGraph) snapshots.
//!
//! These back the dataset statistics of Table I, the PLB analysis of
//! §III-A, and the reduction rules of the static solvers. All of them are
//! linear or near-linear:
//!
//! * [`traversal`] — BFS distances, connected components, double-sweep
//!   diameter estimation;
//! * [`cores`] — k-core decomposition and degeneracy ordering (bucket
//!   peeling, O(n + m));
//! * [`triangles`] — triangle counting and clustering coefficients on the
//!   degeneracy-oriented DAG;
//! * [`stats`] — degree summaries, density, bipartiteness.

pub mod cores;
pub mod stats;
pub mod traversal;
pub mod triangles;

pub use cores::{core_decomposition, CoreDecomposition};
pub use stats::{degree_stats, is_bipartite, DegreeStats};
pub use traversal::{
    bfs_distances, connected_components, diameter_lower_bound, largest_component, Components,
};
pub use triangles::{clustering_coefficients, count_triangles, global_clustering};
