//! # dynamis-graph — dynamic graph substrate
//!
//! This crate provides the graph layer that every algorithm in the `dynamis`
//! workspace builds on:
//!
//! * [`DynamicGraph`] — an unweighted, undirected graph supporting
//!   vertex/edge insertion and deletion, stored as adjacency lists alone.
//!   Once an edge is found, deleting it is constant-time thanks to
//!   *mirror-indexed* adjacency lists (each half-edge stores the position
//!   of its reciprocal half-edge). Every half-edge additionally carries an
//!   intrusive *payload slot* — the paper's "pointer to v ∈ I(u) recorded
//!   in edge (v, u)" — giving maintenance frameworks O(1), hash-free
//!   membership lists over each vertex's neighborhood (`mark_neighbor` /
//!   `unmark_neighbor` / `marked_neighbors`). The `(u, v)` entry points
//!   resolve an edge to [`EdgeHandle`] positions by scanning the shorter
//!   endpoint list, O(min(d(u), d(v))); the per-neighbor inner loops
//!   never search.
//! * [`CsrGraph`] — an immutable compressed-sparse-row snapshot used by the
//!   static algorithms (exact solver, local search, reducing–peeling).
//! * [`collections`] — the small auxiliary structures that the paper's
//!   hierarchical bucket storage requires: [`collections::IndexedBag`] (a
//!   bag with O(1) membership, insert, and remove via position
//!   back-pointers) and [`collections::StampSet`] (an epoch-marked set for
//!   O(1) transient membership tests without clearing).
//! * [`io`] — the SNAP edge-list reader and the exact binary codec that
//!   engine snapshots and checkpoints embed.
//!
//! The terminology follows the paper: for a graph `G_t = (V_t, E_t)` we
//! write `N_t(v)` for the open neighborhood and `d_t(v)` for the degree.

pub mod collections;
pub mod csr;
pub mod dynamic;
pub mod error;
pub mod hash;
pub mod io;
pub mod update;

pub use csr::CsrGraph;
pub use dynamic::{DynamicGraph, EdgeHandle, VertexId};
pub use error::GraphError;
pub use hash::{FxHashMap, FxHashSet, FxHasher};
pub use update::{apply_update, Update};

/// Convenience result alias for fallible graph operations.
pub type Result<T> = std::result::Result<T, GraphError>;
