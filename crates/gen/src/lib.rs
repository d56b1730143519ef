//! # dynamis-gen — workloads for the dynamic MaxIS experiments
//!
//! Everything the paper's evaluation (§V) needs as input:
//!
//! * [`uniform`] — Erdős–Rényi `G(n, m)` graphs.
//! * [`powerlaw`] — Chung–Lu graphs with power-law expected degrees and the
//!   erased configuration model (the randomness model of Lemma 2).
//! * [`ba`] — Barabási–Albert preferential attachment.
//! * [`rmat`](mod@rmat) — R-MAT recursive-matrix graphs (the Graph500 model), a
//!   second independent source of heavy-tailed workloads.
//! * [`structured`] — complete graphs, hypercubes, paths/cycles/stars, and
//!   the subdivision constructions `K'_n` / `Q'_n` that achieve the
//!   worst-case ratio of Theorem 3.
//! * [`stream`] — seeded generators of vertex/edge insert/delete update
//!   streams ("we randomly insert/remove a predetermined number of
//!   vertices/edges to simulate the update operations").
//! * [`adversarial`] — deletion-heavy worst-case streams:
//!   insert-burst-then-targeted-delete of high-degree (shadow-)solution
//!   vertices, maximizing repair cascades.
//! * [`temporal`] — structured workload shapes: sliding-window edge
//!   expiry and hot-topic burst cascades (the introduction's motivating
//!   scenario).
//! * [`trace`] — line-oriented serialization of workloads for replayable,
//!   shareable experiments.
//! * [`plb`] — estimator for the power-law bounded parameters
//!   `(c₁, c₂, β, t)` of Definition 2 plus the closed-form approximation
//!   ratio of Theorem 4 and the expectation bound of Lemma 2.
//! * [`datasets`] — the registry of scaled synthetic stand-ins for the 22
//!   SNAP/LAW graphs of Table I (its module doc states the substitution
//!   rules).

pub mod adversarial;
pub mod ba;
pub mod datasets;
pub mod plb;
pub mod powerlaw;
pub mod rmat;
pub mod stream;
pub mod structured;
pub mod temporal;
pub mod trace;
pub mod uniform;

pub use adversarial::{AdversarialConfig, AdversarialStream};
pub use datasets::{Category, DatasetSpec, DATASETS};
pub use plb::{PlbEstimate, PlbFit};
pub use rmat::{rmat, RmatConfig};
pub use stream::{apply_update, StreamConfig, Update, UpdateStream, Workload};
pub use temporal::{burst, sliding_window, BurstConfig, SlidingWindowConfig};
pub use trace::{read_trace, read_trace_path, write_trace, write_trace_path};

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Deterministic RNG used across all generators: everything in this
/// workspace is reproducible from a `u64` seed.
pub fn rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}
