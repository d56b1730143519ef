//! # dynamis-static — static MaxIS algorithms
//!
//! The paper's evaluation leans on three static solvers, all reimplemented
//! here from their published descriptions:
//!
//! * [`greedy`] — min-degree greedy maximal independent set, the standard
//!   initializer.
//! * [`arw`] — the Andrade–Resende–Werneck iterated local search
//!   (reference \[14\]); supplies initial solutions and the "best result"
//!   column for the hard graphs of Table IV.
//! * [`exact`] — branch-and-reduce exact MaxIS, standing in for VCSolver
//!   (reference \[29\]); supplies the independence numbers that Tables II
//!   and III measure gaps against.
//! * [`peeling`] — the reducing–peeling heuristic of Chang et al.
//!   (reference \[15\]), included as the related-work extension.
//! * [`luby`] — Luby's randomized maximal independent set, a seed-diverse
//!   initial-solution provider.
//! * [`kernel`] — the shared reduction kernel (degree-0/1, degree-2
//!   triangle and folding) that both the exact solver and the peeler
//!   build on, exposed for downstream kernelization.
//! * [`verify`] — independence/maximality/k-maximality checkers and a
//!   brute-force optimum for small graphs, used across the test suites.
//! * [`certify`] — the same properties certified at full scale with
//!   concrete violation witnesses (the paper's clique criterion for
//!   1-maximality).
//!
//! All solvers consume an immutable [`dynamis_graph::CsrGraph`].

pub mod arw;
pub mod certify;
pub mod exact;
pub mod greedy;
pub mod kernel;
pub mod luby;
pub mod peeling;
pub mod verify;

pub use arw::{arw_local_search, ArwConfig};
pub use certify::{certify_independent, certify_maximal, certify_one_maximal, Violation};
pub use exact::{solve_exact, ExactConfig, ExactResult};
pub use greedy::greedy_mis;
pub use kernel::Kernel;
pub use luby::{luby_mis, LubyResult};
pub use peeling::reducing_peeling;
