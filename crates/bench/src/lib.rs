//! # dynamis-bench — the experiment harness
//!
//! One binary per table/figure of the paper's §V, plus three extension
//! experiments that measure claims from the paper's introduction:
//!
//! | binary | reproduces |
//! |---|---|
//! | `table1` | Table I — dataset statistics |
//! | `table2` | Table II — gap/accuracy on easy graphs, 100k-equivalent updates |
//! | `table3` | Table III — gap/accuracy on the last 7 easy graphs, 1M-equivalent |
//! | `table4` | Table IV — gap to the ARW best on hard graphs (with DNFs) |
//! | `fig5`   | Fig. 5 — response time & memory on easy graphs |
//! | `fig6`   | Fig. 6 — response time & memory on hard graphs |
//! | `fig7`   | Fig. 7 — lazy collection & perturbation ablations |
//! | `fig8`   | Fig. 8 — scalability in the number of updates |
//! | `fig9`   | Fig. 9 — scalability in k |
//! | `fig10`  | Fig. 10 — power-law random graphs, β sweep |
//! | `worstcase` | Theorem 3 families |
//! | `plbcheck`  | Theorem 4 / Lemma 2 constants on every dataset |
//! | `initsens`  | extension — sensitivity to the initial solution |
//! | `restart`   | extension — amortized cost of recompute-from-scratch |
//! | `temporal`  | extension — sliding-window and burst workloads |
//!
//! Beyond the paper, `obs` and `durable` guard the telemetry and WAL
//! overhead budgets. [`alloc_track`] counts heap bytes and allocator
//! calls for the memory figures and for the `hot_path_budget` test,
//! and [`hash_baseline`] is the hash-indexed reference that the
//! workspace's differential test compares k = 1 solutions against.
//!
//! Environment knobs: `DYNAMIS_FAST=1` restricts each experiment to a
//! representative subset of datasets; `DYNAMIS_TIME_LIMIT_SECS` overrides
//! the per-run DNF limit (default 120 s — the scaled stand-in for the
//! paper's five-hour cutoff).

pub mod alloc_track;
pub mod harness;
pub mod hash_baseline;
pub mod report;

pub use harness::{initial_solution, run, AlgoKind, InitialSolution, RunOutcome};
pub use report::Table;

/// Whether the fast-subset mode is enabled.
pub fn fast_mode() -> bool {
    std::env::var("DYNAMIS_FAST").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// Per-run wall-clock limit standing in for the paper's five-hour cutoff.
pub fn time_limit() -> std::time::Duration {
    let secs = std::env::var("DYNAMIS_TIME_LIMIT_SECS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(120);
    std::time::Duration::from_secs(secs)
}
