//! **Figure 10** — power-law random (PLR) graphs: response time (a) and
//! gap/accuracy (b) while the growth exponent β sweeps 1.9 → 2.7
//! (n = 10⁵ scaled from the paper's 10⁶; generator: Chung–Lu, standing
//! in for NetworkX under the substitution rules in the
//! `dynamis_gen::datasets` module doc).

use dynamis_bench::harness::{initial_solution_timed, run, AlgoKind};
use dynamis_bench::report::{fmt_acc, fmt_duration, fmt_gap, Table};
use dynamis_bench::{fast_mode, time_limit};
use dynamis_gen::{powerlaw::chung_lu, StreamConfig, UpdateStream};
use dynamis_graph::CsrGraph;
use std::time::Duration;

fn main() {
    let limit = time_limit();
    let n = if fast_mode() { 20_000 } else { 100_000 };
    let updates = n / 5;
    let betas = [1.9, 2.0, 2.1, 2.2, 2.3, 2.4, 2.5, 2.6, 2.7];
    let mut t = Table::new(vec!["β", "m", "algo", "time", "gap", "acc"]);
    for beta in betas {
        let g = chung_lu(n, beta, 8.0, 0xF10);
        let ups = UpdateStream::new(&g, StreamConfig::default(), 0xF10 ^ 7).take_updates(updates);
        let csr = CsrGraph::from_dynamic(&g);
        let init = initial_solution_timed(&csr, 3_000_000, Duration::from_secs(15));
        let reference = init.reference();
        eprintln!("[fig10] beta={beta}: m={} ref={}", g.num_edges(), reference);
        for kind in AlgoKind::paper_lineup() {
            let out = run(kind, &g, init.solution(), &ups, limit);
            t.row(vec![
                format!("{beta}"),
                g.num_edges().to_string(),
                kind.label(),
                if out.dnf {
                    "-".into()
                } else {
                    fmt_duration(out.elapsed)
                },
                if out.dnf {
                    "-".into()
                } else {
                    fmt_gap(out.size, reference)
                },
                if out.dnf {
                    "-".into()
                } else {
                    fmt_acc(out.size, reference)
                },
            ]);
        }
    }
    println!("\n# Fig. 10 — PLR graphs, β sweep (n = {n}, {updates} updates)\n");
    t.print();
}
