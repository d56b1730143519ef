//! The recompute-from-scratch baseline.
//!
//! The introduction's case against static methods is that they "need to
//! recompute the solution from scratch after each update, which is
//! obviously time consuming". This baseline makes that cost measurable:
//! between recomputations it only keeps the solution *valid* (evicting a
//! conflicted endpoint on edge insertion, dropping deleted vertices), and
//! every `interval` updates it rebuilds the solution with a static solver.
//!
//! * `interval = 1` is the paper's strawman — a full static solve per
//!   update;
//! * larger intervals trade staleness (smaller solutions between solves)
//!   for amortized cost, the knob the `restart` ablation sweeps.

use dynamis_core::{
    validate_update, DeltaFeed, DynamicMis, EngineBuilder, EngineError, SolutionDelta,
};
use dynamis_graph::{DynamicGraph, Update};
use dynamis_static::verify::compact_live;
use dynamis_static::{arw_local_search, greedy_mis, ArwConfig};

/// Which static solver the baseline reruns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestartSolver {
    /// Min-degree greedy — the cheap rebuild.
    Greedy,
    /// ARW iterated local search — the high-quality rebuild.
    Arw,
}

/// Recompute-from-scratch maintenance (see module docs).
#[derive(Debug)]
pub struct Restart {
    g: DynamicGraph,
    solver: RestartSolver,
    interval: usize,
    since_solve: usize,
    status: Vec<bool>,
    size: usize,
    feed: DeltaFeed,
    /// Full static solves performed (exposed for the ablation harness).
    pub recomputes: u64,
}

impl Restart {
    /// Builds the baseline from a builder-described session plus its
    /// own knobs (which solver to rerun, and how often); solves once
    /// immediately, so the session's initial set is superseded and
    /// ignored. `interval` must be at least 1.
    pub fn from_builder(
        builder: EngineBuilder,
        solver: RestartSolver,
        interval: usize,
    ) -> Result<Self, EngineError> {
        if interval == 0 {
            return Err(EngineError::BadParameter("restart interval must be ≥ 1"));
        }
        let session = builder.into_session()?;
        let cap = session.graph.capacity();
        let mut b = Restart {
            g: session.graph,
            solver,
            interval,
            since_solve: 0,
            status: vec![false; cap],
            size: 0,
            feed: DeltaFeed::default(),
            recomputes: 0,
        };
        b.resolve();
        let _ = b.feed.finish_update(); // close the bootstrap span
        Ok(b)
    }

    /// Runs the static solver on the current graph. The wholesale
    /// status rewrite is recorded as a (large, honest) solution delta.
    fn resolve(&mut self) {
        self.recomputes += 1;
        self.since_solve = 0;
        let (csr, map) = compact_live(&self.g);
        let compact_solution = match self.solver {
            RestartSolver::Greedy => greedy_mis(&csr),
            RestartSolver::Arw => arw_local_search(
                &csr,
                ArwConfig {
                    // Few perturbation rounds: this baseline exists to
                    // measure the *amortized* recompute price, not to be
                    // the best solver.
                    perturbations: 2,
                    seed: 0xD15EA5E,
                },
            ),
        };
        // Invert the old→new map onto the status bitmap.
        let mut inv = vec![u32::MAX; csr.num_vertices()];
        for (old, &new) in map.iter().enumerate() {
            if new != u32::MAX {
                inv[new as usize] = old as u32;
            }
        }
        let mut new_status = vec![false; self.status.len()];
        for &c in &compact_solution {
            let old = inv[c as usize];
            new_status[old as usize] = true;
        }
        for (v, (&old, &new)) in self.status.iter().zip(new_status.iter()).enumerate() {
            match (old, new) {
                (false, true) => self.feed.record_in(v as u32),
                (true, false) => self.feed.record_out(v as u32),
                _ => {}
            }
        }
        self.status = new_status;
        self.size = compact_solution.len();
    }

    fn bump(&mut self) {
        self.since_solve += 1;
        if self.since_solve >= self.interval {
            self.resolve();
        }
    }

    /// Test-only: the solution is a valid independent set (maximality is
    /// only guaranteed right after a solve).
    pub fn check_valid(&self) -> Result<(), String> {
        for v in self.g.vertices() {
            if self.status[v as usize] && self.g.neighbors(v).any(|u| self.status[u as usize]) {
                return Err(format!("solution not independent at {v}"));
            }
        }
        if self.status.iter().filter(|&&s| s).count() != self.size {
            return Err("size counter out of sync".into());
        }
        Ok(())
    }
}

impl DynamicMis for Restart {
    fn name(&self) -> &'static str {
        match self.solver {
            RestartSolver::Greedy => "Restart(Greedy)",
            RestartSolver::Arw => "Restart(ARW)",
        }
    }

    fn graph(&self) -> &DynamicGraph {
        &self.g
    }

    fn try_apply(&mut self, upd: &Update) -> Result<SolutionDelta, EngineError> {
        // Edge ops fuse validation into the graph call (the graph checks
        // self-loops and aliveness before mutating; the boolean return
        // classifies duplicates/missing) — no second edge lookup. The
        // rare vertex ops pre-validate with `validate_update`.
        match upd {
            Update::InsertEdge(a, b) => {
                if !self.g.insert_edge(*a, *b)? {
                    return Err(EngineError::DuplicateEdge(*a, *b));
                }
                if self.status[*a as usize] && self.status[*b as usize] {
                    // Evict the higher-degree endpoint; no repair until the
                    // next solve.
                    let loser = if self.g.degree(*b) >= self.g.degree(*a) {
                        *b
                    } else {
                        *a
                    };
                    self.status[loser as usize] = false;
                    self.feed.record_out(loser);
                    self.size -= 1;
                }
            }
            Update::RemoveEdge(a, b) => {
                if !self.g.remove_edge(*a, *b)? {
                    return Err(EngineError::MissingEdge(*a, *b));
                }
            }
            Update::InsertVertex { id: _, neighbors } => {
                validate_update(&self.g, upd)?;
                let v = self.g.add_vertex();
                if self.status.len() < self.g.capacity() {
                    self.status.resize(self.g.capacity(), false);
                }
                self.status[v as usize] = false;
                for &n in neighbors {
                    self.g.insert_edge(v, n).expect("validated");
                }
            }
            Update::RemoveVertex(v) => {
                validate_update(&self.g, upd)?;
                if self.status[*v as usize] {
                    self.status[*v as usize] = false;
                    self.feed.record_out(*v);
                    self.size -= 1;
                }
                self.g.remove_vertex(*v).expect("validated");
            }
        }
        self.bump();
        let mut delta = self.feed.finish_update();
        delta.stats.updates = 1;
        Ok(delta)
    }

    fn drain_delta(&mut self) -> SolutionDelta {
        self.feed.drain()
    }

    fn size(&self) -> usize {
        self.size
    }

    fn solution(&self) -> Vec<u32> {
        (0..self.status.len() as u32)
            .filter(|&v| self.status[v as usize])
            .collect()
    }

    fn contains(&self, v: u32) -> bool {
        self.status.get(v as usize).copied().unwrap_or(false)
    }

    fn heap_bytes(&self) -> usize {
        self.g.heap_bytes() + self.status.capacity() + self.feed.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynamis_static::verify::is_maximal_dynamic;

    fn build(g: DynamicGraph, solver: RestartSolver, interval: usize) -> Restart {
        Restart::from_builder(EngineBuilder::on(g), solver, interval).unwrap()
    }

    fn path(n: usize) -> DynamicGraph {
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        DynamicGraph::from_edges(n, &edges)
    }

    #[test]
    fn interval_one_is_always_fresh() {
        let mut r = build(path(8), RestartSolver::Greedy, 1);
        assert_eq!(r.recomputes, 1);
        for upd in [
            Update::RemoveEdge(3, 4),
            Update::InsertEdge(0, 7),
            Update::InsertEdge(2, 6),
        ] {
            r.try_apply(&upd).unwrap();
            r.check_valid().unwrap();
            assert!(
                is_maximal_dynamic(r.graph(), &r.solution()),
                "fresh solve must be maximal after {upd:?}"
            );
        }
        assert_eq!(r.recomputes, 4, "one solve per update plus the initial");
    }

    #[test]
    fn large_interval_amortizes_but_goes_stale() {
        let mut r = build(path(10), RestartSolver::Greedy, 100);
        let initial = r.size();
        // Pile conflicts onto solution vertices; no repair happens.
        let sol = r.solution();
        let (a, b) = (sol[0], sol[1]);
        r.try_apply(&Update::InsertEdge(a, b)).unwrap();
        r.check_valid().unwrap();
        assert_eq!(r.size(), initial - 1, "eviction without repair");
        assert_eq!(r.recomputes, 1, "no re-solve before the interval");
    }

    #[test]
    fn resolve_fires_exactly_on_interval() {
        let mut r = build(path(12), RestartSolver::Greedy, 3);
        for step in 1..=9usize {
            // Toggle one path edge out and back in: every op is valid.
            let e = ((step as u32 - 1) / 2) % 11;
            let upd = if step % 2 == 1 {
                Update::RemoveEdge(e, e + 1)
            } else {
                Update::InsertEdge(e, e + 1)
            };
            r.try_apply(&upd).unwrap();
            assert_eq!(r.recomputes as usize, 1 + step / 3, "after step {step}");
        }
    }

    #[test]
    fn arw_solver_never_smaller_than_greedy_right_after_solve() {
        // C₁₅ with chords: greedy can be suboptimal; ARW fixes 1-swaps.
        let n = 15u32;
        let mut edges: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        edges.push((0, 5));
        edges.push((3, 9));
        let g = DynamicGraph::from_edges(n as usize, &edges);
        let greedy = build(g.clone(), RestartSolver::Greedy, 1);
        let arw = build(g, RestartSolver::Arw, 1);
        assert!(arw.size() >= greedy.size());
        arw.check_valid().unwrap();
    }

    #[test]
    fn survives_vertex_churn() {
        let mut r = build(path(6), RestartSolver::Greedy, 2);
        r.try_apply(&Update::RemoveVertex(2)).unwrap();
        r.check_valid().unwrap();
        r.try_apply(&Update::InsertVertex {
            id: 2,
            neighbors: vec![0, 5],
        })
        .unwrap();
        r.check_valid().unwrap();
        r.try_apply(&Update::RemoveVertex(0)).unwrap();
        r.check_valid().unwrap();
        assert!(r.size() >= 2);
    }

    #[test]
    fn zero_interval_is_rejected() {
        let err = Restart::from_builder(EngineBuilder::on(path(3)), RestartSolver::Greedy, 0)
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, EngineError::BadParameter(_)));
    }
}
