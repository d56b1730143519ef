//! Maximality-repair-only baseline: the quality floor.

use dynamis_core::{
    validate_update, BuildableEngine, DeltaFeed, DynamicMis, EngineBuilder, EngineError, Session,
    SolutionDelta,
};
use dynamis_graph::{DynamicGraph, Update};

/// Maintains a *maximal* (not k-maximal) independent set: evicted or
/// conflicted vertices are replaced greedily by any freed neighbor, and
/// nothing else is ever attempted. Linear time, minimal memory, and the
/// weakest quality — used in ablations to quantify what the swap
/// machinery buys. Constructed through the [`EngineBuilder`] session
/// API (the builder's `k` and config are ignored).
#[derive(Debug)]
pub struct MaximalOnly {
    g: DynamicGraph,
    status: Vec<bool>,
    count: Vec<u32>,
    size: usize,
    feed: DeltaFeed,
    repair: Vec<u32>,
}

impl MaximalOnly {
    /// Builds the baseline from a validated [`Session`] (extends the
    /// initial set to maximality).
    fn from_session(session: Session) -> Self {
        let Session { graph, initial, .. } = session;
        let cap = graph.capacity();
        let mut b = MaximalOnly {
            g: graph,
            status: vec![false; cap],
            count: vec![0; cap],
            size: 0,
            feed: DeltaFeed::default(),
            repair: Vec::new(),
        };
        for &v in &initial {
            b.status[v as usize] = true;
            b.feed.record_in(v);
            b.size += 1;
        }
        for v in 0..cap as u32 {
            if b.g.is_alive(v) && !b.status[v as usize] {
                b.count[v as usize] =
                    b.g.neighbors(v).filter(|&u| b.status[u as usize]).count() as u32;
                if b.count[v as usize] == 0 {
                    b.repair.push(v);
                }
            }
        }
        b.process_repairs();
        let _ = b.feed.finish_update(); // close the bootstrap span
        b
    }

    fn move_in(&mut self, v: u32) {
        self.status[v as usize] = true;
        self.feed.record_in(v);
        self.size += 1;
        let nbrs: Vec<u32> = self.g.neighbors(v).collect();
        for u in nbrs {
            self.count[u as usize] += 1;
        }
    }

    fn process_repairs(&mut self) {
        while let Some(u) = self.repair.pop() {
            if self.g.is_alive(u) && !self.status[u as usize] && self.count[u as usize] == 0 {
                self.move_in(u);
            }
        }
    }

    /// Test-only invariant check.
    pub fn check_consistency(&self) -> Result<(), String> {
        for v in self.g.vertices() {
            let c = self
                .g
                .neighbors(v)
                .filter(|&u| self.status[u as usize])
                .count();
            if self.status[v as usize] && c != 0 {
                return Err(format!("not independent at {v}"));
            }
            if !self.status[v as usize] && c == 0 {
                return Err(format!("not maximal at {v}"));
            }
        }
        Ok(())
    }
}

impl BuildableEngine for MaximalOnly {
    fn from_builder(builder: EngineBuilder) -> Result<Self, EngineError> {
        builder.into_session().map(Self::from_session)
    }
}

impl DynamicMis for MaximalOnly {
    fn name(&self) -> &'static str {
        "MaximalOnly"
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
                match (self.status[*a as usize], self.status[*b as usize]) {
                    (true, true) => {
                        // Evict the higher-degree endpoint. The winner is
                        // excluded from the decrement sweep: its edge to
                        // the loser was never counted.
                        let loser = if self.g.degree(*b) >= self.g.degree(*a) {
                            *b
                        } else {
                            *a
                        };
                        let winner = if loser == *a { *b } else { *a };
                        self.status[loser as usize] = false;
                        self.feed.record_out(loser);
                        self.size -= 1;
                        let nbrs: Vec<u32> =
                            self.g.neighbors(loser).filter(|&w| w != winner).collect();
                        for u in nbrs {
                            self.count[u as usize] -= 1;
                            if self.count[u as usize] == 0 && !self.status[u as usize] {
                                self.repair.push(u);
                            }
                        }
                        self.count[loser as usize] = 1;
                        self.process_repairs();
                    }
                    (true, false) => self.count[*b as usize] += 1,
                    (false, true) => self.count[*a as usize] += 1,
                    (false, false) => {}
                }
            }
            Update::RemoveEdge(a, b) => {
                if !self.g.remove_edge(*a, *b)? {
                    return Err(EngineError::MissingEdge(*a, *b));
                }
                if self.status[*a as usize] && !self.status[*b as usize] {
                    self.count[*b as usize] -= 1;
                    if self.count[*b as usize] == 0 {
                        self.move_in(*b);
                    }
                } else if self.status[*b as usize] && !self.status[*a as usize] {
                    self.count[*a as usize] -= 1;
                    if self.count[*a as usize] == 0 {
                        self.move_in(*a);
                    }
                }
            }
            Update::InsertVertex { id: _, neighbors } => {
                validate_update(&self.g, upd)?;
                let v = self.g.add_vertex();
                let cap = self.g.capacity();
                if self.status.len() < cap {
                    self.status.resize(cap, false);
                    self.count.resize(cap, 0);
                }
                for &n in neighbors {
                    self.g.insert_edge(v, n).expect("validated");
                }
                self.count[v as usize] = neighbors
                    .iter()
                    .filter(|&&n| self.status[n as usize])
                    .count() as u32;
                if self.count[v as usize] == 0 {
                    self.move_in(v);
                }
            }
            Update::RemoveVertex(v) => {
                validate_update(&self.g, upd)?;
                let was_in = self.status[*v as usize];
                self.status[*v as usize] = false;
                if was_in {
                    self.feed.record_out(*v);
                    self.size -= 1;
                }
                self.count[*v as usize] = 0;
                let former = self.g.remove_vertex(*v).expect("validated");
                if was_in {
                    for u in former {
                        self.count[u as usize] -= 1;
                        if self.count[u as usize] == 0 && !self.status[u as usize] {
                            self.repair.push(u);
                        }
                    }
                    self.process_repairs();
                }
            }
        }
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
        self.g.heap_bytes()
            + self.status.capacity()
            + self.count.capacity() * 4
            + self.feed.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(g: DynamicGraph, initial: &[u32]) -> MaximalOnly {
        EngineBuilder::on(g).initial(initial).build_as().unwrap()
    }

    #[test]
    fn stays_maximal_under_updates() {
        let g = DynamicGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let mut b = build(g, &[]);
        b.check_consistency().unwrap();
        b.try_apply(&Update::RemoveEdge(1, 2)).unwrap();
        b.check_consistency().unwrap();
        b.try_apply(&Update::InsertEdge(0, 3)).unwrap();
        b.check_consistency().unwrap();
        b.try_apply(&Update::RemoveVertex(4)).unwrap();
        b.check_consistency().unwrap();
        b.try_apply(&Update::InsertVertex {
            id: 4,
            neighbors: vec![0, 5],
        })
        .unwrap();
        b.check_consistency().unwrap();
    }

    #[test]
    fn never_beats_one_swap_quality_on_star() {
        // Star with center in the set: MaximalOnly keeps {center}, the
        // swap engines would reach all leaves.
        let g = DynamicGraph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let b = build(g, &[0]);
        assert_eq!(b.size(), 1, "no swap machinery — stuck at the center");
    }
}
