//! `DGOneDIS` / `DGTwoDIS` — reimplementation of the dependency-graph
//! index approach of Zheng, Piao, Cheng & Yu, ICDE 2019 (reference
//! \[21\]), from its published description.
//!
//! The original system indexes *complementary* relations harvested from
//! degree-one (OneDIS) and degree-one + degree-two (TwoDIS) reductions:
//! when a set of vertices is moved out of the solution, the index is
//! searched for a set of complementary vertices of at least the same
//! size. Two published behaviours drive the paper's comparison, and this
//! emulation reproduces both mechanically:
//!
//! 1. **The index is incremental and append-only** — every count
//!    transition appends a dependency edge and nothing is ever pruned, so
//!    entries go stale and "the complementary relation … could become
//!    quite complicated, which results in an excessive long search time"
//!    as updates accumulate.
//! 2. **Search happens only on solution loss** — quality is repaired
//!    when a solution vertex is evicted, but no global k-maximality is
//!    enforced, so the gap widens relative to the swap-based engines as
//!    the graph churns.
//!
//! This is an emulation (the authors' code is not public), and this
//! module doc is the record of that substitution.

use dynamis_core::{
    validate_update, BuildableEngine, DeltaFeed, DynamicMis, EngineBuilder, EngineError, Session,
    SolutionDelta,
};
use dynamis_graph::{DynamicGraph, Update};

/// Per-vertex cap on dependency-list length. The real system's index also
/// grows with updates; the cap only bounds memory, not the staleness
/// behaviour (scans still degrade long before the cap binds).
const DEP_CAP: usize = 4096;

/// Dependency-index dynamic near-maximum independent set (OneDIS /
/// TwoDIS).
#[derive(Debug)]
pub struct DgDis {
    g: DynamicGraph,
    status: Vec<bool>,
    count: Vec<u32>,
    size: usize,
    feed: DeltaFeed,
    /// TwoDIS mode: degree-two dependencies and two-level search.
    two_hop: bool,
    /// Append-only dependency index: `deps[v]` = vertices recorded as
    /// complementary to solution vertex `v`.
    deps: Vec<Vec<u32>>,
    repair: Vec<u32>,
    /// Total index entries scanned — the quantity that balloons with
    /// update count (exposed for the harness).
    pub search_steps: u64,
}

impl DgDis {
    /// OneDIS: degree-one dependency index.
    pub fn one_dis(builder: EngineBuilder) -> Result<Self, EngineError> {
        builder.into_session().map(|s| Self::from_session(s, false))
    }

    /// TwoDIS: degree-one + degree-two dependency index.
    pub fn two_dis(builder: EngineBuilder) -> Result<Self, EngineError> {
        builder.into_session().map(|s| Self::from_session(s, true))
    }

    fn from_session(session: Session, two_hop: bool) -> Self {
        let Session { graph, initial, .. } = session;
        let cap = graph.capacity();
        let mut b = DgDis {
            g: graph,
            status: vec![false; cap],
            count: vec![0; cap],
            size: 0,
            feed: DeltaFeed::default(),
            two_hop,
            deps: vec![Vec::new(); cap],
            repair: Vec::new(),
            search_steps: 0,
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
        // Initial index from the reduction structure of G_0.
        for v in 0..cap as u32 {
            if b.g.is_alive(v) && !b.status[v as usize] {
                b.index_vertex(v);
            }
        }
        let _ = b.feed.finish_update(); // close the bootstrap span
        b
    }

    /// Records v's current dependencies (count-1 always; count-2 in
    /// TwoDIS mode).
    fn index_vertex(&mut self, v: u32) {
        match self.count[v as usize] {
            1 => {
                if let Some(p) = self.parent_of(v) {
                    self.push_dep(p, v);
                }
            }
            2 if self.two_hop => {
                let parents: Vec<u32> = self
                    .g
                    .neighbors(v)
                    .filter(|&p| self.status[p as usize])
                    .collect();
                for p in parents {
                    self.push_dep(p, v);
                }
            }
            _ => {}
        }
    }

    fn push_dep(&mut self, p: u32, v: u32) {
        let list = &mut self.deps[p as usize];
        if list.len() < DEP_CAP {
            list.push(v);
        }
    }

    fn parent_of(&self, v: u32) -> Option<u32> {
        self.g.neighbors(v).find(|&p| self.status[p as usize])
    }

    fn move_in(&mut self, v: u32) {
        self.status[v as usize] = true;
        self.feed.record_in(v);
        self.size += 1;
        let nbrs: Vec<u32> = self.g.neighbors(v).collect();
        for u in nbrs {
            self.count[u as usize] += 1;
            if !self.status[u as usize] {
                self.index_vertex(u);
            }
        }
    }

    fn move_out(&mut self, v: u32) {
        self.status[v as usize] = false;
        self.feed.record_out(v);
        self.size -= 1;
        let nbrs: Vec<u32> = self.g.neighbors(v).collect();
        for u in nbrs {
            self.count[u as usize] -= 1;
            if self.count[u as usize] == 0 && !self.status[u as usize] {
                self.repair.push(u);
            } else if !self.status[u as usize] {
                self.index_vertex(u);
            }
        }
    }

    fn process_repairs(&mut self) {
        while let Some(u) = self.repair.pop() {
            if self.g.is_alive(u) && !self.status[u as usize] && self.count[u as usize] == 0 {
                self.move_in(u);
            }
        }
    }

    #[inline]
    fn insertable(&self, v: u32) -> bool {
        self.g.is_alive(v) && !self.status[v as usize] && self.count[v as usize] == 0
    }

    /// The index search fired when solution vertex `w` is lost: walk w's
    /// (partly stale) dependency list for direct replacements and, in
    /// TwoDIS mode, for one- and two-level complementary exchanges.
    fn complementary_search(&mut self, w: u32) {
        let direct: Vec<u32> = self.deps[w as usize].clone();
        for c in direct {
            self.search_steps += 1;
            if self.insertable(c) {
                self.move_in(c);
                continue;
            }
            if !self.two_hop {
                continue;
            }
            if !self.g.is_alive(c) || self.status[c as usize] {
                continue; // stale entry — cost paid, nothing gained
            }
            match self.count[c as usize] {
                1 => {
                    // Replace c's blocker with {c, rc} if the index holds a
                    // compatible sibling rc.
                    let Some(blk) = self.parent_of(c) else {
                        continue;
                    };
                    let sibs: Vec<u32> = self.deps[blk as usize].clone();
                    for rc in sibs {
                        self.search_steps += 1;
                        if rc != c
                            && self.g.is_alive(rc)
                            && !self.status[rc as usize]
                            && self.count[rc as usize] == 1
                            && self.parent_of(rc) == Some(blk)
                            && !self.g.has_edge(rc, c)
                        {
                            self.move_out(blk);
                            debug_assert!(self.insertable(c));
                            self.move_in(c);
                            if self.insertable(rc) {
                                self.move_in(rc);
                            }
                            self.process_repairs();
                            break;
                        }
                    }
                }
                2 => {
                    // Two-level exchange: evict both blockers when the
                    // index supplies a compatible dependent for each.
                    let parents: Vec<u32> = self
                        .g
                        .neighbors(c)
                        .filter(|&p| self.status[p as usize])
                        .collect();
                    if parents.len() != 2 {
                        continue;
                    }
                    let (p1, p2) = (parents[0], parents[1]);
                    let find_partner = |me: &mut Self, p: u32, avoid: &[u32]| -> Option<u32> {
                        let list: Vec<u32> = me.deps[p as usize].clone();
                        for d in list {
                            me.search_steps += 1;
                            if me.g.is_alive(d)
                                && !me.status[d as usize]
                                && me.count[d as usize] == 1
                                && me.parent_of(d) == Some(p)
                                && avoid.iter().all(|&x| x != d && !me.g.has_edge(d, x))
                            {
                                return Some(d);
                            }
                        }
                        None
                    };
                    let Some(d1) = find_partner(self, p1, &[c]) else {
                        continue;
                    };
                    let Some(d2) = find_partner(self, p2, &[c, d1]) else {
                        continue;
                    };
                    self.move_out(p1);
                    self.move_out(p2);
                    for x in [c, d1, d2] {
                        if self.insertable(x) {
                            self.move_in(x);
                        }
                    }
                    self.process_repairs();
                }
                _ => {}
            }
        }
        self.process_repairs();
    }
}

impl BuildableEngine for DgDis {
    /// The builder's `k` selects the reduction depth: `k = 1` builds
    /// OneDIS, `k ≥ 2` builds TwoDIS.
    fn from_builder(builder: EngineBuilder) -> Result<Self, EngineError> {
        let session = builder.into_session()?;
        let two_hop = session.k >= 2;
        Ok(Self::from_session(session, two_hop))
    }
}

impl DynamicMis for DgDis {
    fn name(&self) -> &'static str {
        if self.two_hop {
            "DGTwoDIS"
        } else {
            "DGOneDIS"
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
                match (self.status[*a as usize], self.status[*b as usize]) {
                    (true, true) => {
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
                            } else if !self.status[u as usize] {
                                self.index_vertex(u);
                            }
                        }
                        self.count[loser as usize] = 1;
                        self.push_dep(winner, loser);
                        self.process_repairs();
                        // The ICDE'19 trigger: solution loss → index search.
                        self.complementary_search(loser);
                    }
                    (true, false) => {
                        self.count[*b as usize] += 1;
                        self.index_vertex(*b);
                    }
                    (false, true) => {
                        self.count[*a as usize] += 1;
                        self.index_vertex(*a);
                    }
                    (false, false) => {}
                }
            }
            Update::RemoveEdge(a, b) => {
                if !self.g.remove_edge(*a, *b)? {
                    return Err(EngineError::MissingEdge(*a, *b));
                }
                for (x, y) in [(*a, *b), (*b, *a)] {
                    if self.status[y as usize] && !self.status[x as usize] {
                        self.count[x as usize] -= 1;
                        if self.count[x as usize] == 0 {
                            self.repair.push(x);
                            self.process_repairs();
                        } else {
                            self.index_vertex(x);
                        }
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
                    self.deps.resize_with(cap, Vec::new);
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
                } else {
                    self.index_vertex(v);
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
                        } else if !self.status[u as usize] {
                            self.index_vertex(u);
                        }
                    }
                    self.process_repairs();
                    self.complementary_search(*v);
                }
                self.deps[*v as usize].clear();
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
            + self.deps.iter().map(|d| d.capacity() * 4).sum::<usize>()
            + self.feed.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynamis_static::verify::is_maximal_dynamic;

    #[test]
    fn maintains_maximal_solution() {
        let g = DynamicGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let mut b = DgDis::one_dis(EngineBuilder::on(g)).unwrap();
        let schedule = [
            Update::RemoveEdge(2, 3),
            Update::InsertEdge(0, 3),
            Update::RemoveVertex(1),
            Update::InsertVertex {
                id: 1,
                neighbors: vec![0, 4],
            },
        ];
        for u in &schedule {
            b.try_apply(u).unwrap();
            assert!(
                is_maximal_dynamic(b.graph(), &b.solution()),
                "DGOneDIS must stay maximal after {u:?}"
            );
        }
    }

    #[test]
    fn two_dis_search_recovers_after_conflict() {
        // Solution {0, 1}; insert (0, 1): the evicted vertex's dependents
        // should be recovered through the index.
        let g = DynamicGraph::from_edges(5, &[(0, 2), (0, 3), (1, 4)]);
        let mut b = DgDis::two_dis(EngineBuilder::on(g).initial(&[0, 1])).unwrap();
        assert_eq!(b.size(), 2);
        b.try_apply(&Update::InsertEdge(0, 1)).unwrap();
        // 0 or 1 evicted; dependents (2, 3 or 4) fill in.
        assert!(b.size() >= 2, "index search must recover the loss");
        assert!(is_maximal_dynamic(b.graph(), &b.solution()));
    }

    #[test]
    fn search_steps_accumulate() {
        let g = DynamicGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
        let mut b = DgDis::two_dis(EngineBuilder::on(g).initial(&[0])).unwrap();
        b.try_apply(&Update::InsertVertex {
            id: 4,
            neighbors: vec![1, 2, 3],
        })
        .unwrap();
        b.try_apply(&Update::RemoveVertex(4)).unwrap();
        assert!(b.search_steps > 0, "vertex loss must trigger index search");
    }
}
