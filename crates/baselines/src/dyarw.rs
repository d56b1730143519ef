//! `DyARW` — the dynamic adaptation of the Andrade–Resende–Werneck local
//! search (§V-A of the paper, reference \[14\]).
//!
//! Semantically this maintains the same invariant as `DyOneSwap`: a
//! 1-maximal independent set, restored after every update by
//! (1,2)-swaps. The difference is purely representational, and it is the
//! one the paper measures: ARW's implementation keeps each candidate
//! list **sorted** and detects two non-adjacent 1-tight neighbors with a
//! double-pointer merge scan, so every edge insertion pays an O(d) sorted
//! insert — "DyARW suffer\[s\] from a little higher maintenance time for
//! the ordered structure required by the double pointer scan
//! implementation".

use dynamis_core::{
    validate_update, BuildableEngine, DeltaFeed, DynamicMis, EngineBuilder, EngineError, Session,
    SolutionDelta,
};
use dynamis_graph::{DynamicGraph, Update};
use std::collections::VecDeque;

/// Dynamic ARW: 1-maximal independent set over sorted adjacency.
/// Constructed through the [`EngineBuilder`] session API (the builder's
/// `k` and config are ignored — ARW is inherently a 1-swap method).
#[derive(Debug)]
pub struct DyArw {
    g: DynamicGraph,
    /// Sorted adjacency mirror (the "ordered structure").
    sorted_adj: Vec<Vec<u32>>,
    status: Vec<bool>,
    count: Vec<u32>,
    size: usize,
    feed: DeltaFeed,
    /// Solution vertices to re-examine for 2-improvements.
    queue: VecDeque<u32>,
    queued: Vec<bool>,
    repair: Vec<u32>,
}

impl DyArw {
    /// Builds the baseline from a validated [`Session`].
    fn from_session(session: Session) -> Self {
        let Session { graph, initial, .. } = session;
        let cap = graph.capacity();
        let mut sorted_adj: Vec<Vec<u32>> = vec![Vec::new(); cap];
        for v in graph.vertices() {
            let mut l: Vec<u32> = graph.neighbors(v).collect();
            l.sort_unstable();
            sorted_adj[v as usize] = l;
        }
        let mut b = DyArw {
            g: graph,
            sorted_adj,
            status: vec![false; cap],
            count: vec![0; cap],
            size: 0,
            feed: DeltaFeed::default(),
            queue: VecDeque::new(),
            queued: vec![false; cap],
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
        for v in 0..cap as u32 {
            if b.status[v as usize] {
                b.enqueue(v);
            }
        }
        b.drain();
        let _ = b.feed.finish_update(); // close the bootstrap span
        b
    }

    fn ensure_capacity(&mut self) {
        let cap = self.g.capacity();
        if self.status.len() < cap {
            self.status.resize(cap, false);
            self.count.resize(cap, 0);
            self.queued.resize(cap, false);
            self.sorted_adj.resize_with(cap, Vec::new);
        }
    }

    fn sorted_insert(&mut self, v: u32, n: u32) {
        let l = &mut self.sorted_adj[v as usize];
        // The O(d) ordered-structure maintenance cost.
        match l.binary_search(&n) {
            Ok(_) => {}
            Err(i) => l.insert(i, n),
        }
    }

    fn sorted_remove(&mut self, v: u32, n: u32) {
        let l = &mut self.sorted_adj[v as usize];
        if let Ok(i) = l.binary_search(&n) {
            l.remove(i);
        }
    }

    fn enqueue(&mut self, v: u32) {
        if self.status[v as usize] && !self.queued[v as usize] {
            self.queued[v as usize] = true;
            self.queue.push_back(v);
        }
    }

    /// The (unique, when count = 1) solution neighbor of `u`.
    fn parent_of(&self, u: u32) -> Option<u32> {
        self.g.neighbors(u).find(|&p| self.status[p as usize])
    }

    fn move_in(&mut self, v: u32) {
        self.status[v as usize] = true;
        self.feed.record_in(v);
        self.size += 1;
        let nbrs: Vec<u32> = self.g.neighbors(v).collect();
        for u in nbrs {
            self.count[u as usize] += 1;
            if self.count[u as usize] == 1 {
                // u became 1-tight: its parent (v) may now have a swap.
                self.enqueue(v);
            } else if self.count[u as usize] == 2 {
                // u left some parent's 1-tight list; nothing to do.
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
            match self.count[u as usize] {
                0 if !self.status[u as usize] => {
                    self.repair.push(u);
                }
                1 => {
                    // u became 1-tight under its remaining parent.
                    if let Some(p) = self.parent_of(u) {
                        self.enqueue(p);
                    }
                }
                _ => {}
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

    /// ARW 2-improvement at v, using sorted lists and merge scans.
    fn try_two_improvement(&mut self, v: u32) -> bool {
        if !self.status[v as usize] {
            return false;
        }
        // L(v): 1-tight neighbors, in sorted order.
        let l: Vec<u32> = self.sorted_adj[v as usize]
            .iter()
            .copied()
            .filter(|&u| {
                self.g.is_alive(u) && !self.status[u as usize] && self.count[u as usize] == 1
            })
            .collect();
        if l.len() < 2 {
            return false;
        }
        // Double-pointer scan: for each u ∈ L(v), merge sorted N(u)
        // against sorted L(v); a gap reveals a non-adjacent partner.
        for &u in &l {
            let nu = &self.sorted_adj[u as usize];
            let mut i = 0usize; // over l
            let mut j = 0usize; // over nu
            let mut witness: Option<u32> = None;
            while i < l.len() {
                let x = l[i];
                if x == u {
                    i += 1;
                    continue;
                }
                while j < nu.len() && nu[j] < x {
                    j += 1;
                }
                if j >= nu.len() || nu[j] != x {
                    witness = Some(x);
                    break;
                }
                i += 1;
            }
            if let Some(w) = witness {
                self.move_out(v);
                debug_assert_eq!(self.count[u as usize], 0);
                self.move_in(u);
                debug_assert_eq!(self.count[w as usize], 0);
                self.move_in(w);
                self.process_repairs();
                return true;
            }
        }
        false
    }

    fn drain(&mut self) {
        loop {
            self.process_repairs();
            let Some(v) = self.queue.pop_front() else {
                break;
            };
            self.queued[v as usize] = false;
            self.try_two_improvement(v);
        }
    }
}

impl BuildableEngine for DyArw {
    fn from_builder(builder: EngineBuilder) -> Result<Self, EngineError> {
        builder.into_session().map(Self::from_session)
    }
}

impl DynamicMis for DyArw {
    fn name(&self) -> &'static str {
        "DyARW"
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
                self.sorted_insert(*a, *b);
                self.sorted_insert(*b, *a);
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
                            match self.count[u as usize] {
                                0 if !self.status[u as usize] => {
                                    self.repair.push(u);
                                }
                                1 => {
                                    if let Some(p) = self.parent_of(u) {
                                        self.enqueue(p);
                                    }
                                }
                                _ => {}
                            }
                        }
                        self.count[loser as usize] = 1;
                        self.enqueue(winner);
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
                self.sorted_remove(*a, *b);
                self.sorted_remove(*b, *a);
                let (sa, sb) = (self.status[*a as usize], self.status[*b as usize]);
                if sa && !sb {
                    self.count[*b as usize] -= 1;
                    match self.count[*b as usize] {
                        0 => {
                            self.repair.push(*b);
                            self.process_repairs();
                        }
                        1 => {
                            if let Some(p) = self.parent_of(*b) {
                                self.enqueue(p);
                            }
                        }
                        _ => {}
                    }
                } else if sb && !sa {
                    self.count[*a as usize] -= 1;
                    match self.count[*a as usize] {
                        0 => {
                            self.repair.push(*a);
                            self.process_repairs();
                        }
                        1 => {
                            if let Some(p) = self.parent_of(*a) {
                                self.enqueue(p);
                            }
                        }
                        _ => {}
                    }
                } else if !sa && !sb {
                    // Two outsiders: a shared 1-tight parent may now host
                    // a 2-improvement.
                    if self.count[*a as usize] == 1 && self.count[*b as usize] == 1 {
                        let pa = self.g.neighbors(*a).find(|&p| self.status[p as usize]);
                        let pb = self.g.neighbors(*b).find(|&p| self.status[p as usize]);
                        if let (Some(pa), Some(pb)) = (pa, pb) {
                            if pa == pb {
                                self.enqueue(pa);
                            }
                        }
                    }
                }
            }
            Update::InsertVertex { id: _, neighbors } => {
                validate_update(&self.g, upd)?;
                let v = self.g.add_vertex();
                self.ensure_capacity();
                for &n in neighbors {
                    self.g.insert_edge(v, n).expect("validated");
                    self.sorted_insert(v, n);
                    self.sorted_insert(n, v);
                }
                self.count[v as usize] = neighbors
                    .iter()
                    .filter(|&&n| self.status[n as usize])
                    .count() as u32;
                if self.count[v as usize] == 0 {
                    self.move_in(v);
                } else if self.count[v as usize] == 1 {
                    let p = neighbors
                        .iter()
                        .copied()
                        .find(|&n| self.status[n as usize])
                        .expect("count said one parent");
                    self.enqueue(p);
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
                for &u in &former {
                    self.sorted_remove(u, *v);
                }
                self.sorted_adj[*v as usize].clear();
                if was_in {
                    for u in former {
                        self.count[u as usize] -= 1;
                        match self.count[u as usize] {
                            0 if !self.status[u as usize] => {
                                self.repair.push(u);
                            }
                            1 => {
                                if let Some(p) = self.parent_of(u) {
                                    self.enqueue(p);
                                }
                            }
                            _ => {}
                        }
                    }
                    self.process_repairs();
                }
            }
        }
        self.drain();
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
            + self
                .sorted_adj
                .iter()
                .map(|l| l.capacity() * 4)
                .sum::<usize>()
            + self.status.capacity()
            + self.count.capacity() * 4
            + self.feed.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(g: DynamicGraph, initial: &[u32]) -> DyArw {
        EngineBuilder::on(g).initial(initial).build_as().unwrap()
    }

    #[test]
    fn fixes_star_like_one_swap() {
        let g = DynamicGraph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let b = build(g, &[0]);
        assert_eq!(b.size(), 4);
    }

    #[test]
    fn updates_keep_one_maximality() {
        use dynamis_static::verify::is_k_maximal_dynamic;
        let g = DynamicGraph::from_edges(
            8,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 0),
            ],
        );
        let mut b = build(g, &[]);
        let schedule = [
            Update::RemoveEdge(1, 2),
            Update::InsertEdge(0, 4),
            Update::RemoveVertex(6),
            Update::InsertVertex {
                id: 6,
                neighbors: vec![0, 3],
            },
            Update::RemoveEdge(3, 4),
        ];
        for u in &schedule {
            b.try_apply(u).unwrap();
            assert!(
                is_k_maximal_dynamic(b.graph(), &b.solution(), 1),
                "DyARW must stay 1-maximal after {u:?}"
            );
        }
    }

    #[test]
    fn invalid_updates_are_rejected_without_state_change() {
        let g = DynamicGraph::from_edges(4, &[(0, 1), (1, 2)]);
        let mut b = build(g, &[]);
        let sol = b.solution();
        let _ = b.drain_delta();
        for bad in [
            Update::InsertEdge(0, 1),
            Update::RemoveEdge(0, 3),
            Update::RemoveVertex(9),
        ] {
            assert!(b.try_apply(&bad).is_err());
            assert_eq!(b.solution(), sol);
            assert!(b.drain_delta().is_empty());
        }
    }
}
