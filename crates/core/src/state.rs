//! Shared framework state (§III-B): solution membership, counters, the
//! `I(u)` lists, and the hierarchical `¯I₁(v)` / `¯I₂(S)` buckets.
//!
//! Everything is maintained with O(1) relocations and **zero hash-map
//! probes**, exactly as the paper prescribes: "a pointer to v ∈ I(u) is
//! recorded in edge (v, u)" — the `I(u)` lists live *inside the graph's
//! half-edges* as intrusive payload slots (see
//! [`dynamis_graph::DynamicGraph::mark_neighbor`]), and every bucket
//! member stores its own index ("a constant-time update to the position
//! of u if the index of u in ¯I_j(I(u)) is maintained explicitly in
//! vertex u") in a dense per-vertex slot.
//!
//! The update hot path therefore touches only vectors indexed by vertex
//! id or adjacency position. [`SwapState::hot_hash_probes`] counts
//! hash-map probes issued by this bookkeeping; with the intrusive layout
//! there is no probe site left, so it stays 0 (asserted by the state
//! tests and by the bench crate's `hot_path_budget` test).

use crate::delta::DeltaFeed;
use dynamis_graph::DynamicGraph;

/// Count-transition event surfaced to the engine so it can enqueue
/// candidates and maximality repairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CountEvent {
    /// count(u) dropped to 0 — u is insertable (maximality repair).
    To0,
    /// count(u) became exactly 1 — u newly belongs to `¯I₁(parent)`.
    To1 {
        /// u's unique solution neighbor.
        parent: u32,
    },
    /// count(u) became exactly 2 — u newly belongs to `¯I₂({a, b})`.
    To2 {
        /// Smaller parent.
        a: u32,
        /// Larger parent.
        b: u32,
    },
    /// No bucket membership changed.
    Other,
}

/// The `¯I₂` tier, fully intrusive: for each solution vertex `v`,
/// `by_parent[v]` holds the count-2 vertices having `v` as a parent
/// (`¯I₂(v)` in Algorithm 3's promotion step), and each member `u`
/// stores its two positions — one per parent, smaller parent first — in
/// `bp_idx[u]`. The pair bucket `¯I₂({a, b})` is recovered on demand by
/// filtering the shorter of the two parent lists; that trades the seed's
/// pair-keyed hash map (a probe on every count-2 transition) for a scan
/// that only runs inside swap *search*, never on the update hot path.
#[derive(Debug, Default)]
pub(crate) struct PairTier {
    /// For each solution vertex `v`: count-2 vertices with `v` as a parent.
    by_parent: Vec<Vec<u32>>,
    /// `bp_idx[u]` = u's index in `by_parent[a]` and `by_parent[b]`,
    /// where `(a, b)` are u's sorted parents (valid while count(u) = 2).
    bp_idx: Vec<[u32; 2]>,
}

impl PairTier {
    fn ensure(&mut self, cap: usize) {
        if self.by_parent.len() < cap {
            self.by_parent.resize_with(cap, Vec::new);
            self.bp_idx.resize(cap, [0, 0]);
        }
    }

    fn heap_bytes(&self) -> usize {
        let by_parent: usize = self.by_parent.iter().map(|v| v.capacity() * 4).sum();
        by_parent
            + self.by_parent.capacity() * std::mem::size_of::<Vec<u32>>()
            + self.bp_idx.capacity() * std::mem::size_of::<[u32; 2]>()
    }
}

/// Framework state over an owned dynamic graph.
#[derive(Debug)]
pub struct SwapState {
    /// The evolving graph (the engine owns its copy). `I(u)` is stored
    /// intrusively in its half-edge payload slots.
    pub g: DynamicGraph,
    status: Vec<bool>,
    count: Vec<u32>,
    /// `¯I₁(v)` for `v ∈ I`.
    bar1: Vec<Vec<u32>>,
    /// `bar1_idx[u]` = index of u inside `bar1[parent1(u)]`
    /// (valid while count(u) = 1).
    bar1_idx: Vec<u32>,
    pairs: Option<PairTier>,
    size: usize,
    /// Hash-map probes issued by count-transition bookkeeping. The
    /// intrusive layout has no probe site, so this stays 0 — the field
    /// exists so any future regression has a place to be counted and
    /// caught (see the `hot_path_budget` test and the state tests).
    pub hot_hash_probes: u64,
    /// Every solution-membership flip is logged here, powering the
    /// per-update [`crate::SolutionDelta`]s and the drainable feed.
    pub(crate) feed: DeltaFeed,
}

impl SwapState {
    /// Creates state over `g` with `initial` as the starting independent
    /// set (independence is the caller's responsibility; engines
    /// debug-assert it). `track_pairs` enables the `¯I₂` tier.
    pub fn new(mut g: DynamicGraph, initial: &[u32], track_pairs: bool) -> Self {
        // The graph may arrive with marks from a previous owner (e.g. a
        // cloned snapshot of a running engine) — reset before rebuilding.
        g.clear_marks();
        let cap = g.capacity();
        let mut st = SwapState {
            g,
            status: vec![false; cap],
            count: vec![0; cap],
            bar1: vec![Vec::new(); cap],
            bar1_idx: vec![0; cap],
            pairs: track_pairs.then(PairTier::default),
            size: 0,
            hot_hash_probes: 0,
            feed: DeltaFeed::default(),
        };
        if let Some(p) = st.pairs.as_mut() {
            p.ensure(cap);
        }
        for &v in initial {
            debug_assert!(st.g.is_alive(v), "initial member {v} must be alive");
            st.status[v as usize] = true;
            st.feed.record_in(v);
        }
        st.size = initial.len();
        // Bulk-build counters, intrusive I(u) marks, and bucket tiers in
        // O(n + m).
        for v in 0..cap as u32 {
            if !st.g.is_alive(v) || st.status[v as usize] {
                continue;
            }
            for i in 0..st.g.degree(v) {
                if st.status[st.g.neighbor_at(v, i) as usize] {
                    st.g.mark_neighbor(v, i as u32);
                }
            }
            let c = st.g.marked_count(v) as u32;
            st.count[v as usize] = c;
            match c {
                1 => st.bar1_add(st.g.marked_neighbor(v, 0), v),
                2 => {
                    let (a, b) = st.parents2(v);
                    st.pair_add(v, a, b);
                }
                _ => {}
            }
        }
        st
    }

    /// Grows all per-vertex tables to cover vertex ids `< cap`.
    pub fn ensure_capacity(&mut self, cap: usize) {
        if self.status.len() < cap {
            self.status.resize(cap, false);
            self.count.resize(cap, 0);
            self.bar1.resize_with(cap, Vec::new);
            self.bar1_idx.resize(cap, 0);
        }
        if let Some(p) = self.pairs.as_mut() {
            p.ensure(cap);
        }
    }

    /// Whether `v` is in the maintained solution.
    #[inline]
    pub fn in_solution(&self, v: u32) -> bool {
        self.status[v as usize]
    }

    /// `count(v) = |N(v) ∩ I|`.
    #[inline]
    pub fn count(&self, v: u32) -> u32 {
        self.count[v as usize]
    }

    /// Current solution size |I|.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Collects the solution (paper line: "return all vertices whose
    /// status is TRUE").
    pub fn solution(&self) -> Vec<u32> {
        (0..self.status.len() as u32)
            .filter(|&v| self.status[v as usize])
            .collect()
    }

    /// The unique solution neighbor of a count-1 vertex — read straight
    /// from the intrusive mark, no hashing.
    #[inline]
    pub fn parent1(&self, u: u32) -> u32 {
        debug_assert_eq!(self.count[u as usize], 1);
        self.g.marked_neighbor(u, 0)
    }

    /// The sorted solution-neighbor pair of a count-2 vertex.
    #[inline]
    pub fn parents2(&self, u: u32) -> (u32, u32) {
        debug_assert_eq!(self.count[u as usize], 2);
        let a = self.g.marked_neighbor(u, 0);
        let b = self.g.marked_neighbor(u, 1);
        (a.min(b), a.max(b))
    }

    /// `I(u)` — all solution neighbors of u, read from the intrusive
    /// marks.
    #[inline]
    pub fn sol_neighbors(&self, u: u32) -> impl Iterator<Item = u32> + '_ {
        self.g.marked_neighbors(u)
    }

    /// `¯I₁(v)` for a solution vertex v.
    #[inline]
    pub fn bar1(&self, v: u32) -> &[u32] {
        &self.bar1[v as usize]
    }

    /// `¯I₂(S)` for `S = {a, b}`, collected by filtering the shorter
    /// parent list (empty when the pair tier is off). Allocates — test
    /// and report use; the engine's swap search streams via
    /// [`SwapState::for_each_bar2`] instead.
    pub fn bar2(&self, a: u32, b: u32) -> Vec<u32> {
        let mut out = Vec::new();
        self.for_each_bar2(a, b, |u| out.push(u));
        out
    }

    /// Streams the members of `¯I₂({a, b})` without allocating.
    pub fn for_each_bar2<F: FnMut(u32)>(&self, a: u32, b: u32, mut f: F) {
        let Some(p) = self.pairs.as_ref() else { return };
        let (a, b) = (a.min(b), a.max(b));
        let scan = if p.by_parent[a as usize].len() <= p.by_parent[b as usize].len() {
            a
        } else {
            b
        };
        let other = if scan == a { b } else { a };
        for &u in &p.by_parent[scan as usize] {
            // u has exactly two marked (solution) neighbors; membership in
            // the {a, b} bucket is a two-read check, no hashing.
            let x = self.g.marked_neighbor(u, 0);
            let y = self.g.marked_neighbor(u, 1);
            if x == other || y == other {
                f(u);
            }
        }
    }

    /// First member of `¯I₂({a, b})` satisfying `pred`.
    pub fn bar2_find<F: FnMut(u32) -> bool>(&self, a: u32, b: u32, mut pred: F) -> Option<u32> {
        let mut found = None;
        self.for_each_bar2(a, b, |u| {
            if found.is_none() && pred(u) {
                found = Some(u);
            }
        });
        found
    }

    /// `¯I₂(v)` — count-2 vertices having solution vertex v as a parent.
    pub fn bar2_by_parent(&self, v: u32) -> &[u32] {
        self.pairs
            .as_ref()
            .map_or(&[], |p| &p.by_parent[v as usize])
    }

    fn bar1_add(&mut self, parent: u32, u: u32) {
        let list = &mut self.bar1[parent as usize];
        self.bar1_idx[u as usize] = list.len() as u32;
        list.push(u);
    }

    fn bar1_remove(&mut self, parent: u32, u: u32) {
        let i = self.bar1_idx[u as usize] as usize;
        let list = &mut self.bar1[parent as usize];
        debug_assert_eq!(list[i], u, "bar1 back-pointer must be fresh");
        list.swap_remove(i);
        if i < list.len() {
            self.bar1_idx[list[i] as usize] = i as u32;
        }
    }

    /// Inserts `u` into the pair tier under sorted parents `(a, b)`.
    fn pair_add(&mut self, u: u32, a: u32, b: u32) {
        debug_assert!(a < b);
        let Some(p) = self.pairs.as_mut() else { return };
        for (side, parent) in [a, b].into_iter().enumerate() {
            let list = &mut p.by_parent[parent as usize];
            p.bp_idx[u as usize][side] = list.len() as u32;
            list.push(u);
        }
    }

    /// Removes `u` from the pair tier; `(a, b)` are its sorted parents at
    /// insertion time. The swap-remove fix-up reads the moved member's
    /// parents from its intrusive marks — O(1), no hashing.
    fn pair_remove(&mut self, u: u32, a: u32, b: u32) {
        debug_assert!(a < b);
        let g = &self.g;
        let Some(p) = self.pairs.as_mut() else { return };
        for (side, parent) in [a, b].into_iter().enumerate() {
            let i = p.bp_idx[u as usize][side] as usize;
            let list = &mut p.by_parent[parent as usize];
            debug_assert_eq!(list[i], u, "bp back-pointer must be fresh");
            list.swap_remove(i);
            if i < list.len() {
                let moved = list[i];
                // Which of `moved`'s two slots points at this parent list?
                let m0 = g.marked_neighbor(moved, 0);
                let m1 = g.marked_neighbor(moved, 1);
                debug_assert!(parent == m0 || parent == m1);
                let moved_side = usize::from(parent == m0.max(m1));
                p.bp_idx[moved as usize][moved_side] = i as u32;
            }
        }
    }

    /// Registers solution vertex `v` as a new solution neighbor of `u`,
    /// via the half-edge `adj[u][pos]` (which must point at `v`),
    /// returning the bucket transition. Zero hash probes.
    pub(crate) fn inc_count(&mut self, u: u32, pos: u32, v: u32) -> CountEvent {
        debug_assert_eq!(self.g.neighbor_at(u, pos as usize), v);
        let old = self.count[u as usize];
        self.count[u as usize] = old + 1;
        match old {
            0 => {
                self.g.mark_neighbor(u, pos);
                self.bar1_add(v, u);
                CountEvent::To1 { parent: v }
            }
            1 => {
                let prev = self.g.marked_neighbor(u, 0);
                self.g.mark_neighbor(u, pos);
                self.bar1_remove(prev, u);
                self.pair_add(u, prev.min(v), prev.max(v));
                CountEvent::To2 {
                    a: prev.min(v),
                    b: prev.max(v),
                }
            }
            2 => {
                let a = self.g.marked_neighbor(u, 0);
                let b = self.g.marked_neighbor(u, 1);
                self.g.mark_neighbor(u, pos);
                self.pair_remove(u, a.min(b), a.max(b));
                CountEvent::Other
            }
            _ => {
                self.g.mark_neighbor(u, pos);
                CountEvent::Other
            }
        }
    }

    /// Unregisters solution vertex `v` from `I(u)` via the half-edge
    /// `adj[u][pos]`, returning the bucket transition. Zero hash probes.
    pub(crate) fn dec_count(&mut self, u: u32, pos: u32, v: u32) -> CountEvent {
        debug_assert_eq!(self.g.neighbor_at(u, pos as usize), v);
        let old = self.count[u as usize];
        self.g.unmark_neighbor(u, pos);
        self.count[u as usize] = old - 1;
        match old {
            1 => {
                self.bar1_remove(v, u);
                CountEvent::To0
            }
            2 => {
                let rem = self.g.marked_neighbor(u, 0);
                self.pair_remove(u, v.min(rem), v.max(rem));
                self.bar1_add(rem, u);
                CountEvent::To1 { parent: rem }
            }
            3 => {
                let (a, b) = self.parents2(u);
                self.pair_add(u, a, b);
                CountEvent::To2 { a, b }
            }
            _ => CountEvent::Other,
        }
    }

    /// Flips `v` into the solution. The caller is responsible for first
    /// checking count(v) == 0 and for running `inc_count` on v's
    /// neighbors.
    pub(crate) fn set_in(&mut self, v: u32) {
        debug_assert!(!self.status[v as usize]);
        debug_assert_eq!(self.count[v as usize], 0, "MoveIn needs count 0");
        debug_assert_eq!(self.g.marked_count(v), 0, "I(v) must be empty");
        self.status[v as usize] = true;
        self.size += 1;
        self.feed.record_in(v);
    }

    /// Flips `v` out of the solution; the caller runs `dec_count` on v's
    /// neighbors.
    pub(crate) fn set_out(&mut self, v: u32) {
        debug_assert!(self.status[v as usize]);
        self.status[v as usize] = false;
        self.size -= 1;
        self.feed.record_out(v);
    }

    /// Clears every per-vertex record of a (just removed) vertex `v` that
    /// was **not** in the solution: bar/bucket membership and the
    /// intrusive `I(v)` marks.
    pub(crate) fn purge_outsider(&mut self, v: u32) {
        match self.count[v as usize] {
            1 => {
                let p = self.parent1(v);
                self.bar1_remove(p, v);
            }
            2 => {
                let (a, b) = self.parents2(v);
                self.pair_remove(v, a, b);
            }
            _ => {}
        }
        self.g.clear_vertex_marks(v);
        self.count[v as usize] = 0;
    }

    /// Approximate heap footprint of the framework bookkeeping (the
    /// quantity Fig. 5b / 6b report, minus the graph itself which is
    /// added by the caller). The intrusive `I(u)` storage lives inside
    /// [`DynamicGraph::heap_bytes`] (payload slots + marked lists); what
    /// remains here is pure dense-vector bookkeeping — the seed's
    /// `sol_pos` / `bar1_pos` / `bp_pos` hash-map terms are gone because
    /// the maps themselves are gone.
    pub fn heap_bytes(&self) -> usize {
        let bar1: usize = self.bar1.iter().map(|l| l.capacity() * 4).sum();
        bar1 + self.status.capacity()
            + self.count.capacity() * 4
            + self.bar1_idx.capacity() * 4
            + self.bar1.capacity() * std::mem::size_of::<Vec<u32>>()
            + self.pairs.as_ref().map_or(0, PairTier::heap_bytes)
            + self.feed.heap_bytes()
    }

    /// Exhaustive cross-check of every invariant against a from-scratch
    /// rebuild. Test/debug only: O(n + m) plus hashing.
    pub fn check_consistency(&self) -> Result<(), String> {
        self.g.check_consistency()?;
        let mut size = 0usize;
        for v in self.g.vertices() {
            if self.status[v as usize] {
                size += 1;
                if let Some(u) = self.g.neighbors(v).find(|&u| self.status[u as usize]) {
                    return Err(format!("solution not independent: edge ({v},{u})"));
                }
                if self.count[v as usize] != 0 {
                    return Err(format!("solution vertex {v} has nonzero count"));
                }
                if self.g.marked_count(v) != 0 {
                    return Err(format!("solution vertex {v} has marked neighbors"));
                }
            } else {
                let sols: Vec<u32> = self
                    .g
                    .neighbors(v)
                    .filter(|&u| self.status[u as usize])
                    .collect();
                if sols.is_empty() {
                    return Err(format!("not maximal: vertex {v} is free"));
                }
                if self.count[v as usize] as usize != sols.len() {
                    return Err(format!(
                        "count({v}) = {} but |I({v})| = {}",
                        self.count[v as usize],
                        sols.len()
                    ));
                }
                let mut have: Vec<u32> = self.g.marked_neighbors(v).collect();
                let mut want = sols.clone();
                have.sort_unstable();
                want.sort_unstable();
                if have != want {
                    return Err(format!("intrusive I({v}) marks mismatch"));
                }
                match sols.len() {
                    1 => {
                        let i = self.bar1_idx[v as usize] as usize;
                        if self.bar1[sols[0] as usize].get(i) != Some(&v) {
                            return Err(format!("{v} bar1 back-pointer broken ({})", sols[0]));
                        }
                    }
                    2 => {
                        if let Some(p) = self.pairs.as_ref() {
                            let (a, b) = self.parents2(v);
                            for (side, parent) in [a, b].into_iter().enumerate() {
                                let i = p.bp_idx[v as usize][side] as usize;
                                if p.by_parent[parent as usize].get(i) != Some(&v) {
                                    return Err(format!(
                                        "{v} bar2 back-pointer broken under {parent}"
                                    ));
                                }
                            }
                            if !self.bar2(sols[0], sols[1]).contains(&v) {
                                return Err(format!("{v} missing from bar2 bucket"));
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
        if size != self.size {
            return Err(format!("size counter {} != actual {size}", self.size));
        }
        // Reverse direction: no stale bucket members.
        for v in self.g.vertices() {
            for &u in &self.bar1[v as usize] {
                if self.count[u as usize] != 1 || self.parent1(u) != v || !self.status[v as usize] {
                    return Err(format!("stale bar1 member {u} under {v}"));
                }
            }
        }
        if let Some(p) = self.pairs.as_ref() {
            for v in self.g.vertices() {
                for &u in &p.by_parent[v as usize] {
                    if self.count[u as usize] != 2 {
                        return Err(format!("stale bar2 member {u} under {v}"));
                    }
                    let (a, b) = self.parents2(u);
                    if v != a && v != b {
                        return Err(format!("bar2 member {u} under non-parent {v}"));
                    }
                }
            }
        }
        if self.hot_hash_probes != 0 {
            return Err(format!(
                "hot path issued {} hash probes (must be 0 with the intrusive layout)",
                self.hot_hash_probes
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Adjacency position of `v` inside `adj[u]` — test helper standing in
    /// for the handle the engine gets from iteration/insertion.
    fn pos_of(st: &SwapState, u: u32, v: u32) -> u32 {
        st.g.edge_handle(u, v).expect("edge must exist").pos_u
    }

    fn state_on_path() -> SwapState {
        // P5: 0-1-2-3-4 with I = {0, 2, 4}.
        let g = DynamicGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        SwapState::new(g, &[0, 2, 4], true)
    }

    #[test]
    fn bulk_build_counts_and_buckets() {
        let st = state_on_path();
        assert_eq!(st.size(), 3);
        assert_eq!(st.count(1), 2);
        assert_eq!(st.count(3), 2);
        assert_eq!(st.parents2(1), (0, 2));
        assert_eq!(st.bar2(0, 2), &[1]);
        assert_eq!(st.bar2(2, 4), &[3]);
        assert_eq!(st.bar2_by_parent(2).len(), 2);
        st.check_consistency().unwrap();
    }

    #[test]
    fn inc_dec_round_trip() {
        let mut st = state_on_path();
        // Remove 0 from 1's solution list: count 2 → 1, moves to bar1(2).
        let p = pos_of(&st, 1, 0);
        let ev = st.dec_count(1, p, 0);
        assert_eq!(ev, CountEvent::To1 { parent: 2 });
        assert_eq!(st.bar1(2), &[1]);
        assert!(st.bar2(0, 2).is_empty());
        // And back.
        let p = pos_of(&st, 1, 0);
        let ev = st.inc_count(1, p, 0);
        assert!(matches!(ev, CountEvent::To2 { a: 0, b: 2 }));
        assert_eq!(st.bar2(0, 2), &[1]);
        assert!(st.bar1(2).is_empty());
        assert_eq!(st.hot_hash_probes, 0, "bookkeeping must not hash");
    }

    #[test]
    fn dec_to_zero_signals_repair() {
        let g = DynamicGraph::from_edges(2, &[(0, 1)]);
        let mut st = SwapState::new(g, &[0], true);
        let p = pos_of(&st, 1, 0);
        assert_eq!(st.dec_count(1, p, 0), CountEvent::To0);
        assert_eq!(st.count(1), 0);
    }

    #[test]
    fn three_plus_counts_leave_buckets() {
        // Star center 3 with leaves in I.
        let g = DynamicGraph::from_edges(4, &[(3, 0), (3, 1), (3, 2)]);
        let mut st = SwapState::new(g, &[0, 1, 2], true);
        assert_eq!(st.count(3), 3);
        assert!(st.bar2_by_parent(0).is_empty());
        // Drop to 2: enters bucket.
        let p = pos_of(&st, 3, 2);
        let ev = st.dec_count(3, p, 2);
        assert!(matches!(ev, CountEvent::To2 { a: 0, b: 1 }));
        assert_eq!(st.bar2(0, 1), &[3]);
    }

    #[test]
    fn purge_outsider_cleans_everything() {
        let mut st = state_on_path();
        st.purge_outsider(1);
        assert_eq!(st.count(1), 0);
        assert!(st.bar2(0, 2).is_empty());
        assert_eq!(st.sol_neighbors(1).count(), 0);
    }

    #[test]
    fn pair_tier_swap_remove_fixups() {
        // Two vertices in the same bucket; removing the first must keep
        // the second's position valid.
        let g = DynamicGraph::from_edges(4, &[(0, 2), (0, 3), (1, 2), (1, 3)]);
        let mut st = SwapState::new(g, &[0, 1], true);
        assert_eq!(st.bar2(0, 1).len(), 2);
        st.purge_outsider(2);
        assert_eq!(st.bar2(0, 1), &[3]);
        st.purge_outsider(3);
        assert!(st.bar2(0, 1).is_empty());
    }

    #[test]
    fn pair_tier_mixed_buckets_by_parent() {
        // Parent 0 shared by two different pairs: {0,1} and {0,2}.
        // by_parent[0] holds both; bucket filtering separates them.
        let g = DynamicGraph::from_edges(5, &[(0, 3), (1, 3), (0, 4), (2, 4)]);
        let mut st = SwapState::new(g, &[0, 1, 2], true);
        assert_eq!(st.bar2_by_parent(0).len(), 2);
        assert_eq!(st.bar2(0, 1), &[3]);
        assert_eq!(st.bar2(0, 2), &[4]);
        assert!(st.bar2(1, 2).is_empty());
        // Swap-remove fix-up across mixed parent lists.
        st.purge_outsider(3);
        assert_eq!(st.bar2(0, 2), &[4]);
        assert!(st.bar2(0, 1).is_empty());
    }

    #[test]
    fn pairs_tier_disabled_is_inert() {
        let g = DynamicGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let st = SwapState::new(g, &[0, 2, 4], false);
        assert!(st.bar2(0, 2).is_empty());
        assert!(st.bar2_by_parent(2).is_empty());
        st.check_consistency().unwrap();
    }

    #[test]
    fn rebuild_clears_stale_marks() {
        // A graph inheriting marks from a previous engine must not
        // double-mark during the bulk build.
        let st1 = state_on_path();
        let g = st1.g.clone(); // carries st1's intrusive marks
        let st2 = SwapState::new(g, &[0, 2, 4], true);
        st2.check_consistency().unwrap();
        assert_eq!(st2.count(1), 2);
    }

    #[test]
    fn consistency_detects_violations() {
        let mut st = state_on_path();
        st.status[1_usize] = true; // corrupt: 1 adjacent to 0 ∈ I
        assert!(st.check_consistency().is_err());
    }
}
