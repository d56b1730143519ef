//! The maintenance engine implementing Algorithms 1–3.
//!
//! [`SwapEngine`] is the internal workhorse behind the public
//! [`crate::DyOneSwap`] (k = 1) and [`crate::DyTwoSwap`] (k = 2) types.
//! The two instantiations share all update plumbing; the `k2` flag
//! enables the `¯I₂` tier, the `C₂` queue, and the FIND TWOSWAP
//! procedure.
//!
//! ## Candidate discovery
//!
//! The paper enumerates, per update type, which vertices must be enqueued
//! as candidates. We implement the same completeness contract through
//! *count-transition hooks*: whenever `count(u)` transitions into 1 the
//! pair `(I(u), u)` enters `C₁`, and whenever it transitions into 2 (from
//! 3, or from 1 during a MoveIn — i.e. whenever `u` genuinely becomes a
//! new member of some `¯I≤2(S)`) the pair enters `C₂`. The only update
//! that changes bucket *adjacency* without changing any count is the
//! deletion of an edge between two outsiders, which Algorithms 2/3 handle
//! with explicit cases — reproduced verbatim in
//! [`SwapEngine::outsider_edge_removed`]. Every entry is re-validated at
//! pop time, so over-approximating the candidate set affects constant
//! factors only, never correctness.
//!
//! ## Hash discipline
//!
//! No update hashes. The per-neighbor inner loops speak half-edge
//! positions ([`dynamis_graph::EdgeHandle`] and the `(neighbor, mirror)`
//! pairs of [`DynamicGraph::half_edges`]): every count transition, bucket
//! relocation, and swap-search membership test is a dense-vector or
//! intrusive-slot operation. The update *entry points* resolve the
//! `(u, v)` an update names to a handle by scanning the shorter endpoint
//! list, O(min(d(u), d(v))), within the O(d) a MoveIn or MoveOut already
//! costs. [`EngineStats::entry_hash_probes`] and
//! [`EngineStats::hot_hash_probes`] are both 0 by construction; they stay
//! in the stats (and the delta wire layout) so a regression test can
//! assert it.

use crate::delta::SolutionDelta;
use crate::error::EngineError;
use crate::queues::{C1Queue, C2Queue};
use crate::state::{CountEvent, SwapState};
use dynamis_graph::collections::StampSet;
use dynamis_graph::{DynamicGraph, GraphError, Update};
use dynamis_obs::{Sampler, Stage};

/// Tuning knobs shared by the concrete engines.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Enable the §III-B perturbation: when a candidate yields no swap,
    /// exchange it with its smallest-degree `¯I₁` neighbor if that
    /// strictly decreases the degree (a plateau move that empirically
    /// enlarges later solutions — the `gap*` columns of Tables II–IV).
    pub perturbation: bool,
    /// Maximum perturbation moves per update (termination guard).
    pub perturb_budget: u32,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            perturbation: false,
            perturb_budget: 2,
        }
    }
}

/// Counters exposed for tests, examples, and the experiment harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Updates processed.
    pub updates: u64,
    /// 1-swaps performed.
    pub one_swaps: u64,
    /// 2-swaps performed.
    pub two_swaps: u64,
    /// Perturbation moves performed.
    pub perturbations: u64,
    /// Maximality repairs (MoveIn of a freed vertex).
    pub repairs: u64,
    /// Hash probes at update entry points. Edges are resolved by
    /// scanning adjacency, so this is 0 by construction; the field keeps
    /// its slot in the delta wire layout.
    pub entry_hash_probes: u64,
    /// Hash probes issued by count-transition bookkeeping on the update
    /// inner loop. The intrusive half-edge layout leaves no probe site,
    /// so this is 0 by construction — reported so the bench crate's
    /// `hot_path_budget` test (and any other regression test) can
    /// assert it.
    pub hot_hash_probes: u64,
}

impl EngineStats {
    /// Field-wise `self − before`: the work done between two readings
    /// (used to stamp [`SolutionDelta::stats`]).
    pub fn diff_since(&self, before: &EngineStats) -> EngineStats {
        EngineStats {
            updates: self.updates.wrapping_sub(before.updates),
            one_swaps: self.one_swaps.wrapping_sub(before.one_swaps),
            two_swaps: self.two_swaps.wrapping_sub(before.two_swaps),
            perturbations: self.perturbations.wrapping_sub(before.perturbations),
            repairs: self.repairs.wrapping_sub(before.repairs),
            entry_hash_probes: self
                .entry_hash_probes
                .wrapping_sub(before.entry_hash_probes),
            hot_hash_probes: self.hot_hash_probes.wrapping_sub(before.hot_hash_probes),
        }
    }

    /// Field-wise accumulation (used when merging deltas).
    pub fn accumulate(&mut self, other: &EngineStats) {
        self.updates += other.updates;
        self.one_swaps += other.one_swaps;
        self.two_swaps += other.two_swaps;
        self.perturbations += other.perturbations;
        self.repairs += other.repairs;
        self.entry_hash_probes += other.entry_hash_probes;
        self.hot_hash_probes += other.hot_hash_probes;
    }
}

/// Shared engine for k ∈ {1, 2}.
#[derive(Debug)]
pub(crate) struct SwapEngine {
    pub st: SwapState,
    k2: bool,
    cfg: EngineConfig,
    c1: C1Queue,
    c2: C2Queue,
    repair: Vec<u32>,
    /// Reusable `(neighbor, mirror)` snapshot of the vertex being moved.
    scratch: Vec<(u32, u32)>,
    /// Reusable candidate pools for FIND TWOSWAP.
    cy_buf: Vec<u32>,
    cz_buf: Vec<u32>,
    /// Reusable buffer for the C₂ promotions of FIND ONESWAP.
    promote_buf: Vec<u32>,
    stamp: StampSet,
    stamp2: StampSet,
    perturb_left: u32,
    pub stats: EngineStats,
    timers: CoreTimers,
}

/// Per-update stage timers for the hot path. Timing is double-gated:
/// the process-wide obs enable flag *and* a 1-in-64 sampler, because
/// clock reads (four per sampled update, each a syscall-priced
/// `clock_gettime` on virtualized hosts) are real money against a
/// ~1 µs update — sampling keeps the enabled overhead inside the ≤ 3%
/// budget pinned by `crates/bench/src/bin/obs.rs`.
#[derive(Debug)]
struct CoreTimers {
    /// Full apply span (dispatch + repairs + swap search), sampled.
    apply: Stage,
    /// Swap-search (drain) share of the span, sampled per update but
    /// recorded once per batch on the batch path.
    swap: Stage,
    sampler: Sampler,
}

impl CoreTimers {
    fn new() -> Self {
        CoreTimers {
            apply: Stage::global("core_apply_ns"),
            swap: Stage::global("core_swap_search_ns"),
            sampler: Sampler::one_in_pow2(6),
        }
    }
}

impl SwapEngine {
    /// Builds the engine over `graph` starting from `initial` (must be an
    /// independent set; it is extended to maximality and then driven to
    /// k-maximality before the constructor returns).
    pub fn new(graph: DynamicGraph, initial: &[u32], k2: bool, cfg: EngineConfig) -> Self {
        let cap = graph.capacity();
        let st = SwapState::new(graph, initial, k2);
        let mut c1 = C1Queue::default();
        c1.ensure_capacity(cap);
        let mut eng = SwapEngine {
            st,
            k2,
            cfg,
            c1,
            c2: C2Queue::default(),
            repair: Vec::new(),
            scratch: Vec::new(),
            cy_buf: Vec::new(),
            cz_buf: Vec::new(),
            promote_buf: Vec::new(),
            stamp: StampSet::with_capacity(cap),
            stamp2: StampSet::with_capacity(cap),
            perturb_left: 0,
            stats: EngineStats::default(),
            timers: CoreTimers::new(),
        };
        eng.bootstrap();
        // Close the bootstrap span so the first update's delta does not
        // absorb it; the flips stay in the drainable feed, where the
        // first drain replays the whole starting solution into a mirror.
        let _ = eng.st.feed.finish_update();
        eng
    }

    /// Extends the initial set to maximality and drains all swaps so the
    /// starting solution is k-maximal.
    fn bootstrap(&mut self) {
        let free: Vec<u32> = self
            .st
            .g
            .vertices()
            .filter(|&v| !self.st.in_solution(v) && self.st.count(v) == 0)
            .collect();
        for v in free {
            if !self.st.in_solution(v) && self.st.count(v) == 0 {
                self.move_in(v);
            }
        }
        // Seed every bucket as "new" and drain.
        let sols: Vec<u32> = self.st.solution();
        for v in sols {
            for u in self.st.bar1(v).to_vec() {
                self.c1.push(v, u);
            }
            if self.k2 {
                for u in self.st.bar2_by_parent(v).to_vec() {
                    let (a, b) = self.st.parents2(u);
                    // u appears under both parents; enqueue it only from
                    // the smaller one — the flat C2 FIFO does not dedup.
                    if v == a {
                        self.c2.push(a, b, u);
                    }
                }
            }
        }
        self.perturb_left = 0; // no perturbation during bootstrap
        self.drain();
    }

    #[inline]
    fn handle_event(&mut self, u: u32, ev: CountEvent) {
        match ev {
            CountEvent::To0 => self.repair.push(u),
            CountEvent::To1 { parent } => self.c1.push(parent, u),
            CountEvent::To2 { a, b } => {
                if self.k2 {
                    self.c2.push(a, b, u);
                }
            }
            CountEvent::Other => {}
        }
    }

    /// MOVEIN(v): O(d(v)) plus hook work. The `(neighbor, mirror)` pairs
    /// of v's half-edges hand each neighbor's intrusive slot to
    /// `inc_count` — no hashing.
    fn move_in(&mut self, v: u32) {
        self.st.set_in(v);
        self.scratch.clear();
        self.scratch.extend(self.st.g.half_edges(v));
        for i in 0..self.scratch.len() {
            let (u, pos) = self.scratch[i];
            let ev = self.st.inc_count(u, pos, v);
            self.handle_event(u, ev);
        }
    }

    /// MOVEOUT(v): O(d(v)) plus hook work.
    fn move_out(&mut self, v: u32) {
        self.st.set_out(v);
        self.scratch.clear();
        self.scratch.extend(self.st.g.half_edges(v));
        for i in 0..self.scratch.len() {
            let (u, pos) = self.scratch[i];
            let ev = self.st.dec_count(u, pos, v);
            self.handle_event(u, ev);
        }
    }

    /// Inserts every freed vertex ("extends the solution to be maximal").
    fn process_repairs(&mut self) {
        while let Some(u) = self.repair.pop() {
            if self.st.g.is_alive(u) && !self.st.in_solution(u) && self.st.count(u) == 0 {
                self.stats.repairs += 1;
                self.move_in(u);
            }
        }
    }

    /// The Algorithm 1 main loop: repairs first, then `C₁` bottom-up
    /// before `C₂`. On return both candidate queues are empty — the
    /// termination condition of Algorithm 1.
    fn drain(&mut self) {
        self.drain_inner();
        debug_assert!(self.c1.is_empty(), "C1 not drained");
        debug_assert!(self.c2.is_empty(), "C2 not drained");
        self.stats.hot_hash_probes = self.st.hot_hash_probes;
    }

    fn drain_inner(&mut self) {
        loop {
            self.process_repairs();
            if let Some((v, cands)) = self.c1.pop() {
                self.find_one_swap(v, cands);
            } else if self.k2 {
                if let Some(((a, b), x)) = self.c2.pop() {
                    self.find_two_swap(a, b, x);
                } else {
                    break;
                }
            } else {
                break;
            }
        }
    }

    /// FIND ONESWAP (Algorithm 2 lines 4–11 / Algorithm 3 lines 7–17).
    /// The candidate vector comes from a [`C1Queue::pop`] and goes back
    /// to the queue's free pool afterwards — steady state pops allocate
    /// nothing.
    fn find_one_swap(&mut self, v: u32, mut cands: Vec<u32>) {
        self.find_one_swap_in(v, &mut cands);
        self.c1.recycle(cands);
    }

    fn find_one_swap_in(&mut self, v: u32, cands: &mut Vec<u32>) {
        if !self.st.in_solution(v) {
            return; // stale candidate set
        }
        // Validate & dedup C(v) in place: members must still be count-1
        // children of v.
        self.stamp.clear();
        {
            let (st, stamp) = (&self.st, &mut self.stamp);
            cands.retain(|&u| {
                st.g.is_alive(u)
                    && !st.in_solution(u)
                    && st.count(u) == 1
                    && st.parent1(u) == v
                    && !stamp.is_marked(u)
                    && {
                        stamp.mark(u);
                        true
                    }
            });
        }
        if cands.is_empty() {
            return;
        }
        for &u in cands.iter() {
            // |N[u] ∩ ¯I₁(v)| < |¯I₁(v)| ⟺ G[¯I₁(v)] is no longer a clique
            // around u. Membership is an O(1) test (count == 1 & parent).
            let bar_len = self.st.bar1(v).len();
            let mut inside = 1usize; // u itself (closed neighborhood)
            for w in self.st.g.neighbors(u) {
                if w != v
                    && !self.st.in_solution(w)
                    && self.st.count(w) == 1
                    && self.st.parent1(w) == v
                {
                    inside += 1;
                }
            }
            if inside < bar_len {
                self.stats.one_swaps += 1;
                self.move_out(v);
                debug_assert_eq!(self.st.count(u), 0, "u's only parent was v");
                self.move_in(u);
                // The non-adjacent witness (and any other freed member of
                // the old ¯I₁(v)) is inserted by the repair pass; all new
                // candidates flow from the transition hooks.
                self.process_repairs();
                return;
            }
        }
        // No 1-swap at v. Algorithm 3 lines 14–17: promote the survivors
        // to C₂ — any u ∈ ¯I₂(v) non-adjacent to some c ∈ C(v) may now
        // take part in a 2-swap.
        if self.k2 {
            self.stamp.clear();
            for &c in cands.iter() {
                self.stamp.mark(c);
            }
            let mut promote = std::mem::take(&mut self.promote_buf);
            promote.clear();
            {
                let (st, stamp) = (&self.st, &self.stamp);
                promote.extend(st.bar2_by_parent(v).iter().copied().filter(|&u| {
                    let adj_c = st.g.neighbors(u).filter(|&w| stamp.is_marked(w)).count();
                    adj_c < cands.len()
                }));
            }
            for &u in &promote {
                let (a, b) = self.st.parents2(u);
                self.c2.push(a, b, u);
            }
            self.promote_buf = promote;
        }
        if self.cfg.perturbation && self.perturb_left > 0 {
            self.try_perturb(v);
        }
    }

    /// FIND TWOSWAP (Algorithm 3 lines 18–28) for one count-2 pivot
    /// `x ∈ C(S)`: search a triangle `(x, y, z)` in the complement of
    /// `G[¯I≤2(S)]`.
    fn find_two_swap(&mut self, a: u32, b: u32, x: u32) {
        if !self.st.in_solution(a) || !self.st.in_solution(b) {
            return; // stale candidate
        }
        if !(self.st.g.is_alive(x)
            && !self.st.in_solution(x)
            && self.st.count(x) == 2
            && self.st.parents2(x) == (a.min(b), a.max(b)))
        {
            return;
        }
        // Cy = ¯I₁(a) ∪ ¯I₂(S) − N[x]; Cz = ¯I₁(b) ∪ ¯I₂(S) − N[x].
        self.stamp.clear();
        self.stamp.mark(x);
        for w in self.st.g.neighbors(x) {
            self.stamp.mark(w);
        }
        {
            let (st, stamp) = (&self.st, &self.stamp);
            let (cy, cz) = (&mut self.cy_buf, &mut self.cz_buf);
            cy.clear();
            cy.extend(st.bar1(a).iter().copied().filter(|&y| !stamp.is_marked(y)));
            st.for_each_bar2(a, b, |y| {
                if !stamp.is_marked(y) {
                    cy.push(y);
                }
            });
            if cy.is_empty() {
                return;
            }
            cz.clear();
            cz.extend(st.bar1(b).iter().copied().filter(|&z| !stamp.is_marked(z)));
            st.for_each_bar2(a, b, |z| {
                if !stamp.is_marked(z) {
                    cz.push(z);
                }
            });
            if cz.is_empty() {
                return;
            }
        }
        for i in 0..self.cy_buf.len() {
            let y = self.cy_buf[i];
            // z must avoid N[y]; marking N[y] also rules out z == y.
            self.stamp2.clear();
            self.stamp2.mark(y);
            for w in self.st.g.neighbors(y) {
                self.stamp2.mark(w);
            }
            let z_found = self
                .cz_buf
                .iter()
                .copied()
                .find(|&z| !self.stamp2.is_marked(z));
            if let Some(z) = z_found {
                self.do_two_swap(a, b, x, y, z);
                return;
            }
        }
    }

    fn do_two_swap(&mut self, a: u32, b: u32, x: u32, y: u32, z: u32) {
        self.stats.two_swaps += 1;
        self.move_out(a);
        self.move_out(b);
        for v in [x, y, z] {
            debug_assert_eq!(self.st.count(v), 0, "swap-in vertex must be free");
            if !self.st.in_solution(v) && self.st.count(v) == 0 {
                self.move_in(v);
            }
        }
        self.process_repairs();
    }

    /// §III-B optimization 2: plateau move toward low-degree vertices.
    fn try_perturb(&mut self, v: u32) {
        if !self.st.in_solution(v) {
            return;
        }
        let Some(&u) = self.st.bar1(v).iter().min_by_key(|&&u| self.st.g.degree(u)) else {
            return;
        };
        if self.st.g.degree(u) >= self.st.g.degree(v) {
            return;
        }
        self.perturb_left -= 1;
        self.stats.perturbations += 1;
        self.move_out(v);
        debug_assert_eq!(self.st.count(u), 0);
        self.move_in(u);
        self.process_repairs();
    }

    /// Applies one update and restores k-maximality (the framework's
    /// per-update entry point). An invalid update is rejected with the
    /// engine untouched; an accepted one returns its [`SolutionDelta`].
    pub fn try_apply(&mut self, upd: &Update) -> Result<SolutionDelta, EngineError> {
        let before = self.stats;
        self.perturb_left = self.cfg.perturb_budget;
        let sampled = self.timers.sampler.tick();
        let t_apply = if sampled {
            self.timers.apply.begin()
        } else {
            None
        };
        self.dispatch(upd)?;
        self.stats.updates += 1;
        let t_swap = if sampled {
            self.timers.swap.begin()
        } else {
            None
        };
        self.drain();
        self.timers.swap.end(t_swap);
        let mut delta = self.st.feed.finish_update();
        delta.stats = self.stats.diff_since(&before);
        self.timers.apply.end(t_apply);
        Ok(delta)
    }

    /// Routes one update to its fallible handler. Each handler validates
    /// **before** its first mutation, so an `Err` return implies the
    /// engine state is exactly as it was.
    fn dispatch(&mut self, upd: &Update) -> Result<(), EngineError> {
        match upd {
            Update::InsertEdge(a, b) => self.insert_edge(*a, *b),
            Update::RemoveEdge(a, b) => self.remove_edge(*a, *b),
            Update::InsertVertex { id, neighbors } => self.insert_vertex(*id, neighbors),
            Update::RemoveVertex(v) => self.remove_vertex(*v),
        }
    }

    /// Batch mode (extension beyond the paper, cf. its closing remark on
    /// further optimization strategies): applies a whole burst of updates
    /// — maintaining counts, buckets, maximality, and collecting
    /// candidates throughout — but runs the swap-finding drain only
    /// **once**, at the end. The result is identically k-maximal (the
    /// invariant is a property of the final state, restored by the final
    /// drain over the accumulated candidate queues), but cascades caused
    /// by intermediate states are skipped, which pays off on bursty
    /// streams that touch overlapping regions.
    ///
    /// On a rejected update the already-applied prefix stays applied,
    /// the drain still runs (so the engine is k-maximal), and the error
    /// carries the failing index; the prefix's delta remains in the
    /// drainable feed.
    pub fn try_apply_batch(&mut self, updates: &[Update]) -> Result<SolutionDelta, EngineError> {
        let before = self.stats;
        self.perturb_left = self.cfg.perturb_budget;
        let mut failure: Option<(usize, EngineError)> = None;
        for (index, upd) in updates.iter().enumerate() {
            match self.dispatch(upd) {
                Ok(()) => {
                    self.stats.updates += 1;
                    // Maximality must hold before the next op's case
                    // analysis (the framework's invariants assume it);
                    // swap search waits.
                    self.process_repairs();
                }
                Err(cause) => {
                    failure = Some((index, cause));
                    break;
                }
            }
        }
        // One drain per batch: cheap enough to time unsampled.
        let t_swap = self.timers.swap.begin();
        self.drain();
        self.timers.swap.end(t_swap);
        let mut delta = self.st.feed.finish_update();
        delta.stats = self.stats.diff_since(&before);
        match failure {
            None => Ok(delta),
            Some((index, cause)) => Err(cause.in_batch(index)),
        }
    }

    fn insert_edge(&mut self, a: u32, b: u32) -> Result<(), EngineError> {
        // Validation is fused into the insertion: the graph rejects
        // self-loops and dead endpoints before mutating, and a `None`
        // handle means the edge already existed.
        let handle = self.st.g.insert_edge_handle(a, b)?;
        let Some(h) = handle else {
            return Err(EngineError::DuplicateEdge(a, b));
        };
        match (self.st.in_solution(a), self.st.in_solution(b)) {
            (false, false) => {} // counts unchanged; no new swap can appear
            (true, false) => {
                // b moves a layer down; no set ¯I≤k(S) gains a member, so
                // no candidate is needed (see module docs).
                let _ = self.st.inc_count(b, h.pos_v, a);
            }
            (false, true) => {
                let _ = self.st.inc_count(a, h.pos_u, b);
            }
            (true, true) => self.solution_edge_inserted(a, b, h),
        }
        Ok(())
    }

    /// Edge inserted between two solution vertices: one must leave.
    /// Paper rule: prefer the endpoint whose `¯I₁` is non-empty (its
    /// departure frees a replacement, keeping |I| unchanged); otherwise
    /// drop the higher-degree endpoint.
    fn solution_edge_inserted(&mut self, a: u32, b: u32, h: dynamis_graph::EdgeHandle) {
        let loser = if !self.st.bar1(b).is_empty() {
            b
        } else if !self.st.bar1(a).is_empty() {
            a
        } else if self.st.g.degree(b) >= self.st.g.degree(a) {
            b
        } else {
            a
        };
        let winner = if loser == a { b } else { a };
        // Demote `loser`: its non-winner neighbors lose a solution
        // neighbor; it gains `winner` as its own (count 0 → 1 fires the
        // C₁ candidate the paper collects for N[v]).
        self.st.set_out(loser);
        self.scratch.clear();
        self.scratch
            .extend(self.st.g.half_edges(loser).filter(|&(w, _)| w != winner));
        for i in 0..self.scratch.len() {
            let (u, pos) = self.scratch[i];
            let ev = self.st.dec_count(u, pos, loser);
            self.handle_event(u, ev);
        }
        // The freshly inserted edge's handle is still valid (insertion
        // only appends); take the loser-side half-edge position from it.
        let loser_pos = if loser == h.u { h.pos_u } else { h.pos_v };
        let ev = self.st.inc_count(loser, loser_pos, winner);
        self.handle_event(loser, ev);
        self.process_repairs();
    }

    fn remove_edge(&mut self, a: u32, b: u32) -> Result<(), EngineError> {
        // Resolve the named edge to half-edge positions.
        let Some(h) = self.st.g.edge_handle(a, b) else {
            // Cold path: classify the rejection through the shared
            // validator so the error semantics cannot drift from the
            // documented `validate_update` contract.
            return match crate::error::validate_update(&self.st.g, &Update::RemoveEdge(a, b)) {
                Err(e) => Err(e),
                Ok(()) => Err(EngineError::MissingEdge(a, b)),
            };
        };
        match (self.st.in_solution(a), self.st.in_solution(b)) {
            (true, true) => unreachable!("solution vertices are never adjacent"),
            (true, false) => {
                let ev = self.st.dec_count(b, h.pos_v, a);
                self.st.g.remove_edge_at(h);
                self.handle_event(b, ev);
                self.process_repairs();
            }
            (false, true) => {
                let ev = self.st.dec_count(a, h.pos_u, b);
                self.st.g.remove_edge_at(h);
                self.handle_event(a, ev);
                self.process_repairs();
            }
            (false, false) => {
                self.st.g.remove_edge_at(h);
                self.outsider_edge_removed(a, b);
            }
        }
        Ok(())
    }

    /// Deleting an edge between two outsiders changes adjacency *inside*
    /// buckets without touching any count — the only case needing
    /// explicit candidate logic (Algorithm 2 case ii / Algorithm 3 cases
    /// ii-a/b/c).
    fn outsider_edge_removed(&mut self, u: u32, v: u32) {
        let cu = self.st.count(u);
        let cv = self.st.count(v);
        if cu == 1 && cv == 1 {
            let pu = self.st.parent1(u);
            let pv = self.st.parent1(v);
            if pu == pv {
                // Case a: u, v now witness that G[¯I₁(w)] is not a clique.
                self.c1.push(pu, u);
                self.c1.push(pu, v);
            } else if self.k2 {
                // Case b: direct scan of ¯I₂({x, y}) for a third vertex w
                // non-adjacent to both — adjacency tested through stamps
                // of N(u), N(v) instead of a `has_edge` scan per w.
                let (x, y) = (pu.min(pv), pu.max(pv));
                self.stamp.clear();
                for w in self.st.g.neighbors(u) {
                    self.stamp.mark(w);
                }
                self.stamp2.clear();
                for w in self.st.g.neighbors(v) {
                    self.stamp2.mark(w);
                }
                let found = self.st.bar2_find(x, y, |w| {
                    !self.stamp.is_marked(w) && !self.stamp2.is_marked(w)
                });
                if let Some(w) = found {
                    self.do_two_swap(x, y, u, v, w);
                }
            }
            return;
        }
        if !self.k2 {
            return;
        }
        // Case c: I(u) ⊆ I(v) = {x, y} (and symmetric) — the count-2
        // endpoint becomes a viable 2-swap pivot.
        if cv == 2 && (1..=2).contains(&cu) {
            let (x, y) = self.st.parents2(v);
            if self.st.sol_neighbors(u).all(|p| p == x || p == y) {
                self.c2.push(x, y, v);
            }
        }
        if cu == 2 && (1..=2).contains(&cv) {
            let (x, y) = self.st.parents2(u);
            if self.st.sol_neighbors(v).all(|p| p == x || p == y) {
                self.c2.push(x, y, u);
            }
        }
    }

    fn insert_vertex(&mut self, id: u32, neighbors: &[u32]) -> Result<(), EngineError> {
        // Validate the whole operation before the first mutation: the
        // stream's id must match the allocator, every named neighbor
        // must be alive, and the neighbor list must be duplicate-free.
        let next = self.st.g.next_vertex_id();
        if next != id {
            return Err(GraphError::IdMismatch {
                expected: id,
                got: next,
            }
            .into());
        }
        self.stamp.clear();
        for &n in neighbors {
            if !self.st.g.is_alive(n) {
                return Err(GraphError::VertexNotFound(n).into());
            }
            if self.stamp.is_marked(n) {
                return Err(EngineError::DuplicateEdge(id, n));
            }
            self.stamp.mark(n);
        }
        let v = self.st.g.add_vertex();
        let cap = self.st.g.capacity();
        self.st.ensure_capacity(cap);
        self.c1.ensure_capacity(cap);
        for &n in neighbors {
            let h = self
                .st
                .g
                .insert_edge_handle(v, n)
                .expect("neighbors validated above")
                .expect("edge to a fresh vertex cannot pre-exist");
            // Register v's solution neighbors as they arrive; every
            // transition is a genuine new bucket membership (v is new).
            if self.st.in_solution(n) {
                let ev = self.st.inc_count(v, h.pos_u, n);
                self.handle_event(v, ev);
            }
        }
        if self.st.count(v) == 0 {
            self.move_in(v);
        }
        self.process_repairs();
        Ok(())
    }

    fn remove_vertex(&mut self, v: u32) -> Result<(), EngineError> {
        if !self.st.g.is_alive(v) {
            return Err(GraphError::VertexNotFound(v).into());
        }
        if self.st.in_solution(v) {
            self.st.set_out(v);
            // Unregister v from each neighbor's I(u) — through the mirror
            // handles — *before* the physical removal, so the transitions
            // are observed.
            self.scratch.clear();
            self.scratch.extend(self.st.g.half_edges(v));
            for i in 0..self.scratch.len() {
                let (u, pos) = self.scratch[i];
                let ev = self.st.dec_count(u, pos, v);
                self.handle_event(u, ev);
            }
            self.st.g.remove_vertex(v).expect("aliveness checked above");
            self.process_repairs();
        } else {
            self.st.purge_outsider(v);
            self.st.g.remove_vertex(v).expect("aliveness checked above");
            // Outsider removal never breaks maximality and only shrinks
            // buckets: no candidates, no repairs.
        }
        Ok(())
    }

    /// Approximate heap footprint (graph + framework + queues).
    pub fn heap_bytes(&self) -> usize {
        self.st.g.heap_bytes() + self.st.heap_bytes() + self.c1.heap_bytes() + self.c2.heap_bytes()
    }
}
