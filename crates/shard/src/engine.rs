//! The coordinator: canonical sharded maintenance over a set of cells.
//!
//! The [`Orchestrator`] drives the barriered phases described in
//! [`crate`]'s docs against any [`Transport`] — worker threads
//! ([`ShardedEngine`], one writer thread per shard) or direct calls
//! ([`CanonicalMis`], the sequential reference the equivalence tests
//! compare against). Every tie-break is resolved against global vertex
//! ids, so the maintained solution is a pure function of the update
//! sequence: the same for every shard count and for both transports.

use crate::cell::ShardCell;
use crate::protocol::{merge_minus, CellOp, Cmd, EndInfo, Note, Reply, ReplyData, SwapProposal};
use dynamis_core::{
    validate_update, BuildableEngine, DeltaFeed, DynamicMis, EngineBuilder, EngineError,
    EngineStats, SolutionDelta,
};
use dynamis_graph::hash::{pair_key, FxHashSet};
use dynamis_graph::{apply_update, DynamicGraph, Partitioner, ShardMap, Update};
use dynamis_obs::{Counter, Stage};
use dynamis_serve::SharedLog;
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

/// How cell work is executed: inline (sequential reference) or on one
/// writer thread per shard. The exchange is split into its two halves
/// so the coordinator can *pipeline*: post a commit broadcast, keep
/// building the next phase on its own shadow state, and collect the
/// replies only when it next needs cell answers.
pub(crate) trait Transport {
    fn shards(&self) -> usize;
    /// Sends the commands (grouped by shard, FIFO order preserved per
    /// shard — several commands to one shard are legal). All addressed
    /// cells run concurrently under a threaded transport.
    fn submit(&mut self, cmds: Vec<(usize, Cmd)>);
    /// Collects one reply per submitted command, in submission order.
    /// `submit` immediately followed by `collect` is the classic
    /// barriered exchange.
    fn collect(&mut self, order: &[usize]) -> Vec<(usize, Reply)>;
}

/// Direct in-place execution (no threads): the sequential reference.
/// Commands execute eagerly at `submit`; the buffered replies make the
/// split-phase protocol observationally identical to the barriered one.
pub(crate) struct InlineCells {
    cells: Vec<ShardCell>,
    queued: Vec<std::collections::VecDeque<Reply>>,
}

impl InlineCells {
    fn new(cells: Vec<ShardCell>) -> Self {
        let queued = (0..cells.len())
            .map(|_| std::collections::VecDeque::new())
            .collect();
        InlineCells { cells, queued }
    }
}

impl Transport for InlineCells {
    fn shards(&self) -> usize {
        self.cells.len()
    }

    fn submit(&mut self, cmds: Vec<(usize, Cmd)>) {
        for (s, c) in cmds {
            let reply = self.cells[s].handle(c);
            self.queued[s].push_back(reply);
        }
    }

    fn collect(&mut self, order: &[usize]) -> Vec<(usize, Reply)> {
        order
            .iter()
            .map(|&s| {
                (
                    s,
                    self.queued[s].pop_front().expect("one reply per command"),
                )
            })
            .collect()
    }
}

/// One writer thread per shard, request/reply channels per cell.
pub(crate) struct ThreadCells {
    txs: Vec<mpsc::Sender<Cmd>>,
    rxs: Vec<mpsc::Receiver<Reply>>,
    joins: Vec<Option<JoinHandle<()>>>,
}

impl ThreadCells {
    fn spawn(cells: Vec<ShardCell>) -> Self {
        let mut txs = Vec::new();
        let mut rxs = Vec::new();
        let mut joins = Vec::new();
        for (i, mut cell) in cells.into_iter().enumerate() {
            let (ctx, crx) = mpsc::channel::<Cmd>();
            let (rtx, rrx) = mpsc::channel::<Reply>();
            let join = std::thread::Builder::new()
                .name(format!("dynamis-shard-{i}"))
                .spawn(move || {
                    // Per-cell phase timing: how long this cell spends
                    // executing commands, across all phases (gated).
                    let handle_ns = Stage::global(&format!("shard_cell{i}_handle_ns"));
                    while let Ok(cmd) = crx.recv() {
                        if matches!(cmd, Cmd::Stop) {
                            break;
                        }
                        let t = handle_ns.begin();
                        let reply = cell.handle(cmd);
                        handle_ns.end(t);
                        if rtx.send(reply).is_err() {
                            break;
                        }
                    }
                })
                .expect("failed to spawn shard cell thread");
            txs.push(ctx);
            rxs.push(rrx);
            joins.push(Some(join));
        }
        ThreadCells { txs, rxs, joins }
    }
}

impl Transport for ThreadCells {
    fn shards(&self) -> usize {
        self.txs.len()
    }

    fn submit(&mut self, cmds: Vec<(usize, Cmd)>) {
        for (s, c) in cmds {
            self.txs[s].send(c).expect("shard cell thread died");
        }
    }

    fn collect(&mut self, order: &[usize]) -> Vec<(usize, Reply)> {
        order
            .iter()
            .map(|&s| (s, self.rxs[s].recv().expect("shard cell thread died")))
            .collect()
    }
}

impl Drop for ThreadCells {
    fn drop(&mut self) {
        for tx in &self.txs {
            let _ = tx.send(Cmd::Stop);
        }
        for j in &mut self.joins {
            if let Some(j) = j.take() {
                let _ = j.join();
            }
        }
    }
}

/// Per-shard pending-work summary, refreshed from every [`Reply`]. A
/// cell's state changes only through commands, so the hint from its
/// latest reply is always current — phases with no hinted cell are
/// skipped without any exchange.
#[derive(Debug, Clone, Copy)]
struct Hints {
    freed: bool,
    dirty1: bool,
    dirty2: bool,
}

/// Counters of the fused swap rounds — how much concurrency the
/// footprint-independence rule actually extracts. Exposed through
/// [`ShardedEngine::swap_round_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwapRoundStats {
    /// Fused rounds that committed at least one swap.
    pub rounds: u64,
    /// Swaps committed in total (so `swaps / rounds` is the mean wave).
    pub swaps: u64,
    /// Largest number of swaps co-committed in one round.
    pub max_wave: u64,
    /// Proposals deferred to a later round by a footprint conflict
    /// (or by the [`EngineBuilder::swap_wave`] cap).
    pub deferred: u64,
}

/// Knobs + identity of one orchestrator, split off the builder.
struct OrchConfig {
    k2: bool,
    name: &'static str,
    /// Max swaps co-committed per fused round (`usize::MAX` = no cap).
    wave: usize,
    /// Split-phase commit exchanges (overlap cell application with
    /// coordinator-side work). Observationally neutral.
    pipeline: bool,
}

/// The phase driver. Owns the shadow graph (update validation, `graph()`
/// view), the global membership mirror, the merged delta feed, and the
/// [`ShardMap`]; everything per-vertex lives in the cells.
pub(crate) struct Orchestrator<T: Transport> {
    t: T,
    map: ShardMap,
    shadow: DynamicGraph,
    in_sol: Vec<bool>,
    size: usize,
    feed: DeltaFeed,
    stats: EngineStats,
    swap_stats: SwapRoundStats,
    k2: bool,
    name: &'static str,
    /// Max swaps accepted per fused round; part of the canonical
    /// function (any fixed value is shard-count independent).
    wave: usize,
    /// Post commit broadcasts split-phase and collect lazily.
    pipeline: bool,
    /// Shard order of the one in-flight posted exchange, if any. Every
    /// exchange and every hint read `sync`s first, so cells always see
    /// the same command stream as in the fully barriered protocol.
    pending: Option<Vec<usize>>,
    /// Globally-refuted swap candidates awaiting a dirty-set clear,
    /// valid only while no commit intervenes (see
    /// [`Orchestrator::swap_round`]).
    clears1: Vec<u32>,
    clears2: Vec<u32>,
    hints: Vec<Hints>,
    /// Coordinator round-trips — the sharded architecture's unit of
    /// coordination cost (exposed through `coordination_stats`).
    exchanges: u64,
    cmds_sent: u64,
    obs: ShardObs,
}

/// Cached telemetry handles for the coordinator: the three sharded
/// stage timers (gated — see [`dynamis_obs::Stage`]) plus the always-on
/// exchange/command counters mirroring `coordination_stats`.
struct ShardObs {
    exchange: Stage,
    resolve: Stage,
    commit: Stage,
    exchanges: Arc<Counter>,
    cmds: Arc<Counter>,
}

impl ShardObs {
    fn new() -> Self {
        let g = dynamis_obs::global();
        ShardObs {
            exchange: Stage::global("shard_exchange_ns"),
            resolve: Stage::global("shard_resolve_ns"),
            commit: Stage::global("shard_commit_ns"),
            exchanges: g.counter("shard_exchanges_total"),
            cmds: g.counter("shard_cmds_total"),
        }
    }
}

/// A batched run of membership-neutral structural ops, keyed per cell.
/// Built by [`Orchestrator::apply_updates`], shipped by
/// [`Orchestrator::flush_segment`] in one exchange.
struct Segment {
    per_cell: Vec<Vec<CellOp>>,
    /// Op ids of removed both-outsider edges, in op order (they feed
    /// the candidate rules after the flush).
    removed: Vec<u32>,
    next_op: u32,
    any: bool,
}

impl Segment {
    fn new(shards: usize) -> Self {
        Segment {
            per_cell: vec![Vec::new(); shards],
            removed: Vec::new(),
            next_op: 0,
            any: false,
        }
    }

    fn edge(&mut self, map: &ShardMap, insert: bool, u: u32, v: u32, u_in: bool, v_in: bool) {
        let op = self.next_op;
        self.next_op += 1;
        let cell_op = CellOp::Edge {
            op,
            insert,
            u,
            v,
            u_in,
            v_in,
        };
        let (ou, ov) = (map.owner(u), map.owner(v));
        self.per_cell[ou].push(cell_op.clone());
        if ov != ou {
            self.per_cell[ov].push(cell_op);
        }
        if !insert && !u_in && !v_in {
            self.removed.push(op);
        }
        self.any = true;
    }

    fn add_vertex(&mut self, id: u32, owner: u16, neighbors: Arc<Vec<(u32, bool)>>) {
        self.next_op += 1;
        for list in &mut self.per_cell {
            list.push(CellOp::AddVertex {
                id,
                owner,
                neighbors: Arc::clone(&neighbors),
            });
        }
        self.any = true;
    }

    fn rem_outsider(&mut self, v: u32) {
        self.next_op += 1;
        for list in &mut self.per_cell {
            list.push(CellOp::RemOutsider { v });
        }
        self.any = true;
    }

    fn reset(&mut self) {
        for list in &mut self.per_cell {
            list.clear();
        }
        self.removed.clear();
        self.next_op = 0;
        self.any = false;
    }
}

/// Builds the cells plus their bootstrap notes for the given session.
fn build_cells(
    shadow: &DynamicGraph,
    map: &ShardMap,
    initial: &[u32],
    k2: bool,
    logs: Option<&[Arc<SharedLog>]>,
) -> (Vec<ShardCell>, Vec<Note>) {
    let mut cells = Vec::new();
    let mut notes = Vec::new();
    for s in 0..map.shards() {
        let log = logs.map(|l| Arc::clone(&l[s]));
        let (cell, mut n) = ShardCell::new(s, k2, shadow, map, initial, log);
        cells.push(cell);
        notes.append(&mut n);
    }
    (cells, notes)
}

impl<T: Transport> Orchestrator<T> {
    fn new(
        t: T,
        map: ShardMap,
        shadow: DynamicGraph,
        initial: &[u32],
        cfg: OrchConfig,
        bootstrap_notes: Vec<Note>,
    ) -> Self {
        let mut in_sol = vec![false; shadow.capacity()];
        let mut feed = DeltaFeed::default();
        for &v in initial {
            in_sol[v as usize] = true;
            feed.record_in(v);
        }
        let shards = t.shards();
        let mut o = Orchestrator {
            t,
            map,
            shadow,
            size: initial.len(),
            in_sol,
            feed,
            stats: EngineStats::default(),
            swap_stats: SwapRoundStats::default(),
            k2: cfg.k2,
            name: cfg.name,
            wave: cfg.wave,
            pipeline: cfg.pipeline,
            pending: None,
            clears1: Vec::new(),
            clears2: Vec::new(),
            // Conservative until each cell's first reply arrives.
            hints: vec![
                Hints {
                    freed: true,
                    dirty1: true,
                    dirty2: true,
                };
                shards
            ],
            exchanges: 0,
            cmds_sent: 0,
            obs: ShardObs::new(),
        };
        o.route_notes(bootstrap_notes);
        o.settle();
        // Close the bootstrap span: the first update's delta must not
        // absorb it, while the drainable feed still replays it. (Cell
        // feeds close their spans lazily, at `Drain`.)
        let _ = o.feed.finish_update();
        o
    }

    #[inline]
    fn owner(&self, v: u32) -> usize {
        self.map.owner(v)
    }

    /// Collects (and fully absorbs) the pending posted exchange, if
    /// any: hints refresh and the replies' notes are routed before
    /// anything else is read or sent. Every exchange and every hint
    /// read syncs first, so pipelining never changes what the protocol
    /// observes — only when the coordinator waits.
    fn sync(&mut self) {
        let Some(order) = self.pending.take() else {
            return;
        };
        let replies = self.t.collect(&order);
        let mut notes = Vec::new();
        for (s, r) in replies {
            self.hints[s] = Hints {
                freed: r.freed,
                dirty1: r.dirty1,
                dirty2: r.dirty2,
            };
            notes.extend(r.notes);
        }
        self.route_notes(notes);
    }

    /// The barriered exchange, recording every reply's work hints.
    fn exchange(&mut self, cmds: Vec<(usize, Cmd)>) -> Vec<(usize, Reply)> {
        self.sync();
        self.exchanges += 1;
        self.cmds_sent += cmds.len() as u64;
        self.obs.exchanges.inc();
        self.obs.cmds.add(cmds.len() as u64);
        let t = self.obs.exchange.begin();
        let order: Vec<usize> = cmds.iter().map(|&(s, _)| s).collect();
        self.t.submit(cmds);
        let replies = self.t.collect(&order);
        self.obs.exchange.end(t);
        for (s, r) in &replies {
            self.hints[*s] = Hints {
                freed: r.freed,
                dirty1: r.dirty1,
                dirty2: r.dirty2,
            };
        }
        replies
    }

    /// Fire-and-forget exchange for commands whose replies carry only
    /// notes and hints (flip broadcasts, solution-vertex removals,
    /// drains). Under `pipeline` the collect half is deferred to the
    /// next [`Orchestrator::sync`], overlapping the cells' application
    /// (and per-shard epoch publication) with the coordinator's
    /// shadow-side work on the next segment or scan.
    fn post(&mut self, cmds: Vec<(usize, Cmd)>) {
        self.sync();
        self.exchanges += 1;
        self.cmds_sent += cmds.len() as u64;
        self.obs.exchanges.inc();
        self.obs.cmds.add(cmds.len() as u64);
        let order: Vec<usize> = cmds.iter().map(|&(s, _)| s).collect();
        self.t.submit(cmds);
        self.pending = Some(order);
        if !self.pipeline {
            self.sync();
        }
    }

    /// One command to every shard; replies come back in shard order.
    fn bcast(&mut self, mk: impl Fn() -> Cmd) -> Vec<Reply> {
        let cmds = (0..self.t.shards()).map(|s| (s, mk())).collect();
        self.exchange(cmds).into_iter().map(|(_, r)| r).collect()
    }

    /// One command to each of the given shards (ascending).
    fn multicast(&mut self, shards: &[usize], mk: impl Fn() -> Cmd) -> Vec<(usize, Reply)> {
        let cmds = shards.iter().map(|&s| (s, mk())).collect();
        self.exchange(cmds)
    }

    /// Routes dependent-set notes to the owners of the solution vertices
    /// they describe. One exchange; note handling emits nothing further.
    fn route_notes(&mut self, notes: Vec<Note>) {
        if notes.is_empty() {
            return;
        }
        let p = self.t.shards();
        let mut per: Vec<Vec<Note>> = vec![Vec::new(); p];
        for n in notes {
            match n {
                Note::Dep1Add { p: pa, .. } | Note::Dep1Del { p: pa, .. } => {
                    per[self.owner(pa)].push(n)
                }
                Note::Dep2Add { a, b, .. } | Note::Dep2Del { a, b, .. } => {
                    let (oa, ob) = (self.owner(a), self.owner(b));
                    per[oa].push(n);
                    if ob != oa {
                        per[ob].push(n);
                    }
                }
                Note::Dirty1 { v } | Note::Dirty2 { v } => per[self.owner(v)].push(n),
            }
        }
        let cmds: Vec<(usize, Cmd)> = per
            .into_iter()
            .enumerate()
            .filter(|(_, v)| !v.is_empty())
            .map(|(s, v)| (s, Cmd::Notes(v)))
            .collect();
        if cmds.is_empty() {
            return;
        }
        for (_, r) in self.exchange(cmds) {
            debug_assert!(r.notes.is_empty(), "note handling is terminal");
        }
    }

    /// Commits membership flips: mirror + merged feed first, then the
    /// flip delivery (posted split-phase — its count-transition notes
    /// route at the next sync). Flips are routed to exactly the cells
    /// that can observe them — each flipped vertex's owner plus the
    /// owners of its neighbors; any other cell re-syncs membership when
    /// an `Edge` command first connects it to the vertex.
    fn apply_flips(&mut self, flips: Vec<(u32, bool)>) {
        let t_commit = self.obs.commit.begin();
        // Any commit invalidates pending refutation clears: these flips
        // may re-arm a refuted candidate for real, so the dirty entries
        // stay and re-resolve instead of riding a now-unsound clear.
        self.clears1.clear();
        self.clears2.clear();
        let mut shards: Vec<usize> = Vec::new();
        for &(v, enter) in &flips {
            debug_assert_ne!(self.in_sol[v as usize], enter, "redundant flip of {v}");
            self.in_sol[v as usize] = enter;
            if enter {
                self.feed.record_in(v);
                self.size += 1;
            } else {
                self.feed.record_out(v);
                self.size -= 1;
            }
            shards.push(self.owner(v));
            shards.extend(self.shadow.neighbors(v).map(|w| self.owner(w)));
        }
        shards.sort_unstable();
        shards.dedup();
        let arc = Arc::new(flips);
        let cmds: Vec<(usize, Cmd)> = shards
            .into_iter()
            .map(|s| (s, Cmd::Flips(Arc::clone(&arc))))
            .collect();
        self.post(cmds);
        self.obs.commit.end(t_commit);
    }

    /// Shards whose latest reply hinted pending work of the given kind.
    /// Syncs first: a posted commit still in flight may free or dirty
    /// vertices, and a stale `false` hint would skip a required phase.
    fn hinted(&mut self, f: impl Fn(&Hints) -> bool) -> Vec<usize> {
        self.sync();
        self.hints
            .iter()
            .enumerate()
            .filter(|(_, h)| f(h))
            .map(|(s, _)| s)
            .collect()
    }

    /// Maximality repair to quiescence: the unique priority-greedy fill
    /// of the freed set, computed in local-minima rounds with the
    /// boundary frontiers exchanged between rounds. Only cells hinting
    /// freed vertices participate in a round.
    fn fill_loop(&mut self) {
        loop {
            let who = self.hinted(|h| h.freed);
            if who.is_empty() {
                return;
            }
            // A single freed cell needs no frontier poll: the foreign
            // half of the frontier union is empty (no other cell holds
            // a freed vertex) and a cell looks its own freed set up
            // locally — the round command's union can be empty. Always
            // the case at P = 1, and the common case under a locality
            // partition. The hint may be conservatively stale (cells
            // start hinted until their first reply), so an empty round
            // here means "nothing freed after all", not a stall.
            let single = who.len() == 1;
            let (round, arc) = if single {
                (who, Arc::new(Vec::new()))
            } else {
                let mut bnd: Vec<u32> = Vec::new();
                let mut round: Vec<usize> = Vec::new();
                for (s, r) in self.multicast(&who, || Cmd::FillPoll) {
                    if let ReplyData::Fill { any, boundary } = r.data {
                        if any {
                            round.push(s);
                        }
                        bnd.extend(boundary);
                    } else {
                        unreachable!("FillPoll reply");
                    }
                }
                if round.is_empty() {
                    return;
                }
                bnd.sort_unstable();
                (round, Arc::new(bnd))
            };
            let mut entered: Vec<u32> = Vec::new();
            for (_, r) in self.multicast(&round, || Cmd::FillRound(Arc::clone(&arc))) {
                if let ReplyData::Entered(e) = r.data {
                    entered.extend(e);
                } else {
                    unreachable!("FillRound reply");
                }
            }
            if single && entered.is_empty() {
                // Stale hint: the round reply refreshed it; re-check.
                continue;
            }
            // The globally smallest freed vertex is always a local
            // minimum, so every polled round makes progress.
            debug_assert!(!entered.is_empty(), "fill round must progress");
            entered.sort_unstable();
            self.stats.repairs += entered.len() as u64;
            self.apply_flips(entered.into_iter().map(|v| (v, true)).collect());
        }
    }

    /// Queues one `AdjAmong` probe over `list` (sorted, deduplicated) —
    /// one command per owner shard — and returns the reply span.
    fn queue_adj_among(
        cmds: &mut Vec<(usize, Cmd)>,
        list: Vec<u32>,
        owner: impl Fn(u32) -> usize,
    ) -> (usize, usize) {
        let at = cmds.len();
        let mut shards: Vec<usize> = list.iter().map(|&v| owner(v)).collect();
        shards.sort_unstable();
        shards.dedup();
        let n = shards.len();
        let arc = Arc::new(list);
        cmds.extend(
            shards
                .into_iter()
                .map(|s| (s, Cmd::AdjAmong(Arc::clone(&arc)))),
        );
        (at, n)
    }

    /// Unions an `AdjAmong` reply span into a pair-key set.
    fn merge_adj(replies: &[ReplyData]) -> FxHashSet<u64> {
        let mut adj = FxHashSet::default();
        for r in replies {
            if let ReplyData::Edges(edges) = r {
                adj.extend(edges.iter().map(|&(a, b)| pair_key(a, b)));
            } else {
                unreachable!("AdjAmong reply");
            }
        }
        adj
    }

    /// One fused swap round. One `SwapScan` exchange collects *every*
    /// actionable candidate from the hinted cells; the merged list is
    /// walked in ascending candidate order (keys are unique — one owner
    /// per candidate — so the order is total and shard-count
    /// independent), each entry resolved against the *pre-round* state:
    /// ready proposals directly, `Global` ones through at most two
    /// round-fused gather exchanges (see
    /// [`Orchestrator::resolve_round`]), so a round's coordination cost
    /// does not grow with its candidate count. Every resolved proposal
    /// whose 1-hop footprint is
    /// disjoint from the ones already accepted (up to the `wave` cap)
    /// commits; all accepted flips post in **one** `Flips` broadcast.
    /// Conflicting proposals stay dirty and re-resolve next round
    /// against the post-commit state, so the exchange count scales with
    /// the number of *conflicting* swaps, not the number of swaps.
    ///
    /// Refuted candidates — whether a cell refuted them locally or the
    /// coordinator's pipeline did — stay dirty and are queued as clears
    /// flushed at settle exit; any intervening commit drops the queue
    /// (see [`Orchestrator::apply_flips`]) because its flips may have
    /// re-armed the candidate for real. Treating both refutation kinds
    /// identically keeps the dirty sets' evolution — and therefore the
    /// candidate order of every later round — shard-count independent.
    fn swap_round(&mut self, two: bool) -> bool {
        let who = self.hinted(|h| if two { h.dirty2 } else { h.dirty1 });
        if who.is_empty() {
            return false;
        }
        let cmds: Vec<(usize, Cmd)> = who.iter().map(|&s| (s, Cmd::SwapScan { two })).collect();
        let mut proposals: Vec<SwapProposal> = Vec::new();
        for (_, r) in self.exchange(cmds) {
            match r.data {
                ReplyData::Swaps {
                    proposals: p,
                    refuted,
                } => {
                    proposals.extend(p);
                    let queue = if two {
                        &mut self.clears2
                    } else {
                        &mut self.clears1
                    };
                    queue.extend(refuted);
                }
                _ => unreachable!("SwapScan reply"),
            }
        }
        proposals.sort_unstable_by_key(SwapProposal::key);
        let deferred_before = self.swap_stats.deferred;
        let t_resolve = self.obs.resolve.begin();
        let resolved = self.resolve_round(&proposals);
        self.obs.resolve.end(t_resolve);
        let mut flips: Vec<(u32, bool)> = Vec::new();
        let mut marks: FxHashSet<u32> = FxHashSet::default();
        let mut accepted: u64 = 0;
        for (p, res) in proposals.iter().zip(resolved) {
            if accepted as usize >= self.wave {
                // Capped: the remainder stays dirty for the next round.
                self.swap_stats.deferred += 1;
                continue;
            }
            // A candidate already inside an accepted footprint clashes
            // no matter how it resolves (it leaves in its own proposal),
            // so defer it without consuming its resolution.
            if marks.contains(&p.key()) {
                self.swap_stats.deferred += 1;
                continue;
            }
            let Some(fl) = res else {
                // Refuted against the pre-round state; cleared only if
                // that state survives to the next scan. Only candidates
                // the walk actually reaches queue a clear — deferred
                // ones re-resolve against the post-commit state, where
                // the same refutation need not hold.
                match *p {
                    SwapProposal::GlobalOne { v, .. } => self.clears1.push(v),
                    SwapProposal::GlobalTwo { v, .. } => self.clears2.push(v),
                    _ => unreachable!("ready proposals always resolve"),
                }
                continue;
            };
            if self.wave_admits(&fl, &mut marks) {
                if two {
                    self.stats.two_swaps += 1;
                } else {
                    self.stats.one_swaps += 1;
                }
                accepted += 1;
                flips.extend(fl);
            } else {
                self.swap_stats.deferred += 1;
            }
        }
        let deferred = self.swap_stats.deferred - deferred_before;
        if deferred > 0 {
            dynamis_obs::event(
                "swap_deferral",
                format!(
                    "{}-swap round deferred {deferred} of {} proposals",
                    if two { 2 } else { 1 },
                    proposals.len()
                ),
            );
        }
        if accepted == 0 {
            return false;
        }
        self.swap_stats.rounds += 1;
        self.swap_stats.swaps += accepted;
        self.swap_stats.max_wave = self.swap_stats.max_wave.max(accepted);
        // Committed candidates leave the solution, so their dirty
        // entries prune themselves at the next scan.
        self.apply_flips(flips);
        true
    }

    /// Footprint-independence test for one resolved proposal, on the
    /// coordinator's shadow (zero exchanges). A proposal's footprint is
    /// its enterers' closed 1-hop balls plus its leaver *vertices*: an
    /// enterer's solution parents are exactly its own proposal's
    /// leavers, so an edge between an enterer and a foreign leaver is
    /// impossible and leaver balls would only over-block (a hub leaving
    /// would veto every swap around it). A proposal is admissible iff
    /// none of its flips and none of its enterers' neighbors are inside
    /// an accepted footprint; admitting marks its own. The first
    /// resolved proposal of a round always admits, so every committing
    /// round makes progress.
    fn wave_admits(&self, flips: &[(u32, bool)], marks: &mut FxHashSet<u32>) -> bool {
        let clash = flips.iter().any(|&(v, enter)| {
            marks.contains(&v) || (enter && self.shadow.neighbors(v).any(|w| marks.contains(&w)))
        });
        if clash {
            return false;
        }
        for &(v, enter) in flips {
            marks.insert(v);
            if enter {
                marks.extend(self.shadow.neighbors(v));
            }
        }
        true
    }

    /// Resolves every candidate of a round against the pre-round state
    /// in at most **two** batched exchanges, independent of candidate
    /// count. Resolution is read-only — flips post only at round end —
    /// so every candidate's gather reads the same frozen state and they
    /// all fuse: exchange one carries each 2-swap candidate's partner
    /// `¯I₁` rows and pivot neighborhoods plus each 1-swap candidate's
    /// `AdjAmong` probe; exchange two carries the surviving 2-swap
    /// candidates' `AdjAmong` probes (their replacement sets depend on
    /// exchange one). Replies align positionally with commands, so each
    /// candidate recovers its slice by span.
    ///
    /// Per candidate the outcome is canonical: a 1-swap takes the
    /// lexicographically smallest non-adjacent pair of `¯I₁(v)`; a
    /// 2-swap walks its pairs `(a, b)` in lexicographic order, each
    /// pair's pivots `x` ascending, and takes the first admissible
    /// `(y, z)` in lexicographic order — `{a, b}` leave, `{x, y, z}`
    /// enter. A 2-swap whose probes carry no pivots refutes with zero
    /// exchange share. Candidates the walk later defers (wave cap or
    /// marked footprint) are resolved here too and their results
    /// discarded — wasted payload, but resolving lazily would cost one
    /// exchange per candidate, exactly the round-count-independent cost
    /// this path exists to avoid.
    fn resolve_round(&mut self, proposals: &[SwapProposal]) -> Vec<Option<Vec<(u32, bool)>>> {
        enum Plan {
            Ready(Vec<(u32, bool)>),
            Refuted,
            One { at: usize, n: usize },
            Two { at: usize, live: Vec<usize> },
        }
        let mut cmds: Vec<(usize, Cmd)> = Vec::new();
        let mut plans: Vec<Plan> = Vec::with_capacity(proposals.len());
        for p in proposals {
            match p {
                SwapProposal::One { v, u1, u2 } => {
                    plans.push(Plan::Ready(vec![(*v, false), (*u1, true), (*u2, true)]));
                }
                SwapProposal::Two { a, b, x, y, z, .. } => {
                    plans.push(Plan::Ready(vec![
                        (*a, false),
                        (*b, false),
                        (*x, true),
                        (*y, true),
                        (*z, true),
                    ]));
                }
                SwapProposal::GlobalOne { bar1, .. } => {
                    debug_assert!(bar1.len() >= 2, "SwapScan pre-validates |¯I₁| ≥ 2");
                    let (at, n) = Self::queue_adj_among(&mut cmds, bar1.clone(), |v| self.owner(v));
                    plans.push(Plan::One { at, n });
                }
                SwapProposal::GlobalTwo { v, pairs, .. } => {
                    let live: Vec<usize> = (0..pairs.len())
                        .filter(|&i| !pairs[i].piv.is_empty())
                        .collect();
                    if live.is_empty() {
                        plans.push(Plan::Refuted);
                        continue;
                    }
                    let at = cmds.len();
                    // Partners' ¯I₁ rows first, then every pivot's open
                    // neighborhood, in canonical pair order.
                    for &i in &live {
                        let pr = &pairs[i];
                        let o = if pr.a == *v { pr.b } else { pr.a };
                        cmds.push((self.owner(o), Cmd::Bar1(o)));
                    }
                    for &i in &live {
                        for &x in &pairs[i].piv {
                            cmds.push((self.owner(x), Cmd::NbrsOf(x)));
                        }
                    }
                    plans.push(Plan::Two { at, live });
                }
            }
        }
        let replies: Vec<ReplyData> = if cmds.is_empty() {
            Vec::new()
        } else {
            self.exchange(cmds)
                .into_iter()
                .map(|(_, r)| r.data)
                .collect()
        };
        let list = |r: &ReplyData| -> Vec<u32> {
            if let ReplyData::List(l) = r {
                l.clone()
            } else {
                unreachable!("list reply")
            }
        };
        struct PendingTwo {
            slot: usize,
            at: usize,
            n: usize,
            // (pair index, pivot, Cy, Cz) in canonical order.
            sets: Vec<(usize, u32, Vec<u32>, Vec<u32>)>,
        }
        let mut out: Vec<Option<Vec<(u32, bool)>>> = Vec::with_capacity(proposals.len());
        let mut cmds_b: Vec<(usize, Cmd)> = Vec::new();
        let mut pending: Vec<PendingTwo> = Vec::new();
        for (slot, (p, plan)) in proposals.iter().zip(plans).enumerate() {
            match plan {
                Plan::Ready(fl) => out.push(Some(fl)),
                Plan::Refuted => out.push(None),
                Plan::One { at, n } => {
                    let SwapProposal::GlobalOne { v, bar1 } = p else {
                        unreachable!()
                    };
                    let adj = Self::merge_adj(&replies[at..at + n]);
                    let mut fl = None;
                    'one: for i in 0..bar1.len() {
                        for j in i + 1..bar1.len() {
                            if !adj.contains(&pair_key(bar1[i], bar1[j])) {
                                fl = Some(vec![(*v, false), (bar1[i], true), (bar1[j], true)]);
                                break 'one;
                            }
                        }
                    }
                    out.push(fl);
                }
                Plan::Two { at, live } => {
                    let SwapProposal::GlobalTwo { v, bar1, pairs } = p else {
                        unreachable!()
                    };
                    let mut sets: Vec<(usize, u32, Vec<u32>, Vec<u32>)> = Vec::new();
                    let mut all: Vec<u32> = Vec::new();
                    let mut nx_at = at + live.len();
                    for (li, &i) in live.iter().enumerate() {
                        let pr = &pairs[i];
                        debug_assert!(
                            self.in_sol[pr.a as usize] && self.in_sol[pr.b as usize],
                            "dep2 rows are exact"
                        );
                        let partner = list(&replies[at + li]);
                        let (b1a, b1b) = if pr.a == *v {
                            (bar1, &partner)
                        } else {
                            (&partner, bar1)
                        };
                        for &x in &pr.piv {
                            let nx = list(&replies[nx_at]);
                            nx_at += 1;
                            // Cy = ¯I₁(a) − pivots − N[x]; Cz likewise for b.
                            let cy = merge_minus(b1a, &pr.piv, |w| {
                                w == x || nx.binary_search(&w).is_ok()
                            });
                            if cy.is_empty() {
                                continue;
                            }
                            let cz = merge_minus(b1b, &pr.piv, |w| {
                                w == x || nx.binary_search(&w).is_ok()
                            });
                            if cz.is_empty() {
                                continue;
                            }
                            all.extend(cy.iter().chain(cz.iter()));
                            sets.push((i, x, cy, cz));
                        }
                    }
                    if sets.is_empty() {
                        out.push(None);
                        continue;
                    }
                    all.sort_unstable();
                    all.dedup();
                    let (b_at, n) = Self::queue_adj_among(&mut cmds_b, all, |v| self.owner(v));
                    out.push(None);
                    pending.push(PendingTwo {
                        slot,
                        at: b_at,
                        n,
                        sets,
                    });
                }
            }
        }
        let replies_b: Vec<ReplyData> = if cmds_b.is_empty() {
            Vec::new()
        } else {
            self.exchange(cmds_b)
                .into_iter()
                .map(|(_, r)| r.data)
                .collect()
        };
        for pd in pending {
            let adj = Self::merge_adj(&replies_b[pd.at..pd.at + pd.n]);
            let SwapProposal::GlobalTwo { pairs, .. } = &proposals[pd.slot] else {
                unreachable!()
            };
            'two: for (i, x, cy, cz) in pd.sets {
                let pr = &pairs[i];
                for &y in &cy {
                    for &z in &cz {
                        if z != y && !adj.contains(&pair_key(y, z)) {
                            out[pd.slot] = Some(vec![
                                (pr.a, false),
                                (pr.b, false),
                                (x, true),
                                (y, true),
                                (z, true),
                            ]);
                            break 'two;
                        }
                    }
                }
            }
        }
        out
    }

    /// Drops globally-refuted candidates from their owners' dirty sets
    /// in one batched exchange, so the dirty hints quiesce. Called at
    /// settle exit only: nothing committed since the refutations (a
    /// commit drops the queue), so "no swap at v" still holds.
    fn flush_clears(&mut self, two: bool) {
        let pending = std::mem::take(if two {
            &mut self.clears2
        } else {
            &mut self.clears1
        });
        if pending.is_empty() {
            return;
        }
        let mut per: Vec<Vec<u32>> = vec![Vec::new(); self.t.shards()];
        for c in pending {
            per[self.owner(c)].push(c);
        }
        let cmds: Vec<(usize, Cmd)> = per
            .into_iter()
            .enumerate()
            .filter(|(_, l)| !l.is_empty())
            .map(|(s, list)| (s, Cmd::ClearDirty { two, list }))
            .collect();
        for (_, r) in self.exchange(cmds) {
            debug_assert!(r.notes.is_empty(), "clears are terminal");
        }
    }

    /// Restores the full invariant: maximality (fill), then no 1-swap,
    /// then (k = 2) no 2-swap — re-filling and re-scanning after every
    /// committed *round*, exactly like Algorithm 1's main loop with each
    /// round committing a whole wave of footprint-independent swaps.
    /// Terminates because every committed swap grows |I| by at least
    /// one. Exits with the refutation queues flushed (dirty hints
    /// quiescent) and no posted exchange outstanding.
    fn settle(&mut self) {
        loop {
            self.fill_loop();
            if self.swap_round(false) {
                continue;
            }
            if self.k2 && self.swap_round(true) {
                continue;
            }
            break;
        }
        self.flush_clears(false);
        if self.k2 {
            self.flush_clears(true);
        }
    }

    /// Applies a run of updates. Membership-neutral structural ops —
    /// every edge flip except an insert between two solution vertices,
    /// vertex inserts, outsider removals — accumulate into per-cell
    /// [`CellOp`] segments and reach the cells in **one** exchange per
    /// segment; only the updates that flip membership at dispatch time
    /// (conflict inserts, solution-vertex removals) are phase
    /// boundaries. Counts stay exact throughout because the cells' case
    /// analysis is membership-driven, not maximality-driven; fill and
    /// swap settling are the caller's business. Returns the first
    /// rejection, with the valid prefix applied.
    fn apply_updates(&mut self, updates: &[Update]) -> Option<(usize, EngineError)> {
        let mut seg = Segment::new(self.t.shards());
        for (index, u) in updates.iter().enumerate() {
            if let Err(e) = validate_update(&self.shadow, u) {
                self.flush_segment(&mut seg);
                return Some((index, e));
            }
            self.stats.updates += 1;
            match u {
                Update::InsertEdge(a, b)
                    if self.in_sol[*a as usize] && self.in_sol[*b as usize] =>
                {
                    let (a, b) = (*a, *b);
                    self.shadow.insert_edge(a, b).expect("validated");
                    seg.edge(&self.map, true, a, b, true, true);
                    self.flush_segment(&mut seg);
                    self.conflict_evict(a, b);
                }
                Update::InsertEdge(a, b) => {
                    let (a, b) = (*a, *b);
                    self.shadow.insert_edge(a, b).expect("validated");
                    let (a_in, b_in) = (self.in_sol[a as usize], self.in_sol[b as usize]);
                    seg.edge(&self.map, true, a, b, a_in, b_in);
                }
                Update::RemoveEdge(a, b) => {
                    let (a, b) = (*a, *b);
                    self.shadow.remove_edge(a, b).expect("validated");
                    let (a_in, b_in) = (self.in_sol[a as usize], self.in_sol[b as usize]);
                    seg.edge(&self.map, false, a, b, a_in, b_in);
                }
                Update::InsertVertex { id, neighbors } => {
                    apply_update(&mut self.shadow, u).expect("validated");
                    let owner = self.map.assign_fresh_near(*id, neighbors) as u16;
                    if self.in_sol.len() < self.shadow.capacity() {
                        self.in_sol.resize(self.shadow.capacity(), false);
                    }
                    self.in_sol[*id as usize] = false;
                    let with_sol = Arc::new(
                        neighbors
                            .iter()
                            .map(|&n| (n, self.in_sol[n as usize]))
                            .collect::<Vec<_>>(),
                    );
                    seg.add_vertex(*id, owner, with_sol);
                }
                Update::RemoveVertex(v) => {
                    let v = *v;
                    self.shadow.remove_vertex(v).expect("validated");
                    if self.in_sol[v as usize] {
                        // Boundary: the removal flips membership.
                        self.flush_segment(&mut seg);
                        self.in_sol[v as usize] = false;
                        self.feed.record_out(v);
                        self.size -= 1;
                        // Posted: the removal's count-transition notes
                        // route at the next sync, before any exchange.
                        let cmds = (0..self.t.shards())
                            .map(|s| (s, Cmd::RemSolVertex { v }))
                            .collect();
                        self.post(cmds);
                    } else {
                        seg.rem_outsider(v);
                    }
                }
            }
        }
        self.flush_segment(&mut seg);
        None
    }

    /// Ships the accumulated segment to the cells (one exchange),
    /// routes the resulting notes, and fires the outsider-edge-removal
    /// dirty rules in op order.
    fn flush_segment(&mut self, seg: &mut Segment) {
        if !seg.any {
            return;
        }
        let cmds: Vec<(usize, Cmd)> = seg
            .per_cell
            .iter_mut()
            .enumerate()
            .filter(|(_, l)| !l.is_empty())
            .map(|(s, l)| (s, Cmd::Ops(std::mem::take(l))))
            .collect();
        let replies = self.exchange(cmds);
        let mut notes = Vec::new();
        let mut infos: Vec<(u32, Option<EndInfo>, Option<EndInfo>)> = Vec::new();
        for (_, r) in replies {
            notes.extend(r.notes);
            if let ReplyData::OpsInfo(rows) = r.data {
                infos.extend(rows);
            }
        }
        if !seg.removed.is_empty() {
            // Merge the (up to two) per-cell rows of each removed edge.
            infos.sort_unstable_by_key(|&(op, _, _)| op);
            for &op in &seg.removed {
                let lo = infos.partition_point(|&(o, _, _)| o < op);
                let (mut ia, mut ib) = (None, None);
                for row in infos[lo..].iter().take_while(|&&(o, _, _)| o == op) {
                    ia = ia.or(row.1);
                    ib = ib.or(row.2);
                }
                self.outsider_removal_dirty(ia, ib, &mut notes);
            }
        }
        seg.reset();
        self.route_notes(notes);
    }

    /// The paper's eviction rule for an edge inserted between two
    /// solution vertices: evict the endpoint whose `¯I₁` promises a
    /// refill, preferring `b`; fall back to higher degree.
    fn conflict_evict(&mut self, a: u32, b: u32) {
        // Both peeks travel in one exchange — the decision may need
        // either answer, and fusing them halves the rule's round-trips.
        let (oa, ob) = (self.owner(a), self.owner(b));
        let replies = self.exchange(vec![(ob, Cmd::DepPeek(b)), (oa, Cmd::DepPeek(a))]);
        let mut peeks = replies.into_iter().map(|(_, r)| match r.data {
            ReplyData::Peek { nonempty } => nonempty,
            _ => unreachable!("DepPeek reply"),
        });
        let (peek_b, peek_a) = (peeks.next().unwrap(), peeks.next().unwrap());
        let loser = if peek_b {
            b
        } else if peek_a {
            a
        } else if self.shadow.degree(b) >= self.shadow.degree(a) {
            b
        } else {
            a
        };
        self.apply_flips(vec![(loser, false)]);
    }

    /// The paper's "edge removed between two outsiders" candidate rules
    /// (the only update changing bucket adjacency without a count
    /// transition): re-arm the affected solution vertices/pairs.
    fn outsider_removal_dirty(
        &mut self,
        ia: Option<EndInfo>,
        ib: Option<EndInfo>,
        notes: &mut Vec<Note>,
    ) {
        let (ia, ib) = match (ia, ib) {
            (Some(ia), Some(ib)) => (ia, ib),
            _ => unreachable!("every outsider endpoint has exactly one owner"),
        };
        if ia.count == 1 && ib.count == 1 {
            let (pa, pb) = (ia.parents[0], ib.parents[0]);
            if pa == pb {
                notes.push(Note::Dirty1 { v: pa });
            } else if self.k2 {
                notes.push(Note::Dirty2 { v: pa });
                notes.push(Note::Dirty2 { v: pb });
            }
        }
        if self.k2 {
            for (info, other) in [(&ia, &ib), (&ib, &ia)] {
                if info.count == 2 && (1..=2).contains(&other.count) {
                    notes.push(Note::Dirty2 { v: info.parents[0] });
                    notes.push(Note::Dirty2 { v: info.parents[1] });
                }
            }
        }
    }

    // ---- DynamicMis backing ------------------------------------------

    fn try_apply(&mut self, u: &Update) -> Result<SolutionDelta, EngineError> {
        let before = self.stats;
        if let Some((_, cause)) = self.apply_updates(std::slice::from_ref(u)) {
            // Validation precedes every mutation: state untouched.
            return Err(cause);
        }
        self.settle();
        let mut delta = self.feed.finish_update();
        delta.stats = self.stats.diff_since(&before);
        Ok(delta)
    }

    /// Batch: one deferred fill + swap drain for the whole burst (same
    /// contract as the eager engines' deferred-drain batch — the final
    /// state is identically k-maximal, cascades of intermediate states
    /// are skipped). On rejection the valid prefix stays applied with
    /// the invariant re-established and the error names the index.
    fn try_apply_batch(&mut self, updates: &[Update]) -> Result<SolutionDelta, EngineError> {
        let before = self.stats;
        let failure = self.apply_updates(updates);
        self.settle();
        let mut delta = self.feed.finish_update();
        delta.stats = self.stats.diff_since(&before);
        match failure {
            None => Ok(delta),
            Some((index, cause)) => Err(cause.in_batch(index)),
        }
    }

    fn drain_delta(&mut self) -> SolutionDelta {
        // Cells drain (and publish to their per-shard logs) in the same
        // epoch as the merged drain. Posted: the merged delta returns
        // while cells publish in the background — a sharded reader's
        // min-head cut tolerates per-shard publication lag.
        let cmds = (0..self.t.shards()).map(|s| (s, Cmd::Drain)).collect();
        self.post(cmds);
        self.feed.drain()
    }

    fn solution(&self) -> Vec<u32> {
        (0..self.in_sol.len() as u32)
            .filter(|&v| self.in_sol[v as usize])
            .collect()
    }

    fn heap_bytes(&mut self) -> usize {
        let cells: usize = self
            .bcast(|| Cmd::HeapBytes)
            .into_iter()
            .map(|r| match r.data {
                ReplyData::Bytes(b) => b,
                _ => unreachable!("HeapBytes reply"),
            })
            .sum();
        self.shadow.heap_bytes() + self.in_sol.capacity() + cells
    }

    /// Exhaustive cross-shard audit (test use): every cell's local state
    /// recomputed from scratch, the merged solution checked independent
    /// and maximal against the shadow graph, and the distributed
    /// dependent sets compared against a global recount.
    fn check_consistency(&mut self) -> Result<(), String> {
        self.shadow.check_consistency()?;
        for (s, r) in self.bcast(|| Cmd::Audit).into_iter().enumerate() {
            if let ReplyData::Check(res) = r.data {
                res.map_err(|e| format!("cell {s}: {e}"))?;
            }
        }
        if self.size != self.in_sol.iter().filter(|&&b| b).count() {
            return Err("size counter out of sync".into());
        }
        // Global recount of the dependent sets.
        let mut exp1: Vec<Vec<u32>> = vec![Vec::new(); self.shadow.capacity()];
        let mut exp2: Vec<Vec<(u32, u32)>> = vec![Vec::new(); self.shadow.capacity()];
        for u in self.shadow.vertices() {
            if self.in_sol[u as usize] {
                if let Some(w) = self.shadow.neighbors(u).find(|&w| self.in_sol[w as usize]) {
                    return Err(format!("merged solution not independent: ({u}, {w})"));
                }
                continue;
            }
            let parents: Vec<u32> = self
                .shadow
                .neighbors(u)
                .filter(|&w| self.in_sol[w as usize])
                .collect();
            match parents.len() {
                0 => return Err(format!("merged solution not maximal: {u} is free")),
                1 => exp1[parents[0] as usize].push(u),
                2 if self.k2 => {
                    let (a, b) = (parents[0].min(parents[1]), parents[0].max(parents[1]));
                    exp2[a as usize].push((b, u));
                    exp2[b as usize].push((a, u));
                }
                _ => {}
            }
        }
        let mut got1: Vec<Vec<u32>> = vec![Vec::new(); self.shadow.capacity()];
        let mut got2: Vec<Vec<(u32, u32)>> = vec![Vec::new(); self.shadow.capacity()];
        for r in self.bcast(|| Cmd::DumpState) {
            if let ReplyData::Dump(rows) = r.data {
                for (v, d1, d2) in rows {
                    got1[v as usize] = d1;
                    got2[v as usize] = d2;
                }
            }
        }
        for v in 0..self.shadow.capacity() {
            exp1[v].sort_unstable();
            exp2[v].sort_unstable();
            if exp1[v] != got1[v] {
                return Err(format!(
                    "¯I₁({v}) drift: expected {:?}, cells hold {:?}",
                    exp1[v], got1[v]
                ));
            }
            if exp2[v] != got2[v] {
                return Err(format!(
                    "¯I₂ rows of {v} drift: expected {:?}, cells hold {:?}",
                    exp2[v], got2[v]
                ));
            }
        }
        Ok(())
    }
}

/// Everything the canonical sharded engines pull out of a builder.
struct ShardSpec {
    shadow: DynamicGraph,
    initial: Vec<u32>,
    k2: bool,
    shards: usize,
    partitioner: Partitioner,
    wave: usize,
    pipeline: bool,
}

/// Validates a builder for the canonical sharded engines and splits it
/// into its parts. `k ≤ 2`: the lazy `GenericKSwap` collection mode has
/// no canonical sharded counterpart.
fn canonical_session(builder: EngineBuilder) -> Result<ShardSpec, EngineError> {
    let shards = builder.shard_count();
    let partitioner = builder.partitioner_choice();
    let wave = builder.swap_wave_limit();
    let pipeline = builder.pipeline_enabled();
    let session = builder.into_session()?;
    if session.k > 2 {
        return Err(EngineError::BadParameter(
            "sharded maintenance supports k ∈ {1, 2}",
        ));
    }
    Ok(ShardSpec {
        shadow: session.graph,
        initial: session.initial,
        k2: session.k == 2,
        shards,
        partitioner,
        wave,
        pipeline,
    })
}

macro_rules! delegate_dynamic_mis {
    ($ty:ty) => {
        impl DynamicMis for $ty {
            fn name(&self) -> &'static str {
                self.inner.name
            }
            fn graph(&self) -> &DynamicGraph {
                &self.inner.shadow
            }
            fn try_apply(&mut self, u: &Update) -> Result<SolutionDelta, EngineError> {
                self.inner.try_apply(u)
            }
            fn try_apply_batch(
                &mut self,
                updates: &[Update],
            ) -> Result<SolutionDelta, EngineError> {
                self.inner.try_apply_batch(updates)
            }
            fn drain_delta(&mut self) -> SolutionDelta {
                self.inner.drain_delta()
            }
            fn size(&self) -> usize {
                self.inner.size
            }
            fn solution(&self) -> Vec<u32> {
                self.inner.solution()
            }
            fn contains(&self, v: u32) -> bool {
                self.inner.in_sol.get(v as usize).copied().unwrap_or(false)
            }
            fn heap_bytes(&self) -> usize {
                // `heap_bytes` needs a cell round-trip, which needs
                // `&mut`; report the coordinator-resident state only for
                // the immutable trait call.
                self.inner.shadow.heap_bytes() + self.inner.in_sol.capacity()
            }
        }
    };
}

/// Sharded parallel maintenance: `P` degree-aware vertex-space shards,
/// each with its own maintenance cell on its own writer thread, driven
/// through the canonical two-phase boundary protocol.
///
/// The maintained solution is globally independent, maximal, and
/// k-maximal (`k ∈ {1, 2}`), and — because every protocol decision is
/// resolved against global vertex ids — **identical for every shard
/// count**, including the sequential reference [`CanonicalMis`].
///
/// ```
/// use dynamis_core::{DynamicMis, EngineBuilder};
/// use dynamis_graph::{DynamicGraph, Update};
/// use dynamis_shard::{CanonicalMis, ShardedEngine};
///
/// let g = DynamicGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
/// let mut sharded: ShardedEngine =
///     EngineBuilder::on(g.clone()).k(2).shards(3).build_as().unwrap();
/// let mut reference: CanonicalMis = EngineBuilder::on(g).k(2).build_as().unwrap();
///
/// for u in [Update::RemoveEdge(2, 3), Update::InsertEdge(0, 2)] {
///     sharded.try_apply(&u).unwrap();
///     reference.try_apply(&u).unwrap();
/// }
/// assert_eq!(sharded.solution(), reference.solution());
/// ```
pub struct ShardedEngine {
    inner: Orchestrator<ThreadCells>,
}

delegate_dynamic_mis!(ShardedEngine);

impl ShardedEngine {
    fn build(
        builder: EngineBuilder,
        logs: Option<Vec<Arc<SharedLog>>>,
    ) -> Result<Self, EngineError> {
        let spec = canonical_session(builder)?;
        let map = ShardMap::with_partitioner(&spec.shadow, spec.shards, spec.partitioner);
        let (cells, notes) =
            build_cells(&spec.shadow, &map, &spec.initial, spec.k2, logs.as_deref());
        let cfg = OrchConfig {
            k2: spec.k2,
            name: if spec.k2 {
                "ShardedTwoSwap"
            } else {
                "ShardedOneSwap"
            },
            wave: spec.wave,
            pipeline: spec.pipeline,
        };
        let t = ThreadCells::spawn(cells);
        Ok(ShardedEngine {
            inner: Orchestrator::new(t, map, spec.shadow, &spec.initial, cfg, notes),
        })
    }

    /// Builds with per-shard broadcast logs attached: each cell
    /// publishes its owned share of every epoch's delta to its own log
    /// (see [`dynamis_serve::ShardedReader`]).
    pub fn from_builder_with_logs(
        builder: EngineBuilder,
        logs: Vec<Arc<SharedLog>>,
    ) -> Result<Self, EngineError> {
        assert_eq!(
            logs.len(),
            builder.shard_count(),
            "one log per shard required"
        );
        Self::build(builder, Some(logs))
    }

    /// Number of shards (writer threads) this engine runs.
    pub fn shards(&self) -> usize {
        self.inner.t.shards()
    }

    /// The partitioning strategy behind this engine's [`ShardMap`].
    pub fn partitioner(&self) -> Partitioner {
        self.inner.map.partitioner()
    }

    /// Cut size and per-shard degree loads of the current partition.
    pub fn partition_stats(&self) -> (usize, Vec<u64>) {
        (
            self.inner.map.cut_edges(&self.inner.shadow),
            self.inner.map.degree_loads(&self.inner.shadow),
        )
    }

    /// `(exchanges, commands)` the coordinator has issued — the unit of
    /// coordination cost (one exchange = one barriered round-trip to a
    /// set of cells).
    pub fn coordination_stats(&self) -> (u64, u64) {
        (self.inner.exchanges, self.inner.cmds_sent)
    }

    /// Counters of the fused swap rounds: how many swaps co-committed
    /// per round and how many proposals a footprint conflict (or the
    /// wave cap) pushed to a later round.
    pub fn swap_round_stats(&self) -> SwapRoundStats {
        self.inner.swap_stats
    }

    /// Exhaustive cross-shard audit — recomputes every cell's state from
    /// scratch and verifies the merged solution plus the distributed
    /// dependent sets. Test/debug use: O(n + m) plus a cell round-trip.
    pub fn check_consistency(&mut self) -> Result<(), String> {
        self.inner.check_consistency()
    }

    /// Heap footprint including every cell's state (needs the cell
    /// round-trip the trait's `&self` method cannot perform).
    pub fn heap_bytes_full(&mut self) -> usize {
        self.inner.heap_bytes()
    }
}

impl BuildableEngine for ShardedEngine {
    /// Honors [`EngineBuilder::shards`] (default 1) and `k ∈ {1, 2}`.
    fn from_builder(builder: EngineBuilder) -> Result<Self, EngineError> {
        Self::build(builder, None)
    }
}

/// The sequential reference for the sharded protocol: one cell, no
/// threads, direct calls — the same canonical decision rules, so its
/// solution is *identical* to [`ShardedEngine`]'s at any shard count.
/// The cross-shard equivalence proptests pin that.
pub struct CanonicalMis {
    inner: Orchestrator<InlineCells>,
}

delegate_dynamic_mis!(CanonicalMis);

impl CanonicalMis {
    /// Exhaustive audit; see [`ShardedEngine::check_consistency`].
    pub fn check_consistency(&mut self) -> Result<(), String> {
        self.inner.check_consistency()
    }

    /// Counters of the fused swap rounds; see
    /// [`ShardedEngine::swap_round_stats`].
    pub fn swap_round_stats(&self) -> SwapRoundStats {
        self.inner.swap_stats
    }
}

impl BuildableEngine for CanonicalMis {
    /// Ignores [`EngineBuilder::shards`] — the reference is always a
    /// single inline cell. Honors the wave / pipeline knobs, so a
    /// reference engine can be built for any configuration under test.
    fn from_builder(builder: EngineBuilder) -> Result<Self, EngineError> {
        let spec = canonical_session(builder)?;
        let map = ShardMap::degree_aware(&spec.shadow, 1);
        let (cells, notes) = build_cells(&spec.shadow, &map, &spec.initial, spec.k2, None);
        let cfg = OrchConfig {
            k2: spec.k2,
            name: if spec.k2 {
                "CanonTwoSwap"
            } else {
                "CanonOneSwap"
            },
            wave: spec.wave,
            pipeline: spec.pipeline,
        };
        let t = InlineCells::new(cells);
        Ok(CanonicalMis {
            inner: Orchestrator::new(t, map, spec.shadow, &spec.initial, cfg, notes),
        })
    }
}
