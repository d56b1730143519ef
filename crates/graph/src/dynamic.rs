//! The fully dynamic graph: vertex/edge insertion and deletion in O(1)
//! amortized time per edge update.
//!
//! Adjacency is stored as one `Vec<AdjEntry>` per vertex. Each half-edge
//! records the position (`mirror`) of its reciprocal half-edge, so removing
//! an edge is two `swap_remove` calls plus pointer fix-ups — no scanning.
//!
//! ## Intrusive payload slots
//!
//! Beyond `mirror`, every half-edge carries one intrusive `payload` slot
//! implementing the paper's "a pointer to v ∈ I(u) is recorded in edge
//! (v, u)": a vertex `u` may *mark* some of its half-edges, and the graph
//! maintains, per vertex, the dense list of marked adjacency positions
//! (`marked[u]`) together with each marked half-edge's index inside that
//! list (the payload). Both directions are repaired through the same
//! `swap_remove` fix-ups that keep `mirror` pointers valid, so the
//! maintenance framework gets O(1) insert/remove/iterate over `I(u)` —
//! the set of solution neighbors of `u` — with **zero hash-map probes**.
//!
//! A global hash index (vertex pair → half-edge position) still locates an
//! arbitrary edge in O(1), but it is consulted only by the *entry points*
//! that receive an edge as a vertex pair ([`DynamicGraph::has_edge`],
//! [`DynamicGraph::remove_edge`], [`DynamicGraph::edge_handle`]) — never
//! by the per-neighbor inner loops, which speak [`EdgeHandle`] positions.

use crate::error::GraphError;
use crate::hash::{pair_key, FxHashMap};
use crate::Result;

/// Dense vertex identifier. Ids of removed vertices are recycled.
pub type VertexId = u32;

/// Sentinel for "this half-edge is not marked".
const NO_PAYLOAD: u32 = u32::MAX;

/// One directed half of an undirected edge.
#[derive(Debug, Clone, Copy)]
struct AdjEntry {
    /// The other endpoint.
    neighbor: u32,
    /// Index of the reciprocal half-edge inside `adj[neighbor]`.
    mirror: u32,
    /// Index of this half-edge inside `marked[owner]`, or [`NO_PAYLOAD`].
    /// This is the intrusive slot the maintenance framework uses to keep
    /// the position of `neighbor ∈ I(owner)` — "recorded in the edge".
    payload: u32,
}

/// Resolved positions of one undirected edge `(u, v)`: the index of the
/// `u → v` half-edge inside `adj[u]` and of `v → u` inside `adj[v]`.
///
/// Handles are obtained from [`DynamicGraph::edge_handle`] (one hash
/// probe) or [`DynamicGraph::insert_edge_handle`] (no extra probe beyond
/// the insertion itself) and stay valid until the next *removal* touching
/// either endpoint's adjacency list (insertions only append).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeHandle {
    /// First endpoint (as passed to the resolving call).
    pub u: VertexId,
    /// Second endpoint.
    pub v: VertexId,
    /// Position of the `u → v` half-edge in `adj[u]`.
    pub pos_u: u32,
    /// Position of the `v → u` half-edge in `adj[v]`.
    pub pos_v: u32,
}

/// An unweighted, undirected, simple graph under fully dynamic updates.
///
/// # Example
/// ```
/// use dynamis_graph::DynamicGraph;
/// let mut g = DynamicGraph::new();
/// let a = g.add_vertex();
/// let b = g.add_vertex();
/// let c = g.add_vertex();
/// g.insert_edge(a, b).unwrap();
/// g.insert_edge(b, c).unwrap();
/// assert_eq!(g.degree(b), 2);
/// g.remove_edge(a, b).unwrap();
/// assert!(!g.has_edge(a, b));
/// ```
#[derive(Debug, Clone, Default)]
pub struct DynamicGraph {
    adj: Vec<Vec<AdjEntry>>,
    /// `marked[u]` — adjacency positions of u's marked half-edges, in
    /// arbitrary order. The payload slot of `adj[u][marked[u][j]]` is `j`.
    marked: Vec<Vec<u32>>,
    alive: Vec<bool>,
    free: Vec<u32>,
    /// pair_key(u, v) → position of the half-edge stored in `adj[min(u, v)]`.
    /// Entry-point index only; the update inner loops never consult it.
    edges: FxHashMap<u64, u32>,
    n_alive: usize,
}

impl DynamicGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty graph with space reserved for `n` vertices.
    pub fn with_capacity(n: usize) -> Self {
        DynamicGraph {
            adj: Vec::with_capacity(n),
            marked: Vec::with_capacity(n),
            alive: Vec::with_capacity(n),
            free: Vec::new(),
            edges: FxHashMap::default(),
            n_alive: 0,
        }
    }

    /// Builds a graph with vertices `0..n` and the given undirected edges.
    /// Duplicate edges and self-loops are skipped (documented tolerance);
    /// any *other* insertion failure — e.g. an endpoint `≥ n` — is a bug
    /// in the caller and trips a debug assertion.
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Self {
        let mut g = Self::with_capacity(n);
        g.add_vertices(n);
        for &(u, v) in edges {
            if u == v {
                continue; // self-loop: documented skip
            }
            match g.insert_edge(u, v) {
                Ok(_) => {} // Ok(false) = duplicate: documented skip
                Err(e) => debug_assert!(false, "from_edges(({u}, {v})): {e}"),
            }
        }
        g
    }

    /// Number of live vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.n_alive
    }

    /// Number of edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Number of vertex slots ever allocated (live ids are `< capacity`).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.adj.len()
    }

    /// Whether `v` is a live vertex.
    #[inline]
    pub fn is_alive(&self, v: VertexId) -> bool {
        (v as usize) < self.alive.len() && self.alive[v as usize]
    }

    #[inline]
    fn check_alive(&self, v: VertexId) -> Result<()> {
        if self.is_alive(v) {
            Ok(())
        } else {
            Err(GraphError::VertexNotFound(v))
        }
    }

    /// The id the next [`DynamicGraph::add_vertex`] call will return —
    /// a freed slot if one exists, otherwise a fresh one. Lets stream
    /// consumers detect an id-allocation divergence *before* mutating
    /// (see [`GraphError::IdMismatch`]).
    #[inline]
    pub fn next_vertex_id(&self) -> VertexId {
        self.free.last().copied().unwrap_or(self.adj.len() as u32)
    }

    /// Freed vertex slots in recycling order: the last one is the next
    /// id [`DynamicGraph::add_vertex`] hands out.
    pub(crate) fn free_slots(&self) -> &[VertexId] {
        &self.free
    }

    /// Replaces the free-slot stack. Every entry must be a dead slot,
    /// listed once; the binary decoder checks both before calling.
    pub(crate) fn set_free_slots(&mut self, free: Vec<VertexId>) {
        debug_assert!(free
            .iter()
            .all(|&v| !self.is_alive(v) && (v as usize) < self.capacity()));
        self.free = free;
    }

    /// Adds a vertex, recycling a freed slot when possible.
    pub fn add_vertex(&mut self) -> VertexId {
        self.n_alive += 1;
        if let Some(v) = self.free.pop() {
            self.alive[v as usize] = true;
            v
        } else {
            let v = self.adj.len() as u32;
            self.adj.push(Vec::new());
            self.marked.push(Vec::new());
            self.alive.push(true);
            v
        }
    }

    /// Adds `count` vertices, returning the id of the first one added when
    /// the graph had no freed slots (ids are then contiguous).
    pub fn add_vertices(&mut self, count: usize) -> VertexId {
        let first = if let Some(&f) = self.free.last() {
            f
        } else {
            self.adj.len() as u32
        };
        for _ in 0..count {
            self.add_vertex();
        }
        first
    }

    /// Ensures ids `0..=v` exist and that `v` is alive. Used by bulk loaders
    /// that read explicit vertex ids.
    pub fn ensure_vertex(&mut self, v: VertexId) {
        while self.adj.len() <= v as usize {
            self.adj.push(Vec::new());
            self.marked.push(Vec::new());
            self.alive.push(false);
        }
        if !self.alive[v as usize] {
            self.alive[v as usize] = true;
            self.n_alive += 1;
            self.free.retain(|&f| f != v);
        }
    }

    /// Removes `v` and all incident edges, returning its former neighbors.
    ///
    /// Any marks involving `v` — marks `v` held on its own half-edges and
    /// marks its neighbors held on their half-edges to `v` — are dropped.
    pub fn remove_vertex(&mut self, v: VertexId) -> Result<Vec<VertexId>> {
        self.check_alive(v)?;
        let entries = std::mem::take(&mut self.adj[v as usize]);
        self.marked[v as usize].clear();
        let mut former = Vec::with_capacity(entries.len());
        // Drop the reciprocal half of each incident edge. Positions recorded
        // in `entries` stay valid because we only mutate other vertices'
        // lists, and each list holds at most one edge to `v`.
        for e in &entries {
            former.push(e.neighbor);
            self.edges.remove(&pair_key(v, e.neighbor));
            self.remove_half(e.neighbor, e.mirror as usize);
        }
        self.alive[v as usize] = false;
        self.free.push(v);
        self.n_alive -= 1;
        Ok(former)
    }

    /// Inserts the undirected edge `(u, v)`.
    ///
    /// Returns `Ok(true)` if the edge was new, `Ok(false)` if it already
    /// existed.
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId) -> Result<bool> {
        self.insert_edge_handle(u, v).map(|h| h.is_some())
    }

    /// Inserts the undirected edge `(u, v)`, returning the handle of the
    /// freshly inserted edge — `None` if the edge already existed.
    ///
    /// This is the hot-path insertion entry point: the caller gets the
    /// half-edge positions without a second index probe.
    pub fn insert_edge_handle(&mut self, u: VertexId, v: VertexId) -> Result<Option<EdgeHandle>> {
        if u == v {
            return Err(GraphError::SelfLoop(u));
        }
        self.check_alive(u)?;
        self.check_alive(v)?;
        let key = pair_key(u, v);
        if self.edges.contains_key(&key) {
            return Ok(None);
        }
        let pu = self.adj[u as usize].len() as u32;
        let pv = self.adj[v as usize].len() as u32;
        self.adj[u as usize].push(AdjEntry {
            neighbor: v,
            mirror: pv,
            payload: NO_PAYLOAD,
        });
        self.adj[v as usize].push(AdjEntry {
            neighbor: u,
            mirror: pu,
            payload: NO_PAYLOAD,
        });
        let a_pos = if u < v { pu } else { pv };
        self.edges.insert(key, a_pos);
        Ok(Some(EdgeHandle {
            u,
            v,
            pos_u: pu,
            pos_v: pv,
        }))
    }

    /// Resolves the edge `(u, v)` to its half-edge positions with a single
    /// index probe. `None` if the edge does not exist (or `u == v`).
    pub fn edge_handle(&self, u: VertexId, v: VertexId) -> Option<EdgeHandle> {
        if u == v {
            return None;
        }
        let &pos_a = self.edges.get(&pair_key(u, v))?;
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        let pos_b = self.adj[a as usize][pos_a as usize].mirror;
        debug_assert_eq!(self.adj[a as usize][pos_a as usize].neighbor, b);
        let (pos_u, pos_v) = if u < v {
            (pos_a, pos_b)
        } else {
            (pos_b, pos_a)
        };
        Some(EdgeHandle { u, v, pos_u, pos_v })
    }

    /// Removes the undirected edge `(u, v)`.
    ///
    /// Returns `Ok(true)` if the edge existed, `Ok(false)` otherwise.
    pub fn remove_edge(&mut self, u: VertexId, v: VertexId) -> Result<bool> {
        if u == v {
            return Err(GraphError::SelfLoop(u));
        }
        self.check_alive(u)?;
        self.check_alive(v)?;
        let Some(h) = self.edge_handle(u, v) else {
            return Ok(false);
        };
        self.remove_edge_at(h);
        Ok(true)
    }

    /// Removes the edge a previously resolved handle points at. The handle
    /// must be *fresh*: obtained after the last removal touching either
    /// endpoint (checked in debug builds).
    ///
    /// Any marks on the two half-edges are dropped.
    pub fn remove_edge_at(&mut self, h: EdgeHandle) {
        debug_assert_eq!(self.adj[h.u as usize][h.pos_u as usize].neighbor, h.v);
        debug_assert_eq!(self.adj[h.v as usize][h.pos_v as usize].neighbor, h.u);
        self.edges.remove(&pair_key(h.u, h.v));
        // A simple graph holds exactly one u–v edge, so the fix-up performed
        // by the first removal can never touch the half-edge removed second.
        self.remove_half(h.u, h.pos_u as usize);
        self.remove_half(h.v, h.pos_v as usize);
    }

    /// `swap_remove`s `adj[x][pos]`, repairing the mirror pointer, payload
    /// slot, and edge index of whichever half-edge got moved into the hole.
    /// A mark on the removed half-edge itself is dropped first.
    fn remove_half(&mut self, x: VertexId, pos: usize) {
        if self.adj[x as usize][pos].payload != NO_PAYLOAD {
            self.unmark_neighbor(x, pos as u32);
        }
        let list = &mut self.adj[x as usize];
        list.swap_remove(pos);
        if pos < list.len() {
            let moved = list[pos];
            self.adj[moved.neighbor as usize][moved.mirror as usize].mirror = pos as u32;
            if moved.payload != NO_PAYLOAD {
                // Keep the intrusive back-pointer fresh: the moved
                // half-edge's record in marked[x] must follow it.
                self.marked[x as usize][moved.payload as usize] = pos as u32;
            }
            if x < moved.neighbor {
                // The edge index references positions in the smaller
                // endpoint's list only.
                self.edges.insert(pair_key(x, moved.neighbor), pos as u32);
            }
        }
    }

    /// Marks the half-edge `adj[u][pos]`, registering its neighbor in
    /// `marked(u)` — O(1), no hashing. The half-edge must be unmarked.
    #[inline]
    pub fn mark_neighbor(&mut self, u: VertexId, pos: u32) {
        let entry = &mut self.adj[u as usize][pos as usize];
        debug_assert_eq!(entry.payload, NO_PAYLOAD, "half-edge already marked");
        entry.payload = self.marked[u as usize].len() as u32;
        self.marked[u as usize].push(pos);
    }

    /// Unmarks the half-edge `adj[u][pos]` — O(1), no hashing. The
    /// half-edge must be marked.
    #[inline]
    pub fn unmark_neighbor(&mut self, u: VertexId, pos: u32) {
        let entry = &mut self.adj[u as usize][pos as usize];
        let j = entry.payload as usize;
        debug_assert_ne!(entry.payload, NO_PAYLOAD, "half-edge not marked");
        entry.payload = NO_PAYLOAD;
        let list = &mut self.marked[u as usize];
        list.swap_remove(j);
        if j < list.len() {
            let moved_pos = list[j];
            self.adj[u as usize][moved_pos as usize].payload = j as u32;
        }
    }

    /// Whether the half-edge `adj[u][pos]` is marked.
    #[inline]
    pub fn is_marked(&self, u: VertexId, pos: u32) -> bool {
        self.adj[u as usize][pos as usize].payload != NO_PAYLOAD
    }

    /// Number of marked neighbors of `u` — `|I(u)|` in framework terms.
    #[inline]
    pub fn marked_count(&self, u: VertexId) -> usize {
        self.marked[u as usize].len()
    }

    /// The `j`-th marked neighbor of `u` (arbitrary but stable order
    /// between mutations).
    #[inline]
    pub fn marked_neighbor(&self, u: VertexId, j: usize) -> VertexId {
        let pos = self.marked[u as usize][j];
        self.adj[u as usize][pos as usize].neighbor
    }

    /// Iterates the marked neighbors of `u`.
    #[inline]
    pub fn marked_neighbors(&self, u: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.marked[u as usize]
            .iter()
            .map(move |&pos| self.adj[u as usize][pos as usize].neighbor)
    }

    /// Clears every mark `u` holds (O(marked_count(u)), allocation kept).
    pub fn clear_vertex_marks(&mut self, u: VertexId) {
        let (adj, marked) = (&mut self.adj[u as usize], &mut self.marked[u as usize]);
        for &pos in marked.iter() {
            adj[pos as usize].payload = NO_PAYLOAD;
        }
        marked.clear();
    }

    /// Clears every mark in the graph (O(total marks)). Engines call this
    /// before adopting a graph whose previous owner left marks behind
    /// (e.g. a cloned snapshot).
    pub fn clear_marks(&mut self) {
        for u in 0..self.adj.len() as u32 {
            self.clear_vertex_marks(u);
        }
    }

    /// O(1) edge existence test (one index probe).
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        u != v && self.edges.contains_key(&pair_key(u, v))
    }

    /// Degree of `v` (0 for dead vertices).
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.adj.get(v as usize).map_or(0, Vec::len)
    }

    /// Iterates the open neighborhood `N(v)`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.adj
            .get(v as usize)
            .into_iter()
            .flatten()
            .map(|e| e.neighbor)
    }

    /// Iterates `(neighbor, mirror)` pairs of `v`'s half-edges: `mirror`
    /// is the position of the reciprocal half-edge inside
    /// `adj[neighbor]` — i.e. a ready-made half-edge handle on the
    /// neighbor's side. This is the hot-loop iterator engines use to
    /// reach each neighbor's intrusive slot without hashing.
    #[inline]
    pub fn half_edges(&self, v: VertexId) -> impl Iterator<Item = (VertexId, u32)> + '_ {
        self.adj
            .get(v as usize)
            .into_iter()
            .flatten()
            .map(|e| (e.neighbor, e.mirror))
    }

    /// Random access into the adjacency of `v` (hot-loop helper).
    #[inline]
    pub fn neighbor_at(&self, v: VertexId, i: usize) -> VertexId {
        self.adj[v as usize][i].neighbor
    }

    /// Iterates all live vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.alive
            .iter()
            .enumerate()
            .filter(|(_, &a)| a)
            .map(|(i, _)| i as u32)
    }

    /// Iterates all edges as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.edges.keys().map(|&k| crate::hash::unpack_pair(k))
    }

    /// Maximum degree Δ over live vertices (O(n) scan).
    pub fn max_degree(&self) -> usize {
        self.vertices().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Average degree d̄ = 2m / n.
    pub fn avg_degree(&self) -> f64 {
        if self.n_alive == 0 {
            0.0
        } else {
            2.0 * self.num_edges() as f64 / self.n_alive as f64
        }
    }

    /// Approximate heap footprint in bytes (adjacency — including the
    /// intrusive payload slots — plus marked lists and the edge index).
    pub fn heap_bytes(&self) -> usize {
        let adj: usize = self
            .adj
            .iter()
            .map(|l| l.capacity() * std::mem::size_of::<AdjEntry>())
            .sum();
        let marked: usize = self.marked.iter().map(|l| l.capacity() * 4).sum();
        adj + marked
            + self.adj.capacity() * std::mem::size_of::<Vec<AdjEntry>>()
            + self.marked.capacity() * std::mem::size_of::<Vec<u32>>()
            + self.alive.capacity()
            + self.edges.capacity() * (std::mem::size_of::<(u64, u32)>() + 8)
    }

    /// Exhaustive internal-consistency check. Test/debug use only: O(n + m).
    ///
    /// Verifies that mirror pointers are reciprocal, payload slots and
    /// marked lists are mutually consistent, the edge index matches the
    /// adjacency lists, dead vertices have no edges, and the half-edge
    /// count is exactly `2m`.
    pub fn check_consistency(&self) -> std::result::Result<(), String> {
        let mut half_edges = 0usize;
        let mut marks = 0usize;
        for v in 0..self.adj.len() as u32 {
            if !self.alive[v as usize] && !self.adj[v as usize].is_empty() {
                return Err(format!("dead vertex {v} still has edges"));
            }
            if !self.alive[v as usize] && !self.marked[v as usize].is_empty() {
                return Err(format!("dead vertex {v} still has marks"));
            }
            for (i, e) in self.adj[v as usize].iter().enumerate() {
                half_edges += 1;
                let back = &self.adj[e.neighbor as usize]
                    .get(e.mirror as usize)
                    .ok_or_else(|| format!("mirror of ({v},{}) out of range", e.neighbor))?;
                if back.neighbor != v || back.mirror as usize != i {
                    return Err(format!("mirror mismatch on edge ({v},{})", e.neighbor));
                }
                if e.payload != NO_PAYLOAD {
                    marks += 1;
                    let slot = self.marked[v as usize].get(e.payload as usize);
                    if slot != Some(&(i as u32)) {
                        return Err(format!(
                            "payload of half-edge ({v},{}) does not point back: \
                             payload {} vs marked {:?}",
                            e.neighbor, e.payload, slot
                        ));
                    }
                }
                let key = pair_key(v, e.neighbor);
                let &pos = self
                    .edges
                    .get(&key)
                    .ok_or_else(|| format!("edge ({v},{}) missing from index", e.neighbor))?;
                let a = v.min(e.neighbor);
                let stored = &self.adj[a as usize][pos as usize];
                if stored.neighbor != v.max(e.neighbor) {
                    return Err(format!("index position stale for ({v},{})", e.neighbor));
                }
            }
            for (j, &pos) in self.marked[v as usize].iter().enumerate() {
                let entry = self.adj[v as usize]
                    .get(pos as usize)
                    .ok_or_else(|| format!("marked[{v}][{j}] = {pos} out of adjacency range"))?;
                if entry.payload as usize != j {
                    return Err(format!(
                        "marked[{v}][{j}] -> pos {pos} whose payload is {}",
                        entry.payload
                    ));
                }
            }
        }
        if half_edges != 2 * self.edges.len() {
            return Err(format!(
                "half-edge count {half_edges} != 2m = {}",
                2 * self.edges.len()
            ));
        }
        let marked_total: usize = self.marked.iter().map(Vec::len).sum();
        if marks != marked_total {
            return Err(format!(
                "payload mark count {marks} != marked-list total {marked_total}"
            ));
        }
        if self.alive.iter().filter(|&&a| a).count() != self.n_alive {
            return Err("n_alive counter out of sync".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> DynamicGraph {
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        DynamicGraph::from_edges(n, &edges)
    }

    #[test]
    fn empty_graph() {
        let g = DynamicGraph::new();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
        g.check_consistency().unwrap();
    }

    #[test]
    fn insert_and_query_edges() {
        let mut g = DynamicGraph::new();
        g.add_vertices(4);
        assert!(g.insert_edge(0, 1).unwrap());
        assert!(!g.insert_edge(1, 0).unwrap(), "duplicate rejected");
        assert!(g.insert_edge(1, 2).unwrap());
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(2, 1));
        assert!(!g.has_edge(0, 2));
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.degree(1), 2);
        g.check_consistency().unwrap();
    }

    #[test]
    fn self_loop_rejected() {
        let mut g = DynamicGraph::new();
        g.add_vertex();
        assert_eq!(g.insert_edge(0, 0), Err(GraphError::SelfLoop(0)));
        assert_eq!(g.remove_edge(0, 0), Err(GraphError::SelfLoop(0)));
    }

    #[test]
    fn dead_vertex_rejected() {
        let mut g = DynamicGraph::new();
        g.add_vertices(2);
        assert_eq!(g.insert_edge(0, 5), Err(GraphError::VertexNotFound(5)));
        g.remove_vertex(1).unwrap();
        assert_eq!(g.insert_edge(0, 1), Err(GraphError::VertexNotFound(1)));
    }

    #[test]
    fn remove_edge_fixes_mirrors() {
        let mut g = DynamicGraph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)]);
        assert!(g.remove_edge(0, 1).unwrap());
        assert!(!g.remove_edge(0, 1).unwrap(), "already gone");
        g.check_consistency().unwrap();
        assert_eq!(g.degree(0), 3);
        // Removing the first entry forces a swap_remove fix-up.
        assert!(g.remove_edge(0, 2).unwrap());
        g.check_consistency().unwrap();
        assert!(g.has_edge(1, 2));
    }

    #[test]
    fn remove_vertex_clears_incident_edges() {
        let mut g = DynamicGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2)]);
        let mut former = g.remove_vertex(0).unwrap();
        former.sort_unstable();
        assert_eq!(former, vec![1, 2, 3]);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.num_vertices(), 3);
        assert!(!g.is_alive(0));
        g.check_consistency().unwrap();
    }

    #[test]
    fn vertex_ids_are_recycled() {
        let mut g = DynamicGraph::new();
        g.add_vertices(3);
        g.remove_vertex(1).unwrap();
        let v = g.add_vertex();
        assert_eq!(v, 1, "freed slot is reused");
        assert_eq!(g.num_vertices(), 3);
        g.check_consistency().unwrap();
    }

    #[test]
    fn ensure_vertex_extends_and_revives() {
        let mut g = DynamicGraph::new();
        g.ensure_vertex(5);
        assert!(g.is_alive(5));
        assert!(!g.is_alive(3));
        assert_eq!(g.num_vertices(), 1);
        g.ensure_vertex(3);
        assert_eq!(g.num_vertices(), 2);
        g.insert_edge(3, 5).unwrap();
        g.check_consistency().unwrap();
    }

    #[test]
    fn neighbors_iteration_matches_degree() {
        let g = path(6);
        for v in g.vertices() {
            assert_eq!(g.neighbors(v).count(), g.degree(v));
        }
        let mid: Vec<u32> = g.neighbors(3).collect();
        assert_eq!(mid.len(), 2);
        assert!(mid.contains(&2) && mid.contains(&4));
    }

    #[test]
    fn edges_iterator_is_canonical() {
        let g = DynamicGraph::from_edges(4, &[(3, 1), (2, 0)]);
        let mut es: Vec<_> = g.edges().collect();
        es.sort_unstable();
        assert_eq!(es, vec![(0, 2), (1, 3)]);
    }

    #[test]
    fn stats() {
        let g = path(5);
        assert_eq!(g.max_degree(), 2);
        assert!((g.avg_degree() - 1.6).abs() < 1e-9);
        assert!(g.heap_bytes() > 0);
    }

    #[test]
    fn edge_handles_resolve_both_sides() {
        let mut g = DynamicGraph::new();
        g.add_vertices(3);
        let h = g.insert_edge_handle(2, 0).unwrap().unwrap();
        assert_eq!((h.u, h.v), (2, 0));
        assert_eq!(g.neighbor_at(2, h.pos_u as usize), 0);
        assert_eq!(g.neighbor_at(0, h.pos_v as usize), 2);
        assert!(g.insert_edge_handle(0, 2).unwrap().is_none(), "duplicate");
        let r = g.edge_handle(0, 2).unwrap();
        assert_eq!((r.u, r.v), (0, 2));
        assert_eq!(g.neighbor_at(0, r.pos_u as usize), 2);
        assert_eq!(g.neighbor_at(2, r.pos_v as usize), 0);
        assert!(g.edge_handle(0, 1).is_none());
        assert!(g.edge_handle(1, 1).is_none());
    }

    #[test]
    fn remove_edge_at_handle() {
        let mut g = DynamicGraph::from_edges(4, &[(0, 1), (0, 2), (1, 2)]);
        let h = g.edge_handle(0, 1).unwrap();
        g.remove_edge_at(h);
        assert!(!g.has_edge(0, 1));
        assert_eq!(g.num_edges(), 2);
        g.check_consistency().unwrap();
    }

    #[test]
    fn marks_survive_unrelated_removals() {
        // Mark 0's half-edges to 2 and 4, then delete other edges of 0,
        // forcing swap_remove relocations through the marked entries.
        let mut g = DynamicGraph::from_edges(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]);
        let h2 = g.edge_handle(0, 2).unwrap();
        let h4 = g.edge_handle(0, 4).unwrap();
        g.mark_neighbor(0, h2.pos_u);
        g.mark_neighbor(0, h4.pos_u);
        assert_eq!(g.marked_count(0), 2);
        g.check_consistency().unwrap();
        g.remove_edge(0, 1).unwrap(); // relocates (0,5) into slot 0
        g.remove_edge(0, 3).unwrap(); // relocates a marked entry
        g.check_consistency().unwrap();
        let mut ms: Vec<u32> = g.marked_neighbors(0).collect();
        ms.sort_unstable();
        assert_eq!(ms, vec![2, 4], "marks follow relocated half-edges");
    }

    #[test]
    fn removing_marked_edge_drops_the_mark() {
        let mut g = DynamicGraph::from_edges(3, &[(0, 1), (0, 2)]);
        let h = g.edge_handle(0, 1).unwrap();
        g.mark_neighbor(0, h.pos_u);
        g.remove_edge(0, 1).unwrap();
        assert_eq!(g.marked_count(0), 0);
        g.check_consistency().unwrap();
    }

    #[test]
    fn remove_vertex_drops_reciprocal_marks() {
        // 1 marks its edge to 0; removing 0 must unmark it.
        let mut g = DynamicGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let h = g.edge_handle(1, 0).unwrap();
        g.mark_neighbor(1, h.pos_u);
        let h2 = g.edge_handle(0, 1).unwrap();
        g.mark_neighbor(0, h2.pos_u); // 0's own mark dies with it
        g.remove_vertex(0).unwrap();
        assert_eq!(g.marked_count(1), 0);
        g.check_consistency().unwrap();
    }

    #[test]
    fn mark_unmark_round_trip_keeps_payload_dense() {
        let mut g = DynamicGraph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        for v in [1u32, 2, 3, 4] {
            let h = g.edge_handle(0, v).unwrap();
            g.mark_neighbor(0, h.pos_u);
        }
        assert_eq!(g.marked_count(0), 4);
        // Unmark the middle one: swap_remove must repair the moved slot.
        let h = g.edge_handle(0, 2).unwrap();
        g.unmark_neighbor(0, h.pos_u);
        assert!(!g.is_marked(0, h.pos_u));
        g.check_consistency().unwrap();
        let mut ms: Vec<u32> = g.marked_neighbors(0).collect();
        ms.sort_unstable();
        assert_eq!(ms, vec![1, 3, 4]);
        assert_eq!(g.marked_neighbor(0, 0), {
            let pos = g.marked[0][0];
            g.neighbor_at(0, pos as usize)
        });
    }

    #[test]
    fn clear_marks_resets_everything() {
        let mut g = DynamicGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let h = g.edge_handle(1, 0).unwrap();
        g.mark_neighbor(1, h.pos_u);
        let h = g.edge_handle(2, 3).unwrap();
        g.mark_neighbor(2, h.pos_u);
        g.clear_marks();
        assert_eq!(g.marked_count(1) + g.marked_count(2), 0);
        g.check_consistency().unwrap();
    }

    #[test]
    fn half_edges_yield_valid_reciprocal_handles() {
        let g = DynamicGraph::from_edges(5, &[(0, 1), (0, 2), (2, 3), (2, 4)]);
        for v in g.vertices() {
            for (n, mirror) in g.half_edges(v) {
                assert_eq!(g.neighbor_at(n, mirror as usize), v);
            }
        }
    }

    #[test]
    fn interleaved_update_stress() {
        // Deterministic pseudo-random interleaving of all four op kinds
        // plus mark/unmark churn, checked against full consistency after
        // every batch.
        let mut g = DynamicGraph::new();
        g.add_vertices(40);
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..2000u32 {
            let op = rng() % 100;
            let cap = g.capacity() as u64;
            if op < 40 {
                let (u, v) = ((rng() % cap) as u32, (rng() % cap) as u32);
                if u != v && g.is_alive(u) && g.is_alive(v) {
                    g.insert_edge(u, v).unwrap();
                }
            } else if op < 70 {
                let (u, v) = ((rng() % cap) as u32, (rng() % cap) as u32);
                if u != v && g.is_alive(u) && g.is_alive(v) {
                    g.remove_edge(u, v).unwrap();
                }
            } else if op < 80 {
                let v = (rng() % cap) as u32;
                if g.is_alive(v) && g.num_vertices() > 2 {
                    g.remove_vertex(v).unwrap();
                }
            } else if op < 90 {
                // Toggle the mark on a random half-edge.
                let v = (rng() % cap) as u32;
                if g.is_alive(v) && g.degree(v) > 0 {
                    let pos = (rng() % g.degree(v) as u64) as u32;
                    if g.is_marked(v, pos) {
                        g.unmark_neighbor(v, pos);
                    } else {
                        g.mark_neighbor(v, pos);
                    }
                }
            } else {
                g.add_vertex();
            }
            if round % 101 == 0 {
                g.check_consistency().unwrap();
            }
        }
        g.check_consistency().unwrap();
    }
}
