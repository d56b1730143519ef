//! Seeded update-stream generation.
//!
//! The paper's experiments "randomly insert/remove a predetermined number
//! of vertices/edges to simulate the update operations" (§V-A). The
//! [`UpdateStream`] maintains a shadow copy of the evolving graph so every
//! emitted operation is valid at the moment it is applied: edge insertions
//! never duplicate, deletions always hit existing edges, and inserted
//! vertex ids match what the consumer's own [`DynamicGraph`] will allocate
//! when the operations are replayed in order.

use dynamis_graph::collections::IndexedBag;
use dynamis_graph::hash::{pair_key, unpack_pair, FxHashMap};
use dynamis_graph::DynamicGraph;
use rand::rngs::SmallRng;
use rand::Rng;

pub use dynamis_graph::update::{apply_update, Update};

/// Relative operation weights plus the degree given to inserted vertices.
#[derive(Debug, Clone, Copy)]
pub struct StreamConfig {
    /// Weight of edge insertions.
    pub edge_insert: u32,
    /// Weight of edge deletions.
    pub edge_delete: u32,
    /// Weight of vertex insertions.
    pub vertex_insert: u32,
    /// Weight of vertex deletions.
    pub vertex_delete: u32,
    /// Number of edges attached to a newly inserted vertex
    /// (0 = use the graph's rounded average degree, re-read at stream
    /// construction).
    pub new_vertex_degree: usize,
}

impl Default for StreamConfig {
    /// The paper's default workload is edge-dominated with a small share of
    /// vertex churn.
    fn default() -> Self {
        StreamConfig {
            edge_insert: 45,
            edge_delete: 45,
            vertex_insert: 5,
            vertex_delete: 5,
            new_vertex_degree: 0,
        }
    }
}

impl StreamConfig {
    /// Pure edge workload (insertions and deletions only).
    pub fn edges_only() -> Self {
        StreamConfig {
            edge_insert: 50,
            edge_delete: 50,
            vertex_insert: 0,
            vertex_delete: 0,
            new_vertex_degree: 0,
        }
    }

    /// Growth-only workload (no deletions) — models the "new links are
    /// constantly established" scenario of the introduction.
    pub fn insert_only() -> Self {
        StreamConfig {
            edge_insert: 90,
            edge_delete: 0,
            vertex_insert: 10,
            vertex_delete: 0,
            new_vertex_degree: 0,
        }
    }

    fn total(&self) -> u32 {
        self.edge_insert + self.edge_delete + self.vertex_insert + self.vertex_delete
    }
}

/// Generator of valid update operations against an evolving shadow graph.
pub struct UpdateStream {
    shadow: DynamicGraph,
    cfg: StreamConfig,
    rng: SmallRng,
    /// Current edges as packed pair keys, for O(1) uniform sampling.
    edge_vec: Vec<u64>,
    edge_pos: FxHashMap<u64, u32>,
    alive: IndexedBag,
    new_vertex_degree: usize,
}

impl UpdateStream {
    /// Builds a stream over a copy of `start`.
    pub fn new(start: &DynamicGraph, cfg: StreamConfig, seed: u64) -> Self {
        assert!(cfg.total() > 0, "at least one operation weight must be set");
        // The deletion sampler draws from `edge_vec` by index, so this
        // initial order fixes every seeded stream (pinned by
        // `crates/gen/tests/stream_pins.rs`). Number the edges in
        // `edge_pos`'s iteration order rather than in `start.edges()`
        // order: for a graph built by inserting its edges in ascending
        // order with no removal, as `chung_lu` builds the benchmark's
        // graphs, that is the order the pinned streams were recorded in.
        let mut edge_pos = FxHashMap::default();
        for (u, v) in start.edges() {
            edge_pos.insert(pair_key(u, v), 0);
        }
        let mut edge_vec = Vec::with_capacity(edge_pos.len());
        for (i, (&k, pos)) in edge_pos.iter_mut().enumerate() {
            *pos = i as u32;
            edge_vec.push(k);
        }
        let mut alive = IndexedBag::with_capacity(start.capacity());
        for v in start.vertices() {
            alive.insert(v);
        }
        let auto_deg = start.avg_degree().round().max(1.0) as usize;
        UpdateStream {
            shadow: start.clone(),
            cfg,
            rng: crate::rng(seed),
            edge_vec,
            edge_pos,
            alive,
            new_vertex_degree: if cfg.new_vertex_degree == 0 {
                auto_deg
            } else {
                cfg.new_vertex_degree
            },
        }
    }

    /// Shadow view of the graph state after all emitted updates.
    pub fn shadow(&self) -> &DynamicGraph {
        &self.shadow
    }

    fn record_edge(&mut self, u: u32, v: u32) {
        let k = pair_key(u, v);
        self.edge_pos.insert(k, self.edge_vec.len() as u32);
        self.edge_vec.push(k);
    }

    fn erase_edge(&mut self, u: u32, v: u32) {
        let k = pair_key(u, v);
        if let Some(p) = self.edge_pos.remove(&k) {
            self.edge_vec.swap_remove(p as usize);
            if (p as usize) < self.edge_vec.len() {
                let moved = self.edge_vec[p as usize];
                self.edge_pos.insert(moved, p);
            }
        }
    }

    fn random_alive(&mut self) -> Option<u32> {
        if self.alive.is_empty() {
            return None;
        }
        let i = self.rng.gen_range(0..self.alive.len());
        Some(self.alive.as_slice()[i])
    }

    fn try_edge_insert(&mut self) -> Option<Update> {
        let n = self.alive.len();
        if n < 2 {
            return None;
        }
        for _ in 0..64 {
            let u = self.random_alive()?;
            let v = self.random_alive()?;
            if u != v && !self.shadow.has_edge(u, v) {
                self.shadow.insert_edge(u, v).unwrap();
                self.record_edge(u, v);
                return Some(Update::InsertEdge(u, v));
            }
        }
        None
    }

    fn try_edge_delete(&mut self) -> Option<Update> {
        if self.edge_vec.is_empty() {
            return None;
        }
        let i = self.rng.gen_range(0..self.edge_vec.len());
        let (u, v) = unpack_pair(self.edge_vec[i]);
        self.shadow.remove_edge(u, v).unwrap();
        self.erase_edge(u, v);
        Some(Update::RemoveEdge(u, v))
    }

    fn try_vertex_insert(&mut self) -> Option<Update> {
        let want = self.new_vertex_degree.min(self.alive.len());
        let mut neighbors = Vec::with_capacity(want);
        for _ in 0..64 * want.max(1) {
            if neighbors.len() == want {
                break;
            }
            if let Some(u) = self.random_alive() {
                if !neighbors.contains(&u) {
                    neighbors.push(u);
                }
            } else {
                break;
            }
        }
        let id = self.shadow.add_vertex();
        self.alive.insert(id);
        for &u in &neighbors {
            self.shadow.insert_edge(id, u).unwrap();
            self.record_edge(id, u);
        }
        Some(Update::InsertVertex { id, neighbors })
    }

    fn try_vertex_delete(&mut self) -> Option<Update> {
        if self.alive.len() <= 2 {
            return None;
        }
        let v = self.random_alive()?;
        let former = self.shadow.remove_vertex(v).unwrap();
        for u in former {
            self.erase_edge(v, u);
        }
        self.alive.remove(v);
        Some(Update::RemoveVertex(v))
    }

    /// Emits the next update. Falls back across operation kinds when the
    /// sampled kind is momentarily impossible (e.g. deleting from an
    /// edgeless graph), so a stream never stalls on a non-degenerate graph.
    pub fn next_update(&mut self) -> Update {
        let roll = self.rng.gen_range(0..self.cfg.total());
        let ei = self.cfg.edge_insert;
        let ed = ei + self.cfg.edge_delete;
        let vi = ed + self.cfg.vertex_insert;
        let order: [u8; 4] = if roll < ei {
            [0, 1, 2, 3]
        } else if roll < ed {
            [1, 0, 3, 2]
        } else if roll < vi {
            [2, 0, 1, 3]
        } else {
            [3, 1, 0, 2]
        };
        for kind in order {
            let upd = match kind {
                0 => self.try_edge_insert(),
                1 => self.try_edge_delete(),
                2 => self.try_vertex_insert(),
                _ => self.try_vertex_delete(),
            };
            if let Some(u) = upd {
                return u;
            }
        }
        // Unreachable in practice: vertex insertion always succeeds.
        self.try_vertex_insert()
            .expect("vertex insertion cannot fail")
    }

    /// Emits `count` updates.
    pub fn take_updates(&mut self, count: usize) -> Vec<Update> {
        (0..count).map(|_| self.next_update()).collect()
    }
}

/// A starting graph plus a pre-generated update schedule — the unit of
/// work every experiment harness consumes.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Initial graph `G_0`.
    pub graph: DynamicGraph,
    /// Updates producing `G_1 … G_T`.
    pub updates: Vec<Update>,
}

impl Workload {
    /// Generates a workload of `count` updates over `graph`.
    pub fn generate(graph: DynamicGraph, count: usize, cfg: StreamConfig, seed: u64) -> Self {
        let mut stream = UpdateStream::new(&graph, cfg, seed);
        let updates = stream.take_updates(count);
        Workload { graph, updates }
    }

    /// The graph state after applying every update (recomputed).
    pub fn final_graph(&self) -> DynamicGraph {
        let mut g = self.graph.clone();
        for u in &self.updates {
            apply_update(&mut g, u).expect("workload replay must be valid");
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uniform::gnm;

    #[test]
    fn stream_ops_replay_cleanly() {
        let g = gnm(60, 150, 3);
        let wl = Workload::generate(g.clone(), 2000, StreamConfig::default(), 9);
        let mut replay = g;
        for u in &wl.updates {
            apply_update(&mut replay, u).unwrap();
        }
        replay.check_consistency().unwrap();
        assert_eq!(wl.updates.len(), 2000);
    }

    #[test]
    fn shadow_matches_replay() {
        let g = gnm(40, 80, 1);
        let mut stream = UpdateStream::new(&g, StreamConfig::default(), 4);
        let ups = stream.take_updates(500);
        let mut replay = g;
        for u in &ups {
            apply_update(&mut replay, u).unwrap();
        }
        assert_eq!(replay.num_edges(), stream.shadow().num_edges());
        assert_eq!(replay.num_vertices(), stream.shadow().num_vertices());
        for (u, v) in stream.shadow().edges() {
            assert!(replay.has_edge(u, v));
        }
    }

    #[test]
    fn streams_are_seed_deterministic() {
        let g = gnm(30, 60, 2);
        let a = UpdateStream::new(&g, StreamConfig::default(), 11).take_updates(200);
        let b = UpdateStream::new(&g, StreamConfig::default(), 11).take_updates(200);
        assert_eq!(a, b);
        let c = UpdateStream::new(&g, StreamConfig::default(), 12).take_updates(200);
        assert_ne!(a, c);
    }

    #[test]
    fn edges_only_config_preserves_vertex_set() {
        let g = gnm(25, 50, 5);
        let wl = Workload::generate(g.clone(), 1000, StreamConfig::edges_only(), 6);
        let end = wl.final_graph();
        assert_eq!(end.num_vertices(), 25);
        assert!(wl
            .updates
            .iter()
            .all(|u| matches!(u, Update::InsertEdge(..) | Update::RemoveEdge(..))));
    }

    #[test]
    fn insert_only_grows() {
        let g = gnm(20, 30, 5);
        let wl = Workload::generate(g.clone(), 300, StreamConfig::insert_only(), 6);
        let end = wl.final_graph();
        assert!(end.num_edges() > g.num_edges());
        assert!(end.num_vertices() >= g.num_vertices());
    }

    #[test]
    fn stream_survives_degenerate_start() {
        // Start from a near-empty graph; fallbacks must keep ops flowing.
        let mut g = DynamicGraph::new();
        g.add_vertices(3);
        let mut s = UpdateStream::new(&g, StreamConfig::default(), 0);
        let ups = s.take_updates(200);
        assert_eq!(ups.len(), 200);
        let mut replay = g;
        for u in &ups {
            apply_update(&mut replay, u).unwrap();
        }
        replay.check_consistency().unwrap();
    }

    #[test]
    fn inserted_vertex_ids_match_consumer_allocation() {
        let g = gnm(10, 15, 8);
        let mut s = UpdateStream::new(
            &g,
            StreamConfig {
                vertex_insert: 50,
                vertex_delete: 50,
                edge_insert: 0,
                edge_delete: 0,
                new_vertex_degree: 2,
            },
            3,
        );
        let ups = s.take_updates(300);
        let mut replay = g;
        for u in &ups {
            // apply_update debug-asserts id equality internally.
            apply_update(&mut replay, u).unwrap();
        }
        replay.check_consistency().unwrap();
    }
}
