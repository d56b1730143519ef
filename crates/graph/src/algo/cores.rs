//! k-core decomposition and degeneracy ordering by bucket peeling.
//!
//! The *k-core* of a graph is the maximal subgraph in which every vertex
//! has degree ≥ k; the *core number* of a vertex is the largest k such
//! that it belongs to the k-core. The peeling order that repeatedly
//! removes a minimum-degree vertex is a *degeneracy ordering*, and the
//! largest core number is the graph's *degeneracy* — the quantity that
//! makes triangle counting O(m · degeneracy) and that upper-bounds the
//! greedy chromatic number.
//!
//! Implemented with the classic O(n + m) bucket algorithm of Batagelj and
//! Zaveršnik: vertices live in an array sorted by current degree, with
//! per-degree bucket starts, so a degree decrement is a swap plus a
//! boundary shift.

use crate::CsrGraph;

/// Output of [`core_decomposition`].
#[derive(Debug, Clone)]
pub struct CoreDecomposition {
    /// `core[v]` = core number of vertex `v`.
    pub core: Vec<u32>,
    /// Vertices in peeling order (a degeneracy ordering).
    pub order: Vec<u32>,
    /// The degeneracy: `max(core)` (0 for an empty graph).
    pub degeneracy: u32,
}

impl CoreDecomposition {
    /// Vertices belonging to the k-core (core number ≥ k), sorted by id.
    pub fn k_core(&self, k: u32) -> Vec<u32> {
        (0..self.core.len() as u32)
            .filter(|&v| self.core[v as usize] >= k)
            .collect()
    }

    /// `position[v]` = index of `v` in the peeling order; later position
    /// means peeled later (higher or equal core).
    pub fn positions(&self) -> Vec<u32> {
        let mut pos = vec![0u32; self.order.len()];
        for (i, &v) in self.order.iter().enumerate() {
            pos[v as usize] = i as u32;
        }
        pos
    }
}

/// Computes core numbers and a degeneracy ordering in O(n + m).
pub fn core_decomposition(g: &CsrGraph) -> CoreDecomposition {
    let n = g.num_vertices();
    if n == 0 {
        return CoreDecomposition {
            core: Vec::new(),
            order: Vec::new(),
            degeneracy: 0,
        };
    }
    let mut degree: Vec<u32> = (0..n as u32).map(|v| g.degree(v) as u32).collect();
    let max_deg = degree.iter().copied().max().unwrap_or(0) as usize;

    // Counting sort of vertices by degree.
    let mut bucket_start = vec![0u32; max_deg + 2];
    for &d in &degree {
        bucket_start[d as usize + 1] += 1;
    }
    for i in 1..bucket_start.len() {
        bucket_start[i] += bucket_start[i - 1];
    }
    let mut vert = vec![0u32; n]; // vertices sorted by current degree
    let mut pos = vec![0u32; n]; // pos[v] = index of v in `vert`
    {
        let mut cursor = bucket_start.clone();
        for v in 0..n as u32 {
            let d = degree[v as usize] as usize;
            vert[cursor[d] as usize] = v;
            pos[v as usize] = cursor[d];
            cursor[d] += 1;
        }
    }
    // bucket_start[d] now = first index of a degree-d vertex in `vert`.

    let mut core = vec![0u32; n];
    let mut degeneracy = 0u32;
    for i in 0..n {
        let v = vert[i];
        let dv = degree[v as usize];
        degeneracy = degeneracy.max(dv);
        core[v as usize] = degeneracy;
        for &u in g.neighbors(v) {
            if degree[u as usize] > dv {
                // Move u to the front of its bucket, then shrink its degree.
                let du = degree[u as usize] as usize;
                let pu = pos[u as usize];
                let pw = bucket_start[du];
                let w = vert[pw as usize];
                if u != w {
                    vert.swap(pu as usize, pw as usize);
                    pos[u as usize] = pw;
                    pos[w as usize] = pu;
                }
                bucket_start[du] += 1;
                degree[u as usize] -= 1;
            }
        }
    }
    CoreDecomposition {
        core,
        order: vert,
        degeneracy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn complete(n: u32) -> CsrGraph {
        let mut edges = Vec::new();
        for u in 0..n {
            for v in u + 1..n {
                edges.push((u, v));
            }
        }
        CsrGraph::from_edges(n as usize, &edges)
    }

    /// Reference O(n²m) peeling for cross-checking.
    fn naive_core_numbers(g: &CsrGraph) -> Vec<u32> {
        let n = g.num_vertices();
        let mut alive = vec![true; n];
        let mut deg: Vec<i64> = (0..n as u32).map(|v| g.degree(v) as i64).collect();
        let mut core = vec![0u32; n];
        let mut k = 0i64;
        for _ in 0..n {
            let v = (0..n)
                .filter(|&v| alive[v])
                .min_by_key(|&v| deg[v])
                .unwrap();
            k = k.max(deg[v]);
            core[v] = k as u32;
            alive[v] = false;
            for &u in g.neighbors(v as u32) {
                if alive[u as usize] {
                    deg[u as usize] -= 1;
                }
            }
        }
        core
    }

    #[test]
    fn complete_graph_core_is_n_minus_1() {
        let g = complete(6);
        let d = core_decomposition(&g);
        assert_eq!(d.degeneracy, 5);
        assert!(d.core.iter().all(|&c| c == 5));
        assert_eq!(d.k_core(5).len(), 6);
        assert!(d.k_core(6).is_empty());
    }

    #[test]
    fn path_has_degeneracy_one() {
        let g = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let d = core_decomposition(&g);
        assert_eq!(d.degeneracy, 1);
        assert!(d.core.iter().all(|&c| c == 1));
    }

    #[test]
    fn triangle_with_pendant() {
        // Triangle 0-1-2 plus pendant 3 attached to 0.
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (0, 2), (0, 3)]);
        let d = core_decomposition(&g);
        assert_eq!(d.core, vec![2, 2, 2, 1]);
        assert_eq!(d.degeneracy, 2);
        assert_eq!(d.k_core(2), vec![0, 1, 2]);
        // The pendant must be peeled before the triangle finishes.
        let pos = d.positions();
        assert!(pos[3] < 3);
    }

    #[test]
    fn degeneracy_ordering_is_a_permutation() {
        let g = complete(5);
        let mut order = core_decomposition(&g).order;
        order.sort_unstable();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn ordering_property_back_degree_bounded_by_degeneracy() {
        // In a degeneracy ordering, each vertex has at most `degeneracy`
        // neighbors later in the order.
        let g = CsrGraph::from_edges(
            8,
            &[
                (0, 1),
                (0, 2),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (4, 6),
                (5, 6),
                (6, 7),
            ],
        );
        let d = core_decomposition(&g);
        let pos = d.positions();
        for v in 0..8u32 {
            let later = g
                .neighbors(v)
                .iter()
                .filter(|&&u| pos[u as usize] > pos[v as usize])
                .count() as u32;
            assert!(later <= d.degeneracy, "vertex {v}: {later} later neighbors");
        }
    }

    #[test]
    fn matches_naive_on_random_graph() {
        // Deterministic xorshift-built graph, cross-checked against the
        // O(n²m) reference.
        let mut state = 0xabcdef12345u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let n = 60u32;
        let mut edges = Vec::new();
        for _ in 0..200 {
            let (u, v) = ((rng() % n as u64) as u32, (rng() % n as u64) as u32);
            if u != v {
                edges.push((u, v));
            }
        }
        let g = CsrGraph::from_edges(n as usize, &edges);
        let fast = core_decomposition(&g).core;
        assert_eq!(fast, naive_core_numbers(&g));
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from_edges(0, &[]);
        let d = core_decomposition(&g);
        assert_eq!(d.degeneracy, 0);
        assert!(d.order.is_empty());
    }

    #[test]
    fn isolated_vertices_have_core_zero() {
        let g = CsrGraph::from_edges(4, &[(0, 1)]);
        let d = core_decomposition(&g);
        assert_eq!(d.core[2], 0);
        assert_eq!(d.core[3], 0);
        assert_eq!(d.core[0], 1);
    }
}
