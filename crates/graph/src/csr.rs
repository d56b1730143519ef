//! Immutable compressed-sparse-row snapshot.
//!
//! Static algorithms (the exact branch-and-reduce solver, the ARW local
//! search, reducing–peeling) operate on frozen graphs; CSR gives them
//! cache-friendly, allocation-free neighborhood scans.

use crate::dynamic::DynamicGraph;

/// A static undirected graph in CSR form. Vertex ids are `0..n` and every
/// edge appears in both endpoint lists. Neighbor lists are sorted, which
/// lets algorithms use merge scans and binary-search adjacency tests.
#[derive(Debug, Clone, Default)]
pub struct CsrGraph {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl CsrGraph {
    /// Builds a CSR graph on `n` vertices from an undirected edge list.
    /// Self-loops and duplicate edges are dropped.
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Self {
        let mut deg = vec![0u32; n];
        let mut clean: Vec<(u32, u32)> = Vec::with_capacity(edges.len());
        {
            let mut seen = crate::hash::FxHashSet::default();
            seen.reserve(edges.len());
            for &(u, v) in edges {
                if u == v || u as usize >= n || v as usize >= n {
                    continue;
                }
                if seen.insert(crate::hash::pair_key(u, v)) {
                    clean.push((u, v));
                    deg[u as usize] += 1;
                    deg[v as usize] += 1;
                }
            }
        }
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        for v in 0..n {
            offsets.push(offsets[v] + deg[v]);
        }
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut targets = vec![0u32; offsets[n] as usize];
        for &(u, v) in &clean {
            targets[cursor[u as usize] as usize] = v;
            cursor[u as usize] += 1;
            targets[cursor[v as usize] as usize] = u;
            cursor[v as usize] += 1;
        }
        for v in 0..n {
            targets[offsets[v] as usize..offsets[v + 1] as usize].sort_unstable();
        }
        CsrGraph { offsets, targets }
    }

    /// Snapshots a [`DynamicGraph`]. Dead vertex slots become isolated
    /// vertices so ids are preserved; callers that need compaction should
    /// relabel first.
    pub fn from_dynamic(g: &DynamicGraph) -> Self {
        let edges: Vec<(u32, u32)> = g.edges().collect();
        Self::from_edges(g.capacity(), &edges)
    }

    /// Number of vertices (including isolated ones).
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len() / 2
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: u32) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// Sorted neighbor slice of `v`.
    #[inline]
    pub fn neighbors(&self, v: u32) -> &[u32] {
        &self.targets[self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize]
    }

    /// Adjacency test by binary search: O(log d(u)) on the smaller list.
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        if u == v {
            return false;
        }
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Maximum degree Δ.
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices() as u32)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Average degree d̄ = 2m / n.
    pub fn avg_degree(&self) -> f64 {
        let n = self.num_vertices();
        if n == 0 {
            0.0
        } else {
            self.targets.len() as f64 / n as f64
        }
    }

    /// Degree histogram: `hist[d]` = number of vertices with degree `d`.
    pub fn degree_histogram(&self) -> Vec<usize> {
        let mut hist = vec![0usize; self.max_degree() + 1];
        for v in 0..self.num_vertices() as u32 {
            hist[self.degree(v)] += 1;
        }
        hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_edges_dedups_and_sorts() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 0), (2, 2), (1, 3), (1, 2)]);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.neighbors(1), &[0, 2, 3]);
        assert_eq!(g.degree(2), 1);
    }

    #[test]
    fn has_edge_binary_search() {
        let g = CsrGraph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        assert!(g.has_edge(0, 3));
        assert!(g.has_edge(3, 0));
        assert!(!g.has_edge(1, 2));
        assert!(!g.has_edge(2, 2));
    }

    #[test]
    fn dynamic_round_trip() {
        let d = DynamicGraph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5), (0, 5)]);
        let c = CsrGraph::from_dynamic(&d);
        assert_eq!(c.num_edges(), d.num_edges());
        for v in d.vertices() {
            assert_eq!(c.degree(v), d.degree(v));
        }
        assert!(d.edges().all(|(u, v)| c.has_edge(u, v)));
    }

    #[test]
    fn histogram_counts_every_vertex() {
        let g = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3)]);
        let h = g.degree_histogram();
        assert_eq!(h.iter().sum::<usize>(), 5);
        assert_eq!(h[0], 1); // vertex 4 isolated
        assert_eq!(h[1], 2);
        assert_eq!(h[2], 2);
    }

    #[test]
    fn empty_csr() {
        let g = CsrGraph::from_edges(0, &[]);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
    }
}
