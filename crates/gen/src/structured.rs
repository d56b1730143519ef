//! Deterministic structured graphs, including the worst-case families of
//! Theorem 3.
//!
//! The paper proves that for every `k ≥ 2` there are infinite graph
//! families where a k-maximal independent set is only `2/Δ` of optimal:
//! subdivide every edge of `K_n` (for `k ∈ {2,3}`) or of the hypercube
//! `Q_n` (for `k ≥ 4`). [`subdivide`] performs that construction.

use dynamis_graph::DynamicGraph;

/// The complete graph `K_n`.
pub fn complete(n: usize) -> DynamicGraph {
    let mut edges = Vec::with_capacity(n * n.saturating_sub(1) / 2);
    for u in 0..n as u32 {
        for v in (u + 1)..n as u32 {
            edges.push((u, v));
        }
    }
    DynamicGraph::from_edges(n, &edges)
}

/// The path `P_n` on `n` vertices.
pub fn path(n: usize) -> DynamicGraph {
    let edges: Vec<(u32, u32)> = (1..n as u32).map(|v| (v - 1, v)).collect();
    DynamicGraph::from_edges(n, &edges)
}

/// The cycle `C_n`.
pub fn cycle(n: usize) -> DynamicGraph {
    assert!(n >= 3, "a cycle needs at least 3 vertices");
    let mut edges: Vec<(u32, u32)> = (1..n as u32).map(|v| (v - 1, v)).collect();
    edges.push((n as u32 - 1, 0));
    DynamicGraph::from_edges(n, &edges)
}

/// The star `K_{1,n-1}` centered at vertex 0.
pub fn star(n: usize) -> DynamicGraph {
    let edges: Vec<(u32, u32)> = (1..n as u32).map(|v| (0, v)).collect();
    DynamicGraph::from_edges(n, &edges)
}

/// The hypercube graph `Q_d`: `2^d` vertices, edges between ids differing
/// in exactly one bit. `Q_d` is d-regular with girth 4 (for d ≥ 2).
pub fn hypercube(d: usize) -> DynamicGraph {
    assert!(d < 28, "hypercube dimension too large");
    let n = 1usize << d;
    let mut edges = Vec::with_capacity(n * d / 2);
    for u in 0..n as u32 {
        for bit in 0..d {
            let v = u ^ (1 << bit);
            if u < v {
                edges.push((u, v));
            }
        }
    }
    DynamicGraph::from_edges(n, &edges)
}

/// Subdivides every edge: edge `(u, v)` is replaced by a fresh vertex `w`
/// and the two edges `(u, w)`, `(w, v)`.
///
/// Applied to `K_n` this yields the paper's `K'_n` (worst case for
/// `k ∈ {2,3}`); applied to `Q_n` it yields `Q'_n` (worst case for
/// `k ≥ 4`). In both, the original vertices form a k-maximal independent
/// set of size `n_orig` while the subdivision vertices form the optimum of
/// size `m_orig`.
pub fn subdivide(g: &DynamicGraph) -> DynamicGraph {
    let n = g.capacity();
    let edges: Vec<(u32, u32)> = g.edges().collect();
    let mut out = DynamicGraph::with_capacity(n + edges.len());
    out.add_vertices(n);
    for &(u, v) in &edges {
        let w = out.add_vertex();
        out.insert_edge(u, w).unwrap();
        out.insert_edge(w, v).unwrap();
    }
    out
}

/// The paper's `K'_n` worst-case family (Fig. 3a): subdivided complete
/// graph. Its independence number is `n(n-1)/2` while `{0..n}` is a
/// k-maximal independent set of size `n`, and `Δ = n - 1`.
pub fn k_prime(n: usize) -> DynamicGraph {
    subdivide(&complete(n))
}

/// The paper's `Q'_n` worst-case family (Fig. 3b): subdivided hypercube.
/// `α = 2^{n-1}·n` while the original `2^n` vertices are k-maximal,
/// and `Δ = n`.
pub fn q_prime(d: usize) -> DynamicGraph {
    subdivide(&hypercube(d))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_graph_counts() {
        let g = complete(6);
        assert_eq!(g.num_edges(), 15);
        assert_eq!(g.max_degree(), 5);
    }

    #[test]
    fn path_cycle_star() {
        assert_eq!(path(10).num_edges(), 9);
        assert_eq!(cycle(10).num_edges(), 10);
        let s = star(10);
        assert_eq!(s.num_edges(), 9);
        assert_eq!(s.degree(0), 9);
    }

    #[test]
    fn hypercube_is_regular_with_girth_four() {
        let g = hypercube(4);
        assert_eq!(g.num_vertices(), 16);
        assert_eq!(g.num_edges(), 32);
        for v in g.vertices() {
            assert_eq!(g.degree(v), 4);
        }
        // girth 4: no triangles — any two neighbors of a vertex differ in
        // two bits, hence are non-adjacent.
        for v in g.vertices() {
            let nb: Vec<u32> = g.neighbors(v).collect();
            for (i, &a) in nb.iter().enumerate() {
                for &b in &nb[i + 1..] {
                    assert!(!g.has_edge(a, b));
                }
            }
        }
    }

    #[test]
    fn subdivision_structure() {
        let g = k_prime(4);
        // K_4: 4 original + 6 subdivision vertices, 12 edges.
        assert_eq!(g.num_vertices(), 10);
        assert_eq!(g.num_edges(), 12);
        // Original vertices keep degree n-1 = 3, subdivision vertices are
        // degree 2.
        for v in 0..4u32 {
            assert_eq!(g.degree(v), 3);
        }
        for v in 4..10u32 {
            assert_eq!(g.degree(v), 2);
        }
        // No two original vertices remain adjacent.
        for u in 0..4u32 {
            for v in (u + 1)..4u32 {
                assert!(!g.has_edge(u, v));
            }
        }
    }

    #[test]
    fn q_prime_counts_match_paper() {
        let d = 4;
        let g = q_prime(d);
        let n0 = 1usize << d;
        let m0 = (1usize << (d - 1)) * d;
        assert_eq!(g.num_vertices(), n0 + m0);
        assert_eq!(g.num_edges(), 2 * m0);
        assert_eq!(g.max_degree(), d);
    }
}
