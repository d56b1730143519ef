//! Degree summaries and structural predicates used by the dataset
//! registry (Table I) and the PLB fitter.

use crate::CsrGraph;

/// Summary statistics of a graph's degree sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct DegreeStats {
    /// Minimum degree δ.
    pub min: usize,
    /// Maximum degree Δ.
    pub max: usize,
    /// Average degree d̄ = 2m/n.
    pub mean: f64,
    /// Median degree.
    pub median: usize,
    /// Number of isolated (degree-0) vertices.
    pub isolated: usize,
    /// Edge density 2m / (n (n − 1)).
    pub density: f64,
}

/// Computes [`DegreeStats`] in O(n log n).
pub fn degree_stats(g: &CsrGraph) -> DegreeStats {
    let n = g.num_vertices();
    if n == 0 {
        return DegreeStats {
            min: 0,
            max: 0,
            mean: 0.0,
            median: 0,
            isolated: 0,
            density: 0.0,
        };
    }
    let mut degrees: Vec<usize> = (0..n as u32).map(|v| g.degree(v)).collect();
    degrees.sort_unstable();
    let density = if n > 1 {
        2.0 * g.num_edges() as f64 / (n as f64 * (n as f64 - 1.0))
    } else {
        0.0
    };
    DegreeStats {
        min: degrees[0],
        max: degrees[n - 1],
        mean: g.avg_degree(),
        median: degrees[n / 2],
        isolated: degrees.iter().take_while(|&&d| d == 0).count(),
        density,
    }
}

/// BFS 2-coloring: returns `color[v] ∈ {0, 1}` per vertex, or `None` if
/// an odd cycle makes the graph non-bipartite. O(n + m).
fn two_coloring(g: &CsrGraph) -> Option<Vec<u8>> {
    let n = g.num_vertices();
    let mut color = vec![u8::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    for s in 0..n as u32 {
        if color[s as usize] != u8::MAX {
            continue;
        }
        color[s as usize] = 0;
        queue.push_back(s);
        while let Some(v) = queue.pop_front() {
            let cv = color[v as usize];
            for &u in g.neighbors(v) {
                if color[u as usize] == u8::MAX {
                    color[u as usize] = 1 - cv;
                    queue.push_back(u);
                } else if color[u as usize] == cv {
                    return None;
                }
            }
        }
    }
    Some(color)
}

/// Whether the graph is bipartite (2-colorable). O(n + m).
pub fn is_bipartite(g: &CsrGraph) -> bool {
    two_coloring(g).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_of_star() {
        // Star K_{1,4}: center degree 4, leaves degree 1.
        let g = CsrGraph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let s = degree_stats(&g);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 4);
        assert!((s.mean - 1.6).abs() < 1e-12);
        assert_eq!(s.median, 1);
        assert_eq!(s.isolated, 0);
        assert!((s.density - 8.0 / 20.0).abs() < 1e-12);
    }

    #[test]
    fn stats_count_isolated_vertices() {
        let g = CsrGraph::from_edges(5, &[(0, 1)]);
        let s = degree_stats(&g);
        assert_eq!(s.isolated, 3);
        assert_eq!(s.min, 0);
    }

    #[test]
    fn stats_of_empty_graph() {
        let g = CsrGraph::from_edges(0, &[]);
        let s = degree_stats(&g);
        assert_eq!(s.max, 0);
        assert_eq!(s.density, 0.0);
    }

    #[test]
    fn even_cycles_are_bipartite_odd_are_not() {
        let cycle = |n: u32| {
            let edges: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
            CsrGraph::from_edges(n as usize, &edges)
        };
        assert!(is_bipartite(&cycle(4)));
        assert!(is_bipartite(&cycle(8)));
        assert!(!is_bipartite(&cycle(3)));
        assert!(!is_bipartite(&cycle(7)));
    }

    #[test]
    fn bipartite_checks_every_component() {
        // Bipartite component + triangle component → not bipartite.
        let g = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5), (3, 5)]);
        assert!(!is_bipartite(&g));
        // Both bipartite → bipartite.
        let g = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
        assert!(is_bipartite(&g));
    }

    #[test]
    fn empty_and_edgeless_graphs_are_bipartite() {
        assert!(is_bipartite(&CsrGraph::from_edges(0, &[])));
        assert!(is_bipartite(&CsrGraph::from_edges(5, &[])));
    }
}
