//! Registry of scaled synthetic stand-ins for the 22 real graphs of
//! Table I.
//!
//! The paper's datasets come from SNAP and the Laboratory for Web
//! Algorithmics and range up to 3.4 billion edges; they are not available
//! in this environment. This module doc is the substitution policy: each
//! dataset is replaced by a deterministic Chung–Lu power-law graph with
//! the **same name**, the **same average degree** d̄ as Table I, and a
//! vertex count scaled down (n/500, clamped to [2 000, 100 000]) so every
//! experiment runs on one machine. The tail exponent β is chosen per
//! category (web crawls are heavier-tailed than citation networks), which
//! preserves the property the paper's analysis keys on: most real
//! networks are power-law bounded with β > 2.

use crate::powerlaw::chung_lu;
use dynamis_graph::DynamicGraph;

/// Experiment category from the paper's Table I split: "easy" graphs are
/// the ones VCSolver solved within five hours (so gaps are measured against
/// true α), "hard" graphs are measured against the best ARW result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Category {
    /// VCSolver finished; evaluated in Tables II/III.
    Easy,
    /// Exact solver timed out in the paper; evaluated in Table IV.
    Hard,
}

/// One Table I row plus its scaled stand-in parameters.
#[derive(Debug, Clone, Copy)]
pub struct DatasetSpec {
    /// Dataset name exactly as printed in Table I.
    pub name: &'static str,
    /// Vertex count reported in the paper.
    pub paper_n: u64,
    /// Edge count reported in the paper.
    pub paper_m: u64,
    /// Average degree reported in the paper.
    pub avg_degree: f64,
    /// Scaled vertex count used by this reproduction.
    pub scaled_n: usize,
    /// Power-law exponent of the stand-in generator.
    pub beta: f64,
    /// Easy/hard split.
    pub category: Category,
    /// Member of Table III ("the last seven easy graphs").
    pub in_table3: bool,
    /// DGOneDIS/DGTwoDIS did not finish within five hours in the paper
    /// ("the last five hard graphs").
    pub dg_dnf: bool,
}

impl DatasetSpec {
    /// Deterministic generator seed derived from the dataset name.
    pub fn seed(&self) -> u64 {
        self.name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
        })
    }

    /// Builds the scaled stand-in graph.
    pub fn build(&self) -> DynamicGraph {
        // Cap the average degree so tiny stand-ins stay sparse enough to
        // be meaningful (d̄ must stay well below n).
        let d = self.avg_degree.min(self.scaled_n as f64 / 8.0);
        chung_lu(self.scaled_n, self.beta, d, self.seed())
    }

    /// Scaled update count corresponding to `paper_updates` on the real
    /// graph: the paper's 100 000 updates on a 4.8M-vertex graph touch
    /// ~2% of vertices; we keep the *ratio* of updates to vertices.
    pub fn scaled_updates(&self, paper_updates: u64) -> usize {
        let ratio = paper_updates as f64 / self.paper_n as f64;
        ((self.scaled_n as f64 * ratio).round() as usize).clamp(1_000, 200_000)
    }
}

#[allow(clippy::too_many_arguments)] // flat row-literal builder for the table below
const fn spec(
    name: &'static str,
    paper_n: u64,
    paper_m: u64,
    avg_degree: f64,
    beta: f64,
    category: Category,
    in_table3: bool,
    dg_dnf: bool,
) -> DatasetSpec {
    let scaled = paper_n / 500;
    let scaled_n = if scaled < 2_000 {
        2_000
    } else if scaled > 100_000 {
        100_000
    } else {
        scaled as usize
    };
    DatasetSpec {
        name,
        paper_n,
        paper_m,
        avg_degree,
        scaled_n,
        beta,
        category,
        in_table3,
        dg_dnf,
    }
}

/// All 22 Table I rows, in the paper's order (easy first).
pub const DATASETS: [DatasetSpec; 22] = [
    spec(
        "Epinions",
        75_879,
        405_740,
        10.69,
        2.3,
        Category::Easy,
        false,
        false,
    ),
    spec(
        "Slashdot",
        82_168,
        504_230,
        12.27,
        2.3,
        Category::Easy,
        false,
        false,
    ),
    spec(
        "Email",
        265_214,
        364_481,
        2.75,
        2.6,
        Category::Easy,
        false,
        false,
    ),
    spec(
        "com-dblp",
        317_080,
        1_049_866,
        6.62,
        2.5,
        Category::Easy,
        false,
        false,
    ),
    spec(
        "com-amazon",
        334_863,
        925_872,
        5.53,
        2.8,
        Category::Easy,
        false,
        false,
    ),
    spec(
        "web-Google",
        875_713,
        4_322_051,
        9.87,
        2.2,
        Category::Easy,
        false,
        false,
    ),
    spec(
        "web-BerkStan",
        685_230,
        6_649_470,
        19.41,
        2.1,
        Category::Easy,
        true,
        false,
    ),
    spec(
        "in-2004",
        1_382_870,
        13_591_473,
        19.66,
        2.1,
        Category::Easy,
        true,
        false,
    ),
    spec(
        "as-skitter",
        1_696_415,
        11_095_298,
        13.08,
        2.3,
        Category::Easy,
        true,
        false,
    ),
    spec(
        "hollywood",
        1_985_306,
        114_492_816,
        115.34,
        2.2,
        Category::Easy,
        true,
        false,
    ),
    spec(
        "WikiTalk",
        2_394_385,
        4_659_565,
        3.89,
        2.4,
        Category::Easy,
        true,
        false,
    ),
    spec(
        "com-lj",
        3_997_962,
        34_681_189,
        17.35,
        2.4,
        Category::Easy,
        true,
        false,
    ),
    spec(
        "soc-LiveJournal",
        4_847_571,
        42_851_237,
        17.68,
        2.4,
        Category::Easy,
        true,
        false,
    ),
    spec(
        "soc-pokec",
        1_632_803,
        22_301_964,
        27.32,
        2.4,
        Category::Hard,
        false,
        false,
    ),
    spec(
        "wiki-topcats",
        1_791_489,
        25_444_207,
        28.41,
        2.3,
        Category::Hard,
        false,
        false,
    ),
    spec(
        "com-orkut",
        3_072_441,
        117_185_083,
        76.28,
        2.3,
        Category::Hard,
        false,
        false,
    ),
    spec(
        "cit-Patents",
        3_774_768,
        16_518_947,
        8.75,
        2.7,
        Category::Hard,
        false,
        false,
    ),
    spec(
        "uk-2005",
        39_454_746,
        783_027_125,
        39.70,
        2.1,
        Category::Hard,
        false,
        true,
    ),
    spec(
        "it-2004",
        41_290_682,
        1_027_474_947,
        49.77,
        2.1,
        Category::Hard,
        false,
        true,
    ),
    spec(
        "twitter-2010",
        41_652_230,
        1_468_365_182,
        70.51,
        2.2,
        Category::Hard,
        false,
        true,
    ),
    spec(
        "Friendster",
        65_608_366,
        1_806_067_135,
        55.06,
        2.3,
        Category::Hard,
        false,
        true,
    ),
    spec(
        "uk-2007",
        109_499_800,
        3_448_528_200,
        62.99,
        2.1,
        Category::Hard,
        false,
        true,
    ),
];

/// The thirteen easy graphs (Tables II, Fig. 5a/5b).
pub fn easy() -> impl Iterator<Item = &'static DatasetSpec> {
    DATASETS.iter().filter(|d| d.category == Category::Easy)
}

/// The last seven easy graphs (Table III, Fig. 5c).
pub fn easy_large() -> impl Iterator<Item = &'static DatasetSpec> {
    DATASETS.iter().filter(|d| d.in_table3)
}

/// The nine hard graphs (Table IV, Fig. 6).
pub fn hard() -> impl Iterator<Item = &'static DatasetSpec> {
    DATASETS.iter().filter(|d| d.category == Category::Hard)
}

/// Lookup by the exact Table I name.
pub fn by_name(name: &str) -> Option<&'static DatasetSpec> {
    DATASETS.iter().find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_shape_matches_table1() {
        assert_eq!(DATASETS.len(), 22);
        assert_eq!(easy().count(), 13);
        assert_eq!(easy_large().count(), 7);
        assert_eq!(hard().count(), 9);
        assert_eq!(hard().filter(|d| d.dg_dnf).count(), 5);
    }

    #[test]
    fn scaled_sizes_are_clamped() {
        for d in &DATASETS {
            assert!(d.scaled_n >= 2_000 && d.scaled_n <= 100_000, "{}", d.name);
        }
        assert_eq!(by_name("uk-2007").unwrap().scaled_n, 100_000);
        assert_eq!(by_name("Epinions").unwrap().scaled_n, 2_000);
    }

    #[test]
    fn builds_match_requested_density() {
        let spec = by_name("com-dblp").unwrap();
        let g = spec.build();
        assert_eq!(g.num_vertices(), spec.scaled_n);
        let got = g.avg_degree();
        assert!(
            (got - spec.avg_degree).abs() < spec.avg_degree * 0.35 + 1.0,
            "avg degree {got} too far from target {}",
            spec.avg_degree
        );
    }

    #[test]
    fn builds_are_deterministic() {
        let spec = by_name("Email").unwrap();
        let a = spec.build();
        let b = spec.build();
        assert_eq!(a.num_edges(), b.num_edges());
        for (u, v) in a.edges() {
            assert!(b.has_edge(u, v));
        }
    }

    #[test]
    fn scaled_updates_preserve_ratio() {
        let spec = by_name("soc-LiveJournal").unwrap();
        // 1M updates on 4.85M vertices ≈ 21% of n.
        let u = spec.scaled_updates(1_000_000);
        let ratio = u as f64 / spec.scaled_n as f64;
        assert!((ratio - 0.206).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    fn lookup_by_name() {
        assert!(by_name("hollywood").is_some());
        assert!(by_name("no-such-graph").is_none());
    }
}
