//! I/O agreement: a graph read from a SNAP edge list or decoded from the
//! binary codec is the graph it came from, including under
//! property-based random graphs.

use dynamis::gen::uniform::gnm;
use dynamis::graph::io::{decode_graph, encode_graph, parse_edge_list, read_dynamic};
use dynamis::DynamicGraph;
use proptest::prelude::*;

fn same_graph(a: &DynamicGraph, b: &DynamicGraph) -> bool {
    a.num_vertices() == b.num_vertices()
        && a.num_edges() == b.num_edges()
        && a.edges().all(|(u, v)| b.has_edge(u, v))
}

#[test]
fn all_formats_round_trip_the_same_graph() {
    let g = gnm(50, 120, 5);

    let txt: String = g.edges().map(|(u, v)| format!("{u} {v}\n")).collect();
    let (n, edges) = parse_edge_list(txt.as_bytes()).unwrap();
    let from_txt = DynamicGraph::from_edges(n, &edges);

    let from_binary = decode_graph(&encode_graph(&g)).unwrap();

    for (label, other) in [("edge list", &from_txt), ("binary", &from_binary)] {
        assert!(same_graph(&g, other), "{label} round trip diverged");
    }
}

/// Binary preserves dead vertex slots, so ids survive a graph with holes.
#[test]
fn formats_handle_dead_slots() {
    let mut g = gnm(20, 40, 8);
    g.remove_vertex(3).unwrap();
    g.remove_vertex(11).unwrap();

    let bin = decode_graph(&encode_graph(&g)).unwrap();
    assert!(same_graph(&g, &bin), "binary must preserve ids exactly");
    assert!(!bin.is_alive(3) && !bin.is_alive(11));
}

/// Real SNAP dumps open with `#`-comment banners (and some mirrors use
/// `%`): every such line must be skipped wherever it appears, including
/// interleaved with data.
#[test]
fn snap_comment_lines_are_skipped_everywhere() {
    let text = "# Directed graph (each unordered pair of nodes is saved once)\n\
                # Nodes: 4 Edges: 3\n\
                # FromNodeId\tToNodeId\n\
                0\t1\n\
                % matrix-market style comment mid-file\n\
                1\t2\n\
                #trailing banner\n\
                2\t3\n";
    let (n, edges) = parse_edge_list(text.as_bytes()).unwrap();
    assert_eq!(n, 4);
    assert_eq!(edges, vec![(0, 1), (1, 2), (2, 3)]);
}

/// SNAP traces routinely repeat edges (both orientations of an
/// undirected pair, plain duplicates) and contain self-loops; ingestion
/// into a `DynamicGraph` must collapse all of that instead of tripping
/// the engine's duplicate-edge validation later.
#[test]
fn snap_duplicate_edges_and_self_loops_collapse_on_ingest() {
    let text = "0 1\n1 0\n0 1\n2 2\n1 2\n2 1\n";
    let (n, edges) = parse_edge_list(text.as_bytes()).unwrap();
    assert_eq!(edges.len(), 6, "the parser reports the raw lines");
    let g = DynamicGraph::from_edges(n, &edges);
    assert_eq!(g.num_edges(), 2, "ingest dedups pairs and drops loops");
    assert!(g.has_edge(0, 1) && g.has_edge(1, 2));
    assert!(!g.has_edge(2, 2));
    g.check_consistency().unwrap();
}

/// Tabs, runs of spaces, leading/trailing blanks, CRLF line endings,
/// and blank lines — all whitespace variants seen in the wild parse to
/// the same graph.
#[test]
fn snap_whitespace_variants_parse_identically() {
    let canonical = "0 1\n1 2\n2 3\n";
    let variants = [
        "0\t1\n1\t2\n2\t3\n",         // tabs
        "  0   1  \n\t1 2\n2    3\n", // mixed runs + padding
        "0 1\r\n1 2\r\n2 3\r\n",      // CRLF
        "\n0 1\n\n1 2\n   \n2 3\n\n", // blank/whitespace-only lines
    ];
    let (n0, e0) = parse_edge_list(canonical.as_bytes()).unwrap();
    for v in variants {
        let (n, e) = parse_edge_list(v.as_bytes()).unwrap();
        assert_eq!((n, &e), (n0, &e0), "variant {v:?} diverged");
    }
}

/// End-to-end: a messy SNAP file on disk feeds straight into the graph
/// the `--graph FILE` flags build engines on.
#[test]
fn snap_file_ingests_into_a_dynamic_graph() {
    let dir = std::env::temp_dir().join(format!("dynamis_snap_ingest_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("messy.txt");
    std::fs::write(
        &path,
        "# Nodes: 5 Edges: 4\n0\t1\n1 0\n\n1\t2\n3   4\n# done\n",
    )
    .unwrap();
    let g = read_dynamic(&path).unwrap();
    assert_eq!(g.num_vertices(), 5);
    assert_eq!(g.num_edges(), 3);
    assert!(g.has_edge(0, 1) && g.has_edge(1, 2) && g.has_edge(3, 4));
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Binary codec: encode ∘ decode = identity on arbitrary G(n, m).
    #[test]
    fn binary_codec_identity(seed in 0u64..100_000, n in 1usize..60, density in 0usize..4) {
        let m = (n * density).min(n * (n - 1) / 2);
        let g = gnm(n, m, seed);
        let back = decode_graph(&encode_graph(&g)).unwrap();
        prop_assert!(same_graph(&g, &back));
        back.check_consistency().map_err(TestCaseError::fail)?;
    }

}

// ------------------------------------------------ durable snapshot formats

mod durable_formats {
    use dynamis::durable::format::{CKPT_K_OFFSET, CKPT_VERSION_OFFSET};
    use dynamis::durable::{
        prepare, scan, DurableError, DurableOptions, MemStorage, SyncPolicy, WalStorage,
    };
    use dynamis::gen::uniform::gnm;
    use dynamis::{DynamicMis, EngineBuilder, Update};
    use std::sync::Arc;

    /// A durable directory with one checkpoint and a short WAL.
    fn recorded() -> MemStorage {
        let storage = MemStorage::new();
        let arc: Arc<dyn WalStorage> = Arc::new(storage.clone());
        let opts = DurableOptions {
            sync: SyncPolicy::Never,
            ..DurableOptions::default()
        };
        let mut prepared = prepare(arc, 2, opts).unwrap();
        let g = gnm(20, 40, 3);
        let builder = prepared.resume_builder(EngineBuilder::on(g).k(2));
        let mut engine = prepared.attach(builder.build().unwrap()).unwrap();
        for v in 0..8 {
            let _ = engine.try_apply(&Update::RemoveVertex(v));
        }
        drop(engine);
        storage
    }

    fn only_checkpoint(storage: &MemStorage) -> String {
        storage
            .list()
            .unwrap()
            .into_iter()
            .find(|n| n.starts_with("ckpt-") && n.ends_with(".snap"))
            .unwrap()
    }

    /// A checkpoint stamped with a newer format version is refused with
    /// the typed error — recovery never guesses at a future layout.
    #[test]
    fn newer_version_snapshot_file_is_refused() {
        let storage = recorded();
        storage.corrupt(&only_checkpoint(&storage), CKPT_VERSION_OFFSET, 0x40);
        match scan(&storage, None) {
            Err(DurableError::UnsupportedVersion { found, supported }) => {
                assert!(found > supported);
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    /// Opening a directory with a different `k` than it was written with
    /// is refused before anything is read or repaired.
    #[test]
    fn mismatched_k_directory_is_refused() {
        let storage = recorded();
        let arc: Arc<dyn WalStorage> = Arc::new(storage.clone());
        match prepare(arc, 5, DurableOptions::default()) {
            Err(DurableError::KMismatch {
                found: 2,
                expected: 5,
            }) => {}
            Err(other) => panic!("expected KMismatch, got {other:?}"),
            Ok(_) => panic!("expected KMismatch, got Ok"),
        }
    }

    /// A checkpoint whose header `k` disagrees with the manifest is a
    /// typed refusal too (scan-level, independent of caller expectation).
    #[test]
    fn mismatched_k_snapshot_file_is_refused() {
        let storage = recorded();
        storage.corrupt(&only_checkpoint(&storage), CKPT_K_OFFSET, 0x04);
        match scan(&storage, None) {
            Err(DurableError::KMismatch {
                found: 6,
                expected: 2,
            }) => {}
            other => panic!("expected KMismatch, got {other:?}"),
        }
    }
}
