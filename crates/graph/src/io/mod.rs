//! Graph readers and writers.
//!
//! Four interchange formats are supported, all loss-free for simple
//! undirected graphs:
//!
//! * [`edgelist`] — SNAP-style plain text, one `u v` pair per line
//!   (`#`/`%` comments ignored); the format of the paper's 22 datasets;
//! * [`dimacs`] — the DIMACS clique/coloring challenge format
//!   (`p edge n m` header, `e u v` lines, **1-based** ids) used by most
//!   published MIS/MVC benchmark instances;
//! * [`metis`] — the METIS/KaHIP adjacency format (`n m` header then one
//!   neighbor list per line, 1-based) used by KaMIS-family tools;
//! * [`binary`] — a compact little-endian binary codec built on the
//!   `bytes` crate, for fast workload snapshots.
//!
//! The edge-list names are re-exported at this level so existing call
//! sites (`io::read_dynamic`, `io::write_edge_list`, …) keep working.

pub mod binary;
pub mod dimacs;
pub mod edgelist;
pub mod metis;

pub use binary::{decode_graph, decode_graph_prefix, encode_graph, read_binary, write_binary};
pub use dimacs::{parse_dimacs, read_dimacs, write_dimacs};
pub use edgelist::{
    parse_edge_list, read_csr, read_dynamic, write_edge_list, write_edge_list_path,
};
pub use metis::{parse_metis, read_metis, write_metis};
