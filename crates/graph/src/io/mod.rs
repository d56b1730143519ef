//! Graph readers and codecs.
//!
//! * [`edgelist`] — SNAP-style plain text, one `u v` pair per line
//!   (`#`/`%` comments ignored); the format of the paper's 22 datasets
//!   and of every graph file the CLI reads;
//! * [`binary`] — the exact little-endian DYNG codec that engine
//!   snapshots and durable checkpoints embed.

pub mod binary;
pub mod edgelist;

pub use binary::{decode_graph, decode_graph_prefix, encode_graph};
pub use edgelist::{parse_edge_list, read_dynamic};
