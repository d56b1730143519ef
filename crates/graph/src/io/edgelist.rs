//! Plain-text edge-list I/O in the SNAP style: one `u v` pair per line,
//! `#`-prefixed comment lines ignored, whitespace-separated.

use crate::error::GraphError;
use crate::{DynamicGraph, Result};
use std::io::{BufRead, BufReader, Read};
use std::path::Path;

/// Parses an edge list from a reader. Returns `(n, edges)` where `n` is one
/// more than the largest vertex id seen (0 for an empty input).
pub fn parse_edge_list<R: Read>(reader: R) -> Result<(usize, Vec<(u32, u32)>)> {
    let mut edges = Vec::new();
    let mut max_id: Option<u32> = None;
    let mut buf = String::new();
    let mut r = BufReader::new(reader);
    let mut line_no = 0usize;
    loop {
        buf.clear();
        if r.read_line(&mut buf)? == 0 {
            break;
        }
        line_no += 1;
        let line = buf.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
            continue;
        }
        let mut it = line.split_whitespace();
        let parse = |tok: Option<&str>| -> Result<u32> {
            tok.ok_or_else(|| GraphError::Parse {
                line: line_no,
                message: "expected two vertex ids".into(),
            })?
            .parse::<u32>()
            .map_err(|e| GraphError::Parse {
                line: line_no,
                message: e.to_string(),
            })
        };
        let u = parse(it.next())?;
        let v = parse(it.next())?;
        max_id = Some(max_id.map_or(u.max(v), |m| m.max(u).max(v)));
        edges.push((u, v));
    }
    Ok((max_id.map_or(0, |m| m as usize + 1), edges))
}

/// Reads an edge-list file into a [`DynamicGraph`].
pub fn read_dynamic<P: AsRef<Path>>(path: P) -> Result<DynamicGraph> {
    let file = std::fs::File::open(path)?;
    let (n, edges) = parse_edge_list(file)?;
    Ok(DynamicGraph::from_edges(n, &edges))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_basic_with_comments() {
        let text = "# comment\n0 1\n1 2\n\n% another comment\n2 0\n";
        let (n, edges) = parse_edge_list(text.as_bytes()).unwrap();
        assert_eq!(n, 3);
        assert_eq!(edges, vec![(0, 1), (1, 2), (2, 0)]);
    }

    #[test]
    fn parse_rejects_garbage() {
        let err = parse_edge_list("0 x\n".as_bytes()).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }));
        let err = parse_edge_list("42\n".as_bytes()).unwrap_err();
        assert!(matches!(err, GraphError::Parse { .. }));
    }

    #[test]
    fn parse_empty_input() {
        let (n, edges) = parse_edge_list("".as_bytes()).unwrap();
        assert_eq!(n, 0);
        assert!(edges.is_empty());
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("dynamis_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.txt");
        std::fs::write(&path, "# n=4\n0 1\n2 3\n").unwrap();
        let rd = read_dynamic(&path).unwrap();
        assert_eq!(rd.num_vertices(), 4);
        assert_eq!(rd.num_edges(), 2);
        assert!(rd.has_edge(0, 1) && rd.has_edge(2, 3));
        std::fs::remove_file(&path).ok();
    }
}
