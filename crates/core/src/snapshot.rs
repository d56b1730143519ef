//! Engine checkpointing: persist `(graph, solution)` and resume any
//! engine from it later.
//!
//! A maintenance deployment restarts occasionally (upgrades, crashes);
//! rebuilding the solution from scratch at startup wastes exactly the
//! work the dynamic algorithms save. A [`Snapshot`] captures the live
//! graph (via the exact binary codec, so vertex ids survive) plus the
//! current solution, and resuming goes through the one construction
//! path: [`crate::EngineBuilder::resume`] (or
//! [`crate::EngineBuilder::resume_path`]) turns the pair into the
//! session's graph and initial set, for **any** engine type and any
//! `k` — the restored engine continues with the same `k`-maximal
//! invariant and the same vertex-id allocation behavior.
//!
//! Snapshots carry no framework bookkeeping: the intrusive half-edge
//! marks that store `I(u)` inside the graph (and the bar-tier indices)
//! are derived state, rebuilt in O(n + m) by the engine constructor —
//! which also clears any marks a cloned live graph still carries.
//!
//! Layout after the binary graph section:
//!
//! ```text
//! sol_len u64 LE
//! ids     sol_len × u32 LE (sorted)
//! ```

use crate::DynamicMis;
use dynamis_graph::io::binary::{decode_graph_prefix, encode_graph};
use dynamis_graph::{DynamicGraph, GraphError};
use std::io::{Read, Write};
use std::path::Path;

/// A resumable engine state: the graph and the maintained solution.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// The graph at checkpoint time (vertex ids preserved exactly).
    pub graph: DynamicGraph,
    /// The maintained independent set (sorted).
    pub solution: Vec<u32>,
}

impl Snapshot {
    /// Captures the state of any engine.
    pub fn capture<E: DynamicMis + ?Sized>(engine: &E) -> Self {
        Snapshot {
            graph: engine.graph().clone(),
            solution: engine.solution(),
        }
    }

    /// Serializes to bytes.
    pub fn encode(&self) -> Vec<u8> {
        let graph_bytes = encode_graph(&self.graph);
        let mut out = Vec::with_capacity(graph_bytes.len() + 8 + self.solution.len() * 4);
        out.extend_from_slice(&graph_bytes);
        out.extend_from_slice(&(self.solution.len() as u64).to_le_bytes());
        for &v in &self.solution {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// Deserializes from bytes produced by [`Snapshot::encode`].
    pub fn decode(data: &[u8]) -> Result<Self, GraphError> {
        let corrupt = |message: &str| GraphError::Parse {
            line: 0,
            message: message.into(),
        };
        // The graph codec reports where its section ends; the solution
        // section follows.
        let (graph, graph_end) = decode_graph_prefix(data)?;
        let rest = &data[graph_end..];
        if rest.len() < 8 {
            return Err(corrupt("truncated snapshot solution header"));
        }
        let (len_bytes, ids) = rest.split_at(8);
        let sol_len = u64::from_le_bytes(len_bytes.try_into().expect("len checked"));
        if sol_len.checked_mul(4) != Some(ids.len() as u64) {
            return Err(corrupt("snapshot solution length mismatch"));
        }
        let mut solution = Vec::with_capacity(ids.len() / 4);
        let mut prev: Option<u32> = None;
        for id in ids.chunks_exact(4) {
            let v = u32::from_le_bytes(id.try_into().expect("chunk of 4"));
            if !graph.is_alive(v) {
                return Err(corrupt(&format!("solution vertex {v} not in graph")));
            }
            if let Some(p) = prev {
                if v <= p {
                    return Err(corrupt("solution ids not strictly increasing"));
                }
            }
            prev = Some(v);
            solution.push(v);
        }
        // The snapshot must be an independent set — engines trust it.
        for &v in &solution {
            for u in graph.neighbors(v) {
                if solution.binary_search(&u).is_ok() {
                    return Err(corrupt(&format!("snapshot solution has edge ({v}, {u})")));
                }
            }
        }
        Ok(Snapshot { graph, solution })
    }

    /// Writes the snapshot to a file.
    pub fn write_path<P: AsRef<Path>>(&self, path: P) -> Result<(), GraphError> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(&self.encode())?;
        Ok(())
    }

    /// Reads a snapshot from a file.
    pub fn read_path<P: AsRef<Path>>(path: P) -> Result<Self, GraphError> {
        let mut f = std::fs::File::open(path)?;
        let mut data = Vec::new();
        f.read_to_end(&mut data)?;
        Self::decode(&data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DyOneSwap, DyTwoSwap, EngineBuilder};
    use dynamis_graph::Update;

    fn engine_with_history() -> DyTwoSwap {
        let g = DynamicGraph::from_edges(8, &[(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)]);
        let mut e: DyTwoSwap = EngineBuilder::on(g).build_as().unwrap();
        e.try_apply(&Update::InsertEdge(0, 4)).unwrap();
        e.try_apply(&Update::RemoveEdge(2, 3)).unwrap();
        e.try_apply(&Update::RemoveVertex(6)).unwrap();
        e
    }

    #[test]
    fn capture_encode_decode_round_trip() {
        let e = engine_with_history();
        let snap = Snapshot::capture(&e);
        let back = Snapshot::decode(&snap.encode()).unwrap();
        assert_eq!(back.solution, snap.solution);
        assert_eq!(back.graph.num_edges(), snap.graph.num_edges());
        assert!(!back.graph.is_alive(6), "dead slot preserved");
    }

    #[test]
    fn resumed_engine_continues_identically() {
        let e = engine_with_history();
        let snap = Snapshot::capture(&e);
        let mut resumed: DyTwoSwap = EngineBuilder::new().resume(snap).build_as().unwrap();
        assert_eq!(resumed.size(), e.size());
        assert_eq!(resumed.solution(), e.solution());
        // Continue updating: the resumed engine keeps the invariant.
        resumed.try_apply(&Update::InsertEdge(3, 7)).unwrap();
        resumed.check_consistency().unwrap();
    }

    #[test]
    fn resume_into_a_different_k() {
        // A 2-maximal solution is 1-maximal; resuming DyOneSwap from a
        // DyTwoSwap snapshot is valid (the reverse merely re-drains).
        let e = engine_with_history();
        let snap = Snapshot::capture(&e);
        let sol_len = snap.solution.len();
        let resumed: DyOneSwap = EngineBuilder::new().resume(snap).build_as().unwrap();
        resumed.check_consistency().unwrap();
        assert!(resumed.size() >= sol_len);
    }

    #[test]
    fn resume_path_goes_through_the_builder() {
        let dir = std::env::temp_dir().join("dynamis_snapshot_builder_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("resume.snap");
        let e = engine_with_history();
        Snapshot::capture(&e).write_path(&path).unwrap();
        let resumed: DyTwoSwap = EngineBuilder::new()
            .resume_path(&path)
            .unwrap()
            .build_as()
            .unwrap();
        assert_eq!(resumed.solution(), e.solution());
        assert!(EngineBuilder::new()
            .resume_path(dir.join("nope.snap"))
            .is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_snapshots_are_rejected() {
        let e = engine_with_history();
        let good = Snapshot::capture(&e).encode();
        assert!(Snapshot::decode(&[]).is_err());
        assert!(Snapshot::decode(&good[..good.len() - 2]).is_err());
        let mut extra = good.clone();
        extra.extend_from_slice(&[0, 0, 0, 0]);
        assert!(Snapshot::decode(&extra).is_err());
    }

    #[test]
    fn non_independent_solution_is_rejected() {
        let g = DynamicGraph::from_edges(2, &[(0, 1)]);
        let snap = Snapshot {
            graph: g,
            solution: vec![0, 1],
        };
        let err = Snapshot::decode(&snap.encode()).unwrap_err();
        assert!(err.to_string().contains("edge"));
    }

    #[test]
    fn unsorted_or_dead_solutions_are_rejected() {
        let mut g = DynamicGraph::from_edges(4, &[(0, 1)]);
        g.remove_vertex(3).unwrap();
        let dead = Snapshot {
            graph: g.clone(),
            solution: vec![3],
        };
        assert!(Snapshot::decode(&dead.encode()).is_err());
        let unsorted = Snapshot {
            graph: g,
            solution: vec![2, 0],
        };
        assert!(Snapshot::decode(&unsorted.encode()).is_err());
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("dynamis_snapshot_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("engine.snap");
        let e = engine_with_history();
        Snapshot::capture(&e).write_path(&path).unwrap();
        let back = Snapshot::read_path(&path).unwrap();
        assert_eq!(back.solution, e.solution());
        std::fs::remove_file(&path).ok();
    }
}
