//! Compact little-endian binary graph codec.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic   4 bytes  "DYNG"
//! version u16      2 (version 1 streams still decode)
//! slots   u32      number of vertex slots (capacity)
//! alive   ⌈slots/8⌉ bytes, LSB-first bitmap of live vertices
//! nfree   u32      free-slot count                  (version 2 only)
//! free    nfree × u32, the free-slot stack, bottom first (version 2 only)
//! m       u64      edge count
//! edges   m × (u32, u32) with u < v
//! ```
//!
//! Unlike an edge list this codec is *exact*: dead vertex slots and
//! therefore vertex ids survive a round trip, and so does the order in
//! which freed slots are recycled. The decoded graph hands out the same
//! ids for later vertex insertions as the live one, so an engine can
//! resume from a snapshot and replay a logged update stream on top of
//! it without id remapping. Version 1 kept no free-slot stack; its
//! decoder frees the dead slots in ascending id order.

use crate::error::GraphError;
use crate::{DynamicGraph, Result};

const MAGIC: &[u8; 4] = b"DYNG";
const VERSION: u16 = 2;

/// Little-endian reader over a byte slice (std-only stand-in for the
/// `bytes::Buf` cursor this module originally used).
struct Reader<'a> {
    data: &'a [u8],
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.data.len()
    }

    fn take(&mut self, n: usize) -> &'a [u8] {
        let (head, tail) = self.data.split_at(n);
        self.data = tail;
        head
    }

    fn get_u16_le(&mut self) -> u16 {
        u16::from_le_bytes(self.take(2).try_into().expect("length checked"))
    }

    fn get_u32_le(&mut self) -> u32 {
        u32::from_le_bytes(self.take(4).try_into().expect("length checked"))
    }

    fn get_u64_le(&mut self) -> u64 {
        u64::from_le_bytes(self.take(8).try_into().expect("length checked"))
    }
}

/// Serializes a graph into a fresh byte buffer.
pub fn encode_graph(g: &DynamicGraph) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_graph_into(g, &mut buf);
    buf
}

/// The number of bytes [`encode_graph`] produces for `g`.
pub fn encoded_len(g: &DynamicGraph) -> usize {
    4 + 2 + 4 + g.capacity().div_ceil(8) + 4 + g.free_slots().len() * 4 + 8 + g.num_edges() * 8
}

/// Appends the encoding of `g` to `out` in one pass over the graph,
/// without copying it. Edges go out vertex by vertex in id order, each
/// vertex's higher-id neighbors sorted: the lexicographic order of the
/// whole edge set, from one degree-sized sort per vertex.
pub fn encode_graph_into(g: &DynamicGraph, out: &mut Vec<u8>) {
    out.reserve(encoded_len(g));
    let slots = g.capacity();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(slots as u32).to_le_bytes());
    let bitmap = out.len();
    out.resize(bitmap + slots.div_ceil(8), 0);
    for v in g.vertices() {
        out[bitmap + (v / 8) as usize] |= 1 << (v % 8);
    }
    let free = g.free_slots();
    out.extend_from_slice(&(free.len() as u32).to_le_bytes());
    for &v in free {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out.extend_from_slice(&(g.num_edges() as u64).to_le_bytes());
    let mut higher = Vec::new();
    for u in g.vertices() {
        higher.clear();
        higher.extend(g.neighbors(u).filter(|&v| v > u));
        higher.sort_unstable();
        for &v in &higher {
            out.extend_from_slice(&u.to_le_bytes());
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
}

/// Deserializes a graph from a byte slice produced by [`encode_graph`].
pub fn decode_graph(data: &[u8]) -> Result<DynamicGraph> {
    let (g, used) = decode_graph_prefix(data)?;
    if used < data.len() {
        return Err(corrupt("trailing bytes after edge section"));
    }
    Ok(g)
}

/// Deserializes the graph at the front of `data` and reports how many
/// bytes it occupied, for containers that append sections of their own
/// after it (engine snapshots).
pub fn decode_graph_prefix(data: &[u8]) -> Result<(DynamicGraph, usize)> {
    let total = data.len();
    let mut data = Reader { data };
    if data.remaining() < 10 {
        return Err(corrupt("truncated header"));
    }
    if data.take(4) != MAGIC {
        return Err(corrupt("bad magic (not a dynamis binary graph)"));
    }
    let version = data.get_u16_le();
    if version != 1 && version != VERSION {
        return Err(corrupt(&format!("unsupported version {version}")));
    }
    let slots = data.get_u32_le() as usize;
    let bitmap_len = slots.div_ceil(8);
    if data.remaining() < bitmap_len {
        return Err(corrupt("truncated bitmap"));
    }
    let bitmap = data.take(bitmap_len);
    let alive = |v: u32| bitmap[(v / 8) as usize] & (1 << (v % 8)) != 0;

    let mut g = DynamicGraph::with_capacity(slots);
    g.add_vertices(slots);
    // Kill the dead slots after allocating all of them, so surviving ids
    // match the encoder's exactly. This frees them in ascending order,
    // which is version 1's recycling order.
    for v in 0..slots as u32 {
        if !alive(v) {
            g.remove_vertex(v)
                .expect("freshly added vertex is removable");
        }
    }
    if version >= 2 {
        if data.remaining() < 4 {
            return Err(corrupt("truncated free-slot count"));
        }
        let nfree = data.get_u32_le() as usize;
        if nfree > slots {
            return Err(corrupt("more free slots than slots"));
        }
        if data.remaining() / 4 < nfree {
            return Err(corrupt("truncated free-slot stack"));
        }
        let mut listed = vec![false; slots];
        let mut free = Vec::with_capacity(nfree);
        for _ in 0..nfree {
            let v = data.get_u32_le();
            if v as usize >= slots || alive(v) || std::mem::replace(&mut listed[v as usize], true) {
                return Err(corrupt(&format!("bad free slot {v}")));
            }
            free.push(v);
        }
        g.set_free_slots(free);
    }
    if data.remaining() < 8 {
        return Err(corrupt("truncated edge count"));
    }
    let m = data.get_u64_le() as usize;
    // checked_mul: a crafted edge count must yield Err, not an overflow
    // wrap that lets the read run past the slice and panic.
    let edge_bytes = m
        .checked_mul(8)
        .ok_or_else(|| corrupt("edge count overflows"))?;
    if data.remaining() < edge_bytes {
        return Err(corrupt("truncated edge section"));
    }
    let edges = data.take(edge_bytes).chunks_exact(8).map(|e| {
        let (u, v) = e.split_at(4);
        let word = |b: &[u8]| u32::from_le_bytes(b.try_into().expect("chunk of 8"));
        (word(u), word(v))
    });
    // Size every adjacency list once, from degrees counted over the
    // section. The count skips pairs it cannot place; the insertion pass
    // checks every edge in stream order, so a corrupt stream is refused
    // with the error of its first bad edge.
    let mut degree = vec![0u32; slots];
    for (u, v) in edges.clone() {
        if u < v && (v as usize) < slots {
            degree[u as usize] = degree[u as usize].saturating_add(1);
            degree[v as usize] = degree[v as usize].saturating_add(1);
        }
    }
    g.reserve_edges(&degree);
    for (u, v) in edges {
        if u >= v {
            return Err(corrupt("edge endpoints not strictly ordered"));
        }
        let inserted = g
            .insert_edge(u, v)
            .map_err(|e| corrupt(&format!("bad edge ({u},{v}): {e}")))?;
        if !inserted {
            return Err(corrupt("duplicate edge in binary stream"));
        }
    }
    Ok((g, total - data.remaining()))
}

fn corrupt(message: &str) -> GraphError {
    GraphError::Parse {
        line: 0,
        message: message.into(),
    }
}

#[cfg(test)]
#[path = "binary_reference.rs"]
mod binary_reference;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    /// A random graph whose history leaves dead slots, recycled slots and
    /// a free-slot stack out of id order.
    fn churned_graph(seed: u64, n: u32) -> DynamicGraph {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut g = DynamicGraph::new();
        g.add_vertices(n as usize);
        for _ in 0..n * 4 {
            let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
            match rng.gen_range(0..8u32) {
                0 => {
                    let _ = g.remove_vertex(u);
                }
                1 => {
                    g.add_vertex();
                }
                _ => {
                    let _ = g.insert_edge(u, v);
                }
            }
        }
        g
    }

    /// A version 2 stream over 4 slots with slot 2 dead and free, the
    /// given edge count, and the given edges.
    fn stream_with_edges(m: u64, edges: &[(u32, u32)]) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&4u32.to_le_bytes());
        buf.push(0b1011);
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&2u32.to_le_bytes());
        buf.extend_from_slice(&m.to_le_bytes());
        for &(u, v) in edges {
            buf.extend_from_slice(&u.to_le_bytes());
            buf.extend_from_slice(&v.to_le_bytes());
        }
        buf
    }

    fn decode_error(data: &[u8]) -> String {
        match decode_graph(data) {
            Err(GraphError::Parse { message, .. }) => message,
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The one-pass encoder writes the bytes of the collect-and-sort
        /// encoder it replaced: same edge order, same free-slot stack.
        #[test]
        fn encode_graph_matches_the_sorted_reference(seed in 0u64..1_000_000, n in 1u32..80) {
            let g = churned_graph(seed, n);
            prop_assert_eq!(encode_graph(&g), binary_reference::encode_sorted(&g));
            prop_assert_eq!(encode_graph(&g).len(), encoded_len(&g));
        }
    }

    /// Edge sections that reach the degree count before insertion are
    /// refused with the error the first bad edge in stream order always
    /// got, and never panic.
    #[test]
    fn malformed_edge_sections_keep_their_errors() {
        let ok = stream_with_edges(2, &[(0, 1), (1, 3)]);
        assert_eq!(decode_graph(&ok).unwrap().num_edges(), 2);
        // (edge count, edges, the error message)
        type Case = (u64, &'static [(u32, u32)], &'static str);
        let cases: &[Case] = &[
            (
                2,
                &[(0, 1), (1, 4)],
                "bad edge (1,4): vertex 4 is not in the graph",
            ),
            (1, &[(5, 9)], "bad edge (5,9): vertex 5 is not in the graph"),
            (
                1,
                &[(0, u32::MAX)],
                "bad edge (0,4294967295): vertex 4294967295 is not in the graph",
            ),
            (
                2,
                &[(0, 1), (0, 2)],
                "bad edge (0,2): vertex 2 is not in the graph",
            ),
            (1, &[(3, 1)], "edge endpoints not strictly ordered"),
            (1, &[(1, 1)], "edge endpoints not strictly ordered"),
            (
                3,
                &[(0, 1), (1, 3), (0, 1)],
                "duplicate edge in binary stream",
            ),
            // The first bad edge decides, whatever follows it.
            (
                3,
                &[(0, 1), (0, 1), (0, 9)],
                "duplicate edge in binary stream",
            ),
            (
                3,
                &[(0, 9), (0, 1), (0, 1)],
                "bad edge (0,9): vertex 9 is not in the graph",
            ),
            (3, &[(0, 1), (1, 3)], "truncated edge section"),
            (u64::MAX / 8, &[(0, 1)], "truncated edge section"),
            (u64::MAX / 8 + 1, &[(0, 1)], "edge count overflows"),
            (u64::MAX, &[(0, 1)], "edge count overflows"),
        ];
        for &(m, edges, want) in cases {
            let data = stream_with_edges(m, edges);
            assert_eq!(decode_error(&data), want, "edges {edges:?}, m {m}");
        }
    }

    #[test]
    fn round_trip_preserves_everything() {
        let g = DynamicGraph::from_edges(7, &[(0, 6), (1, 2), (2, 3), (5, 6)]);
        let bytes = encode_graph(&g);
        let g2 = decode_graph(&bytes).unwrap();
        assert_eq!(g2.num_vertices(), g.num_vertices());
        assert_eq!(g2.num_edges(), g.num_edges());
        for (u, v) in g.edges() {
            assert!(g2.has_edge(u, v));
        }
        g2.check_consistency().unwrap();
    }

    #[test]
    fn round_trip_preserves_dead_slots() {
        let mut g = DynamicGraph::from_edges(5, &[(0, 1), (3, 4)]);
        g.remove_vertex(2).unwrap();
        let g2 = decode_graph(&encode_graph(&g)).unwrap();
        assert!(!g2.is_alive(2));
        assert!(g2.is_alive(4));
        assert_eq!(g2.capacity(), 5);
        assert_eq!(g2.num_vertices(), 4);
    }

    /// Slots freed out of id order (3, then 1) are recycled last-freed
    /// first. The decoded graph must hand out the same ids as the live
    /// one, or a logged vertex insertion replayed on top of it diverges.
    #[test]
    fn round_trip_preserves_slot_recycling_order() {
        let mut g = DynamicGraph::from_edges(6, &[(0, 1), (2, 3), (4, 5)]);
        g.remove_vertex(3).unwrap();
        g.remove_vertex(1).unwrap();
        let mut g2 = decode_graph(&encode_graph(&g)).unwrap();
        assert_eq!(g2.next_vertex_id(), 1);
        for _ in 0..3 {
            assert_eq!(g2.add_vertex(), g.add_vertex());
        }
        g2.check_consistency().unwrap();
    }

    #[test]
    fn version_1_streams_still_decode() {
        // 4 slots, slot 2 dead, one edge (0, 3); no free-slot stack.
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&1u16.to_le_bytes());
        buf.extend_from_slice(&4u32.to_le_bytes());
        buf.push(0b1011);
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&3u32.to_le_bytes());
        let g = decode_graph(&buf).unwrap();
        assert_eq!((g.capacity(), g.num_vertices()), (4, 3));
        assert!(!g.is_alive(2) && g.has_edge(0, 3));
        assert_eq!(g.next_vertex_id(), 2);
        let (_, used) = decode_graph_prefix(&buf).unwrap();
        assert_eq!(used, buf.len());
    }

    #[test]
    fn bad_free_slot_stacks_are_rejected() {
        let mut g = DynamicGraph::from_edges(4, &[(0, 1)]);
        g.remove_vertex(2).unwrap();
        g.remove_vertex(3).unwrap();
        let good = encode_graph(&g);
        // Header (10) + 1-byte bitmap, then the count and two entries.
        let count_at = 11;
        let entry = |i: usize| count_at + 4 + 4 * i;
        let patched = |at: usize, value: u32| {
            let mut b = good.clone();
            b[at..at + 4].copy_from_slice(&value.to_le_bytes());
            b
        };
        assert!(decode_graph(&good).is_ok());
        assert!(decode_graph(&patched(entry(0), 0)).is_err(), "live slot");
        assert!(decode_graph(&patched(entry(0), 9)).is_err(), "out of range");
        assert!(decode_graph(&patched(entry(1), 2)).is_err(), "listed twice");
        assert!(
            decode_graph(&patched(count_at, 5)).is_err(),
            "count > slots"
        );
        assert!(decode_graph(&patched(count_at, 3)).is_err(), "truncated");
    }

    #[test]
    fn empty_graph_round_trips() {
        let g = DynamicGraph::new();
        let g2 = decode_graph(&encode_graph(&g)).unwrap();
        assert_eq!(g2.num_vertices(), 0);
        assert_eq!(g2.num_edges(), 0);
    }

    #[test]
    fn corrupt_inputs_are_rejected() {
        assert!(decode_graph(b"").is_err(), "empty");
        assert!(
            decode_graph(b"NOPE\x01\x00\x00\x00\x00\x00").is_err(),
            "magic"
        );
        let good = encode_graph(&DynamicGraph::from_edges(3, &[(0, 1)]));
        assert!(decode_graph(&good[..good.len() - 1]).is_err(), "truncated");
        let mut trailing = good.to_vec();
        trailing.push(0);
        assert!(decode_graph(&trailing).is_err(), "trailing bytes");
        let mut bad_version = good.to_vec();
        bad_version[4] = 9;
        assert!(decode_graph(&bad_version).is_err(), "version");
        // Overflowing edge count must be a clean Err, not a panic, in
        // either version's layout.
        for version in [1u16, VERSION] {
            let mut huge_m = Vec::new();
            huge_m.extend_from_slice(MAGIC);
            huge_m.extend_from_slice(&version.to_le_bytes());
            huge_m.extend_from_slice(&0u32.to_le_bytes());
            if version >= 2 {
                huge_m.extend_from_slice(&0u32.to_le_bytes());
            }
            huge_m.extend_from_slice(&(u64::MAX / 4).to_le_bytes());
            huge_m.extend_from_slice(&[0u8; 8]);
            assert!(decode_graph(&huge_m).is_err(), "overflowing edge count");
        }
    }

    #[test]
    fn unordered_edge_is_rejected() {
        // Hand-build a stream with (1, 0) instead of (0, 1).
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&2u32.to_le_bytes());
        buf.push(0b11);
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        assert!(decode_graph(&buf).is_err());
    }

    #[test]
    fn encoding_is_deterministic() {
        let g = DynamicGraph::from_edges(10, &[(3, 7), (0, 9), (1, 2)]);
        assert_eq!(encode_graph(&g), encode_graph(&g.clone()));
    }
}
