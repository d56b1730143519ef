//! Test-only reference for the DYNG version 2 encoding: the
//! collect-and-sort encoder the codec used before it encoded in one pass.
//! The codec's unit tests and the durable crate's checkpoint tests both
//! compile this file (`#[path]`), so it uses only the public graph API
//! and expects `DynamicGraph` in scope in its parent module.

use super::DynamicGraph;

/// The version 2 encoding of `g`, with the edge set sorted as a whole
/// and the free-slot stack read back by recycling the slots of a clone.
pub fn encode_sorted(g: &DynamicGraph) -> Vec<u8> {
    let slots = g.capacity();
    let mut buf = Vec::new();
    buf.extend_from_slice(b"DYNG");
    buf.extend_from_slice(&2u16.to_le_bytes());
    buf.extend_from_slice(&(slots as u32).to_le_bytes());
    let mut bitmap = vec![0u8; slots.div_ceil(8)];
    for v in g.vertices() {
        bitmap[(v / 8) as usize] |= 1 << (v % 8);
    }
    buf.extend_from_slice(&bitmap);
    // `add_vertex` pops the free-slot stack, top first, until it has to
    // grow the graph.
    let mut recycling = g.clone();
    let mut popped = Vec::new();
    while (recycling.next_vertex_id() as usize) < slots {
        popped.push(recycling.add_vertex());
    }
    buf.extend_from_slice(&(popped.len() as u32).to_le_bytes());
    for &v in popped.iter().rev() {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    let mut edges: Vec<_> = g.edges().collect();
    edges.sort_unstable();
    buf.extend_from_slice(&(edges.len() as u64).to_le_bytes());
    for (u, v) in edges {
        buf.extend_from_slice(&u.to_le_bytes());
        buf.extend_from_slice(&v.to_le_bytes());
    }
    buf
}
