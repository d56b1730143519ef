//! Pins the benchmark's inputs: the base graph's adjacency lists and the
//! first 65,536 updates of both seeded streams, as FNV-1a fingerprints of
//! a fixed little-endian encoding. The layer ladder builds its inputs the
//! same way (a Chung–Lu graph with β = 2.4, d̄ = 8, streams salted with
//! its `STREAM_SALT`) at n = 100,000. A change to the graph's internals
//! that reorders adjacency, or the order in which `UpdateStream` samples
//! edges, changes every engine decision downstream and shows here first.

use dynamis_gen::powerlaw::chung_lu;
use dynamis_gen::{AdversarialConfig, AdversarialStream, StreamConfig, Update, UpdateStream};
use dynamis_graph::DynamicGraph;

/// The ladder's stream salt (`ladder/src/workload.rs`).
const STREAM_SALT: u64 = 0x5354_5245_414d;
const N: usize = 20_000;
const UPDATES: usize = 65_536;

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u32(&mut self, x: u32) {
        self.bytes(&x.to_le_bytes());
    }
}

/// Slot count, then per slot its degree and its neighbours in
/// adjacency order.
fn adjacency_fingerprint(g: &DynamicGraph) -> u64 {
    let mut h = Fnv::new();
    h.u32(g.capacity() as u32);
    for v in 0..g.capacity() as u32 {
        h.u32(g.degree(v) as u32);
        for w in g.neighbors(v) {
            h.u32(w);
        }
    }
    h.0
}

/// One tag byte per update, then its ids; a vertex insertion lists its
/// neighbour count before the neighbours.
fn updates_fingerprint(mut next: impl FnMut() -> Update) -> u64 {
    let mut h = Fnv::new();
    for _ in 0..UPDATES {
        match next() {
            Update::InsertEdge(u, v) => {
                h.bytes(&[0]);
                h.u32(u);
                h.u32(v);
            }
            Update::RemoveEdge(u, v) => {
                h.bytes(&[1]);
                h.u32(u);
                h.u32(v);
            }
            Update::InsertVertex { id, neighbors } => {
                h.bytes(&[2]);
                h.u32(id);
                h.u32(neighbors.len() as u32);
                for w in neighbors {
                    h.u32(w);
                }
            }
            Update::RemoveVertex(v) => {
                h.bytes(&[3]);
                h.u32(v);
            }
        }
    }
    h.0
}

/// `(seed, graph, mixed stream, adversarial stream)` fingerprints.
const PINS: [(u64, u64, u64, u64); 2] = [
    (
        1,
        0xe56c06e6ded99d42,
        0x25b59e1ad766b858,
        0x300e90e96298206d,
    ),
    (
        20221,
        0x573a1e36761fa3a7,
        0x585a220a48f16381,
        0xfa459331bc7d1d9a,
    ),
];

fn fingerprints(seed: u64) -> (u64, u64, u64, u64) {
    let g = chung_lu(N, 2.4, 8.0, seed);
    let mut mixed = UpdateStream::new(&g, StreamConfig::default(), seed ^ STREAM_SALT);
    let mut burst = AdversarialStream::new(&g, AdversarialConfig::default(), seed ^ STREAM_SALT);
    (
        seed,
        adjacency_fingerprint(&g),
        updates_fingerprint(|| mixed.next_update()),
        updates_fingerprint(|| burst.next_update()),
    )
}

#[test]
fn benchmark_inputs_are_pinned() {
    // One thread per seed: the adversarial stream re-sorts its shadow
    // graph every cycle, which is slow in unoptimised test builds.
    let got: Vec<(u64, u64, u64, u64)> = std::thread::scope(|s| {
        let runs: Vec<_> = PINS
            .iter()
            .map(|&(seed, ..)| s.spawn(move || fingerprints(seed)))
            .collect();
        runs.into_iter().map(|r| r.join().unwrap()).collect()
    });
    for (seed, graph, mixed, adversarial) in &got {
        println!("({seed}, {graph:#018x}, {mixed:#018x}, {adversarial:#018x}),");
    }
    assert_eq!(got, PINS);
}
