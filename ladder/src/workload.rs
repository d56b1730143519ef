//! The workloads: one Chung–Lu graph shape, one seeded always-valid
//! update stream per workload, and the request sequence sent over it.
//! The program only ever receives the generated requests.

use crate::drive::{Pace, Req};
use dynamis_gen::powerlaw::chung_lu;
use dynamis_gen::{AdversarialConfig, AdversarialStream, StreamConfig, UpdateStream};
use dynamis_graph::{DynamicGraph, Update};
use rand::Rng;

pub const NAMES: [&str; 3] = ["bulk-mixed", "adversarial-burst", "interactive"];

/// The graph behind the repository's headline engine numbers.
const N: usize = 100_000;
const BETA: f64 = 2.4;
const AVG_DEGREE: f64 = 8.0;
/// The CLI's default swap depth.
const K: u32 = 2;
/// Bulk-mixed updates per pass: six checkpoint intervals, a few seconds
/// of load.
const MIXED_CHECKPOINTS: usize = 6;
/// Adversarial cycles per pass (192 burst inserts + 32 deletions each
/// followed by a replacement vertex = 256 updates; 1024 cycles = two
/// checkpoint intervals). The generator re-sorts the whole shadow graph
/// every cycle (~30k updates/s at n = 100k), which bounds this stream.
const ADVERSARIAL_CYCLES: usize = 1024;
/// Open-loop request rate, about a third of what one batch-1
/// connection sustains on a quiet 2-core host.
const INTERACTIVE_RATE: f64 = 5_000.0;
/// Length of one interactive pass.
const INTERACTIVE_PASS_S: f64 = 2.5;

const STREAM_SALT: u64 = 0x5354_5245_414d;
const READ_SALT: u64 = 0x5245_4144;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    BulkMixed,
    AdversarialBurst,
    Interactive,
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    pub n: usize,
    pub k: u32,
    /// Updates per write request.
    pub batch: usize,
    /// Updates in the pre-generated stream.
    pub updates: usize,
    pub pace: Pace,
}

impl Workload {
    /// `smoke` shrinks the graph and streams to a few thousand updates.
    pub fn named(name: &str, smoke: bool) -> Option<Workload> {
        let kind = match name {
            "bulk-mixed" => Kind::BulkMixed,
            "adversarial-burst" => Kind::AdversarialBurst,
            "interactive" => Kind::Interactive,
            _ => return None,
        };
        let burst = dynamis_serve::ServeConfig::default().burst;
        let ckpt = dynamis_durable::DurableOptions::default().checkpoint_every as usize;
        let (batch, updates, pace) = match (kind, smoke) {
            (Kind::BulkMixed, false) => (burst, MIXED_CHECKPOINTS * ckpt, Pace::Closed),
            (Kind::BulkMixed, true) => (burst, 64 * burst, Pace::Closed),
            (Kind::AdversarialBurst, false) => (burst, ADVERSARIAL_CYCLES * 256, Pace::Closed),
            (Kind::AdversarialBurst, true) => (burst, 32 * 256, Pace::Closed),
            (Kind::Interactive, smoke) => (
                1,
                (INTERACTIVE_PASS_S * INTERACTIVE_RATE / if smoke { 20.0 } else { 2.0 }) as usize,
                Pace::Open {
                    rate: INTERACTIVE_RATE,
                },
            ),
        };
        Some(Workload {
            name: NAMES.into_iter().find(|n| *n == name)?,
            kind,
            n: if smoke { 2_000 } else { N },
            k: K,
            batch,
            updates: updates.div_ceil(batch) * batch,
            pace,
        })
    }

    /// The workload's parameters as JSON members.
    pub fn describe(&self) -> Vec<(&'static str, String)> {
        let stream = match self.kind {
            Kind::AdversarialBurst => {
                let c = AdversarialConfig::default();
                format!(
                    "\"adversarial burst={} targets={} replace={}\"",
                    c.burst, c.targets, c.replace
                )
            }
            _ => {
                let c = StreamConfig::default();
                format!(
                    "\"mixed {}/{}/{}/{} (edge ins/del, vertex ins/del)\"",
                    c.edge_insert, c.edge_delete, c.vertex_insert, c.vertex_delete
                )
            }
        };
        let pace = match self.pace {
            Pace::Closed => "\"closed\"".to_string(),
            Pace::Open { rate } => format!("\"open {rate} req/s\""),
        };
        vec![
            ("graph", "\"chung_lu\"".into()),
            ("n", self.n.to_string()),
            ("beta", BETA.to_string()),
            ("avg_degree", AVG_DEGREE.to_string()),
            ("k", self.k.to_string()),
            ("stream", stream),
            ("updates_per_pass", self.updates.to_string()),
            ("updates_per_write", self.batch.to_string()),
            ("reads_per_write", "1".into()),
            (
                "reads",
                match self.pace {
                    Pace::Open { .. } => "\"alternating with the writes\"",
                    Pace::Closed => "\"after the last write\"",
                }
                .into(),
            ),
            ("pace", pace),
        ]
    }

    /// The initial graph and the request sequence: one write request per
    /// `batch` stream updates and one `Contains` on a random vertex id
    /// per write. An open loop alternates them. A closed loop sends the
    /// writes back to back and the reads after the last write, so the
    /// reads do not queue behind the fan-out of the write before them.
    pub fn inputs(&self, seed: u64) -> (DynamicGraph, Vec<Req>) {
        let graph = chung_lu(self.n, BETA, AVG_DEGREE, seed);
        let updates: Vec<Update> = match self.kind {
            Kind::AdversarialBurst => {
                AdversarialStream::new(&graph, AdversarialConfig::default(), seed ^ STREAM_SALT)
                    .take_updates(self.updates)
            }
            _ => UpdateStream::new(&graph, StreamConfig::default(), seed ^ STREAM_SALT)
                .take_updates(self.updates),
        };
        let mut rng = dynamis_gen::rng(seed ^ READ_SALT);
        let ids = graph.capacity() as u32;
        let mut reqs = Vec::with_capacity(2 * updates.len().div_ceil(self.batch));
        let mut reads = Vec::new();
        let mut it = updates.into_iter();
        loop {
            let batch: Vec<Update> = it.by_ref().take(self.batch).collect();
            if batch.is_empty() {
                break;
            }
            reqs.push(Req::Write(batch));
            let read = Req::Read(rng.gen_range(0..ids));
            match self.pace {
                Pace::Open { .. } => reqs.push(read),
                Pace::Closed => reads.push(read),
            }
        }
        reqs.extend(reads);
        (graph, reqs)
    }
}
