//! Unified telemetry for the dynamis serving stack.
//!
//! Every layer of the system — the core engine, the single-writer
//! service, the durable WAL, and the network front end — records into one process-global [`MetricsRegistry`] of cheap atomic
//! [`Counter`]s, [`Gauge`]s, and log-bucketed [`Histogram`]s. Recording
//! is lock-free (one or a few relaxed atomic RMWs) and never blocks the
//! hot path; registration (name → handle) takes a mutex but happens
//! once per call site, after which the caller caches the `Arc` handle.
//!
//! Three design rules keep the overhead inside the ≤ 3% hot-path
//! budget measured by `crates/bench/src/bin/obs.rs`:
//!
//! 1. **Counters and gauges are always on.** They cost one relaxed
//!    atomic op — the same price the pre-existing ad-hoc stats structs
//!    already paid.
//! 2. **Stage timers are gated.** Reading the clock costs ~20–25 ns,
//!    which is real money against a ~1 µs update. [`Stage::begin`]
//!    returns `None` unless [`set_enabled`] turned timing on, and every
//!    record path accepts that `None` for free. Per-update core timers
//!    additionally sample (see [`Sampler`]) so even the enabled cost
//!    stays amortized.
//! 3. **Rare events never block.** The bounded [`EventLog`] ring uses
//!    `try_lock` and counts drops instead of waiting.
//!
//! A [`MetricsSnapshot`] is the single export schema: the in-process
//! API ([`MetricsRegistry::snapshot`]), the `Response::Metrics` wire
//! call, and the Prometheus/JSON text encoders all produce exactly the
//! same structure, pinned by round-trip tests.

mod events;
mod hist;
mod registry;
mod snapshot;
mod stage;

pub use events::{Event, EventLog};
pub use hist::{bucket_bounds, bucket_index, Counter, Gauge, Histogram, HistogramSnapshot};
pub use hist::{MAX_QUANTILE_ERROR, NUM_BUCKETS};
pub use registry::MetricsRegistry;
pub use snapshot::{MetricsSnapshot, SNAPSHOT_VERSION};
pub use stage::{Sampler, Stage};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns stage timing on or off process-wide. Counters, gauges, and
/// events are unaffected — they are always on. Off by default.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether stage timing is enabled (one relaxed load).
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Reads the clock iff stage timing is enabled. The `None` arm is the
/// zero-cost-when-disabled gate: every consumer treats `None` as "do
/// not record".
#[inline]
pub fn mark() -> Option<Instant> {
    if enabled() {
        Some(Instant::now())
    } else {
        None
    }
}

static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();

/// The process-global registry every layer records into.
pub fn global() -> &'static MetricsRegistry {
    GLOBAL.get_or_init(MetricsRegistry::new)
}

/// Records a rare structured event into the global registry's ring
/// (never blocks; drops are counted).
pub fn event(kind: &str, detail: String) {
    global().events().record(kind, detail);
}
