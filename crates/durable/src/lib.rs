//! # dynamis-durable — crash durability for the update stream
//!
//! Applied one update per `try_apply` call, the paper's engines are pure
//! functions of (initial graph, accepted update stream): feed the same
//! accepted prefix that way and you get the same solution. This crate
//! persists that stream — a segmented, checksummed **write-ahead log of
//! the accepted stream** plus periodic engine **snapshot checkpoints** —
//! and recovers a process restart to the state an uninterrupted run of
//! single-update calls reaches over the surviving prefix. A served run
//! applies merged rounds through `try_apply_batch`, which runs one swap
//! drain per call, so a restart can recover another solution than the
//! one it served; both are k-maximal.
//!
//! ## Layers
//!
//! - [`WalStorage`] — the storage seam: [`FileStorage`] over a real
//!   directory, [`MemStorage`] with deterministic byte-granular crash
//!   injection for the recovery-equivalence tests.
//! - [`mod@format`] — on-disk codecs. WAL record payloads reuse the serve
//!   wire codec, so the system has exactly one update encoding.
//! - [`Logged`] — wraps any [`dynamis_core::DynamicMis`]; logs each
//!   accepted update after apply and before return, fsyncs per
//!   [`SyncPolicy`] (group commit by default, batched off-thread), and
//!   checkpoints every `checkpoint_every` accepted updates.
//! - [`scan`] / [`prepare`] — recovery: newest valid checkpoint, WAL
//!   tail replayed on top, torn final records truncated (never
//!   trusted), version/`k` mismatches refused with typed errors.
//!
//! ## Serving durably
//!
//! ```
//! use dynamis_core::{DynamicMis, EngineBuilder};
//! use dynamis_durable::{prepare, DurableOptions, MemStorage, SyncPolicy, WalStorage};
//! use dynamis_graph::{DynamicGraph, Update};
//! use dynamis_serve::{MisService, ServeConfig};
//! use std::sync::Arc;
//!
//! let storage: Arc<dyn WalStorage> = Arc::new(MemStorage::new());
//! let opts = DurableOptions { sync: SyncPolicy::Never, ..DurableOptions::default() };
//!
//! // First life: serve, accept updates, stop.
//! let mut prepared = prepare(Arc::clone(&storage), 2, opts).unwrap();
//! let cfg = ServeConfig { first_seq: prepared.first_broadcast_seq(), ..ServeConfig::default() };
//! let g = DynamicGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
//! let builder = prepared.resume_builder(EngineBuilder::on(g).k(2));
//! let (service, _reader) = MisService::spawn_with(
//!     move || {
//!         prepared
//!             .attach(builder.build()?)
//!             .map(|l| Box::new(l) as _)
//!             .map_err(|e| e.into_engine_error())
//!     },
//!     cfg,
//! )
//! .unwrap();
//! service.submit(Update::RemoveEdge(1, 2)).unwrap().wait().unwrap();
//! let report = service.shutdown();
//!
//! // Second life: recovery reproduces the exact pre-restart state.
//! let mut prepared = prepare(Arc::clone(&storage), 2, opts).unwrap();
//! assert_eq!(prepared.recovered_seq, 1);
//! let builder = prepared.resume_builder(EngineBuilder::on(DynamicGraph::from_edges(0, &[])).k(2));
//! let recovered = prepared.attach(builder.build().unwrap()).unwrap();
//! assert_eq!(recovered.solution(), report.solution);
//! ```
//!
//! [`dynamis_core::DynamicMis`]: dynamis_core::DynamicMis

#![deny(missing_docs)]

mod error;
pub mod format;
mod logged;
mod recover;
mod storage;
mod wal;

pub use error::DurableError;
pub use logged::{prepare, DurableOptions, Logged, Prepared};
pub use recover::{
    apply_repairs, newest_checkpoint, replay_tail, scan, NewestCheckpoint, Repair, ScanReport,
};
pub use storage::{FileStorage, MemStorage, WalStorage};
pub use wal::SyncPolicy;
