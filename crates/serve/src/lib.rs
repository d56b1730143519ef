//! # dynamis-serve — a concurrent serving layer for dynamic MaxIS
//!
//! Turns any [`DynamicMis`](dynamis_core::DynamicMis) engine into a
//! concurrently queryable service, using only `std`. The architecture
//! is single-writer / many-readers, built on the session API's delta
//! machinery instead of locks around the engine:
//!
//! ```text
//!  submit / submit_batch              ┌──────────────────────────┐
//!  (tickets carry per-update         │  writer thread            │
//!   Result<seq, EngineError>)        │  ┌────────────────────┐   │
//! ──────► bounded MPSC queue ───────►│  │ engine (DynamicMis)│   │
//!          (backpressure)    adaptive│  └────────────────────┘   │
//!                            batching│   try_apply_batch, then   │
//!                                    │   drain_delta()           │
//!                                    └───────────┬──────────────┘
//!                                                │ publish(SolutionDelta)
//!                                    ┌───────────▼──────────────┐
//!                                    │ sequenced delta log       │
//!                                    │ (Arc entries + checkpoint)│
//!                                    └───┬─────────┬────────────┘
//!                              catch up  │         │  catch up (lazy, on query)
//!                          ┌─────────────▼──┐   ┌──▼─────────────┐
//!                          │ ReaderHandle    │   │ ReaderHandle   │ …
//!                          │ SolutionMirror  │   │ SolutionMirror │
//!                          └────────────────┘   └────────────────┘
//! ```
//!
//! * **One writer thread** owns the engine and drains the ingest queue
//!   with *adaptive batching*: whatever is queued rides along, up to a
//!   burst cap, through [`DynamicMis::try_apply_batch`](dynamis_core::DynamicMis::try_apply_batch)
//!   — so queue pressure automatically amortizes per-update overhead
//!   (one deferred swap-search drain and one broadcast per burst).
//! * **Per-update verdicts** reach the caller through tickets: an
//!   invalid update inside a burst is rejected with its typed
//!   [`EngineError`](dynamis_core::EngineError) while the rest of the
//!   burst is applied.
//! * **Readers never touch the engine.** Each [`ReaderHandle`] owns a
//!   private [`SolutionMirror`](dynamis_core::SolutionMirror) and
//!   catches up lazily from the sequence-numbered broadcast log; a
//!   reader that falls behind the log's bounded window re-seeds from
//!   the log's checkpoint. Queries are wait-free with respect to the
//!   writer apart from an `Arc`-clone critical section.
//! * **Graceful shutdown** flushes the queue: everything submitted
//!   before [`ServiceHandle::shutdown`] is applied and broadcast, and
//!   the final [`ServiceReport`] carries the engine's materialized
//!   solution for verification.
//!
//! ```
//! use dynamis_graph::{DynamicGraph, Update};
//! use dynamis_core::EngineBuilder;
//! use dynamis_serve::{MisService, ServeConfig};
//!
//! let g = DynamicGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
//! let (service, mut reader) =
//!     MisService::spawn(EngineBuilder::on(g).k(2), ServeConfig::default()).unwrap();
//!
//! // Queries see the bootstrap solution without touching the engine.
//! assert!(reader.len() >= 3);
//!
//! // Sync submission: the ticket reports the broadcast seq or the
//! // engine's typed rejection.
//! let seq = service.submit(Update::RemoveEdge(1, 2)).unwrap().wait().unwrap();
//! assert!(seq >= 1);
//! assert!(service.submit(Update::RemoveEdge(1, 2)).unwrap().wait().is_err());
//!
//! let report = service.shutdown();
//! assert_eq!(reader.snapshot(), report.solution);
//! ```

mod error;
mod log;
mod reader;
mod service;
mod stats;
pub mod wire;

pub use error::ServeError;
pub use log::{LogTail, PublishWake, SeqEntry, SharedLog};
pub use reader::ReaderHandle;
pub use service::{
    BatchTicket, IngestHandle, MisService, ServeConfig, ServiceHandle, ServiceReport, Ticket,
};
pub use stats::{ServiceStats, HIST_BUCKETS};
