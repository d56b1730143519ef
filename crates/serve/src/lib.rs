//! # dynamis-serve — a concurrent serving layer for dynamic MaxIS
//!
//! Turns any [`DynamicMis`](dynamis_core::DynamicMis) engine into a
//! concurrently queryable service, using only `std`. The architecture
//! is single-writer / many-readers, built on the session API's delta
//! machinery instead of locks around the engine. Writes are applied by
//! *flat combining*: there is no writer thread, and the combining
//! submitter runs each round on its own thread.
//!
//! ```text
//!  submit / submit_batch         ┌───────────────────────────────┐
//!  (return once applied, with    │ combining submitter (whoever  │
//!   Result<seq, EngineError>)    │ found the engine free)        │
//! ──► backpressure gate ──► queue ──►  ┌────────────────────┐    │
//!     (bounded, in updates)      │     │ engine (DynamicMis)│    │
//!     busy? park until applied   │     └────────────────────┘    │
//!     or handed the role         │  own command + queue, ≤ burst │
//!                                │  try_apply_batch, drain_delta │
//!                                │  then hand over to the owner  │
//!                                │  of the queue head            │
//!                                └───────────────┬───────────────┘
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
//! * **One engine, applied by the combining submitter.** A submitter
//!   that finds the engine free runs one round on its own thread: its
//!   command plus whatever is queued, up to a burst cap, through
//!   [`DynamicMis::try_apply_batch`](dynamis_core::DynamicMis::try_apply_batch)
//!   — so queue pressure automatically amortizes per-update overhead
//!   (one deferred swap-search drain and one broadcast per burst). It
//!   then hands the role to the owner of the next queued command. A
//!   lone submitter pays no thread hand-off at all.
//! * **Per-update verdicts** reach the caller through tickets: an
//!   invalid update inside a burst is rejected with its typed
//!   [`EngineError`](dynamis_core::EngineError) while the rest of the
//!   burst is applied. Every submit returns once its own command was
//!   applied or refused, so a ticket holds its verdict already.
//! * **Readers never touch the engine.** Each [`ReaderHandle`] owns a
//!   private [`SolutionMirror`](dynamis_core::SolutionMirror) and
//!   catches up lazily from the sequence-numbered broadcast log; a
//!   reader that falls behind the log's bounded window re-seeds from
//!   the log's checkpoint. Queries are wait-free with respect to the
//!   combining submitter apart from an `Arc`-clone critical section.
//! * **Graceful shutdown** waits for every handle: everything submitted
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
