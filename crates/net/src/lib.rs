//! Network front end for the dynamic-MIS serving stack: a
//! length-prefixed binary wire protocol over TCP exposing the serve
//! layer's single-writer service to remote clients.
//!
//! The crate is std-only and splits into:
//!
//! - [`frame`] — the transport unit: `u32` little-endian length prefix
//!   plus payload, with a reassembly buffer for streaming reads.
//! - [`proto`] — the typed [`proto::Request`]/[`proto::Response`]
//!   vocabulary, negotiated once per session ([`proto::PROTO_VERSION`]
//!   in `Hello`) and composed from `dynamis-serve`'s value codec so
//!   wire bytes match the serve layer's definitions exactly. Protocol
//!   2 adds filtered subscriptions ([`proto::SubFilter`]) and the
//!   snapshot cold-start handshake.
//! - [`server`] — thread-per-connection sessions over one
//!   [`server::NetBackend`], plus a pool of hub workers
//!   ([`server::NetConfig::hubs`], round-robin subscriber assignment)
//!   that own the subscription sockets and fan sequenced deltas out of
//!   the shared broadcast log — each entry encoded once process-wide
//!   through a shared frame cache, written once per subscriber.
//! - [`client`] — the blocking [`client::NetClient`], the
//!   [`client::Subscription`] consumer, and the strict
//!   [`client::RemoteMirror`] replica that makes "every delta, exactly
//!   once, in order" checkable (per vertex subset, for filtered
//!   streams). `NetClient::bootstrap` seeds a fresh mirror from the
//!   server's base checkpoint instead of replaying from sequence 0.
//! - [`admission`] — hysteretic shed/accept gate extending the serve
//!   layer's backpressure to clients with typed `Busy` replies.
//! - [`load`] — the load generator behind `dynamis net-load`:
//!   thousands of polled subscriber sockets per thread, writer
//!   round-trip percentiles, and stream-integrity accounting.
//!
//! A remote mirror fed by a subscription replays exactly what an
//! in-process `SolutionMirror` attached to the same service sees:
//! the same sequenced deltas, in the same order, with checkpoint
//! fallback when a resume point has aged out of the log window.

pub mod admission;
pub mod client;
pub mod error;
pub mod frame;
pub mod load;
pub mod proto;
pub mod server;

pub use admission::Admission;
pub use client::{NetClient, RemoteMirror, SubEvent, Subscription};
pub use error::NetError;
pub use load::{LoadConfig, LoadReport};
pub use proto::{Request, Response, SubFilter, PROTO_VERSION};
pub use server::{NetBackend, NetConfig, NetServer, NetServerHandle};
