//! The network layer's error type.

use dynamis_core::{EngineError, MirrorError};
use dynamis_serve::wire::WireError;
use std::fmt;
use std::io;

/// Why a network operation failed — on either side of the socket.
#[derive(Debug)]
pub enum NetError {
    /// Socket-level failure (connect, read, write, timeout).
    Io(io::Error),
    /// The peer sent bytes the codec refused (typed; see [`WireError`]).
    Wire(WireError),
    /// The peer violated the protocol: a well-formed message that is
    /// nonsensical at this point (e.g. a query answered with the wrong
    /// response kind).
    Protocol(&'static str),
    /// Version negotiation failed: the server speaks `server`, this
    /// client speaks `client`, and a session needs both to be equal.
    Handshake {
        /// Protocol version the server answered with or named in its
        /// refusal (0 if it named none).
        server: u16,
        /// Protocol version this client requested.
        client: u16,
    },
    /// Admission control shed the request — the service's ingest queue
    /// is saturated. Retry later; `queue_depth` is the depth the server
    /// observed when it shed.
    Busy {
        /// Ingest-queue depth at shed time.
        queue_depth: u64,
    },
    /// The engine rejected the update (the ticketed verdict's typed
    /// error, carried over the wire).
    Rejected(EngineError),
    /// The connection ended cleanly while a reply was still owed, or
    /// the server refused the session at the door.
    ServerClosed,
    /// A subscription stream skipped a sequence number: the client
    /// expected `expected` next but received `got`. A correct server
    /// never does this; a resumed stream that starts too far forward
    /// does. Re-subscribe from the last applied sequence.
    Gap {
        /// The sequence number the mirror needed next.
        expected: u64,
        /// The sequence number that actually arrived.
        got: u64,
    },
    /// A delta arrived in order but contradicted the mirror's state —
    /// the stream is corrupt; re-subscribe from a checkpoint.
    Mirror(MirrorError),
    /// A filtered subscription delivered a vertex outside its filter —
    /// a server bug; the stream cannot be trusted.
    OutOfFilter {
        /// The out-of-filter vertex that arrived.
        vertex: u32,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "i/o error: {e}"),
            NetError::Wire(e) => write!(f, "wire decode error: {e}"),
            NetError::Protocol(what) => write!(f, "protocol violation: {what}"),
            NetError::Handshake { server, client } => write!(
                f,
                "handshake failed: server speaks protocol {server}, client {client}"
            ),
            NetError::Busy { queue_depth } => write!(
                f,
                "shed by admission control (ingest queue depth {queue_depth}); retry later"
            ),
            NetError::Rejected(e) => write!(f, "engine rejected the update: {e}"),
            NetError::ServerClosed => write!(f, "server closed the connection"),
            NetError::Gap { expected, got } => write!(
                f,
                "subscription stream gap: expected seq {expected}, got {got}"
            ),
            NetError::Mirror(e) => write!(f, "subscription stream corrupt: {e}"),
            NetError::OutOfFilter { vertex } => write!(
                f,
                "filtered subscription delivered out-of-filter vertex {vertex}"
            ),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            NetError::Wire(e) => Some(e),
            NetError::Rejected(e) => Some(e),
            NetError::Mirror(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<WireError> for NetError {
    fn from(e: WireError) -> Self {
        NetError::Wire(e)
    }
}

impl From<MirrorError> for NetError {
    fn from(e: MirrorError) -> Self {
        NetError::Mirror(e)
    }
}
