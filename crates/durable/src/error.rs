//! Typed failures of the durability layer.

use dynamis_core::EngineError;
use std::fmt;
use std::io;

/// Why a durable data directory could not be opened, scanned, or
/// recovered. Every corruption class is typed: callers (the CLI's
/// `recover` subcommand, the serve wiring, the fuzz suite) can tell an
/// operator error (wrong `k`, newer on-disk format) from crash damage
/// (torn tail, bit flip) without parsing strings.
#[derive(Debug)]
pub enum DurableError {
    /// The underlying storage failed.
    Io(io::Error),
    /// The directory holds no `MANIFEST`: it is not a durable data
    /// directory (or initialization never completed).
    NotInitialized,
    /// A file failed structural validation beyond repair — damage in a
    /// position the recovery invariants do not allow (for example a
    /// checksum mismatch in a *non-final* segment, which no crash can
    /// produce).
    Corrupt {
        /// The offending file.
        file: String,
        /// What failed, for the operator.
        what: &'static str,
    },
    /// A manifest, checkpoint, or segment was written by a newer format
    /// version. Refused, never guessed at.
    UnsupportedVersion {
        /// Version found on disk.
        found: u16,
        /// Newest version this build understands.
        supported: u16,
    },
    /// The directory was written for a different `k` than the caller
    /// expects. Replaying a `k = 1` stream into a `k = 2` engine would
    /// silently produce a different solution, so this is a refusal.
    KMismatch {
        /// `k` recorded on disk.
        found: u32,
        /// `k` the caller asked for.
        expected: u32,
    },
    /// The manifest or a checkpoint records a WAL stream count other
    /// than one. The format keeps the count, but this layer logs every
    /// update to a single stream and cannot replay records that were
    /// split across several.
    StreamMismatch {
        /// Stream count recorded on disk.
        found: u32,
        /// The only stream count this layer reads: 1.
        expected: u32,
    },
    /// No checkpoint survived validation. The layer always writes a
    /// bootstrap checkpoint before logging the first update, so this
    /// means every checkpoint file was damaged.
    NoCheckpoint,
    /// A logged update was rejected during replay. Impossible for an
    /// undamaged log (only *accepted* updates are ever logged), so this
    /// is corruption that happened to pass the checksums.
    Replay {
        /// Sequence number of the rejected update.
        seq: u64,
        /// The engine's rejection.
        cause: EngineError,
    },
    /// Engine construction failed while opening the directory.
    Engine(EngineError),
}

impl DurableError {
    /// Collapses this error into an [`EngineError`] for APIs (the serve
    /// engine factories) that can only surface engine errors. Detail
    /// beyond the class is lost; callers that care print `self` first.
    pub fn into_engine_error(self) -> EngineError {
        match self {
            DurableError::Engine(e) => e,
            DurableError::Replay { cause, .. } => cause,
            DurableError::Io(_) => EngineError::BadParameter("durable: storage I/O failed"),
            DurableError::NotInitialized => {
                EngineError::BadParameter("durable: data directory not initialized")
            }
            DurableError::Corrupt { .. } => {
                EngineError::BadParameter("durable: data directory is corrupt")
            }
            DurableError::UnsupportedVersion { .. } => {
                EngineError::BadParameter("durable: data directory has a newer format version")
            }
            DurableError::KMismatch { .. } => {
                EngineError::BadParameter("durable: data directory was written for a different k")
            }
            DurableError::StreamMismatch { .. } => EngineError::BadParameter(
                "durable: data directory was written with more than one WAL stream",
            ),
            DurableError::NoCheckpoint => {
                EngineError::BadParameter("durable: no valid checkpoint in data directory")
            }
        }
    }
}

impl fmt::Display for DurableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableError::Io(e) => write!(f, "storage I/O failed: {e}"),
            DurableError::NotInitialized => {
                write!(f, "not a durable data directory (no MANIFEST)")
            }
            DurableError::Corrupt { file, what } => write!(f, "{file} is corrupt: {what}"),
            DurableError::UnsupportedVersion { found, supported } => write!(
                f,
                "format version {found} is newer than supported version {supported}"
            ),
            DurableError::KMismatch { found, expected } => {
                write!(
                    f,
                    "data directory was written for k = {found}, not {expected}"
                )
            }
            DurableError::StreamMismatch { found, expected } => write!(
                f,
                "data directory was written with {found} WAL streams, not {expected}"
            ),
            DurableError::NoCheckpoint => write!(f, "no checkpoint survived validation"),
            DurableError::Replay { seq, cause } => {
                write!(f, "logged update seq {seq} was rejected on replay: {cause}")
            }
            DurableError::Engine(e) => write!(f, "engine construction failed: {e}"),
        }
    }
}

impl std::error::Error for DurableError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurableError::Io(e) => Some(e),
            DurableError::Replay { cause, .. } => Some(cause),
            DurableError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for DurableError {
    fn from(e: io::Error) -> Self {
        DurableError::Io(e)
    }
}

impl From<EngineError> for DurableError {
    fn from(e: EngineError) -> Self {
        DurableError::Engine(e)
    }
}
