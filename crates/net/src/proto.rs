//! The request/response vocabulary: one typed enum per direction, each
//! message encoded as one frame payload with a leading codec version
//! word ([`wire::WIRE_VERSION`]). Value-level encodings (updates,
//! deltas, errors, stats) come from `dynamis-serve`'s [`wire`] codec,
//! so the bytes a subscription pushes are exactly the bytes the serve
//! layer defines.
//!
//! The *protocol* version ([`PROTO_VERSION`]) rides only in the
//! `Hello` exchange: a session starts only when both peers speak the
//! same one. The per-message word stays at the codec version.

use crate::error::NetError;
use dynamis_core::{EngineError, SolutionDelta};
use dynamis_graph::Update;
use dynamis_obs::MetricsSnapshot;
use dynamis_serve::wire::{self, Reader, WireError};
use dynamis_serve::ServiceStats;

/// Protocol version spoken by this build. A connection starts with a
/// [`Request::Hello`] carrying the client's version. The server answers
/// with its own only if the two are equal, and refuses any other
/// version with [`ERR_VERSION`]; the client in turn refuses a server
/// that answers with a different version ([`NetError::Handshake`]).
pub const PROTO_VERSION: u16 = 2;

/// One client → server message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Opens the session: version check. Must be first.
    Hello {
        /// Protocol version the client speaks.
        version: u16,
    },
    /// Apply one graph update; answered with a ticketed
    /// [`Response::Verdict`] (or [`Response::Busy`]).
    Apply(Update),
    /// Apply a batch; answered with [`Response::Verdicts`], one per
    /// update in order (or [`Response::Busy`] for the whole batch).
    ApplyBatch(Vec<Update>),
    /// O(1) membership query against the served solution.
    Contains(u32),
    /// Current solution size.
    Len,
    /// Full solution membership plus the sequence number it reflects.
    Snapshot,
    /// Service counter snapshot (includes the net layer's counters).
    Stats,
    /// Convert this session into a subscription stream delivering every
    /// sequenced delta after `after_seq`. Answered with
    /// [`Response::Subscribed`], after which the server pushes
    /// [`Response::Delta`] / [`Response::Checkpoint`] frames and reads
    /// nothing further from this connection.
    Subscribe {
        /// Last sequence number the client has already applied (0 for
        /// a fresh mirror).
        after_seq: u64,
    },
    /// Liveness probe; answered with [`Response::Pong`].
    Ping,
    /// Telemetry snapshot of the process-global metrics registry;
    /// answered with [`Response::Metrics`].
    Metrics,
    /// Snapshot cold-start: stream the server's base
    /// checkpoint — the newest durable checkpoint after a recovered
    /// restart — so a fresh mirror seeds at its sequence number instead
    /// of replaying from 0. Answered with one
    /// [`Response::BootstrapMeta`] followed by `chunks`
    /// [`Response::BootstrapChunk`] frames (length-capped), after which
    /// the session returns to request/response.
    Bootstrap,
}

/// One server → client message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Session accepted.
    Hello {
        /// Protocol version the server speaks.
        version: u16,
        /// Broadcast-log head at accept time.
        head_seq: u64,
    },
    /// Ticketed verdict for one [`Request::Apply`]: the sequence number
    /// of the broadcast batch containing the update, or the engine's
    /// typed rejection — exactly what the in-process ticket reports.
    Verdict(Result<u64, EngineError>),
    /// Per-update verdicts for one [`Request::ApplyBatch`], in
    /// submission order.
    Verdicts(Vec<Result<u64, EngineError>>),
    /// Answer to [`Request::Contains`].
    Bool(bool),
    /// Answer to [`Request::Len`].
    Len(u64),
    /// Answer to [`Request::Snapshot`]: sorted membership at `seq`.
    Snapshot {
        /// Sequence number the snapshot reflects.
        seq: u64,
        /// Sorted solution membership.
        solution: Vec<u32>,
    },
    /// Answer to [`Request::Stats`].
    Stats(Box<ServiceStats>),
    /// Admission control shed the request (or, at the door, the whole
    /// session). The client should back off and retry.
    Busy {
        /// Ingest-queue depth the server observed when it shed.
        queue_depth: u64,
    },
    /// Subscription accepted; deltas follow from `resume_seq + 1`.
    Subscribed {
        /// The sequence number streaming resumes after.
        resume_seq: u64,
    },
    /// One sequenced delta, pushed to a subscriber. Contiguous: a
    /// correct stream delivers `seq == previous + 1`.
    Delta {
        /// The entry's sequence number.
        seq: u64,
        /// Its net solution change.
        delta: SolutionDelta,
    },
    /// Checkpoint fallback, pushed when the subscriber's position fell
    /// behind the log's retained window (including a `Subscribe` far in
    /// the past): replace the mirror with this full membership, then
    /// deltas continue from `seq + 1`.
    Checkpoint {
        /// Sequence number the checkpoint covers up to (inclusive).
        seq: u64,
        /// Sorted solution membership at that sequence number.
        solution: Vec<u32>,
    },
    /// Answer to [`Request::Ping`].
    Pong,
    /// Answer to [`Request::Metrics`]: the same [`MetricsSnapshot`]
    /// schema the in-process API and the text encoders use, versioned
    /// independently by [`dynamis_obs::SNAPSHOT_VERSION`].
    Metrics(Box<MetricsSnapshot>),
    /// Protocol-level failure (malformed frame, handshake refusal,
    /// out-of-order message). The server closes the connection after
    /// sending one of these.
    Error {
        /// Stable numeric class of the failure (see `ERR_*` consts).
        code: u16,
        /// Human-readable detail.
        message: String,
    },
    /// Opens a [`Request::Bootstrap`] stream: the checkpoint's sequence
    /// number, its total member count, how many chunk frames follow,
    /// and a CRC-32 (the durable layer's checksum, over the members'
    /// little-endian bytes) the client verifies after reassembly.
    BootstrapMeta {
        /// Sequence number the checkpoint covers (inclusive); the
        /// client subscribes with `after_seq = seq` afterwards.
        seq: u64,
        /// Total solution members across all chunks.
        members: u64,
        /// Number of [`Response::BootstrapChunk`] frames that follow.
        chunks: u32,
        /// CRC-32 over the concatenated little-endian member bytes.
        crc: u32,
    },
    /// One length-capped slice of a bootstrap checkpoint's membership,
    /// in ascending `index` order.
    BootstrapChunk {
        /// 0-based chunk index.
        index: u32,
        /// This chunk's slice of the sorted membership.
        members: Vec<u32>,
    },
}

/// [`Response::Error`] code: the frame could not be decoded.
pub const ERR_MALFORMED: u16 = 1;
/// [`Response::Error`] code: version negotiation failed.
pub const ERR_VERSION: u16 = 2;
/// [`Response::Error`] code: the session cap was reached.
pub const ERR_SESSION_LIMIT: u16 = 3;
/// [`Response::Error`] code: the service is shutting down.
pub const ERR_SHUTDOWN: u16 = 4;
/// [`Response::Error`] code: message out of order (e.g. no `Hello`).
pub const ERR_ORDER: u16 = 5;

/// Encodes one request as a frame payload. The leading word is the
/// *codec* version ([`wire::WIRE_VERSION`]), not [`PROTO_VERSION`]:
/// the protocol version is checked once, in `Hello`.
pub fn encode_request(req: &Request, out: &mut Vec<u8>) {
    out.clear();
    wire::put_u16(out, wire::WIRE_VERSION);
    match req {
        Request::Hello { version } => {
            out.push(1);
            wire::put_u16(out, *version);
        }
        Request::Apply(u) => {
            out.push(2);
            wire::encode_update_body(u, out);
        }
        Request::ApplyBatch(us) => {
            out.push(3);
            wire::put_u32(out, us.len() as u32);
            for u in us {
                wire::encode_update_body(u, out);
            }
        }
        Request::Contains(v) => {
            out.push(4);
            wire::put_u32(out, *v);
        }
        Request::Len => out.push(5),
        Request::Snapshot => out.push(6),
        Request::Stats => out.push(7),
        Request::Subscribe { after_seq } => {
            out.push(8);
            wire::put_u64(out, *after_seq);
        }
        Request::Ping => out.push(9),
        Request::Metrics => out.push(10),
        Request::Bootstrap => out.push(11),
    }
}

/// Decodes one request frame payload.
pub fn decode_request(buf: &[u8]) -> Result<Request, WireError> {
    let mut r = Reader::new(buf);
    r.take_version("request")?;
    let req = match r.take_u8("request tag")? {
        1 => Request::Hello {
            version: r.take_u16("hello version")?,
        },
        2 => Request::Apply(wire::take_update(&mut r)?),
        3 => {
            // Update bodies are variable-length; validate the count
            // against the minimum body size (5 bytes) so a hostile
            // length cannot stage a huge allocation.
            let n = r.take_len(5, "batch")?;
            let mut us = Vec::with_capacity(n);
            for _ in 0..n {
                us.push(wire::take_update(&mut r)?);
            }
            Request::ApplyBatch(us)
        }
        4 => Request::Contains(r.take_u32("contains vertex")?),
        5 => Request::Len,
        6 => Request::Snapshot,
        7 => Request::Stats,
        8 => Request::Subscribe {
            after_seq: r.take_u64("subscribe seq")?,
        },
        9 => Request::Ping,
        10 => Request::Metrics,
        11 => Request::Bootstrap,
        tag => {
            return Err(WireError::UnknownTag {
                what: "request",
                tag: tag as u16,
            })
        }
    };
    r.finish()?;
    Ok(req)
}

/// Encodes one response as a frame payload. As with requests, the
/// leading word is the codec version, not [`PROTO_VERSION`].
pub fn encode_response(resp: &Response, out: &mut Vec<u8>) {
    out.clear();
    wire::put_u16(out, wire::WIRE_VERSION);
    match resp {
        Response::Hello { version, head_seq } => {
            out.push(1);
            wire::put_u16(out, *version);
            wire::put_u64(out, *head_seq);
        }
        Response::Verdict(v) => {
            out.push(2);
            wire::encode_verdict_body(v, out);
        }
        Response::Verdicts(vs) => {
            out.push(3);
            wire::put_u32(out, vs.len() as u32);
            for v in vs {
                wire::encode_verdict_body(v, out);
            }
        }
        Response::Bool(b) => {
            out.push(4);
            out.push(*b as u8);
        }
        Response::Len(n) => {
            out.push(5);
            wire::put_u64(out, *n);
        }
        Response::Snapshot { seq, solution } => {
            out.push(6);
            wire::put_u64(out, *seq);
            wire::put_u32s(out, solution);
        }
        Response::Stats(s) => {
            out.push(7);
            wire::encode_stats_body(s, out);
        }
        Response::Busy { queue_depth } => {
            out.push(8);
            wire::put_u64(out, *queue_depth);
        }
        Response::Subscribed { resume_seq } => {
            out.push(9);
            wire::put_u64(out, *resume_seq);
        }
        Response::Delta { seq, delta } => {
            out.push(10);
            wire::put_u64(out, *seq);
            wire::encode_delta_body(delta, out);
        }
        Response::Checkpoint { seq, solution } => {
            out.push(11);
            wire::put_u64(out, *seq);
            wire::put_u32s(out, solution);
        }
        Response::Pong => out.push(12),
        Response::Error { code, message } => {
            out.push(13);
            wire::put_u16(out, *code);
            wire::put_str(out, message);
        }
        Response::Metrics(m) => {
            out.push(14);
            wire::encode_metrics_body(m, out);
        }
        Response::BootstrapMeta {
            seq,
            members,
            chunks,
            crc,
        } => {
            out.push(15);
            wire::put_u64(out, *seq);
            wire::put_u64(out, *members);
            wire::put_u32(out, *chunks);
            wire::put_u32(out, *crc);
        }
        Response::BootstrapChunk { index, members } => {
            out.push(16);
            wire::put_u32(out, *index);
            wire::put_u32s(out, members);
        }
    }
}

/// Decodes one response frame payload.
pub fn decode_response(buf: &[u8]) -> Result<Response, WireError> {
    let mut r = Reader::new(buf);
    r.take_version("response")?;
    let resp = match r.take_u8("response tag")? {
        1 => Response::Hello {
            version: r.take_u16("hello version")?,
            head_seq: r.take_u64("hello head")?,
        },
        2 => Response::Verdict(wire::take_verdict(&mut r)?),
        3 => {
            // Minimum verdict body is 9 bytes (tag + u64).
            let n = r.take_len(9, "verdicts")?;
            let mut vs = Vec::with_capacity(n);
            for _ in 0..n {
                vs.push(wire::take_verdict(&mut r)?);
            }
            Response::Verdicts(vs)
        }
        4 => Response::Bool(r.take_u8("bool")? != 0),
        5 => Response::Len(r.take_u64("len")?),
        6 => Response::Snapshot {
            seq: r.take_u64("snapshot seq")?,
            solution: r.take_u32s("snapshot members")?,
        },
        7 => Response::Stats(Box::new(wire::take_stats(&mut r)?)),
        8 => Response::Busy {
            queue_depth: r.take_u64("busy depth")?,
        },
        9 => Response::Subscribed {
            resume_seq: r.take_u64("subscribed seq")?,
        },
        10 => Response::Delta {
            seq: r.take_u64("delta seq")?,
            delta: wire::take_delta(&mut r)?,
        },
        11 => Response::Checkpoint {
            seq: r.take_u64("checkpoint seq")?,
            solution: r.take_u32s("checkpoint members")?,
        },
        12 => Response::Pong,
        13 => Response::Error {
            code: r.take_u16("error code")?,
            message: r.take_str("error message")?,
        },
        14 => Response::Metrics(Box::new(wire::take_metrics(&mut r)?)),
        15 => Response::BootstrapMeta {
            seq: r.take_u64("bootstrap seq")?,
            members: r.take_u64("bootstrap members")?,
            chunks: r.take_u32("bootstrap chunks")?,
            crc: r.take_u32("bootstrap crc")?,
        },
        16 => Response::BootstrapChunk {
            index: r.take_u32("chunk index")?,
            members: r.take_u32s("chunk members")?,
        },
        tag => {
            return Err(WireError::UnknownTag {
                what: "response",
                tag: tag as u16,
            })
        }
    };
    r.finish()?;
    Ok(resp)
}

/// Maps a [`Response`] that is an error/shed reply to the typed
/// [`NetError`] a client surfaces; passes every other response through.
pub fn response_to_result(resp: Response) -> Result<Response, NetError> {
    match resp {
        Response::Busy { queue_depth } => Err(NetError::Busy { queue_depth }),
        Response::Error { code, .. } if code == ERR_SHUTDOWN => Err(NetError::ServerClosed),
        Response::Error { code, message } if code == ERR_VERSION => Err(NetError::Handshake {
            // The refusal names the server's version last ("server
            // speaks protocol N"); 0 if it names none.
            server: message
                .rsplit(' ')
                .next()
                .and_then(|v| v.parse().ok())
                .unwrap_or(0),
            client: PROTO_VERSION,
        }),
        Response::Error { .. } => Err(NetError::Protocol("server reported a protocol error")),
        other => Ok(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: &Request) -> Request {
        let mut buf = Vec::new();
        encode_request(req, &mut buf);
        decode_request(&buf).expect("request roundtrip")
    }

    fn roundtrip_response(resp: &Response) -> Response {
        let mut buf = Vec::new();
        encode_response(resp, &mut buf);
        decode_response(&buf).expect("response roundtrip")
    }

    /// The filterless bytes every peer sends (codec word, tag 8,
    /// `after_seq`, nothing after) decode as a `Subscribe` to all deltas.
    #[test]
    fn legacy_filterless_subscribe_decodes_as_all() {
        let mut buf = Vec::new();
        wire::put_u16(&mut buf, wire::WIRE_VERSION);
        buf.push(8);
        wire::put_u64(&mut buf, 7);
        assert_eq!(
            decode_request(&buf).unwrap(),
            Request::Subscribe { after_seq: 7 }
        );
    }

    /// A `Subscribe` encodes to exactly those filterless bytes: no byte
    /// follows `after_seq`.
    #[test]
    fn all_filter_encodes_byte_identically_to_legacy() {
        let mut buf = Vec::new();
        encode_request(&Request::Subscribe { after_seq: 7 }, &mut buf);
        let mut legacy = Vec::new();
        wire::put_u16(&mut legacy, wire::WIRE_VERSION);
        legacy.push(8);
        wire::put_u64(&mut legacy, 7);
        assert_eq!(buf, legacy);
    }

    /// Any byte after `after_seq` is malformed — including the filter
    /// bytes an older peer appended (tag 1 range, tag 2 shard).
    #[test]
    fn subscribe_with_trailing_bytes_is_refused() {
        let mut tails: Vec<Vec<u8>> = vec![vec![0], vec![0xFF]];
        for (tag, a, b) in [(1u8, 0u32, 500u32), (2, 0, 2)] {
            let mut tail = vec![tag];
            wire::put_u32(&mut tail, a);
            wire::put_u32(&mut tail, b);
            tails.push(tail);
        }
        for tail in tails {
            let mut buf = Vec::new();
            encode_request(&Request::Subscribe { after_seq: 7 }, &mut buf);
            buf.extend_from_slice(&tail);
            assert_eq!(
                decode_request(&buf),
                Err(WireError::TrailingBytes(tail.len())),
                "tail {tail:?}"
            );
        }
    }

    #[test]
    fn bootstrap_messages_roundtrip() {
        assert_eq!(roundtrip_request(&Request::Bootstrap), Request::Bootstrap);
        let meta = Response::BootstrapMeta {
            seq: 1234,
            members: 99,
            chunks: 3,
            crc: 0xDEAD_BEEF,
        };
        assert_eq!(roundtrip_response(&meta), meta);
        let chunk = Response::BootstrapChunk {
            index: 2,
            members: vec![1, 5, 9, 1000],
        };
        assert_eq!(roundtrip_response(&chunk), chunk);
    }
}
