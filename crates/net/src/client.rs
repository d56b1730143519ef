//! The blocking client: one request/response call per method, plus the
//! subscription consumer and the [`RemoteMirror`] replica it feeds.

use crate::error::NetError;
use crate::frame::{read_frame, write_frame, FrameBuffer};
use crate::proto::{
    decode_response, encode_request, response_to_result, Request, Response, PROTO_VERSION,
};
use dynamis_core::{EngineError, SolutionDelta, SolutionMirror};
use dynamis_graph::Update;
use dynamis_obs::MetricsSnapshot;
use dynamis_serve::ServiceStats;
use std::io::{self, Read};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A connected, handshaken session. One outstanding request at a time
/// (the protocol is strictly request/response until a `Subscribe`).
pub struct NetClient {
    stream: TcpStream,
    payload: Vec<u8>,
    reply: Vec<u8>,
    head_at_hello: u64,
}

impl NetClient {
    /// Connects and performs the `Hello` handshake. The session
    /// proceeds only if the server speaks exactly [`PROTO_VERSION`];
    /// otherwise this fails with [`NetError::Handshake`].
    pub fn connect(addr: impl ToSocketAddrs) -> Result<NetClient, NetError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut c = NetClient {
            stream,
            payload: Vec::new(),
            reply: Vec::new(),
            head_at_hello: 0,
        };
        match c.call(&Request::Hello {
            version: PROTO_VERSION,
        })? {
            Response::Hello { version, head_seq } if version == PROTO_VERSION => {
                c.head_at_hello = head_seq;
                Ok(c)
            }
            Response::Hello { version, .. } => Err(NetError::Handshake {
                server: version,
                client: PROTO_VERSION,
            }),
            _ => Err(NetError::Protocol("handshake answered with a non-Hello")),
        }
    }

    /// Broadcast-log head the server reported at handshake time.
    pub fn head_at_hello(&self) -> u64 {
        self.head_at_hello
    }

    /// One request/response round trip. Shed (`Busy`) and server-error
    /// replies surface as typed [`NetError`]s.
    pub fn call(&mut self, req: &Request) -> Result<Response, NetError> {
        encode_request(req, &mut self.payload);
        write_frame(&mut self.stream, &self.payload)?;
        if !read_frame(&mut self.stream, &mut self.reply)? {
            return Err(NetError::ServerClosed);
        }
        response_to_result(decode_response(&self.reply)?)
    }

    /// Applies one update; returns its broadcast sequence number.
    /// Engine rejections are [`NetError::Rejected`], admission sheds
    /// [`NetError::Busy`].
    pub fn apply(&mut self, update: Update) -> Result<u64, NetError> {
        match self.call(&Request::Apply(update))? {
            Response::Verdict(Ok(seq)) => Ok(seq),
            Response::Verdict(Err(e)) => Err(NetError::Rejected(e)),
            _ => Err(NetError::Protocol("apply answered with a non-verdict")),
        }
    }

    /// Applies a batch; returns one ticketed verdict per update, in
    /// submission order (a rejection does not fail the whole batch).
    pub fn apply_batch(
        &mut self,
        updates: Vec<Update>,
    ) -> Result<Vec<Result<u64, EngineError>>, NetError> {
        match self.call(&Request::ApplyBatch(updates))? {
            Response::Verdicts(vs) => Ok(vs),
            _ => Err(NetError::Protocol("batch answered with a non-verdict")),
        }
    }

    /// O(1) membership query.
    pub fn contains(&mut self, v: u32) -> Result<bool, NetError> {
        match self.call(&Request::Contains(v))? {
            Response::Bool(b) => Ok(b),
            _ => Err(NetError::Protocol("contains answered with a non-bool")),
        }
    }

    /// Current solution size.
    pub fn len(&mut self) -> Result<u64, NetError> {
        match self.call(&Request::Len)? {
            Response::Len(n) => Ok(n),
            _ => Err(NetError::Protocol("len answered with a non-len")),
        }
    }

    /// Whether the solution is empty.
    pub fn is_empty(&mut self) -> Result<bool, NetError> {
        Ok(self.len()? == 0)
    }

    /// Full membership snapshot plus the sequence number it reflects.
    pub fn snapshot(&mut self) -> Result<(u64, Vec<u32>), NetError> {
        match self.call(&Request::Snapshot)? {
            Response::Snapshot { seq, solution } => Ok((seq, solution)),
            _ => Err(NetError::Protocol("snapshot answered wrongly")),
        }
    }

    /// Service stats, including the net layer's counters.
    pub fn stats(&mut self) -> Result<ServiceStats, NetError> {
        match self.call(&Request::Stats)? {
            Response::Stats(s) => Ok(*s),
            _ => Err(NetError::Protocol("stats answered wrongly")),
        }
    }

    /// Telemetry snapshot of the server process — the same
    /// [`MetricsSnapshot`] schema the in-process registry API returns.
    pub fn metrics(&mut self) -> Result<MetricsSnapshot, NetError> {
        match self.call(&Request::Metrics)? {
            Response::Metrics(m) => Ok(*m),
            _ => Err(NetError::Protocol("metrics answered wrongly")),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), NetError> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            _ => Err(NetError::Protocol("ping answered with a non-pong")),
        }
    }

    /// Converts this session into a subscription stream delivering
    /// every sequenced delta after `after_seq` (0 for a fresh mirror;
    /// the last applied sequence to resume after a reconnect).
    pub fn subscribe(mut self, after_seq: u64) -> Result<Subscription, NetError> {
        match self.call(&Request::Subscribe { after_seq })? {
            Response::Subscribed { resume_seq } if resume_seq == after_seq => Ok(Subscription {
                stream: self.stream,
                fb: FrameBuffer::new(),
                chunk: vec![0u8; 64 * 1024],
                reply: self.reply,
            }),
            Response::Subscribed { .. } => {
                Err(NetError::Protocol("subscription resumed at the wrong seq"))
            }
            _ => Err(NetError::Protocol("subscribe answered wrongly")),
        }
    }

    /// Snapshot cold-start: fetches the server's base checkpoint — after a durable restart, the newest
    /// durable checkpoint — as `(seq, sorted membership)`, reassembled
    /// from length-capped chunks and CRC-verified. A fresh mirror
    /// seeds from it and then subscribes with `after_seq = seq`,
    /// skipping the replay from sequence 0.
    pub fn bootstrap(&mut self) -> Result<(u64, Vec<u32>), NetError> {
        let (seq, total, chunks, crc) = match self.call(&Request::Bootstrap)? {
            Response::BootstrapMeta {
                seq,
                members,
                chunks,
                crc,
            } => (seq, members, chunks, crc),
            _ => Err(NetError::Protocol("bootstrap answered wrongly"))?,
        };
        let total = usize::try_from(total)
            .map_err(|_| NetError::Protocol("bootstrap member count overflows"))?;
        let mut members: Vec<u32> = Vec::with_capacity(total);
        for expect in 0..chunks {
            // Chunks are pushed back-to-back after the meta frame, in
            // index order, on the same request/response stream.
            if !read_frame(&mut self.stream, &mut self.reply)? {
                return Err(NetError::ServerClosed);
            }
            match response_to_result(decode_response(&self.reply)?)? {
                Response::BootstrapChunk { index, members: m } if index == expect => {
                    members.extend_from_slice(&m);
                }
                Response::BootstrapChunk { .. } => {
                    return Err(NetError::Protocol("bootstrap chunk out of order"))
                }
                _ => return Err(NetError::Protocol("non-chunk inside a bootstrap stream")),
            }
        }
        if members.len() != total {
            return Err(NetError::Protocol("bootstrap member count mismatch"));
        }
        let mut bytes = Vec::with_capacity(members.len() * 4);
        for &v in &members {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        if dynamis_durable::format::crc32(&bytes) != crc {
            return Err(NetError::Protocol("bootstrap checksum mismatch"));
        }
        Ok((seq, members))
    }
}

/// One pushed subscription event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubEvent {
    /// One sequenced delta (contiguous in a correct stream).
    Delta {
        /// The entry's sequence number.
        seq: u64,
        /// Its net solution change.
        delta: SolutionDelta,
    },
    /// Checkpoint fallback: replace the mirror with this membership;
    /// deltas continue from `seq + 1`.
    Checkpoint {
        /// Sequence number the checkpoint covers up to (inclusive).
        seq: u64,
        /// Sorted membership at that sequence number.
        solution: Vec<u32>,
    },
}

/// The receiving end of a subscription stream.
pub struct Subscription {
    stream: TcpStream,
    fb: FrameBuffer,
    chunk: Vec<u8>,
    reply: Vec<u8>,
}

impl Subscription {
    /// Blocks until the next event (respecting any read timeout set via
    /// [`Subscription::set_read_timeout`] — a timeout surfaces as
    /// `Ok(None)` so pollers can check their own stop conditions).
    /// `Err(ServerClosed)` on a clean stream end.
    pub fn next_event(&mut self) -> Result<Option<SubEvent>, NetError> {
        loop {
            if let Some(frame) = self.fb.next_frame()? {
                self.reply = frame;
                return decode_event(&self.reply).map(Some);
            }
            match self.stream.read(&mut self.chunk) {
                Ok(0) => return Err(NetError::ServerClosed),
                Ok(n) => {
                    let (chunk, fb) = (&self.chunk[..n], &mut self.fb);
                    fb.extend(chunk);
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Ok(None)
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(NetError::Io(e)),
            }
        }
    }

    /// Drains every event currently readable without blocking (the
    /// socket must be in non-blocking mode — see
    /// [`Subscription::set_nonblocking`]). Calls `f` per event; returns
    /// `Ok(false)` once the server closed the stream.
    pub fn poll_events(&mut self, mut f: impl FnMut(SubEvent)) -> Result<bool, NetError> {
        loop {
            while let Some(frame) = self.fb.next_frame()? {
                f(decode_event(&frame)?);
            }
            match self.stream.read(&mut self.chunk) {
                Ok(0) => return Ok(false),
                Ok(n) => {
                    let (chunk, fb) = (&self.chunk[..n], &mut self.fb);
                    fb.extend(chunk);
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Ok(true)
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(NetError::Io(e)),
            }
        }
    }

    /// Switches the underlying socket between blocking and
    /// non-blocking mode (for poll-loop consumers sweeping many
    /// subscriptions on one thread).
    pub fn set_nonblocking(&self, on: bool) -> io::Result<()> {
        self.stream.set_nonblocking(on)
    }

    /// Read timeout for [`Subscription::next_event`] in blocking mode.
    pub fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(dur)
    }
}

fn decode_event(frame: &[u8]) -> Result<SubEvent, NetError> {
    match decode_response(frame)? {
        Response::Delta { seq, delta } => Ok(SubEvent::Delta { seq, delta }),
        Response::Checkpoint { seq, solution } => Ok(SubEvent::Checkpoint { seq, solution }),
        _ => Err(NetError::Protocol("non-event pushed on a subscription")),
    }
}

/// A remote replica of the served solution, fed by subscription
/// events. Apply is *strict*: a delta whose sequence number is not
/// exactly `seq() + 1` is a typed [`NetError::Gap`] — never silently
/// skipped or double-applied — and a delta contradicting the mirror's
/// state is a typed [`NetError::Mirror`]. This is what makes "every
/// sequenced delta, exactly once, in order" checkable: any violation
/// anywhere in the transport surfaces here.
#[derive(Debug, Default, Clone)]
pub struct RemoteMirror {
    mirror: SolutionMirror,
    seq: u64,
}

impl RemoteMirror {
    /// An empty replica at sequence 0 (apply a stream from the start,
    /// or expect a checkpoint first).
    pub fn new() -> Self {
        RemoteMirror::default()
    }

    /// Applies one event, enforcing contiguity.
    pub fn apply_event(&mut self, ev: &SubEvent) -> Result<(), NetError> {
        match ev {
            SubEvent::Delta { seq, delta } => {
                if *seq != self.seq + 1 {
                    return Err(NetError::Gap {
                        expected: self.seq + 1,
                        got: *seq,
                    });
                }
                self.mirror.apply(delta)?;
                self.seq = *seq;
                Ok(())
            }
            SubEvent::Checkpoint { seq, solution } => {
                self.mirror = SolutionMirror::from_solution(solution);
                self.seq = *seq;
                Ok(())
            }
        }
    }

    /// The sequence number the replica reflects.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// O(1) membership test.
    pub fn contains(&self, v: u32) -> bool {
        self.mirror.contains(v)
    }

    /// Current solution size.
    pub fn len(&self) -> usize {
        self.mirror.len()
    }

    /// Whether the solution is empty.
    pub fn is_empty(&self) -> bool {
        self.mirror.len() == 0
    }

    /// Materializes the replica's solution (sorted).
    pub fn solution(&self) -> Vec<u32> {
        self.mirror.solution()
    }
}
