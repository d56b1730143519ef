//! The server: a TCP acceptor, thread-per-connection sessions, and one
//! fan-out hub thread that owns every subscription socket.
//!
//! ```text
//!            accept            Hello / requests
//!  clients ─────────► acceptor ───► session threads ──► IngestHandle / ReaderHandle
//!                                        │ Subscribe
//!                                        ▼ (socket handoff)
//!                                   hub thread ──► SharedLog::tail_after
//!                                        │  encode each entry once
//!                                        ▼  (hub-owned frame cache)
//!                                  subscription sockets
//! ```
//!
//! Sessions are cheap threads because they are short-lived or mostly
//! parked in a read: queries answer from a forked [`ReaderHandle`]
//! (one atomic load when caught up), updates go through the non-
//! blocking ingest path behind the [`Admission`] gate. A connection
//! that has not completed `Hello` within a few seconds is refused with
//! `ERR_ORDER` and closed, so silent sockets cannot hold every
//! [`NetConfig::max_sessions`] slot. A `Subscribe` converts the
//! connection: the session replies, hands the socket to the hub, and
//! exits — so every subscriber is a socket the hub owns, not a thread.
//! The hub runs on its own thread, so fan-out never runs on the
//! session thread whose submit combined the write.
//!
//! The hub tails the log and encodes every entry **once**: it keeps
//! complete frames in a seq-keyed cache bounded by the log window.
//! Caught-up subscribers ride a per-round blob of those frames;
//! stragglers and post-checkpoint rebuilds take a per-subscriber
//! [`SharedLog::tail_after`] path, reusing the cached frames, until
//! they reach the hub's position. A subscriber that cannot absorb
//! writes within the write timeout is dropped — it reconnects and
//! resumes from its last applied sequence number, losing nothing. A
//! subscriber that *can* absorb writes but keeps falling further behind
//! (a slow crawl inside the log window) is force-reseeded with a fresh
//! checkpoint after [`NetConfig::straggler_rounds`] consecutive
//! saturated rounds rather than being allowed to lag forever.
//!
//! The hub never polls. It registers its thread with the log
//! ([`SharedLog::wake_on_publish`]) and parks until one of three wake
//! sources unparks it: a publish, a session handing it a subscriber,
//! or shutdown. A wake that lands between the hub's last check and its
//! park makes the park return at once, so none is lost; the park's
//! long timeout is only a safety net.

use crate::admission::Admission;
use crate::frame::{read_frame, write_frame, FrameBuffer};
use crate::proto::{
    decode_request, encode_response, Request, Response, ERR_MALFORMED, ERR_ORDER, ERR_SHUTDOWN,
    ERR_VERSION, PROTO_VERSION,
};
use dynamis_obs::{Gauge, Stage};
use dynamis_serve::{
    IngestHandle, LogTail, ReaderHandle, SeqEntry, ServeError, ServiceHandle, ServiceStats,
    SharedLog,
};
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::{self, JoinHandle, Thread};
use std::time::{Duration, Instant};

/// Session read timeout: how often a session blocked in `read` checks
/// for shutdown and for its handshake deadline.
const SESSION_TICK: Duration = Duration::from_millis(20);
/// Time a connection has to complete `Hello`. Past it the session
/// answers `ERR_ORDER` and closes, so silent connections cannot hold
/// every `max_sessions` slot.
const HELLO_DEADLINE: Duration = Duration::from_secs(3);
/// Longest idle hub park. Publishes, handoffs and shutdown each unpark
/// the hub, so this bounds only the cost of a wake that never comes;
/// nothing waits for it in normal operation.
const HUB_PARK_SAFETY_NET: Duration = Duration::from_millis(250);
/// Maximum solution members per [`Response::BootstrapChunk`] frame when
/// streaming a snapshot cold-start: 64Ki members = 256 KiB payloads,
/// far under the frame cap.
const BOOTSTRAP_CHUNK: usize = 1 << 16;
/// How long shutdown keeps flushing subscribers toward the final log
/// head before giving up on the stragglers.
const FLUSH_TIMEOUT: Duration = Duration::from_secs(30);

/// Tuning knobs for [`NetServer::bind`].
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// Maximum concurrently live sessions; connections beyond the cap
    /// are refused at the door with a `Busy` reply (counted as shed).
    pub max_sessions: usize,
    /// Ingest-queue depth at which admission control starts shedding
    /// update requests (see [`Admission`]).
    pub shed_high: u64,
    /// Queue depth at which shedding stops.
    pub shed_low: u64,
    /// Maximum log entries a straggling subscriber is advanced per hub
    /// round (caught-up subscribers ride the shared blob instead).
    pub sub_batch: usize,
    /// Per-subscriber write timeout; a subscriber that cannot absorb a
    /// round's deltas within it is dropped (it reconnects and resumes).
    pub write_timeout: Duration,
    /// Consecutive saturated straggler rounds (a full `sub_batch`
    /// advance that still leaves the subscriber more than `sub_batch`
    /// behind the head) before the hub force-reseeds the subscriber
    /// with a fresh checkpoint instead of letting it crawl forever.
    /// 0 disables forced reseeds.
    pub straggler_rounds: u32,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            max_sessions: 65536,
            // Defaults track ServeConfig::default's 1024-update queue.
            shed_high: 768,
            shed_low: 256,
            sub_batch: 256,
            write_timeout: Duration::from_secs(2),
            straggler_rounds: 16,
        }
    }
}

/// What the server fronts: the ingest path, the broadcast log, and a
/// reader prototype — the same three capabilities an in-process caller
/// holds. Build one with [`NetBackend::single`] for a [`MisService`].
///
/// [`MisService`]: dynamis_serve::MisService
pub struct NetBackend {
    /// Submit-only handle every session shares.
    pub ingest: IngestHandle,
    /// The sequenced broadcast log subscriptions stream from.
    pub log: Arc<SharedLog>,
    /// Reader prototype; sessions fork a private one on first query.
    pub reader: ReaderHandle,
}

impl NetBackend {
    /// Fronts a single-writer service.
    pub fn single(service: &ServiceHandle) -> NetBackend {
        NetBackend {
            ingest: service.ingest(),
            log: service.log(),
            reader: service.reader(),
        }
    }
}

/// Net-layer counters, overlaid onto [`ServiceStats`] snapshots.
#[derive(Debug, Default)]
struct NetCounters {
    connections: AtomicU64,
    sessions: AtomicI64,
    subscriptions: AtomicI64,
}

/// Cached telemetry handles for the net layer: one latency stage per
/// request type (gated timers — see [`dynamis_obs::Stage`]), the hub's
/// encode/write stages, and the fan-out lag gauges the hub refreshes
/// each progressing round.
struct NetObs {
    req_hello: Stage,
    req_apply: Stage,
    req_apply_batch: Stage,
    req_contains: Stage,
    req_len: Stage,
    req_snapshot: Stage,
    req_stats: Stage,
    req_subscribe: Stage,
    req_ping: Stage,
    req_metrics: Stage,
    req_bootstrap: Stage,
    hub_encode: Stage,
    sub_write: Stage,
    lag_max: Arc<Gauge>,
    lag_mean: Arc<Gauge>,
}

impl NetObs {
    fn new() -> NetObs {
        let g = dynamis_obs::global();
        NetObs {
            req_hello: Stage::global("net_req_hello_ns"),
            req_apply: Stage::global("net_req_apply_ns"),
            req_apply_batch: Stage::global("net_req_apply_batch_ns"),
            req_contains: Stage::global("net_req_contains_ns"),
            req_len: Stage::global("net_req_len_ns"),
            req_snapshot: Stage::global("net_req_snapshot_ns"),
            req_stats: Stage::global("net_req_stats_ns"),
            req_subscribe: Stage::global("net_req_subscribe_ns"),
            req_ping: Stage::global("net_req_ping_ns"),
            req_metrics: Stage::global("net_req_metrics_ns"),
            req_bootstrap: Stage::global("net_req_bootstrap_ns"),
            hub_encode: Stage::global("net_hub_encode_ns"),
            sub_write: Stage::global("net_sub_write_ns"),
            lag_max: g.gauge("net_sub_lag_max"),
            lag_mean: g.gauge("net_sub_lag_mean"),
        }
    }

    /// The latency stage charged for one request type.
    fn stage_for(&self, req: &Request) -> &Stage {
        match req {
            Request::Hello { .. } => &self.req_hello,
            Request::Apply(_) => &self.req_apply,
            Request::ApplyBatch(_) => &self.req_apply_batch,
            Request::Contains(_) => &self.req_contains,
            Request::Len => &self.req_len,
            Request::Snapshot => &self.req_snapshot,
            Request::Stats => &self.req_stats,
            Request::Subscribe { .. } => &self.req_subscribe,
            Request::Ping => &self.req_ping,
            Request::Metrics => &self.req_metrics,
            Request::Bootstrap => &self.req_bootstrap,
        }
    }
}

/// The hub's encode-once frame cache: complete frames (length prefix +
/// payload) keyed by entry sequence number, so a straggler replaying
/// entries the caught-up blob already carried reuses their bytes.
/// Bounded to the log's retained window — anything older would come
/// back as a checkpoint anyway, never as an entry.
struct FrameCache {
    frames: BTreeMap<u64, Vec<u8>>,
    cap: usize,
}

impl FrameCache {
    fn new(cap: usize) -> FrameCache {
        FrameCache {
            frames: BTreeMap::new(),
            cap: cap.max(1),
        }
    }

    /// The complete wire frame for `e`, encoding it on first request.
    fn frame_for(&mut self, e: &SeqEntry) -> &[u8] {
        if !self.frames.contains_key(&e.seq) {
            let mut payload = Vec::new();
            encode_response(
                &Response::Delta {
                    seq: e.seq,
                    delta: e.delta.clone(),
                },
                &mut payload,
            );
            let mut frame = Vec::with_capacity(payload.len() + 4);
            frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            frame.extend_from_slice(&payload);
            // Evict before inserting, so the frame returned below is
            // never the one evicted.
            if self.frames.len() >= self.cap {
                self.frames.pop_first();
            }
            self.frames.insert(e.seq, frame);
        }
        &self.frames[&e.seq]
    }
}

struct Shared {
    ingest: IngestHandle,
    log: Arc<SharedLog>,
    reader: Mutex<ReaderHandle>,
    admission: Admission,
    counters: NetCounters,
    obs: NetObs,
    cfg: NetConfig,
    stop: AtomicBool,
}

impl Shared {
    /// Service stats with the net layer's counters filled in.
    fn stats(&self) -> ServiceStats {
        let mut s = self.ingest.stats();
        s.connections = self.counters.connections.load(Ordering::Relaxed);
        s.sessions = self.counters.sessions.load(Ordering::Relaxed).max(0) as u64;
        s.subscriptions = self.counters.subscriptions.load(Ordering::Relaxed).max(0) as u64;
        s.shed = self.admission.shed_count();
        s.max_sub_lag = self.obs.lag_max.get();
        s.mean_sub_lag = self.obs.lag_mean.get();
        s
    }
}

/// A subscription socket owned by the hub, positioned at `seq`.
struct Sub {
    stream: TcpStream,
    seq: u64,
    /// Consecutive saturated straggler rounds (see
    /// [`NetConfig::straggler_rounds`]).
    behind: u32,
    /// Per-subscriber lag gauge, installed by the hub (None until
    /// handoff completes); unregisters itself when the sub drops.
    lag: Option<SubLag>,
}

/// The way into the hub: its handoff channel, and its thread, which the
/// handing-off session unparks so the hub installs the new subscriber
/// at once.
#[derive(Clone)]
struct HubDoor {
    tx: mpsc::Sender<Sub>,
    thread: Thread,
}

/// A registered `net_sub_lag_<id>` gauge. Registered at hub install,
/// unregistered on drop, so the registry tracks *live* subscribers —
/// every drop path (write failure, timeout drop, shutdown flush)
/// releases the gauge through this destructor.
struct SubLag {
    name: String,
    gauge: Arc<Gauge>,
}

impl SubLag {
    fn new(id: u64) -> SubLag {
        let name = format!("net_sub_lag_{id}");
        let gauge = dynamis_obs::global().gauge(&name);
        SubLag { name, gauge }
    }
}

impl Drop for SubLag {
    fn drop(&mut self) {
        dynamis_obs::global().unregister(&self.name);
    }
}

/// Entry point: binds a listener and spawns the acceptor and the hub.
pub struct NetServer;

impl NetServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts serving `backend`. Returns immediately; use
    /// [`NetServerHandle::local_addr`] to learn the bound port and
    /// [`NetServerHandle::shutdown`] to stop.
    pub fn bind(
        addr: impl ToSocketAddrs,
        backend: NetBackend,
        cfg: NetConfig,
    ) -> io::Result<NetServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            ingest: backend.ingest,
            log: backend.log,
            reader: Mutex::new(backend.reader),
            admission: Admission::new(cfg.shed_high, cfg.shed_low),
            counters: NetCounters::default(),
            obs: NetObs::new(),
            cfg,
            stop: AtomicBool::new(false),
        });
        let (tx, rx) = mpsc::channel::<Sub>();
        let hub_shared = Arc::clone(&shared);
        let hub = thread::Builder::new()
            .name("dynamis-net-hub".into())
            .spawn(move || hub_loop(&hub_shared, rx))
            .expect("failed to spawn net hub thread");
        let door = HubDoor {
            tx,
            thread: hub.thread().clone(),
        };
        let acc_shared = Arc::clone(&shared);
        let acceptor = thread::Builder::new()
            .name("dynamis-net-accept".into())
            .spawn(move || accept_loop(listener, &acc_shared, door))
            .expect("failed to spawn net acceptor thread");
        Ok(NetServerHandle {
            local_addr,
            shared,
            acceptor,
            hub,
        })
    }
}

/// The running server. Dropping it without [`NetServerHandle::shutdown`]
/// leaks the serving threads (they keep serving until the process
/// exits) — always shut down explicitly.
pub struct NetServerHandle {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: JoinHandle<()>,
    hub: JoinHandle<()>,
}

impl NetServerHandle {
    /// The bound address (real port even when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Service stats with the net layer's counters filled in — the
    /// same snapshot a remote `Stats` request receives.
    pub fn stats(&self) -> ServiceStats {
        self.shared.stats()
    }

    /// Stops accepting, drains every session, flushes subscribers to
    /// the current log head (bounded by the flush timeout), and joins
    /// all serving threads. The backing service is untouched — shut it
    /// down separately, *after* this returns (its `shutdown` blocks
    /// until every ingest clone dies, and sessions hold clones until
    /// they are joined here).
    pub fn shutdown(self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // An idle hub is parked: wake it to see the stop flag.
        self.hub.thread().unpark();
        // Unblock the acceptor with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        let _ = self.acceptor.join();
        let _ = self.hub.join();
    }
}

fn accept_loop(listener: TcpListener, shared: &Arc<Shared>, door: HubDoor) {
    let mut sessions: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(_) => {
                if shared.stop.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
        };
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        shared.counters.connections.fetch_add(1, Ordering::Relaxed);
        sessions.retain(|j| !j.is_finished());
        if sessions.len() >= shared.cfg.max_sessions {
            // Admission control at the door: refuse the whole session
            // with a typed Busy so the client backs off and retries.
            shared.admission.count_shed();
            refuse_busy(stream, shared.ingest.queue_depth());
            continue;
        }
        let s = Arc::clone(shared);
        let hub_door = door.clone();
        match thread::Builder::new()
            .name("dynamis-net-session".into())
            .spawn(move || session_loop(stream, &s, hub_door))
        {
            Ok(j) => sessions.push(j),
            // The stream died with the unspawned closure; all we can
            // do is count the shed (the client sees a reset).
            Err(_) => shared.admission.count_shed(),
        }
    }
    for j in sessions {
        let _ = j.join();
    }
}

fn refuse_busy(mut stream: TcpStream, queue_depth: u64) {
    // Consume the client's Hello before replying: closing with the
    // Hello still unread would turn the refusal into a connection
    // reset, discarding the queued Busy frame before the client reads
    // it. The read is bounded so a silent client can't pin the
    // acceptor.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let mut hello = Vec::new();
    let _ = read_frame(&mut stream, &mut hello);
    let mut payload = Vec::new();
    encode_response(&Response::Busy { queue_depth }, &mut payload);
    let _ = write_frame(&mut stream, &payload);
}

/// Sends one response as a single write (prefix + payload coalesced).
fn send(stream: &mut TcpStream, resp: &Response, payload: &mut Vec<u8>, out: &mut Vec<u8>) -> bool {
    encode_response(resp, payload);
    out.clear();
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    stream.write_all(out).is_ok()
}

fn session_loop(mut stream: TcpStream, shared: &Arc<Shared>, door: HubDoor) {
    shared.counters.sessions.fetch_add(1, Ordering::Relaxed);
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(SESSION_TICK));
    let hello_deadline = Instant::now() + HELLO_DEADLINE;
    let mut fb = FrameBuffer::new();
    let mut chunk = [0u8; 16 * 1024];
    let mut payload = Vec::new();
    let mut out = Vec::new();
    let mut reader: Option<ReaderHandle> = None;
    let mut hello_done = false;
    'session: loop {
        // Pop every complete request already buffered, then read more.
        loop {
            let frame = match fb.next_frame() {
                Ok(Some(frame)) => frame,
                Ok(None) => break,
                Err(e) => {
                    // Corrupt length prefix: refuse and close.
                    send(
                        &mut stream,
                        &Response::Error {
                            code: ERR_MALFORMED,
                            message: e.to_string(),
                        },
                        &mut payload,
                        &mut out,
                    );
                    break 'session;
                }
            };
            let req = match decode_request(&frame) {
                Ok(req) => req,
                Err(e) => {
                    send(
                        &mut stream,
                        &Response::Error {
                            code: ERR_MALFORMED,
                            message: e.to_string(),
                        },
                        &mut payload,
                        &mut out,
                    );
                    break 'session;
                }
            };
            let req_stage = shared.obs.stage_for(&req);
            let t_req = req_stage.begin();
            if !hello_done {
                match req {
                    Request::Hello { version } if version == PROTO_VERSION => {
                        hello_done = true;
                        let ok = send(
                            &mut stream,
                            &Response::Hello {
                                version: PROTO_VERSION,
                                head_seq: shared.log.head(),
                            },
                            &mut payload,
                            &mut out,
                        );
                        if !ok {
                            break 'session;
                        }
                        req_stage.end(t_req);
                        continue;
                    }
                    Request::Hello { .. } => {
                        // `response_to_result` reads our version off
                        // the end of this message.
                        send(
                            &mut stream,
                            &Response::Error {
                                code: ERR_VERSION,
                                message: format!("server speaks protocol {PROTO_VERSION}"),
                            },
                            &mut payload,
                            &mut out,
                        );
                        break 'session;
                    }
                    _ => {
                        send(
                            &mut stream,
                            &Response::Error {
                                code: ERR_ORDER,
                                message: "first message must be Hello".into(),
                            },
                            &mut payload,
                            &mut out,
                        );
                        break 'session;
                    }
                }
            }
            let resp = match req {
                Request::Hello { .. } => Response::Hello {
                    version: PROTO_VERSION,
                    head_seq: shared.log.head(),
                },
                Request::Apply(u) => {
                    if !shared.admission.admit(shared.ingest.queue_depth()) {
                        Response::Busy {
                            queue_depth: shared.ingest.queue_depth(),
                        }
                    } else {
                        match shared.ingest.try_submit(u) {
                            Ok(ticket) => match ticket.wait() {
                                Ok(seq) => Response::Verdict(Ok(seq)),
                                Err(ServeError::Rejected(e)) => Response::Verdict(Err(e)),
                                Err(_) => shutdown_error(),
                            },
                            Err(ServeError::QueueFull) => {
                                // Ground truth: the queue is full even if
                                // the sampled depth said otherwise.
                                shared.admission.on_queue_full();
                                Response::Busy {
                                    queue_depth: shared.ingest.queue_depth(),
                                }
                            }
                            Err(_) => shutdown_error(),
                        }
                    }
                }
                Request::ApplyBatch(us) => {
                    if !shared.admission.admit(shared.ingest.queue_depth()) {
                        Response::Busy {
                            queue_depth: shared.ingest.queue_depth(),
                        }
                    } else {
                        match shared.ingest.submit_batch(us) {
                            Ok(ticket) => match ticket.wait() {
                                Ok(verdicts) => Response::Verdicts(verdicts),
                                Err(_) => shutdown_error(),
                            },
                            Err(_) => shutdown_error(),
                        }
                    }
                }
                Request::Contains(v) => {
                    let r = reader.get_or_insert_with(|| shared.reader.lock().unwrap().fork());
                    Response::Bool(r.contains(v))
                }
                Request::Len => {
                    let r = reader.get_or_insert_with(|| shared.reader.lock().unwrap().fork());
                    Response::Len(r.len() as u64)
                }
                Request::Snapshot => {
                    let r = reader.get_or_insert_with(|| shared.reader.lock().unwrap().fork());
                    let solution = r.snapshot();
                    Response::Snapshot {
                        seq: r.seq(),
                        solution,
                    }
                }
                Request::Stats => Response::Stats(Box::new(shared.stats())),
                Request::Subscribe { after_seq } => {
                    let ok = send(
                        &mut stream,
                        &Response::Subscribed {
                            resume_seq: after_seq,
                        },
                        &mut payload,
                        &mut out,
                    );
                    if ok {
                        // Convert the connection: the hub owns the
                        // socket from here; this session thread ends.
                        let _ = stream.set_read_timeout(None);
                        shared
                            .counters
                            .subscriptions
                            .fetch_add(1, Ordering::Relaxed);
                        let sub = Sub {
                            stream,
                            seq: after_seq,
                            behind: 0,
                            lag: None,
                        };
                        match door.tx.send(sub) {
                            // Wake the hub so it installs the subscriber now.
                            Ok(()) => door.thread.unpark(),
                            Err(_) => {
                                shared
                                    .counters
                                    .subscriptions
                                    .fetch_sub(1, Ordering::Relaxed);
                            }
                        }
                    }
                    shared.counters.sessions.fetch_sub(1, Ordering::Relaxed);
                    shared.obs.req_subscribe.end(t_req);
                    return;
                }
                Request::Ping => Response::Pong,
                Request::Metrics => Response::Metrics(Box::new(dynamis_obs::global().snapshot())),
                Request::Bootstrap => {
                    // Multi-frame answer: meta, then length-capped
                    // membership chunks; afterwards the session stays
                    // in request/response (the client subscribes next,
                    // usually with `after_seq = meta.seq`).
                    if !stream_bootstrap(shared, &mut stream, &mut payload, &mut out) {
                        break 'session;
                    }
                    shared.obs.req_bootstrap.end(t_req);
                    continue;
                }
            };
            let is_shutdown = matches!(resp, Response::Error { code, .. } if code == ERR_SHUTDOWN);
            let sent = send(&mut stream, &resp, &mut payload, &mut out);
            req_stage.end(t_req);
            if !sent || is_shutdown {
                break 'session;
            }
        }
        if !hello_done && Instant::now() >= hello_deadline {
            // Fail closed: a connection that has not completed the
            // handshake in time gives its session slot back.
            send(
                &mut stream,
                &Response::Error {
                    code: ERR_ORDER,
                    message: "no Hello within the handshake deadline".into(),
                },
                &mut payload,
                &mut out,
            );
            break;
        }
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break, // clean close
            Ok(n) => fb.extend(&chunk[..n]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    shared.counters.sessions.fetch_sub(1, Ordering::Relaxed);
}

/// Streams the log's base checkpoint (the newest durable checkpoint
/// after a recovered restart, in broadcast numbering) as one
/// `BootstrapMeta` plus length-capped `BootstrapChunk` frames. The CRC
/// is the durable layer's checksum over the members' little-endian
/// bytes, verified by the client after reassembly. Returns false if a
/// write failed (the session closes).
fn stream_bootstrap(
    shared: &Shared,
    stream: &mut TcpStream,
    payload: &mut Vec<u8>,
    out: &mut Vec<u8>,
) -> bool {
    let (seq, members) = shared.log.base_checkpoint();
    let mut bytes = Vec::with_capacity(members.len() * 4);
    for &v in &members {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    let crc = dynamis_durable::format::crc32(&bytes);
    let chunks = members.len().div_ceil(BOOTSTRAP_CHUNK) as u32;
    let meta = Response::BootstrapMeta {
        seq,
        members: members.len() as u64,
        chunks,
        crc,
    };
    if !send(stream, &meta, payload, out) {
        return false;
    }
    for (index, slice) in members.chunks(BOOTSTRAP_CHUNK).enumerate() {
        let frame = Response::BootstrapChunk {
            index: index as u32,
            members: slice.to_vec(),
        };
        if !send(stream, &frame, payload, out) {
            return false;
        }
    }
    true
}

fn shutdown_error() -> Response {
    Response::Error {
        code: ERR_SHUTDOWN,
        message: "service stopped".into(),
    }
}

/// Installs a freshly handed-off subscriber: socket options plus its
/// per-subscriber lag gauge (`net_sub_lag_<id>`).
fn install_sub(shared: &Shared, mut sub: Sub, id: u64) -> Sub {
    let _ = sub.stream.set_nodelay(true);
    let _ = sub.stream.set_write_timeout(Some(shared.cfg.write_timeout));
    sub.lag = Some(SubLag::new(id));
    sub
}

/// The fan-out hub: owns every subscription socket, tails the log, and
/// encodes each entry once through its frame cache.
fn hub_loop(shared: &Arc<Shared>, sub_rx: mpsc::Receiver<Sub>) {
    // From here on every publish unparks this thread.
    let _wake = shared.log.wake_on_publish();
    let mut frames = FrameCache::new(shared.log.window());
    let mut subs: Vec<Sub> = Vec::new();
    let mut next_sub_id = 0u64;
    let mut hub_seq = 0u64; // newest seq assembled into the blob
    let mut blob = Vec::new(); // this round's frames (cache-encoded)
    let mut payload = Vec::new();
    let mut scratch = Vec::new();
    loop {
        let stopping = shared.stop.load(Ordering::SeqCst);
        // Install newly handed-off subscribers.
        let mut roster_changed = false;
        while let Ok(sub) = sub_rx.try_recv() {
            next_sub_id += 1;
            subs.push(install_sub(shared, sub, next_sub_id));
            roster_changed = true;
        }
        // Assemble this round's new entries into one write blob.
        let blob_start = hub_seq;
        blob.clear();
        let t_encode = shared.obs.hub_encode.begin();
        match shared.log.tail_after(hub_seq, 4096) {
            LogTail::UpToDate => {}
            LogTail::Entries(entries) => {
                for e in &entries {
                    blob.extend_from_slice(frames.frame_for(e));
                    hub_seq = e.seq;
                }
            }
            LogTail::Checkpoint { seq, .. } => {
                // The hub itself fell behind the window (a stall while
                // the writer blasted past it). Jump forward; every
                // straggling subscriber gets its own checkpoint below.
                dynamis_obs::event(
                    "checkpoint_reseed",
                    format!("hub jumped from seq {hub_seq} to {seq}"),
                );
                hub_seq = seq;
            }
        }
        shared.obs.hub_encode.end(t_encode);
        // A checkpoint jump counts too: entries past the checkpoint may
        // already be waiting, and no publish will wake the hub for them.
        let mut progressed = hub_seq != blob_start;
        let before = subs.len();
        subs.retain_mut(|sub| {
            if sub.seq == blob_start && !blob.is_empty() {
                // Caught-up fast path: one pre-encoded write.
                let t = shared.obs.sub_write.begin();
                let wrote = sub.stream.write_all(&blob);
                shared.obs.sub_write.end(t);
                if wrote.is_err() {
                    shared
                        .counters
                        .subscriptions
                        .fetch_sub(1, Ordering::Relaxed);
                    return false;
                }
                sub.seq = hub_seq;
                sub.behind = 0;
                return true;
            }
            if sub.seq == hub_seq {
                sub.behind = 0;
                return true;
            }
            // Straggler path: advance this subscriber individually.
            match advance_sub(shared, &mut frames, sub, &mut payload, &mut scratch) {
                Ok(advanced) => {
                    progressed |= advanced;
                    true
                }
                Err(()) => {
                    shared
                        .counters
                        .subscriptions
                        .fetch_sub(1, Ordering::Relaxed);
                    false
                }
            }
        });
        roster_changed |= subs.len() != before;
        // Refresh the fan-out lag gauges on every round that moved data
        // or changed the roster (an idle round changes neither).
        if progressed || roster_changed {
            let head = shared.log.head();
            let mut max = 0u64;
            let mut sum = 0u64;
            for sub in &subs {
                let lag = head.saturating_sub(sub.seq);
                if let Some(l) = &sub.lag {
                    l.gauge.set(lag);
                }
                max = max.max(lag);
                sum += lag;
            }
            shared.obs.lag_max.set(max);
            shared
                .obs
                .lag_mean
                .set(sum.checked_div(subs.len() as u64).unwrap_or(0));
        }
        if stopping {
            // Final flush: push every subscriber to the final head,
            // bounded by the flush timeout, then close everything.
            let head = shared.log.head();
            let deadline = Instant::now() + FLUSH_TIMEOUT;
            while subs.iter().any(|s| s.seq < head) && Instant::now() < deadline {
                subs.retain_mut(|sub| {
                    if sub.seq >= head {
                        return true;
                    }
                    match advance_sub(shared, &mut frames, sub, &mut payload, &mut scratch) {
                        Ok(_) => true,
                        Err(()) => {
                            shared
                                .counters
                                .subscriptions
                                .fetch_sub(1, Ordering::Relaxed);
                            false
                        }
                    }
                });
            }
            let n = subs.len() as i64;
            shared
                .counters
                .subscriptions
                .fetch_sub(n, Ordering::Relaxed);
            shared.obs.lag_max.set(0);
            shared.obs.lag_mean.set(0);
            return;
        }
        if !progressed {
            // Idle: sleep until a publish, a handoff or shutdown unparks
            // this thread. A wake that landed since this round's checks
            // makes the park return at once.
            thread::park_timeout(HUB_PARK_SAFETY_NET);
        }
    }
}

/// Advances one straggling subscriber by up to `sub_batch` entries (or
/// one checkpoint). `Ok(true)` if anything was sent; `Err(())` drops
/// the subscriber (write failure — it can reconnect and resume).
///
/// Two slow-consumer regimes end in a checkpoint here: falling *out of
/// the log window* (the log itself answers with `Checkpoint`), and the
/// subtler bounded crawl — a subscriber absorbing exactly `sub_batch`
/// entries per round while the writer outruns it, which stays inside
/// the window forever without ever catching up. The `behind` counter
/// detects the crawl: after [`NetConfig::straggler_rounds`] consecutive
/// saturated rounds that leave the subscriber more than `sub_batch`
/// behind the head, the hub folds the log into a fresh checkpoint
/// ([`SharedLog::snapshot_at_head`]) and reseeds the subscriber at the
/// head in one write instead of letting it crawl forever.
fn advance_sub(
    shared: &Shared,
    frames: &mut FrameCache,
    sub: &mut Sub,
    payload: &mut Vec<u8>,
    out: &mut Vec<u8>,
) -> Result<bool, ()> {
    let k = shared.cfg.straggler_rounds;
    if k > 0 && sub.behind >= k {
        let (seq, solution) = shared.log.snapshot_at_head();
        sub.behind = 0;
        if seq > sub.seq {
            dynamis_obs::event(
                "straggler_reseed",
                format!(
                    "subscriber force-reseeded from seq {} to {seq} after {k} saturated rounds",
                    sub.seq
                ),
            );
            write_one(
                shared,
                sub,
                &Response::Checkpoint { seq, solution },
                payload,
                out,
            )?;
            sub.seq = seq;
            return Ok(true);
        }
    }
    match shared.log.tail_after(sub.seq, shared.cfg.sub_batch) {
        LogTail::UpToDate => {
            sub.behind = 0;
            Ok(false)
        }
        LogTail::Entries(entries) => {
            let saturated = entries.len() >= shared.cfg.sub_batch;
            out.clear();
            let mut last = sub.seq;
            for e in &entries {
                out.extend_from_slice(frames.frame_for(e));
                last = e.seq;
            }
            let t = shared.obs.sub_write.begin();
            let wrote = sub.stream.write_all(out);
            shared.obs.sub_write.end(t);
            wrote.map_err(|_| ())?;
            sub.seq = last;
            // Crawl detection: a saturated advance that still leaves
            // the subscriber more than a batch behind means the writer
            // is outrunning it.
            if saturated && shared.log.head().saturating_sub(sub.seq) > shared.cfg.sub_batch as u64
            {
                sub.behind = sub.behind.saturating_add(1);
            } else {
                sub.behind = 0;
            }
            Ok(true)
        }
        LogTail::Checkpoint { seq, solution } => {
            dynamis_obs::event(
                "checkpoint_reseed",
                format!("subscriber reseeded from seq {} to {seq}", sub.seq),
            );
            write_one(
                shared,
                sub,
                &Response::Checkpoint { seq, solution },
                payload,
                out,
            )?;
            sub.seq = seq;
            sub.behind = 0;
            Ok(true)
        }
    }
}

/// Encodes and writes one response frame to a subscriber, charging the
/// write stage. `Err(())` means the write failed and the subscriber
/// should be dropped.
fn write_one(
    shared: &Shared,
    sub: &mut Sub,
    resp: &Response,
    payload: &mut Vec<u8>,
    out: &mut Vec<u8>,
) -> Result<(), ()> {
    encode_response(resp, payload);
    out.clear();
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    let t = shared.obs.sub_write.begin();
    let wrote = sub.stream.write_all(out);
    shared.obs.sub_write.end(t);
    wrote.map_err(|_| ())
}
