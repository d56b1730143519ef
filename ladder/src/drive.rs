//! The load: one request connection driven closed- or open-loop over a
//! pre-generated request sequence, and one subscriber connection
//! feeding a `RemoteMirror`. The same driver replays the sequence at
//! every rung of the ladder through the [`Target`] trait.

use crate::measure::{usage, Usage};
use crate::trace::now_ns;
use dynamis_core::{DynamicMis, EngineError};
use dynamis_graph::Update;
use dynamis_net::{NetClient, NetError, RemoteMirror, SubEvent};
use dynamis_serve::{IngestHandle, ReaderHandle};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One request of a workload's sequence.
#[derive(Debug, Clone)]
pub enum Req {
    Write(Vec<Update>),
    Read(u32),
}

/// What a write came back with: the broadcast sequence number of the
/// delta carrying the verdict (a call counter below the serve rung), and
/// how many of its updates were applied.
#[derive(Debug, Clone, Copy, Default)]
pub struct Verdict {
    pub seq: u64,
    pub applied: u64,
}

/// One rung of the ladder, as the load generator sees it.
pub trait Target {
    fn write(&mut self, updates: Vec<Update>) -> Result<Verdict, String>;
    fn read(&mut self, v: u32) -> Result<bool, String>;
}

fn tally(verdicts: &[Result<u64, EngineError>]) -> Verdict {
    let mut v = Verdict::default();
    for seq in verdicts.iter().flatten() {
        v.seq = v.seq.max(*seq);
        v.applied += 1;
    }
    v
}

/// Rung 3: the full TCP stack. A single update travels as `Apply`, a
/// batch as `ApplyBatch`; `Busy` sheds and rejections count as failed.
impl Target for NetClient {
    fn write(&mut self, mut updates: Vec<Update>) -> Result<Verdict, String> {
        let r = if updates.len() == 1 {
            self.apply(updates.pop().expect("one update"))
                .map(|seq| tally(&[Ok(seq)]))
        } else {
            self.apply_batch(updates).map(|vs| tally(&vs))
        };
        match r {
            Ok(v) => Ok(v),
            Err(NetError::Busy { .. }) | Err(NetError::Rejected(_)) => Ok(Verdict::default()),
            Err(e) => Err(format!("request failed: {e}")),
        }
    }

    fn read(&mut self, v: u32) -> Result<bool, String> {
        self.contains(v)
            .map_err(|e| format!("contains failed: {e}"))
    }
}

/// Rung 2: the serve layer in-process.
pub struct Serve {
    pub ingest: IngestHandle,
    pub reader: ReaderHandle,
}

impl Target for Serve {
    fn write(&mut self, mut updates: Vec<Update>) -> Result<Verdict, String> {
        if updates.len() == 1 {
            let ticket = self
                .ingest
                .submit(updates.pop().expect("one update"))
                .map_err(|e| e.to_string())?;
            return Ok(match ticket.wait() {
                Ok(seq) => tally(&[Ok(seq)]),
                Err(dynamis_serve::ServeError::Rejected(e)) => tally(&[Err(e)]),
                Err(e) => return Err(e.to_string()),
            });
        }
        let ticket = self
            .ingest
            .submit_batch(updates)
            .map_err(|e| e.to_string())?;
        Ok(tally(&ticket.wait().map_err(|e| e.to_string())?))
    }

    fn read(&mut self, v: u32) -> Result<bool, String> {
        Ok(self.reader.contains(v))
    }
}

/// Rungs 0 and 1: an engine (bare, or `Logged`) called directly.
pub struct Direct {
    pub engine: Box<dyn DynamicMis>,
    pub calls: u64,
}

impl Target for Direct {
    fn write(&mut self, updates: Vec<Update>) -> Result<Verdict, String> {
        self.calls += 1;
        Ok(match self.engine.try_apply_batch(&updates) {
            Ok(_) => Verdict {
                seq: self.calls,
                applied: updates.len() as u64,
            },
            Err(_) => Verdict::default(),
        })
    }

    fn read(&mut self, v: u32) -> Result<bool, String> {
        Ok(self.engine.contains(v))
    }
}

/// One request as sent: `due` is when the schedule wanted it sent (the
/// send time in a closed loop), `seq` the write's verdict seq.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub due: u64,
    pub start: u64,
    pub end: u64,
    pub seq: u64,
    pub updates: u32,
    pub write: bool,
}

#[derive(Debug, Clone, Copy)]
pub enum Pace {
    /// Next request right after the previous reply.
    Closed,
    /// Request `i` due at `i / rate` seconds, whatever the replies do.
    Open { rate: f64 },
}

pub struct Driven {
    pub samples: Vec<Sample>,
    /// Process counters before the first request, after the last write's
    /// reply, and after the last reply.
    pub usage: [Usage; 3],
    pub applied: u64,
    pub attempted: u64,
    pub failed: u64,
}

impl Driven {
    /// From the first request's due time to the last write's reply.
    pub fn write_s(&self) -> f64 {
        let last = self.samples.iter().rev().find(|s| s.write);
        last.map_or(0.0, |l| (l.end - self.samples[0].due) as f64 / 1e9)
    }

    pub fn first(&self) -> Usage {
        self.usage[0]
    }

    pub fn last(&self) -> Usage {
        self.usage[2]
    }
}

/// Sends every request of `reqs` in order, paced by `pace`.
pub fn drive(target: &mut dyn Target, reqs: &[Req], pace: Pace) -> Result<Driven, String> {
    if reqs.is_empty() {
        return Err("no request to send".into());
    }
    let total_writes = reqs.iter().filter(|r| matches!(r, Req::Write(_))).count();
    let mut writes = 0;
    let start = usage();
    let mut d = Driven {
        samples: Vec::with_capacity(reqs.len()),
        usage: [start; 3],
        applied: 0,
        attempted: 0,
        failed: 0,
    };
    let t0 = Instant::now();
    let base = now_ns();
    for (i, req) in reqs.iter().enumerate() {
        let due = match pace {
            Pace::Closed => None,
            Pace::Open { rate } => {
                let due = Duration::from_secs_f64(i as f64 / rate);
                let wait = (t0 + due).saturating_duration_since(Instant::now());
                if !wait.is_zero() {
                    std::thread::sleep(wait);
                }
                Some(base + due.as_nanos() as u64)
            }
        };
        let req = req.clone();
        let start = now_ns();
        let (seq, updates, write) = match req {
            Req::Write(us) => {
                let n = us.len() as u64;
                d.attempted += n;
                let v = target.write(us)?;
                d.applied += v.applied;
                d.failed += n - v.applied;
                (v.seq, n as u32, true)
            }
            Req::Read(v) => {
                d.attempted += 1;
                target.read(v)?;
                (0, 0, false)
            }
        };
        d.samples.push(Sample {
            due: due.unwrap_or(start),
            start,
            end: now_ns(),
            seq,
            updates,
            write,
        });
        if write {
            writes += 1;
            if writes == total_writes {
                d.usage[1] = usage();
            }
        }
    }
    d.usage[2] = usage();
    Ok(d)
}

/// The subscriber connection's record: when each sequenced event
/// arrived, the mirror it built, and the re-encoded size of its deltas.
pub struct SubReport {
    pub arrivals: Vec<(u64, u64)>,
    pub mirror: RemoteMirror,
    pub delta_bytes: u64,
}

impl SubReport {
    /// Arrival time of the first event at or past `seq`.
    pub fn arrival_of(&self, seq: u64) -> Option<u64> {
        let i = self.arrivals.partition_point(|&(s, _)| s < seq);
        self.arrivals.get(i).map(|&(_, t)| t)
    }
}

/// A subscriber thread feeding a [`RemoteMirror`] until it reaches the
/// head it is told at the end.
pub struct Subscriber {
    join: JoinHandle<Result<SubReport, String>>,
    target: Arc<AtomicU64>,
}

impl Subscriber {
    /// Subscribes from sequence 0 and returns once the base checkpoint
    /// arrived, so the mirror is live before load starts.
    pub fn start(addr: SocketAddr, encode: bool) -> Result<Subscriber, String> {
        let mut sub = NetClient::connect(addr)
            .and_then(|c| c.subscribe(0))
            .map_err(|e| format!("subscribing: {e}"))?;
        sub.set_read_timeout(Some(Duration::from_millis(20)))
            .map_err(|e| format!("subscriber socket: {e}"))?;
        let target = Arc::new(AtomicU64::new(u64::MAX));
        let (ready_tx, ready_rx) = mpsc::channel();
        let goal = Arc::clone(&target);
        let join = std::thread::Builder::new()
            .name("ladder-subscriber".into())
            .spawn(move || {
                let mut report = SubReport {
                    arrivals: Vec::new(),
                    mirror: RemoteMirror::new(),
                    delta_bytes: 0,
                };
                let mut buf = Vec::new();
                let mut ready = Some(ready_tx);
                let mut give_up: Option<Instant> = None;
                loop {
                    let goal = goal.load(Ordering::Acquire);
                    if report.mirror.seq() >= goal && ready.is_none() {
                        return Ok(report);
                    }
                    if goal != u64::MAX {
                        let g = *give_up
                            .get_or_insert_with(|| Instant::now() + Duration::from_secs(30));
                        if Instant::now() > g {
                            return Err(format!(
                                "subscriber stuck at seq {} below head {goal}",
                                report.mirror.seq()
                            ));
                        }
                    }
                    let Some(ev) = sub.next_event().map_err(|e| format!("subscription: {e}"))?
                    else {
                        continue;
                    };
                    let t = now_ns();
                    let seq = match &ev {
                        SubEvent::Delta { seq, delta } => {
                            if encode {
                                buf.clear();
                                dynamis_serve::wire::encode_delta(delta, &mut buf);
                                report.delta_bytes += buf.len() as u64;
                            }
                            *seq
                        }
                        SubEvent::Checkpoint { seq, .. } => *seq,
                    };
                    report
                        .mirror
                        .apply_event(&ev)
                        .map_err(|e| format!("remote mirror rejected seq {seq}: {e}"))?;
                    report.arrivals.push((seq, t));
                    if let Some(tx) = ready.take() {
                        let _ = tx.send(());
                    }
                }
            })
            .map_err(|e| format!("spawning the subscriber: {e}"))?;
        let sub = Subscriber { join, target };
        match ready_rx.recv_timeout(Duration::from_secs(30)) {
            Ok(()) => Ok(sub),
            Err(_) => Err(match sub.finish(0) {
                Err(e) => e,
                Ok(_) => "subscriber never received the base checkpoint".into(),
            }),
        }
    }

    /// Waits until the mirror reaches `head`, then hands back its record.
    pub fn finish(self, head: u64) -> Result<SubReport, String> {
        self.target.store(head, Ordering::Release);
        self.join
            .join()
            .map_err(|_| "subscriber thread panicked".to_string())?
    }
}
