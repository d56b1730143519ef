//! The production stack, built through its public constructors with
//! library defaults: `prepare` + `Logged` over `FileStorage`
//! (`DurableOptions::default()`, group commit), `MisService::spawn_with`
//! (`ServeConfig::default()`) and `NetServer::bind` on loopback
//! (`NetConfig::default()`).

use crate::trace::{now_ns, CallLog, Spanned, TracedStorage};
use dynamis_core::{DynamicMis, EngineBuilder};
use dynamis_durable::{prepare, DurableOptions, FileStorage, Logged, WalStorage};
use dynamis_graph::DynamicGraph;
use dynamis_net::{NetBackend, NetConfig, NetServer, NetServerHandle};
use dynamis_serve::{MisService, ReaderHandle, ServiceHandle, ServiceReport};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The decorators of a traced stack: one engine decorator inside
/// `Logged`, one outside it, and one around the WAL's storage.
#[derive(Clone)]
pub struct Probe {
    pub core: CallLog,
    pub durable: CallLog,
    pub storage: Arc<TracedStorage>,
    /// How long `attach` took on the fresh directory: the bootstrap
    /// checkpoint.
    pub bootstrap_ns: Arc<AtomicU64>,
}

impl Probe {
    pub fn open(dir: &Path) -> Result<Probe, String> {
        Ok(Probe {
            core: CallLog::default(),
            durable: CallLog::default(),
            storage: Arc::new(
                TracedStorage::open(dir).map_err(|e| format!("opening {dir:?}: {e}"))?,
            ),
            bootstrap_ns: Arc::default(),
        })
    }
}

fn storage(dir: &Path, probe: Option<&Probe>) -> Result<Arc<dyn WalStorage>, String> {
    Ok(match probe {
        Some(p) => Arc::clone(&p.storage) as Arc<dyn WalStorage>,
        None => Arc::new(FileStorage::open(dir).map_err(|e| format!("opening {dir:?}: {e}"))?),
    })
}

/// `Logged` over the k-engine on a fresh directory, used in-process.
pub fn logged(dir: &Path, graph: DynamicGraph, k: u32) -> Result<Logged, String> {
    let mut prepared = prepare(storage(dir, None)?, k, DurableOptions::default())
        .map_err(|e| format!("prepare: {e}"))?;
    let builder = prepared.resume_builder(EngineBuilder::on(graph).k(k as usize));
    let engine = builder.build().map_err(|e| format!("engine build: {e}"))?;
    prepared.attach(engine).map_err(|e| format!("attach: {e}"))
}

/// `MisService` over `Logged` over the k-engine on a fresh directory.
pub fn spawn_service(
    dir: &Path,
    graph: DynamicGraph,
    k: u32,
    probe: Option<&Probe>,
) -> Result<(ServiceHandle, ReaderHandle), String> {
    let mut prepared = prepare(storage(dir, probe)?, k, DurableOptions::default())
        .map_err(|e| format!("prepare: {e}"))?;
    let cfg = dynamis_serve::ServeConfig {
        first_seq: prepared.first_broadcast_seq(),
        ..Default::default()
    };
    let builder = prepared.resume_builder(EngineBuilder::on(graph).k(k as usize));
    let probe = probe.cloned();
    MisService::spawn_with(
        move || {
            let engine = builder.build()?;
            let Some(p) = probe else {
                return prepared
                    .attach(engine)
                    .map(|l| Box::new(l) as Box<dyn DynamicMis>)
                    .map_err(|e| e.into_engine_error());
            };
            let engine = Spanned::wrap(engine, &p.core);
            let t = now_ns();
            let logged = prepared.attach(engine).map_err(|e| e.into_engine_error())?;
            p.bootstrap_ns.store(now_ns() - t, Ordering::Relaxed);
            Ok(Spanned::wrap(Box::new(logged), &p.durable))
        },
        cfg,
    )
    .map_err(|e| format!("spawning the service: {e}"))
}

/// The full stack: the service fronted by a loopback TCP server.
pub struct Stack {
    pub server: NetServerHandle,
    pub service: ServiceHandle,
    pub addr: SocketAddr,
}

impl Stack {
    pub fn start(
        dir: &Path,
        graph: DynamicGraph,
        k: u32,
        probe: Option<&Probe>,
    ) -> Result<Stack, String> {
        let (service, _reader) = spawn_service(dir, graph, k, probe)?;
        let server = NetServer::bind(
            "127.0.0.1:0",
            NetBackend::single(&service),
            NetConfig::default(),
        )
        .map_err(|e| format!("binding the server: {e}"))?;
        Ok(Stack {
            addr: server.local_addr(),
            server,
            service,
        })
    }

    /// Stops the server, then the service (which drops `Logged`: a
    /// final write-through and fsync).
    pub fn stop(self) -> ServiceReport {
        self.server.shutdown();
        self.service.shutdown()
    }
}

/// A directory reopened after shutdown: `prepare` + `attach`.
pub struct Restart {
    pub recovered_seq: u64,
    pub engine: Logged,
    pub total_s: f64,
    /// `prepare` (checkpoint load, WAL scan) plus the engine build over
    /// the recovered snapshot.
    pub load_ns: u64,
    /// The replayed WAL tail, summed over the replayed engine calls
    /// (traced restarts only).
    pub replay_ns: Option<u64>,
}

pub fn restart(dir: &Path, k: u32, traced: bool) -> Result<Restart, String> {
    let t0 = Instant::now();
    let mut prepared = prepare(storage(dir, None)?, k, DurableOptions::default())
        .map_err(|e| format!("recovery prepare: {e}"))?;
    let builder = prepared.resume_builder(EngineBuilder::on(DynamicGraph::new()).k(k as usize));
    let engine = builder
        .build()
        .map_err(|e| format!("recovery build: {e}"))?;
    let load_ns = t0.elapsed().as_nanos() as u64;
    let recovered_seq = prepared.recovered_seq;
    let replay = CallLog::default();
    let engine = if traced {
        Spanned::wrap(engine, &replay)
    } else {
        engine
    };
    let engine = prepared
        .attach(engine)
        .map_err(|e| format!("recovery attach: {e}"))?;
    let total_s = t0.elapsed().as_secs_f64();
    Ok(Restart {
        recovered_seq,
        engine,
        total_s,
        load_ns,
        replay_ns: traced.then(|| replay.take().iter().map(|c| c.dur()).sum()),
    })
}

/// Removes a run's data directory however the run ends.
pub struct DirGuard(pub std::path::PathBuf);

impl Drop for DirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
