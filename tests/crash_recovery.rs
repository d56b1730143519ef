//! Real crash tests: a durable `net-serve` process is killed with
//! SIGKILL mid-service (no destructors, no flushes — the honest crash),
//! restarted on the same data directory, and must come back holding
//! every acknowledged update, with subscribers from the first life
//! resuming gap-free from their last applied sequence number.
//!
//! Under `--wal-sync always` the server fsyncs an accepted update
//! *before* acknowledging it, so the recovery contract is exact:
//! `RECOVERED seq=N` with N = the number of acknowledged updates.

use dynamis::net::{NetClient, RemoteMirror};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dynamis_crash_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A path graph 0–1–2–…–39 as an edge-list file: every later
/// `InsertEdge(i, i + 2)` is fresh, so the test stream is 100% accepted.
fn write_path_graph(dir: &Path) -> PathBuf {
    let p = dir.join("g.txt");
    let mut body = String::new();
    for i in 0..39u32 {
        body.push_str(&format!("{} {}\n", i, i + 1));
    }
    std::fs::write(&p, body).unwrap();
    p
}

struct Server {
    child: Child,
    // Held open: EOF on the server's stdin means graceful shutdown.
    _stdin: ChildStdin,
    addr: String,
    recovered_line: String,
}

fn start_server(graph: &Path, data_dir: &Path) -> Server {
    let mut child = Command::new(env!("CARGO_BIN_EXE_dynamis"))
        .args([
            "net-serve",
            "--graph",
            graph.to_str().unwrap(),
            "--k",
            "2",
            "--data-dir",
            data_dir.to_str().unwrap(),
            "--wal-sync",
            "always",
            "--checkpoint-every",
            "8",
            "--addr",
            "127.0.0.1:0",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let stdin = child.stdin.take().unwrap();
    let mut lines = BufReader::new(child.stdout.take().unwrap()).lines();
    let mut recovered_line = String::new();
    let addr = loop {
        let line = lines
            .next()
            .expect("server exited before LISTENING")
            .unwrap();
        if line.starts_with("RECOVERED ") {
            recovered_line = line;
        } else if let Some(a) = line.strip_prefix("LISTENING ") {
            break a.to_string();
        }
    };
    Server {
        child,
        _stdin: stdin,
        addr,
        recovered_line,
    }
}

/// Drives `sub` until the mirror reaches `seq` (or panics at deadline).
fn catch_up(sub: &mut dynamis::net::Subscription, mirror: &mut RemoteMirror, seq: u64) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while mirror.seq() < seq {
        assert!(
            Instant::now() < deadline,
            "mirror stuck at {}",
            mirror.seq()
        );
        if let Some(ev) = sub.next_event().unwrap() {
            mirror.apply_event(&ev).unwrap();
        }
    }
}

#[test]
fn kill_dash_nine_loses_nothing_and_subscribers_resume_gap_free() {
    let dir = temp_dir("kill9");
    let graph = write_path_graph(&dir);
    let data = dir.join("wal");
    std::fs::create_dir_all(&data).unwrap();

    // ---- first life --------------------------------------------------
    let mut server = start_server(&graph, &data);
    assert_eq!(server.recovered_line, "RECOVERED seq=0 replayed=0");

    let mut writer = NetClient::connect(&server.addr).unwrap();
    let sub_client = NetClient::connect(&server.addr).unwrap();
    let mut sub = sub_client.subscribe(0).unwrap();
    sub.set_read_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    let mut mirror = RemoteMirror::new();

    // 30 guaranteed-accepted updates, acked (hence fsynced) one at a
    // time; remember the broadcast seq of the last one.
    let mut last_broadcast = 0;
    for i in 0..30u32 {
        last_broadcast = writer.apply(dynamis::Update::InsertEdge(i, i + 2)).unwrap();
    }
    catch_up(&mut sub, &mut mirror, last_broadcast);
    let pre_crash_seq = mirror.seq();
    let pre_crash_len = mirror.len();
    assert!(pre_crash_len > 0);

    // ---- the crash ---------------------------------------------------
    server.child.kill().unwrap(); // SIGKILL: no drop handlers run
    server.child.wait().unwrap();
    drop(sub);
    drop(writer);

    // ---- second life -------------------------------------------------
    let server = start_server(&graph, &data);
    assert_eq!(
        server.recovered_line, "RECOVERED seq=30 replayed=6",
        "every acknowledged update must be recovered (checkpoints land at \
         seq 8/16/24 with --checkpoint-every 8, so 6 WAL records replay)"
    );

    // The old subscriber reconnects where it left off: it must resume
    // without a gap — either a clean continuation or a checkpoint
    // re-seed at a sequence at or above its own, never behind it.
    let sub_client = NetClient::connect(&server.addr).unwrap();
    let mut sub = sub_client.subscribe(pre_crash_seq).unwrap();
    sub.set_read_timeout(Some(Duration::from_millis(50)))
        .unwrap();

    let mut writer = NetClient::connect(&server.addr).unwrap();
    let mut last_broadcast = 0;
    for i in 0..10u32 {
        last_broadcast = writer.apply(dynamis::Update::InsertEdge(i, i + 3)).unwrap();
    }
    assert!(last_broadcast > pre_crash_seq);
    catch_up(&mut sub, &mut mirror, last_broadcast);

    // The resumed replica equals the server's state, exactly.
    let (snap_seq, solution) = writer.snapshot().unwrap();
    assert!(snap_seq >= last_broadcast);
    catch_up(&mut sub, &mut mirror, snap_seq);
    assert_eq!(mirror.solution(), solution);

    // Graceful shutdown this time (EOF on stdin).
    drop(server);
}

/// Killing the server before anything was accepted recovers to seq 0
/// and serves normally.
#[test]
fn kill_dash_nine_with_empty_wal_restarts_clean() {
    let dir = temp_dir("kill9_empty");
    let graph = write_path_graph(&dir);
    let data = dir.join("wal");
    std::fs::create_dir_all(&data).unwrap();

    let mut server = start_server(&graph, &data);
    server.child.kill().unwrap();
    server.child.wait().unwrap();

    let server = start_server(&graph, &data);
    assert_eq!(server.recovered_line, "RECOVERED seq=0 replayed=0");
    let mut client = NetClient::connect(&server.addr).unwrap();
    assert!(client.len().unwrap() > 0);
    client.apply(dynamis::Update::InsertEdge(0, 5)).unwrap();
}

/// The offline `dynamis recover` subcommand agrees with the server's
/// own recovery and leaves the directory servable.
#[test]
fn recover_subcommand_verify_and_replay() {
    let dir = temp_dir("recover_cmd");
    let graph = write_path_graph(&dir);
    let data = dir.join("wal");
    std::fs::create_dir_all(&data).unwrap();

    let mut server = start_server(&graph, &data);
    let mut writer = NetClient::connect(&server.addr).unwrap();
    for i in 0..12u32 {
        writer.apply(dynamis::Update::InsertEdge(i, i + 2)).unwrap();
    }
    server.child.kill().unwrap();
    server.child.wait().unwrap();
    drop(writer);

    let out = Command::new(env!("CARGO_BIN_EXE_dynamis"))
        .args(["recover", "--data-dir", data.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("recovered seq=12"),
        "verify output was: {text}"
    );
    assert!(text.contains("verified"), "verify output was: {text}");

    let out = Command::new(env!("CARGO_BIN_EXE_dynamis"))
        .args([
            "recover",
            "--data-dir",
            data.to_str().unwrap(),
            "--mode",
            "replay",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("repaired, seq=12"),
        "replay output was: {text}"
    );

    // The replayed directory still serves.
    let server = start_server(&graph, &data);
    assert_eq!(server.recovered_line, "RECOVERED seq=12 replayed=0");
}

/// `recover --mode verify` reports the state a restart serves: it
/// replays the WAL tail one update at a time, as `Prepared::attach`
/// does. A batched replay may skip intermediate swap cascades and land
/// on a different |I| for this tail (17 instead of 16).
#[test]
fn recover_verify_reports_the_state_attach_restores() {
    use dynamis::durable::{prepare, DurableOptions, FileStorage, SyncPolicy, WalStorage};
    use dynamis::gen::powerlaw::chung_lu;
    use dynamis::{DynamicGraph, DynamicMis, EngineBuilder, StreamConfig, UpdateStream};
    use std::sync::Arc;

    let dir = temp_dir("verify_replay");
    let (n, seed) = (30, 2);
    let g = chung_lu(n, 2.4, 4.0, seed);
    let tail = UpdateStream::new(&g, StreamConfig::default(), seed ^ 77).take_updates(n);
    let open = || -> Arc<dyn WalStorage> { Arc::new(FileStorage::open(&dir).unwrap()) };
    let opts = DurableOptions {
        sync: SyncPolicy::Never,
        ..DurableOptions::default()
    };

    // Served: the bootstrap checkpoint, then the whole tail in the WAL.
    let mut prepared = prepare(open(), 2, opts).unwrap();
    let builder = prepared.resume_builder(EngineBuilder::on(g).k(2));
    let mut served = prepared.attach(builder.build().unwrap()).unwrap();
    for u in &tail {
        served.try_apply(u).unwrap();
    }
    let served_size = served.size();
    drop(served);

    let out = Command::new(env!("CARGO_BIN_EXE_dynamis"))
        .args(["recover", "--data-dir", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains(&format!("replaying {n}")),
        "the tail must replay: {text}"
    );
    let verified: usize = text
        .lines()
        .find_map(|l| l.strip_prefix("recover: verified, final |I| = "))
        .unwrap_or_else(|| panic!("verify output was: {text}"))
        .parse()
        .unwrap();

    let mut prepared = prepare(open(), 2, opts).unwrap();
    let builder = prepared.resume_builder(EngineBuilder::on(DynamicGraph::new()).k(2));
    let restored = prepared.attach(builder.build().unwrap()).unwrap();
    assert_eq!(
        restored.size(),
        served_size,
        "attach restores the served state"
    );
    assert_eq!(
        verified,
        restored.size(),
        "verify reports what attach restores"
    );
}
