//! Network front-end bench: one loopback server (in a child process,
//! so the 10k+ client sockets and the 10k+ server sockets each get
//! their own file-descriptor budget) driven by `dynamis_net::load` —
//! readers ≫ writers, the tentpole serving scenario.
//!
//! The run measures writer round-trip percentiles (p50/p95/p99) and
//! ingest throughput (applied updates per second; the random stream's
//! rejected updates are not counted) while every subscriber streams
//! sequenced deltas, then *asserts* stream integrity: zero sequence
//! gaps, zero lost deltas, every verifying mirror equal to the server's
//! snapshot. A non-clean child exit or an integrity violation fails the
//! bench.
//!
//! Writes `BENCH_PR7.json` (override with `DYNAMIS_BENCH_OUT`); honors
//! `DYNAMIS_FAST=1` (a small smoke-sized run for CI).

use dynamis_core::EngineBuilder;
use dynamis_gen::powerlaw::chung_lu;
use dynamis_net::{load, LoadConfig, NetBackend, NetConfig, NetServer};
use dynamis_serve::{MisService, ServeConfig};
use std::io::{BufRead, BufReader, Write as _};
use std::process::{Command, Stdio};
use std::thread;
use std::time::Instant;

/// Graph-model constants shared by parent and child.
const BETA: f64 = 2.4;
const AVG_DEGREE: f64 = 8.0;
const GRAPH_SEED: u64 = 77;

/// The child role: build the graph, spawn the service, serve on an
/// ephemeral loopback port, announce `LISTENING <addr>`, and run until
/// the parent closes our stdin.
fn child_serve(n: usize) -> ! {
    let base = chung_lu(n, BETA, AVG_DEGREE, GRAPH_SEED);
    let (service, _reader) =
        MisService::spawn(EngineBuilder::on(base).k(2), ServeConfig::default())
            .expect("engine construction");
    let handle = NetServer::bind(
        "127.0.0.1:0",
        NetBackend::single(&service),
        NetConfig::default(),
    )
    .expect("bind loopback");
    println!("LISTENING {}", handle.local_addr());
    std::io::stdout().flush().expect("announce address");
    let stdin = std::io::stdin();
    let mut line = String::new();
    loop {
        line.clear();
        match stdin.lock().read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
    handle.shutdown();
    let report = service.shutdown();
    eprintln!("net child: final |I| = {}", report.solution.len());
    std::process::exit(0);
}

fn main() {
    if let Ok(v) = std::env::var("DYNAMIS_NET_CHILD") {
        child_serve(v.parse().expect("DYNAMIS_NET_CHILD carries the graph size"));
    }

    let fast = dynamis_bench::fast_mode();
    let (n, subscribers, writers, updates) = if fast {
        (2_000, 300, 2, 2_000)
    } else {
        (20_000, 10_000, 4, 20_000)
    };
    let cores = thread::available_parallelism().map_or(1, |c| c.get());
    eprintln!(
        "net: spawning loopback server (n = {n}), then {subscribers} subscribers + \
         {writers} writers × {updates} updates on {cores} cores"
    );

    let exe = std::env::current_exe().expect("own path");
    let mut child = Command::new(exe)
        .env("DYNAMIS_NET_CHILD", n.to_string())
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn server child");
    let mut child_out = BufReader::new(child.stdout.take().expect("child stdout piped"));
    let addr = {
        let mut line = String::new();
        loop {
            line.clear();
            if child_out.read_line(&mut line).expect("child announces") == 0 {
                panic!("server child exited before announcing its address");
            }
            if let Some(rest) = line.trim().strip_prefix("LISTENING ") {
                break rest.to_string();
            }
        }
    };
    eprintln!("net: server listening on {addr}");

    let cfg = LoadConfig {
        addr,
        subscribers,
        writers,
        updates,
        vertices: n as u32,
        batch: 16,
        seed: 4820,
        ..LoadConfig::default()
    };
    let t = Instant::now();
    let report = load::run(&cfg).expect("load run against the child server");
    let total_secs = t.elapsed().as_secs_f64();

    // Clean shutdown: close the child's stdin (its exit condition) and
    // require a zero exit status.
    drop(child.stdin.take());
    let status = child.wait().expect("child exit status");
    assert!(status.success(), "server child did not shut down cleanly");

    // Stream integrity is the acceptance bar, not a statistic.
    assert_eq!(report.gaps, 0, "subscribers observed out-of-order deltas");
    assert_eq!(report.lost_deltas, 0, "subscribers lost deltas");
    assert_eq!(report.mirror_errors, 0, "a verifying mirror desynced");
    assert!(
        report.verified_mirrors > 0,
        "no verifying mirror matched the server snapshot"
    );

    let mut table = dynamis_bench::Table::new(vec![
        "subscribers",
        "writers",
        "applied/s",
        "p50 µs",
        "p95 µs",
        "p99 µs",
        "events",
        "lost",
    ]);
    table.row(vec![
        report.subscribers.to_string(),
        report.writers.to_string(),
        format!("{:.0}", report.throughput),
        report.p50_us.to_string(),
        report.p95_us.to_string(),
        report.p99_us.to_string(),
        report.sub_events.to_string(),
        report.lost_deltas.to_string(),
    ]);
    table.print();

    let json = format!(
        "{{\n  \"bench\": \"net\",\n  \"workload\": {{\"model\": \"chung_lu\", \"n\": {n}, \
         \"beta\": {BETA}, \"avg_degree\": {AVG_DEGREE}, \"batch\": {batch}, \
         \"seed\": {seed}, \"cores\": {cores}, \"fast\": {fast}}},\n  \
         \"total_secs\": {total_secs:.3},\n  \"load\": {load}\n}}\n",
        batch = cfg.batch,
        seed = cfg.seed,
        load = report.to_json(),
    );
    let out = std::env::var("DYNAMIS_BENCH_OUT").unwrap_or_else(|_| "BENCH_PR7.json".into());
    std::fs::write(&out, json).expect("write bench report");
    eprintln!("net: report written to {out}");
}
