//! `dynamis` — command-line driver for the workspace.
//!
//! ```text
//! dynamis datasets                               list the Table I stand-ins
//! dynamis stats <graph>                          structural statistics
//! dynamis convert <in> <out>                     convert between formats
//! dynamis solve <graph> [--algo A]               run a static solver
//! dynamis run --dataset NAME [--algo A] [...]    dynamic maintenance run
//! dynamis record --dataset NAME <out.trace>      record an update trace
//! dynamis replay <trace> [--algo A]              replay a recorded trace
//! dynamis net-serve --dataset NAME [...]         serve over TCP (wire protocol)
//! dynamis net-load --addr HOST:PORT [...]        drive a net-serve with load
//! dynamis metrics --addr HOST:PORT [...]         fetch a telemetry snapshot
//! dynamis recover --data-dir DIR [...]           verify/replay a durable dir
//! ```
//!
//! Graph formats are sniffed from the file extension: `.col`/`.clq` →
//! DIMACS, `.graph`/`.metis` → METIS, `.dyng` → binary, anything else →
//! SNAP edge list.

use dynamis::baselines::{DgDis, Restart, RestartSolver};
use dynamis::durable::{
    prepare as durable_prepare, replay_tail, scan as durable_scan, DurableOptions, FileStorage,
    SyncPolicy, WalStorage,
};
use dynamis::gen::trace::{read_trace_path, write_trace_path};
use dynamis::gen::{datasets, StreamConfig, UpdateStream, Workload};
use dynamis::graph::algo::{
    connected_components, core_decomposition, count_triangles, degree_stats, diameter_lower_bound,
    global_clustering, is_bipartite,
};
use dynamis::graph::io;
use dynamis::net::{LoadConfig, LoadReport, NetBackend, NetConfig, NetServer};
use dynamis::statics::{
    arw_local_search, greedy_mis, luby_mis, reducing_peeling, solve_exact, ArwConfig, ExactConfig,
};
use dynamis::{
    DyArw, DyOneSwap, DyTwoSwap, DynamicGraph, DynamicMis, EngineBuilder, GenericKSwap,
    MaximalOnly, MisService, ServeConfig,
};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  dynamis datasets
  dynamis stats <graph>
  dynamis convert <in> <out>
  dynamis solve <graph> [--algo greedy|arw|peel|luby|exact]
  dynamis run (--dataset NAME | --graph FILE) [--algo ALGO] [--updates N] [--seed S]
  dynamis record (--dataset NAME | --graph FILE) [--updates N] [--seed S] <out.trace>
  dynamis replay <trace> [--algo ALGO]
  dynamis net-serve (--dataset NAME | --graph FILE) [--k K] [--burst B]
                    [--addr HOST:PORT] [--max-sessions N]
                    [--shed-high H] [--shed-low L] [--metrics true]
                    [--data-dir DIR] [--wal-sync batch|always|never]
                    [--checkpoint-every N]
  dynamis net-load --addr HOST:PORT [--subscribers N] [--writers W]
                   [--updates U] [--vertices V] [--batch B] [--seed S] [--json true]
                   [--bootstrap true]
  dynamis metrics --addr HOST:PORT [--json true | --prom true]
                  [--require NAME,NAME,...]
  dynamis recover --data-dir DIR [--mode verify|replay]

dynamic algorithms (ALGO): one (default), two, k:<K>, arw, dgone, dgtwo,
                           maximal, restart:<interval>
net-serve prints `LISTENING <addr>` once ready, serves until stdin closes
(EOF), then drains subscribers and shuts down; net-load's writers insert
and remove edges among vertex ids 0..V (V = --vertices, which must not
exceed the served graph's vertex count); it reports writer round-trip
percentiles, throughput, and delta-stream integrity, and fails if under
99% of the updates applied, the stream broke, --bootstrap reached no
subscriber, or no verifying mirror matched the server's snapshot
--metrics true enables the gated stage timers (counters are always on);
`metrics` fetches the registry snapshot over the wire — human-readable by
default, --json/--prom for machine output, --require fails unless every
named series exists and is non-zero (for CI smoke checks)
--data-dir makes net-serve durable: accepted updates go to a checksummed
write-ahead log under DIR with periodic snapshot checkpoints, and a
restart recovers the pre-crash state (prints `RECOVERED seq=N replayed=M`
before LISTENING, so old subscribers resume gap-free); --wal-sync picks
when appends reach disk (batch = group commit, default; always = fsync
before every ack, the kill -9-proof setting; never = test/bench only);
recover inspects such a directory offline — verify (default) scans and
replays in memory without mutating, replay repairs torn tails and writes
a fresh compacting checkpoint";

fn dispatch(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("datasets") => cmd_datasets(),
        Some("stats") => cmd_stats(&args[1..]),
        Some("convert") => cmd_convert(&args[1..]),
        Some("solve") => cmd_solve(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("record") => cmd_record(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        Some("net-serve") => cmd_net_serve(&args[1..]),
        Some("net-load") => cmd_net_load(&args[1..]),
        Some("metrics") => cmd_metrics(&args[1..]),
        Some("recover") => cmd_recover(&args[1..]),
        Some(other) => Err(format!("unknown command `{other}`")),
        None => Err("missing command".into()),
    }
}

/// Pulls `--flag value` out of an argument list; returns remaining
/// positional arguments.
fn parse_flags(
    args: &[String],
    flags: &mut [(&str, &mut Option<String>)],
) -> Result<Vec<String>, String> {
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            let slot = flags
                .iter_mut()
                .find(|(f, _)| *f == name)
                .map(|(_, s)| s)
                .ok_or_else(|| format!("unknown flag --{name}"))?;
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            **slot = Some(value.clone());
        } else {
            positional.push(a.clone());
        }
    }
    Ok(positional)
}

fn load_graph(path: &str) -> Result<DynamicGraph, String> {
    let lower = path.to_ascii_lowercase();
    let g = if lower.ends_with(".col") || lower.ends_with(".clq") || lower.ends_with(".dimacs") {
        io::read_dimacs(path)
    } else if lower.ends_with(".graph") || lower.ends_with(".metis") {
        io::read_metis(path)
    } else if lower.ends_with(".dyng") {
        io::read_binary(path)
    } else {
        io::read_dynamic(path)
    };
    g.map_err(|e| format!("loading {path}: {e}"))
}

fn save_graph(g: &DynamicGraph, path: &str) -> Result<(), String> {
    let lower = path.to_ascii_lowercase();
    let r = if lower.ends_with(".col") || lower.ends_with(".clq") || lower.ends_with(".dimacs") {
        io::write_dimacs(g, std::fs::File::create(path).map_err(|e| e.to_string())?)
    } else if lower.ends_with(".graph") || lower.ends_with(".metis") {
        io::write_metis(g, std::fs::File::create(path).map_err(|e| e.to_string())?)
    } else if lower.ends_with(".dyng") {
        io::write_binary(g, path)
    } else {
        io::write_edge_list_path(g, path)
    };
    r.map_err(|e| format!("writing {path}: {e}"))
}

fn cmd_datasets() -> Result<(), String> {
    println!("{:<18} {:>9} {:>11} {:>7}  class", "name", "n", "m", "d̄");
    for spec in datasets::DATASETS {
        let g = spec.build();
        println!(
            "{:<18} {:>9} {:>11} {:>7.2}  {:?}",
            spec.name,
            g.num_vertices(),
            g.num_edges(),
            g.avg_degree(),
            spec.category
        );
    }
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let positional = parse_flags(args, &mut [])?;
    let [path] = positional.as_slice() else {
        return Err("stats takes exactly one graph file".into());
    };
    let g = load_graph(path)?;
    let (csr, _) = dynamis::statics::verify::compact_live(&g);
    let ds = degree_stats(&csr);
    let comps = connected_components(&csr);
    let cores = core_decomposition(&csr);
    let (tri, _) = count_triangles(&csr);
    println!("graph      : {path}");
    println!("vertices   : {}", csr.num_vertices());
    println!("edges      : {}", csr.num_edges());
    println!(
        "degree     : min {} / median {} / mean {:.2} / max {}",
        ds.min, ds.median, ds.mean, ds.max
    );
    println!("isolated   : {}", ds.isolated);
    println!("density    : {:.6}", ds.density);
    println!("components : {}", comps.count());
    println!("degeneracy : {}", cores.degeneracy);
    println!("triangles  : {tri}");
    println!("clustering : {:.4}", global_clustering(&csr));
    println!("bipartite  : {}", is_bipartite(&csr));
    println!("diameter ≥ : {}", diameter_lower_bound(&csr, 0));
    Ok(())
}

fn cmd_convert(args: &[String]) -> Result<(), String> {
    let positional = parse_flags(args, &mut [])?;
    let [input, output] = positional.as_slice() else {
        return Err("convert takes <in> <out>".into());
    };
    let g = load_graph(input)?;
    save_graph(&g, output)?;
    println!(
        "converted {input} → {output} ({} vertices, {} edges)",
        g.num_vertices(),
        g.num_edges()
    );
    Ok(())
}

fn cmd_solve(args: &[String]) -> Result<(), String> {
    let mut algo = None;
    let positional = parse_flags(args, &mut [("algo", &mut algo)])?;
    let [path] = positional.as_slice() else {
        return Err("solve takes exactly one graph file".into());
    };
    let g = load_graph(path)?;
    let (csr, _) = dynamis::statics::verify::compact_live(&g);
    let algo = algo.as_deref().unwrap_or("greedy");
    let t = Instant::now();
    let (label, solution): (&str, Vec<u32>) = match algo {
        "greedy" => ("greedy", greedy_mis(&csr)),
        "arw" => (
            "ARW",
            arw_local_search(
                &csr,
                ArwConfig {
                    perturbations: 20,
                    seed: 1,
                },
            ),
        ),
        "peel" => ("reducing-peeling", reducing_peeling(&csr)),
        "luby" => ("Luby", luby_mis(&csr, 1).solution),
        "exact" => {
            let r = solve_exact(&csr, ExactConfig::default())
                .ok_or("exact solver budget exhausted (graph too hard)")?;
            ("exact", r.solution)
        }
        other => return Err(format!("unknown static solver `{other}`")),
    };
    println!(
        "{label}: |I| = {} of {} vertices in {:?}",
        solution.len(),
        csr.num_vertices(),
        t.elapsed()
    );
    Ok(())
}

/// Maps an `--algo` string to an engine, all through the one
/// construction path ([`EngineBuilder`]).
fn build_engine(algo: &str, g: &DynamicGraph) -> Result<Box<dyn DynamicMis>, String> {
    let builder = EngineBuilder::on(g.clone());
    let build_err = |e: dynamis::EngineError| format!("building `{algo}`: {e}");
    Ok(match algo {
        "one" => Box::new(builder.build_as::<DyOneSwap>().map_err(build_err)?),
        "two" => Box::new(builder.build_as::<DyTwoSwap>().map_err(build_err)?),
        "arw" => Box::new(builder.build_as::<DyArw>().map_err(build_err)?),
        "dgone" => Box::new(DgDis::one_dis(builder).map_err(build_err)?),
        "dgtwo" => Box::new(DgDis::two_dis(builder).map_err(build_err)?),
        "maximal" => Box::new(builder.build_as::<MaximalOnly>().map_err(build_err)?),
        other => {
            if let Some(k) = other.strip_prefix("k:") {
                let k: usize = k.parse().map_err(|_| format!("bad k in `{other}`"))?;
                Box::new(builder.k(k).build_as::<GenericKSwap>().map_err(build_err)?)
            } else if let Some(iv) = other.strip_prefix("restart:") {
                let iv: usize = iv
                    .parse()
                    .map_err(|_| format!("bad interval in `{other}`"))?;
                Box::new(
                    Restart::from_builder(builder, RestartSolver::Greedy, iv).map_err(build_err)?,
                )
            } else {
                return Err(format!("unknown dynamic algorithm `{other}`"));
            }
        }
    })
}

fn starting_graph(dataset: Option<&str>, graph: Option<&str>) -> Result<DynamicGraph, String> {
    match (dataset, graph) {
        (Some(name), None) => {
            let spec =
                datasets::by_name(name).ok_or_else(|| format!("unknown dataset `{name}`"))?;
            Ok(spec.build())
        }
        (None, Some(path)) => load_graph(path),
        _ => Err("pass exactly one of --dataset or --graph".into()),
    }
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let (mut dataset, mut graph, mut algo, mut updates, mut seed) = (None, None, None, None, None);
    let positional = parse_flags(
        args,
        &mut [
            ("dataset", &mut dataset),
            ("graph", &mut graph),
            ("algo", &mut algo),
            ("updates", &mut updates),
            ("seed", &mut seed),
        ],
    )?;
    if !positional.is_empty() {
        return Err("run takes only flags".into());
    }
    let g = starting_graph(dataset.as_deref(), graph.as_deref())?;
    let count: usize = updates
        .as_deref()
        .unwrap_or("10000")
        .parse()
        .map_err(|_| "bad --updates")?;
    let seed: u64 = seed
        .as_deref()
        .unwrap_or("1")
        .parse()
        .map_err(|_| "bad --seed")?;
    let ups = UpdateStream::new(&g, StreamConfig::default(), seed).take_updates(count);
    let mut engine = build_engine(algo.as_deref().unwrap_or("one"), &g)?;
    let initial = engine.size();
    let t = Instant::now();
    for u in &ups {
        engine
            .try_apply(u)
            .map_err(|e| format!("update {u:?} rejected: {e}"))?;
    }
    let elapsed = t.elapsed();
    println!(
        "{}: {} updates in {:?} ({:.2} µs/update)",
        engine.name(),
        count,
        elapsed,
        elapsed.as_micros() as f64 / count.max(1) as f64
    );
    println!(
        "solution: {} → {} on (n = {}, m = {}), heap ≈ {:.1} MiB",
        initial,
        engine.size(),
        engine.graph().num_vertices(),
        engine.graph().num_edges(),
        engine.heap_bytes() as f64 / (1024.0 * 1024.0)
    );
    Ok(())
}

fn cmd_record(args: &[String]) -> Result<(), String> {
    let (mut dataset, mut graph, mut updates, mut seed) = (None, None, None, None);
    let positional = parse_flags(
        args,
        &mut [
            ("dataset", &mut dataset),
            ("graph", &mut graph),
            ("updates", &mut updates),
            ("seed", &mut seed),
        ],
    )?;
    let [out] = positional.as_slice() else {
        return Err("record takes one output trace path".into());
    };
    let g = starting_graph(dataset.as_deref(), graph.as_deref())?;
    let count: usize = updates
        .as_deref()
        .unwrap_or("10000")
        .parse()
        .map_err(|_| "bad --updates")?;
    let seed: u64 = seed
        .as_deref()
        .unwrap_or("1")
        .parse()
        .map_err(|_| "bad --seed")?;
    let wl = Workload::generate(g, count, StreamConfig::default(), seed);
    write_trace_path(&wl, out).map_err(|e| e.to_string())?;
    println!("recorded {count} updates to {out}");
    Ok(())
}

fn cmd_replay(args: &[String]) -> Result<(), String> {
    let mut algo = None;
    let positional = parse_flags(args, &mut [("algo", &mut algo)])?;
    let [trace] = positional.as_slice() else {
        return Err("replay takes one trace path".into());
    };
    let wl = read_trace_path(trace).map_err(|e| e.to_string())?;
    let mut engine = build_engine(algo.as_deref().unwrap_or("one"), &wl.graph)?;
    let t = Instant::now();
    for u in &wl.updates {
        engine
            .try_apply(u)
            .map_err(|e| format!("trace update {u:?} rejected: {e}"))?;
    }
    println!(
        "{}: replayed {} updates from {trace} in {:?}; |I| = {}",
        engine.name(),
        wl.updates.len(),
        t.elapsed(),
        engine.size()
    );
    Ok(())
}

fn cmd_net_serve(args: &[String]) -> Result<(), String> {
    let (mut dataset, mut graph, mut k, mut burst) = (None, None, None, None);
    let (mut addr, mut max_sessions, mut shed_high, mut shed_low, mut metrics) =
        (None, None, None, None, None);
    let (mut data_dir, mut wal_sync, mut checkpoint_every) = (None, None, None);
    let positional = parse_flags(
        args,
        &mut [
            ("dataset", &mut dataset),
            ("graph", &mut graph),
            ("k", &mut k),
            ("burst", &mut burst),
            ("addr", &mut addr),
            ("max-sessions", &mut max_sessions),
            ("shed-high", &mut shed_high),
            ("shed-low", &mut shed_low),
            ("metrics", &mut metrics),
            ("data-dir", &mut data_dir),
            ("wal-sync", &mut wal_sync),
            ("checkpoint-every", &mut checkpoint_every),
        ],
    )?;
    if !positional.is_empty() {
        return Err("net-serve takes only flags".into());
    }
    if metrics.as_deref() == Some("true") {
        dynamis::obs::set_enabled(true);
    }
    let g = starting_graph(dataset.as_deref(), graph.as_deref())?;
    let parse = |v: Option<&str>, default: usize, what: &str| -> Result<usize, String> {
        v.unwrap_or(&default.to_string())
            .parse()
            .map_err(|_| format!("bad --{what}"))
    };
    let k = parse(k.as_deref(), 2, "k")?;
    let burst = parse(burst.as_deref(), 256, "burst")?;
    let addr = addr.unwrap_or_else(|| "127.0.0.1:0".into());
    let mut net_cfg = NetConfig::default();
    net_cfg.max_sessions = parse(
        max_sessions.as_deref(),
        net_cfg.max_sessions,
        "max-sessions",
    )?;
    net_cfg.shed_high = parse(
        shed_high.as_deref(),
        net_cfg.shed_high as usize,
        "shed-high",
    )? as u64;
    net_cfg.shed_low = parse(shed_low.as_deref(), net_cfg.shed_low as usize, "shed-low")? as u64;

    // Durable mode: recover (or initialize) the directory *before* the
    // service spawns — the recovered sequence number re-bases the
    // broadcast log so old subscribers resume gap-free.
    let mut prepared = match &data_dir {
        Some(dir) => {
            let sync = match wal_sync.as_deref() {
                None | Some("batch") => SyncPolicy::Group,
                Some("always") => SyncPolicy::Always,
                Some("never") => SyncPolicy::Never,
                Some(other) => return Err(format!("bad --wal-sync `{other}`")),
            };
            let defaults = DurableOptions::default();
            let opts = DurableOptions {
                sync,
                checkpoint_every: parse(
                    checkpoint_every.as_deref(),
                    defaults.checkpoint_every as usize,
                    "checkpoint-every",
                )? as u64,
                ..defaults
            };
            let storage: Arc<dyn WalStorage> =
                Arc::new(FileStorage::open(dir).map_err(|e| format!("opening {dir}: {e}"))?);
            let p = durable_prepare(storage, k as u32, opts)
                .map_err(|e| format!("recovering {dir}: {e}"))?;
            println!("RECOVERED seq={} replayed={}", p.recovered_seq, p.replayed);
            Some(p)
        }
        None => None,
    };

    let mut builder = EngineBuilder::on(g).k(k);
    let cfg = ServeConfig {
        burst,
        first_seq: prepared.as_ref().map_or(0, |p| p.first_broadcast_seq()),
        ..ServeConfig::default()
    };
    // A recovered run continues over the recovered graph and solution,
    // not the cold-start inputs.
    if let Some(p) = prepared.as_mut() {
        builder = p.resume_builder(builder);
    }

    // In durable mode the built engine is wrapped in the WAL layer
    // inside the factory, after `first_seq` was taken from `prepared`.
    let (service, _reader) = MisService::spawn_with(
        move || {
            let engine = builder.build()?;
            match prepared {
                Some(p) => p.attach(engine).map(|l| Box::new(l) as _).map_err(|e| {
                    eprintln!("net-serve: durable attach failed: {e}");
                    e.into_engine_error()
                }),
                None => Ok(engine),
            }
        },
        cfg,
    )
    .map_err(|e| format!("spawning service: {e}"))?;

    // Front the service, announce readiness, then block until stdin
    // closes — the conventional child-process lifecycle: the parent
    // reads the LISTENING line and later closes our stdin.
    let handle = NetServer::bind(&addr, NetBackend::single(&service), net_cfg)
        .map_err(|e| format!("binding {addr}: {e}"))?;
    println!("LISTENING {}", handle.local_addr());
    use std::io::{BufRead, Write};
    std::io::stdout().flush().ok();
    let stdin = std::io::stdin();
    let mut line = String::new();
    loop {
        line.clear();
        match stdin.lock().read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
    let stats = handle.stats();
    handle.shutdown();
    eprintln!("net-serve: {stats}");
    let report = service.shutdown();
    eprintln!(
        "net-serve: served {}, final |I| = {}",
        report.engine,
        report.solution.len()
    );
    Ok(())
}

fn cmd_recover(args: &[String]) -> Result<(), String> {
    let (mut data_dir, mut mode) = (None, None);
    let positional = parse_flags(
        args,
        &mut [("data-dir", &mut data_dir), ("mode", &mut mode)],
    )?;
    if !positional.is_empty() {
        return Err("recover takes only flags".into());
    }
    let dir = data_dir.ok_or("recover needs --data-dir")?;
    let storage: Arc<dyn WalStorage> =
        Arc::new(FileStorage::open(&dir).map_err(|e| format!("opening {dir}: {e}"))?);
    match mode.as_deref().unwrap_or("verify") {
        "verify" => {
            // Read-only: scan, report, prove the tail replays — but
            // leave the directory byte-for-byte untouched.
            let report = durable_scan(&*storage, None).map_err(|e| format!("{dir}: {e}"))?;
            println!(
                "recover: k={} checkpoint seq={} recovered seq={} (replaying {})",
                report.manifest.k,
                report.checkpoint_seq,
                report.recovered_seq,
                report.tail.len(),
            );
            if report.skipped_checkpoints > 0 || report.torn_bytes > 0 || report.dropped_records > 0
            {
                println!(
                    "recover: crash damage: {} checkpoint(s) skipped, {} torn byte(s), {} orphaned record(s)",
                    report.skipped_checkpoints, report.torn_bytes, report.dropped_records,
                );
            }
            for r in &report.repairs {
                match r {
                    dynamis::durable::Repair::Truncate { name, len } => {
                        println!("recover: pending repair: truncate {name} to {len} bytes");
                    }
                    dynamis::durable::Repair::Remove { name } => {
                        println!("recover: pending repair: remove {name}");
                    }
                }
            }
            // The same per-update replay `attach` runs, so the reported
            // state is the one a restart serves.
            let mut engine = EngineBuilder::on(DynamicGraph::from_edges(0, &[]))
                .k(report.manifest.k as usize)
                .resume(report.snapshot)
                .build()
                .map_err(|e| format!("rebuilding engine: {e}"))?;
            replay_tail(&mut *engine, report.checkpoint_seq, &report.tail)
                .map_err(|e| format!("{dir}: {e}"))?;
            println!("recover: verified, final |I| = {}", engine.size());
        }
        "replay" => {
            // Mutating: apply repairs, replay, and publish a fresh
            // compacting checkpoint at the recovered sequence.
            let manifest_bytes = storage
                .read(dynamis::durable::format::MANIFEST_NAME)
                .map_err(|e| format!("{dir}: {e}"))?;
            let manifest = dynamis::durable::format::decode_manifest(&manifest_bytes)
                .map_err(|e| format!("{dir}: {e}"))?;
            let opts = DurableOptions {
                sync: SyncPolicy::Always,
                ..DurableOptions::default()
            };
            let mut prepared = durable_prepare(Arc::clone(&storage), manifest.k, opts)
                .map_err(|e| format!("{dir}: {e}"))?;
            let (seq, replayed) = (prepared.recovered_seq, prepared.replayed);
            let builder = prepared.resume_builder(
                EngineBuilder::on(DynamicGraph::from_edges(0, &[])).k(manifest.k as usize),
            );
            let logged = prepared
                .attach(
                    builder
                        .build()
                        .map_err(|e| format!("rebuilding engine: {e}"))?,
                )
                .map_err(|e| format!("{dir}: {e}"))?;
            println!(
                "recover: repaired, seq={} (replayed {}), final |I| = {}",
                seq,
                replayed,
                logged.size(),
            );
        }
        other => return Err(format!("bad --mode `{other}`")),
    }
    Ok(())
}

fn cmd_net_load(args: &[String]) -> Result<(), String> {
    let (mut addr, mut subscribers, mut writers, mut updates) = (None, None, None, None);
    let (mut vertices, mut batch, mut seed, mut json) = (None, None, None, None);
    let mut bootstrap = None;
    let positional = parse_flags(
        args,
        &mut [
            ("addr", &mut addr),
            ("subscribers", &mut subscribers),
            ("writers", &mut writers),
            ("updates", &mut updates),
            ("vertices", &mut vertices),
            ("batch", &mut batch),
            ("seed", &mut seed),
            ("json", &mut json),
            ("bootstrap", &mut bootstrap),
        ],
    )?;
    if !positional.is_empty() {
        return Err("net-load takes only flags".into());
    }
    let addr = addr.ok_or("net-load needs --addr HOST:PORT")?;
    let parse = |v: Option<&str>, default: usize, what: &str| -> Result<usize, String> {
        v.unwrap_or(&default.to_string())
            .parse()
            .map_err(|_| format!("bad --{what}"))
    };
    let d = LoadConfig::default();
    let cfg = LoadConfig {
        addr,
        subscribers: parse(subscribers.as_deref(), d.subscribers, "subscribers")?,
        writers: parse(writers.as_deref(), d.writers, "writers")?,
        updates: parse(updates.as_deref(), d.updates, "updates")?,
        vertices: parse(vertices.as_deref(), d.vertices as usize, "vertices")? as u32,
        batch: parse(batch.as_deref(), d.batch, "batch")?,
        seed: parse(seed.as_deref(), d.seed as usize, "seed")? as u64,
        bootstrap: bootstrap.as_deref() == Some("true"),
    };
    let report = dynamis::net::load::run(&cfg).map_err(|e| format!("load run: {e}"))?;
    if json.as_deref() == Some("true") {
        println!("{}", report.to_json());
    } else {
        println!(
            "{} subscribers, {} writers: {} updates ({} applied) in {:.2}s ({:.0} applied/s)",
            report.subscribers,
            report.writers,
            report.updates,
            report.applied,
            report.elapsed_s,
            report.throughput
        );
        println!(
            "write RTT: p50 {} µs / p95 {} µs / p99 {} µs / max {} µs ({} busy retries)",
            report.p50_us, report.p95_us, report.p99_us, report.max_us, report.busy_retries
        );
        println!(
            "stream: {} events, {} checkpoints, {} gaps, {} lost, {} reconnects, {} mirror errors ({} mirrors verified)",
            report.sub_events,
            report.sub_checkpoints,
            report.gaps,
            report.lost_deltas,
            report.reconnects,
            report.mirror_errors,
            report.verified_mirrors
        );
    }
    check_load(&cfg, &report)
}

/// Fails a finished `net-load` run that applied under 99% of its
/// updates, whose delta stream broke, or whose flags exercised nothing:
/// a `--bootstrap true` that cold-started no subscriber, or subscribers
/// of which no verifying mirror matched.
fn check_load(cfg: &LoadConfig, report: &LoadReport) -> Result<(), String> {
    if report.applied * 100 < report.updates * 99 {
        return Err(format!(
            "only {} of {} updates applied: does --vertices {} exceed the served graph's vertex count?",
            report.applied, report.updates, cfg.vertices
        ));
    }
    if report.gaps + report.lost_deltas + report.mirror_errors > 0 {
        return Err("delta stream integrity violated (gaps/lost/mirror errors)".into());
    }
    if cfg.bootstrap && report.bootstraps == 0 {
        return Err("--bootstrap true bootstrapped no subscriber".into());
    }
    if cfg.subscribers > 0 && report.verified_mirrors == 0 {
        return Err("no verifying mirror matched the server snapshot".into());
    }
    Ok(())
}

fn cmd_metrics(args: &[String]) -> Result<(), String> {
    let (mut addr, mut json, mut prom, mut require) = (None, None, None, None);
    let positional = parse_flags(
        args,
        &mut [
            ("addr", &mut addr),
            ("json", &mut json),
            ("prom", &mut prom),
            ("require", &mut require),
        ],
    )?;
    if !positional.is_empty() {
        return Err("metrics takes only flags".into());
    }
    let addr = addr.ok_or("metrics needs --addr HOST:PORT")?;
    let mut client =
        dynamis::net::NetClient::connect(&addr).map_err(|e| format!("connecting {addr}: {e}"))?;
    let m = client.metrics().map_err(|e| format!("metrics call: {e}"))?;
    if json.as_deref() == Some("true") {
        println!("{}", m.to_json());
    } else if prom.as_deref() == Some("true") {
        println!("{}", m.to_prometheus());
    } else {
        println!("snapshot v{}:", m.version);
        for (name, v) in &m.counters {
            println!("  {name} = {v}");
        }
        for (name, v) in &m.gauges {
            println!("  {name} = {v}");
        }
        for (name, h) in &m.histograms {
            println!(
                "  {name}: n={} mean={} p50={} p99={} max={}",
                h.count,
                h.mean(),
                h.quantile(0.5),
                h.quantile(0.99),
                h.max
            );
        }
        for e in &m.events {
            println!("  [{}µs] {}: {}", e.at_micros, e.kind, e.detail);
        }
        if m.events_dropped > 0 {
            println!("  ({} events dropped)", m.events_dropped);
        }
    }
    // CI smoke contract: every required series must exist and be
    // non-zero (counter/gauge value, or histogram sample count).
    if let Some(req) = require {
        for name in req.split(',').filter(|s| !s.is_empty()) {
            let live = m
                .counter(name)
                .or_else(|| m.gauge(name))
                .or_else(|| m.histogram(name).map(|h| h.count))
                .ok_or_else(|| format!("required series `{name}` is missing"))?;
            if live == 0 {
                return Err(format!("required series `{name}` is zero"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_parser_separates_flags_and_positionals() {
        let args: Vec<String> = ["--algo", "two", "file.txt", "--seed", "9"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (mut algo, mut seed) = (None, None);
        let pos = parse_flags(&args, &mut [("algo", &mut algo), ("seed", &mut seed)]).unwrap();
        assert_eq!(pos, vec!["file.txt"]);
        assert_eq!(algo.as_deref(), Some("two"));
        assert_eq!(seed.as_deref(), Some("9"));
    }

    #[test]
    fn flag_parser_rejects_unknown_and_dangling() {
        let args: Vec<String> = vec!["--bogus".into(), "x".into()];
        assert!(parse_flags(&args, &mut []).is_err());
        let args: Vec<String> = vec!["--algo".into()];
        let mut algo = None;
        assert!(parse_flags(&args, &mut [("algo", &mut algo)]).is_err());
    }

    #[test]
    fn engine_factory_knows_every_algorithm() {
        let g = DynamicGraph::from_edges(4, &[(0, 1), (2, 3)]);
        for algo in [
            "one",
            "two",
            "arw",
            "dgone",
            "dgtwo",
            "maximal",
            "k:3",
            "restart:5",
        ] {
            let e = build_engine(algo, &g).unwrap_or_else(|m| panic!("{algo}: {m}"));
            assert!(e.size() >= 2, "{algo} should find the obvious pairs");
        }
        assert!(build_engine("nope", &g).is_err());
        assert!(build_engine("k:x", &g).is_err());
        assert!(build_engine("restart:", &g).is_err());
    }

    #[test]
    fn dispatch_rejects_unknown_commands() {
        assert!(dispatch(&["frobnicate".to_string()]).is_err());
        assert!(dispatch(&[]).is_err());
    }

    #[test]
    fn stats_and_convert_round_trip_through_a_temp_file() {
        let dir = std::env::temp_dir().join("dynamis_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let edge = dir.join("g.txt");
        let dimacs = dir.join("g.col");
        let g = DynamicGraph::from_edges(5, &[(0, 1), (1, 2), (3, 4)]);
        save_graph(&g, edge.to_str().unwrap()).unwrap();
        dispatch(&[
            "convert".to_string(),
            edge.to_str().unwrap().to_string(),
            dimacs.to_str().unwrap().to_string(),
        ])
        .unwrap();
        let back = load_graph(dimacs.to_str().unwrap()).unwrap();
        assert_eq!(back.num_edges(), 3);
        dispatch(&["stats".to_string(), edge.to_str().unwrap().to_string()]).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_check_fails_runs_whose_flags_did_nothing() {
        let cfg = LoadConfig {
            subscribers: 8,
            bootstrap: true,
            ..LoadConfig::default()
        };
        let good = LoadReport {
            updates: 2000,
            applied: 1980,
            rejected: 20,
            bootstraps: 8,
            verified_mirrors: 4,
            ..LoadReport::default()
        };
        check_load(&cfg, &good).unwrap();
        for bad in [
            LoadReport {
                applied: 1979,
                rejected: 21,
                ..good.clone()
            },
            LoadReport {
                bootstraps: 0,
                ..good.clone()
            },
            LoadReport {
                verified_mirrors: 0,
                ..good.clone()
            },
            LoadReport {
                gaps: 1,
                ..good.clone()
            },
        ] {
            assert!(check_load(&cfg, &bad).is_err(), "{bad:?}");
        }
        let short = check_load(
            &cfg,
            &LoadReport {
                applied: 39,
                rejected: 1961,
                ..good.clone()
            },
        )
        .unwrap_err();
        assert!(short.contains("--vertices"), "{short}");
        // Without subscribers or flags, nothing is owed.
        let plain = LoadConfig {
            subscribers: 0,
            ..LoadConfig::default()
        };
        check_load(&plain, &LoadReport::default()).unwrap();
    }

    #[test]
    fn metrics_command_validates_its_flags() {
        // No --addr is a usage error, not a connection attempt.
        assert!(cmd_metrics(&[]).is_err());
        let args: Vec<String> = vec!["stray-positional".into()];
        assert!(cmd_metrics(&args).is_err());
    }

    #[test]
    fn metrics_command_round_trips_against_a_live_server() {
        let g = DynamicGraph::from_edges(4, &[(0, 1)]);
        let (service, _reader) =
            MisService::spawn(EngineBuilder::on(g).k(2), ServeConfig::default()).unwrap();
        let handle = NetServer::bind(
            "127.0.0.1:0",
            NetBackend::single(&service),
            NetConfig::default(),
        )
        .unwrap();
        let addr = handle.local_addr().to_string();

        let mut client = dynamis::net::NetClient::connect(&addr).unwrap();
        client
            .apply(dynamis::graph::Update::InsertEdge(2, 3))
            .unwrap();

        // Always-on counters must satisfy a --require smoke check in
        // every output mode.
        for mode in [&["--json", "true"][..], &["--prom", "true"][..], &[][..]] {
            let mut args = vec![
                "metrics".to_string(),
                "--addr".to_string(),
                addr.clone(),
                "--require".to_string(),
                "serve_applied_total".to_string(),
            ];
            args.extend(mode.iter().map(|s| s.to_string()));
            dispatch(&args).unwrap_or_else(|m| panic!("{mode:?}: {m}"));
        }
        // A series the server never registered fails the check.
        assert!(dispatch(&[
            "metrics".to_string(),
            "--addr".to_string(),
            addr.clone(),
            "--require".to_string(),
            "no_such_series".to_string(),
        ])
        .is_err());

        handle.shutdown();
        service.shutdown();
    }

    #[test]
    fn record_and_replay_round_trip() {
        let dir = std::env::temp_dir().join("dynamis_cli_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("t.trace");
        dispatch(&[
            "record".to_string(),
            "--dataset".to_string(),
            "Email".to_string(),
            "--updates".to_string(),
            "200".to_string(),
            trace.to_str().unwrap().to_string(),
        ])
        .unwrap();
        dispatch(&[
            "replay".to_string(),
            trace.to_str().unwrap().to_string(),
            "--algo".to_string(),
            "two".to_string(),
        ])
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
