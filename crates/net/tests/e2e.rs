//! End-to-end loopback runs: a real server, a real load-generator run
//! (concurrent subscribers + writers over TCP), at least 99% of the
//! updates applied, zero lost deltas, and a clean shutdown — replaying
//! from sequence 0, and with snapshot cold-starts. CI's multi-process
//! smokes drive the same path through `dynamis net-serve` and
//! `dynamis net-load`.

use dynamis_core::EngineBuilder;
use dynamis_gen::powerlaw::chung_lu;
use dynamis_net::{LoadConfig, LoadReport, NetBackend, NetConfig, NetServer};
use dynamis_serve::{MisService, ServeConfig};

/// Serves a 2,000-vertex graph, runs 50 subscribers and 2 writers
/// sending 1,000 updates in all against it (seed and bootstrap from
/// `load`), and shuts down cleanly with everything still connected
/// server-side. Asserts the applied share and the stream integrity
/// every run owes.
fn loopback_run(graph_seed: u64, load: LoadConfig) -> LoadReport {
    let g = chung_lu(2_000, 2.4, 6.0, graph_seed);
    let (service, _reader) =
        MisService::spawn(EngineBuilder::on(g).k(2), ServeConfig::default()).unwrap();
    let handle = NetServer::bind(
        "127.0.0.1:0",
        NetBackend::single(&service),
        NetConfig::default(),
    )
    .unwrap();

    let cfg = LoadConfig {
        addr: handle.local_addr().to_string(),
        subscribers: 50,
        writers: 2,
        updates: 1_000,
        vertices: 2_000,
        batch: 8,
        ..load
    };
    let report = dynamis_net::load::run(&cfg).unwrap();

    assert_eq!(report.updates, 1_000);
    assert!(
        report.applied * 100 >= report.updates * 99,
        "writers must send updates that apply: {} of {} applied",
        report.applied,
        report.updates
    );
    assert_eq!(report.gaps, 0, "no subscriber may observe a sequence gap");
    assert_eq!(
        report.lost_deltas, 0,
        "every subscriber reaches the final head"
    );
    assert_eq!(report.mirror_errors, 0);
    assert!(
        report.verified_mirrors > 0,
        "replicas must equal the snapshot"
    );

    handle.shutdown();
    let final_report = service.shutdown();
    assert_eq!(final_report.stats.queue_depth, 0);
    assert_eq!(final_report.head_seq, report.final_head);
    report
}

#[test]
fn loopback_load_run_loses_nothing_and_shuts_down_cleanly() {
    let report = loopback_run(
        13,
        LoadConfig {
            seed: 99,
            ..LoadConfig::default()
        },
    );
    // Throughput counts applied updates only, not rejections.
    assert_eq!(
        (report.throughput * report.elapsed_s).round() as u64,
        report.applied
    );
    assert_eq!(report.subscribers, 50);
}

/// Every subscriber cold-starts from the snapshot bootstrap and hands
/// off to a live subscription without losing a delta.
#[test]
fn bootstrapped_load_run_loses_nothing() {
    let report = loopback_run(
        17,
        LoadConfig {
            seed: 6021,
            bootstrap: true,
            ..LoadConfig::default()
        },
    );
    assert_eq!(report.bootstraps, 50, "every subscriber cold-starts");
}
