//! End-to-end loopback smoke: a real server, a real load-generator run
//! (concurrent subscribers + writers over TCP), zero lost deltas, and a
//! clean shutdown. This is the same path CI drives at larger scale via
//! the `net` bench binary.

use dynamis_core::EngineBuilder;
use dynamis_gen::powerlaw::chung_lu;
use dynamis_net::{LoadConfig, NetBackend, NetConfig, NetServer};
use dynamis_serve::{MisService, ServeConfig};

#[test]
fn loopback_load_run_loses_nothing_and_shuts_down_cleanly() {
    let g = chung_lu(2_000, 2.4, 6.0, 13);
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
        seed: 99,
        ..LoadConfig::default()
    };
    let report = dynamis_net::load::run(&cfg).unwrap();

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
    assert!(report.applied > 0);
    // Throughput counts applied updates only, not rejections.
    assert_eq!(
        (report.throughput * report.elapsed_s).round() as u64,
        report.applied
    );
    assert_eq!(report.subscribers, 50);

    // Clean shutdown with everything still connected server-side.
    handle.shutdown();
    let final_report = service.shutdown();
    assert_eq!(final_report.stats.queue_depth, 0);
    assert_eq!(final_report.head_seq, report.final_head);
}
