//! Stream tests at the edges of the log: the snapshot cold-start
//! handing off gap-free to a live subscription, and the straggler
//! force-reseed that replaces an unbounded crawl.

use dynamis_core::EngineBuilder;
use dynamis_gen::powerlaw::chung_lu;
use dynamis_gen::{StreamConfig, UpdateStream};
use dynamis_net::{
    NetBackend, NetClient, NetConfig, NetError, NetServer, RemoteMirror, SubEvent, Subscription,
};
use dynamis_serve::{MisService, ServeConfig};
use std::time::{Duration, Instant};

/// Applies events until the mirror reaches `target`.
fn drain(sub: &mut Subscription, mirror: &mut RemoteMirror, target: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while mirror.seq() < target {
        assert!(
            Instant::now() < deadline,
            "drain timed out at seq {}",
            mirror.seq()
        );
        match sub.next_event() {
            Ok(Some(ev)) => mirror.apply_event(&ev).unwrap(),
            Ok(None) => {}
            Err(e) => panic!("subscription failed at seq {}: {e}", mirror.seq()),
        }
    }
}

/// Blocks until the ingest queue is drained, returning the final head.
fn drained_head(client: &mut NetClient) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let s = client.stats().unwrap();
        if s.queue_depth == 0 {
            return s.head_seq;
        }
        assert!(Instant::now() < deadline, "queue never drained");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Snapshot cold-start: `bootstrap` seeds a mirror at the log's base
/// checkpoint, and a subscription resumed from that sequence number
/// streams pure deltas — no gap, no further checkpoint — until the
/// mirror equals the server snapshot. A mirror replayed from sequence 0
/// ends on the same snapshot.
#[test]
fn bootstrap_then_subscribe_hands_off_gap_free() {
    let g = chung_lu(500, 2.4, 6.0, 9);
    let ups = UpdateStream::new(&g, StreamConfig::default(), 31).take_updates(400);
    let (service, _reader) = MisService::spawn(
        EngineBuilder::on(g).k(2),
        ServeConfig {
            log_window: 8, // force the base checkpoint well past seq 0
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let handle = NetServer::bind(
        "127.0.0.1:0",
        NetBackend::single(&service),
        NetConfig::default(),
    )
    .unwrap();
    let addr = handle.local_addr().to_string();

    let mut writer = NetClient::connect(&addr).unwrap();
    for u in ups {
        match writer.apply(u) {
            Ok(_) | Err(NetError::Rejected(_)) => {}
            Err(e) => panic!("transport failure: {e}"),
        }
    }
    let head = drained_head(&mut writer);

    // Cold start: one bootstrap stream instead of replaying from 0.
    let mut cold = NetClient::connect(&addr).unwrap();
    let (base_seq, members) = cold.bootstrap().unwrap();
    assert!(base_seq > 0, "an aged log must serve a non-zero base");
    assert!(base_seq <= head);

    let mut mirror = RemoteMirror::new();
    mirror
        .apply_event(&SubEvent::Checkpoint {
            seq: base_seq,
            solution: members,
        })
        .unwrap();

    // Same connection subscribes from the bootstrap point: the handoff
    // must be pure in-order deltas (the strict mirror refuses gaps).
    let sub = cold.subscribe(base_seq).unwrap();
    sub.set_read_timeout(Some(Duration::from_millis(10)))
        .unwrap();
    let mut sub = sub;
    let deadline = Instant::now() + Duration::from_secs(30);
    while mirror.seq() < head {
        assert!(Instant::now() < deadline, "catch-up timed out");
        match sub.next_event() {
            Ok(Some(ev)) => {
                assert!(
                    !matches!(ev, SubEvent::Checkpoint { .. }),
                    "bootstrap handoff must not need a second checkpoint"
                );
                mirror.apply_event(&ev).unwrap();
            }
            Ok(None) => {}
            Err(e) => panic!("subscription failed: {e}"),
        }
    }

    let (snap_seq, snap) = writer.snapshot().unwrap();
    assert_eq!((mirror.seq(), mirror.solution()), (snap_seq, snap.clone()));

    // Bootstrap ≡ replay: a second connection subscribing from 0 (whose
    // resume point aged out, so it opens with a checkpoint) reaches the
    // same snapshot.
    let mut replay = NetClient::connect(&addr).unwrap().subscribe(0).unwrap();
    replay
        .set_read_timeout(Some(Duration::from_millis(10)))
        .unwrap();
    let mut replayed = RemoteMirror::new();
    drain(&mut replay, &mut replayed, head);
    assert_eq!((replayed.seq(), replayed.solution()), (snap_seq, snap));

    handle.shutdown();
    service.shutdown();
}

/// A subscriber that stays saturated for `straggler_rounds` consecutive
/// hub rounds is force-reseeded with a checkpoint instead of crawling
/// the backlog entry by entry.
#[test]
fn straggler_is_force_reseeded_instead_of_crawling() {
    let g = chung_lu(500, 2.4, 6.0, 11);
    let ups = UpdateStream::new(&g, StreamConfig::default(), 37).take_updates(300);
    let (service, _reader) =
        MisService::spawn(EngineBuilder::on(g).k(2), ServeConfig::default()).unwrap();
    let handle = NetServer::bind(
        "127.0.0.1:0",
        NetBackend::single(&service),
        NetConfig {
            sub_batch: 1,        // one entry per round: a guaranteed crawl
            straggler_rounds: 2, // ...cut short after two saturated rounds
            ..NetConfig::default()
        },
    )
    .unwrap();
    let addr = handle.local_addr().to_string();

    // Build deep history first; the default log window retains all of
    // it, so a plain tail from 0 would crawl ~head rounds.
    let mut writer = NetClient::connect(&addr).unwrap();
    for u in ups {
        match writer.apply(u) {
            Ok(_) | Err(NetError::Rejected(_)) => {}
            Err(e) => panic!("transport failure: {e}"),
        }
    }
    let head = drained_head(&mut writer);
    assert!(head > 50, "needs a real backlog");

    let sub = NetClient::connect(&addr).unwrap().subscribe(0).unwrap();
    sub.set_read_timeout(Some(Duration::from_millis(10)))
        .unwrap();
    let mut sub = sub;
    let mut mirror = RemoteMirror::new();
    let mut checkpoints = 0u32;
    let deadline = Instant::now() + Duration::from_secs(30);
    while mirror.seq() < head {
        assert!(Instant::now() < deadline, "catch-up timed out");
        match sub.next_event() {
            Ok(Some(ev)) => {
                if matches!(ev, SubEvent::Checkpoint { .. }) {
                    checkpoints += 1;
                }
                mirror.apply_event(&ev).unwrap();
            }
            Ok(None) => {}
            Err(e) => panic!("subscription failed: {e}"),
        }
    }
    assert!(
        checkpoints >= 1,
        "a saturated straggler must be reseeded, not left to crawl"
    );
    let (snap_seq, snap) = writer.snapshot().unwrap();
    assert_eq!((mirror.seq(), mirror.solution()), (snap_seq, snap));

    handle.shutdown();
    service.shutdown();
}
