//! Subscription-stream tests: the pinned exactly-once, in-order
//! guarantee across a forced mid-stream reconnect; remote-mirror ≡
//! local-reader equivalence; and checkpoint fallback when the resume
//! point has aged out of the log window.

use dynamis_core::EngineBuilder;
use dynamis_gen::powerlaw::chung_lu;
use dynamis_gen::{StreamConfig, UpdateStream};
use dynamis_net::{
    NetBackend, NetClient, NetConfig, NetError, NetServer, RemoteMirror, SubEvent, Subscription,
};
use dynamis_serve::{MisService, ServeConfig};
use std::time::{Duration, Instant};

/// Applies events until the mirror reaches `target`, recording every
/// delta sequence number seen. Panics on transport errors or timeout —
/// and, through [`RemoteMirror`]'s strict apply, on any duplicated,
/// skipped, or out-of-order delta.
fn drain_to(sub: &mut Subscription, mirror: &mut RemoteMirror, seen: &mut Vec<u64>, target: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while mirror.seq() < target {
        assert!(
            Instant::now() < deadline,
            "drain timed out at seq {}",
            mirror.seq()
        );
        match sub.next_event() {
            Ok(Some(ev)) => {
                if let SubEvent::Delta { seq, .. } = &ev {
                    seen.push(*seq);
                }
                mirror.apply_event(&ev).unwrap();
            }
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

/// The pinned guarantee: a caught-up remote subscriber observes every
/// sequenced delta exactly once, in order, across a forced reconnect.
#[test]
fn every_delta_exactly_once_in_order_across_forced_reconnect() {
    let g = chung_lu(800, 2.4, 6.0, 5);
    let ups = UpdateStream::new(&g, StreamConfig::default(), 17).take_updates(600);
    let (service, mut reader) =
        MisService::spawn(EngineBuilder::on(g).k(2), ServeConfig::default()).unwrap();
    let handle = NetServer::bind(
        "127.0.0.1:0",
        NetBackend::single(&service),
        NetConfig::default(),
    )
    .unwrap();
    let addr = handle.local_addr().to_string();

    let mut writer = NetClient::connect(&addr).unwrap();
    let sub = NetClient::connect(&addr).unwrap().subscribe(0).unwrap();
    sub.set_read_timeout(Some(Duration::from_millis(10)))
        .unwrap();
    let mut sub = sub;
    let mut mirror = RemoteMirror::new();
    let mut seen = Vec::new();

    let (first, second) = ups.split_at(ups.len() / 2);
    let mut mid_head = 0;
    for u in first {
        if let Ok(seq) = writer.apply(u.clone()) {
            mid_head = seq;
        }
    }
    // Catch the subscriber up, then force a mid-stream disconnect.
    drain_to(&mut sub, &mut mirror, &mut seen, mid_head);
    drop(sub);

    // The stream keeps moving while the subscriber is gone.
    for u in second {
        match writer.apply(u.clone()) {
            Ok(_) | Err(NetError::Rejected(_)) => {}
            Err(e) => panic!("transport failure: {e}"),
        }
    }
    let head = drained_head(&mut writer);

    // Reconnect, resuming from the last applied sequence number.
    let resumed = NetClient::connect(&addr)
        .unwrap()
        .subscribe(mirror.seq())
        .unwrap();
    resumed
        .set_read_timeout(Some(Duration::from_millis(10)))
        .unwrap();
    let mut resumed = resumed;
    drain_to(&mut resumed, &mut mirror, &mut seen, head);

    // Exactly once, in order: the recorded sequence numbers are exactly
    // 1..=head with no duplicate, no gap, no reordering. (The strict
    // mirror already refused any violation during the drain.)
    let expected: Vec<u64> = (1..=head).collect();
    assert_eq!(seen, expected, "one delta per sequence number, in order");

    // And the replica equals what in-process consumers see.
    let (snap_seq, snap) = writer.snapshot().unwrap();
    assert_eq!(snap_seq, head);
    assert_eq!(mirror.solution(), snap);
    reader.sync();
    assert_eq!(
        mirror.solution(),
        reader.snapshot(),
        "remote mirror ≡ local reader"
    );

    handle.shutdown();
    service.shutdown();
}

/// A subscriber resuming from a sequence number that has aged out of
/// the log window is reseeded with a checkpoint, then streams deltas.
#[test]
fn stale_resume_point_falls_back_to_a_checkpoint() {
    let g = chung_lu(500, 2.4, 6.0, 7);
    let ups = UpdateStream::new(&g, StreamConfig::default(), 23).take_updates(400);
    let (service, _reader) = MisService::spawn(
        EngineBuilder::on(g).k(2),
        ServeConfig {
            log_window: 8, // tiny retained window: history ages out fast
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
    assert!(head > 8, "enough history to outgrow the window");

    // Subscribe from 0 — far behind the window. The stream must open
    // with a checkpoint (never a doomed walk through pruned history).
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
    assert!(checkpoints >= 1, "stale resume must reseed via checkpoint");
    let (snap_seq, snap) = writer.snapshot().unwrap();
    assert_eq!((mirror.seq(), mirror.solution()), (snap_seq, snap));

    handle.shutdown();
    service.shutdown();
}
