//! The hub's doorbell: an idle fan-out hub sleeps until a publish, a
//! subscriber handoff or shutdown wakes it. Each test bounds a latency
//! far below the hub's idle-park safety net, so a hub that lost one of
//! those wakes, and so waited for the safety net instead, fails it.

use dynamis_core::EngineBuilder;
use dynamis_graph::{DynamicGraph, Update};
use dynamis_net::{
    NetBackend, NetClient, NetConfig, NetServer, NetServerHandle, SubEvent, Subscription,
};
use dynamis_serve::{MisService, ServeConfig, ServiceHandle};
use std::time::{Duration, Instant};

/// The hub's idle-park safety net (a private constant of the server):
/// a lost wake costs up to this much.
const SAFETY_NET: Duration = Duration::from_millis(250);

/// Two isolated vertices: toggling the edge between them changes the
/// solution every time, so every applied update publishes a delta.
fn serve(cfg: ServeConfig) -> (NetServerHandle, ServiceHandle, String) {
    let g = DynamicGraph::from_edges(2, &[]);
    let (service, _reader) = MisService::spawn(EngineBuilder::on(g).k(2), cfg).unwrap();
    let handle = NetServer::bind(
        "127.0.0.1:0",
        NetBackend::single(&service),
        NetConfig::default(),
    )
    .unwrap();
    let addr = handle.local_addr().to_string();
    (handle, service, addr)
}

/// Reads events until one at or past `seq` arrives; panics past
/// `deadline`.
fn wait_for(sub: &mut Subscription, seq: u64, deadline: Instant) {
    loop {
        assert!(
            Instant::now() < deadline,
            "seq {seq} did not arrive in time"
        );
        match sub.next_event() {
            Ok(Some(SubEvent::Delta { seq: s, .. } | SubEvent::Checkpoint { seq: s, .. }))
                if s >= seq =>
            {
                return
            }
            Ok(_) => {}
            Err(e) => panic!("subscription failed: {e}"),
        }
    }
}

/// Every publish wakes the hub: sequential apply → delta round trips
/// cost microseconds each, not a safety-net park each.
#[test]
fn every_publish_wakes_the_hubs() {
    let (handle, service, addr) = serve(ServeConfig::default());
    let mut writer = NetClient::connect(&addr).unwrap();
    let mut sub = NetClient::connect(&addr)
        .unwrap()
        .subscribe(writer.head_at_hello())
        .unwrap();
    sub.set_read_timeout(Some(Duration::from_millis(10)))
        .unwrap();
    let rounds = 200;
    // With lost wakes the loop would take about rounds × SAFETY_NET.
    let budget = SAFETY_NET * rounds / 20;
    let start = Instant::now();
    for i in 0..rounds {
        let u = if i % 2 == 0 {
            Update::InsertEdge(0, 1)
        } else {
            Update::RemoveEdge(0, 1)
        };
        let seq = writer.apply(u).unwrap();
        wait_for(&mut sub, seq, start + budget);
    }
    drop(sub);
    handle.shutdown();
    service.shutdown();
}

/// The handoff wakes the hub: a subscriber joining an idle server gets
/// its base checkpoint at once.
#[test]
fn a_joining_subscriber_gets_its_checkpoint_promptly() {
    // A resumed service's log starts at an installed checkpoint, so a
    // subscriber from 0 opens with it.
    let cfg = ServeConfig {
        first_seq: 7,
        ..ServeConfig::default()
    };
    let (handle, service, addr) = serve(cfg);
    let joins = 8;
    // After serving a join the hub parks afresh, so with a lost handoff
    // wake every later join would wait most of a safety net.
    let budget = SAFETY_NET * joins / 4;
    let start = Instant::now();
    for _ in 0..joins {
        let mut sub = NetClient::connect(&addr).unwrap().subscribe(0).unwrap();
        sub.set_read_timeout(Some(Duration::from_millis(10)))
            .unwrap();
        wait_for(&mut sub, 7, start + budget);
    }
    handle.shutdown();
    service.shutdown();
}

/// Shutdown wakes the hub: stopping an idle server does not wait for
/// a parked hub's safety net.
#[test]
fn shutdown_of_an_idle_server_is_prompt() {
    let (handle, service, addr) = serve(ServeConfig::default());
    // A served subscriber: the hub has just parked afresh.
    let mut sub = NetClient::connect(&addr).unwrap().subscribe(0).unwrap();
    sub.set_read_timeout(Some(Duration::from_millis(10)))
        .unwrap();
    wait_for(&mut sub, 1, Instant::now() + Duration::from_secs(10));
    let start = Instant::now();
    handle.shutdown();
    let took = start.elapsed();
    assert!(took < SAFETY_NET / 2, "shutdown took {took:?}");
    service.shutdown();
}
