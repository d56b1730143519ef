//! Session-protocol tests over real loopback sockets: handshake
//! ordering, version refusal, the handshake deadline, malformed-frame
//! rejection, query parity with the in-process reader, the session
//! cap's typed `Busy` refusal, and net counters served over the wire.

use dynamis_core::EngineBuilder;
use dynamis_gen::powerlaw::chung_lu;
use dynamis_gen::{StreamConfig, UpdateStream};
use dynamis_graph::{DynamicGraph, Update};
use dynamis_net::frame::{read_frame, write_frame};
use dynamis_net::proto::{
    decode_response, encode_request, encode_response, Request, Response, ERR_MALFORMED, ERR_ORDER,
    ERR_VERSION,
};
use dynamis_net::{
    NetBackend, NetClient, NetConfig, NetError, NetServer, NetServerHandle, PROTO_VERSION,
};
use dynamis_serve::{MisService, ReaderHandle, ServeConfig, ServiceHandle};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

fn serve(
    g: DynamicGraph,
    net_cfg: NetConfig,
) -> (NetServerHandle, ServiceHandle, ReaderHandle, String) {
    let (service, reader) =
        MisService::spawn(EngineBuilder::on(g).k(2), ServeConfig::default()).unwrap();
    let handle = NetServer::bind("127.0.0.1:0", NetBackend::single(&service), net_cfg).unwrap();
    let addr = handle.local_addr().to_string();
    (handle, service, reader, addr)
}

#[test]
fn queries_match_the_in_process_reader() {
    let g = chung_lu(500, 2.4, 6.0, 3);
    let ups = UpdateStream::new(&g, StreamConfig::default(), 9).take_updates(400);
    let (handle, service, mut reader, addr) = serve(g, NetConfig::default());

    let mut client = NetClient::connect(&addr).unwrap();
    for u in ups {
        // Rejections are valid verdicts under a random stream; only
        // transport-level failures are test failures.
        match client.apply(u) {
            Ok(_) | Err(NetError::Rejected(_)) => {}
            Err(e) => panic!("transport failure: {e}"),
        }
    }
    let (seq, remote_solution) = client.snapshot().unwrap();
    reader.sync();
    assert_eq!(seq, reader.seq(), "both caught up to the same head");
    assert_eq!(remote_solution, reader.snapshot());
    assert_eq!(client.len().unwrap() as usize, remote_solution.len());
    for &v in remote_solution.iter().take(20) {
        assert!(client.contains(v).unwrap());
    }
    client.ping().unwrap();

    handle.shutdown();
    service.shutdown();
}

#[test]
fn batch_verdicts_arrive_per_update_in_order() {
    let g = DynamicGraph::from_edges(6, &[(0, 1), (2, 3)]);
    let (handle, service, _reader, addr) = serve(g, NetConfig::default());
    let mut client = NetClient::connect(&addr).unwrap();

    let verdicts = client
        .apply_batch(vec![
            Update::InsertEdge(0, 2), // fresh: applied
            Update::InsertEdge(0, 1), // duplicate: rejected
            Update::RemoveEdge(4, 5), // missing: rejected
            Update::InsertEdge(4, 5), // fresh: applied
        ])
        .unwrap();
    assert_eq!(verdicts.len(), 4);
    assert!(verdicts[0].is_ok());
    assert!(verdicts[1].is_err(), "duplicate edge must be rejected");
    assert!(verdicts[2].is_err(), "missing edge must be rejected");
    assert!(verdicts[3].is_ok());

    handle.shutdown();
    service.shutdown();
}

#[test]
fn non_hello_first_message_is_refused() {
    let g = DynamicGraph::from_edges(3, &[(0, 1)]);
    let (handle, service, _reader, addr) = serve(g, NetConfig::default());

    let mut stream = TcpStream::connect(&addr).unwrap();
    let mut payload = Vec::new();
    encode_request(&Request::Len, &mut payload);
    write_frame(&mut stream, &payload).unwrap();
    let mut reply = Vec::new();
    assert!(read_frame(&mut stream, &mut reply).unwrap());
    match decode_response(&reply).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ERR_ORDER),
        other => panic!("expected an ordering error, got {other:?}"),
    }
    // The server closes after the error.
    assert!(!read_frame(&mut stream, &mut reply).unwrap());

    handle.shutdown();
    service.shutdown();
}

#[test]
fn mismatched_client_version_is_refused() {
    let g = DynamicGraph::from_edges(3, &[(0, 1)]);
    let (handle, service, _reader, addr) = serve(g, NetConfig::default());

    // Older and newer clients alike: a session needs the same version.
    for version in [1, PROTO_VERSION + 1, u16::MAX] {
        let mut stream = TcpStream::connect(&addr).unwrap();
        let mut payload = Vec::new();
        encode_request(&Request::Hello { version }, &mut payload);
        write_frame(&mut stream, &payload).unwrap();
        let mut reply = Vec::new();
        assert!(read_frame(&mut stream, &mut reply).unwrap());
        match decode_response(&reply).unwrap() {
            Response::Error { code, .. } => assert_eq!(code, ERR_VERSION, "version {version}"),
            other => panic!("version {version}: expected a version error, got {other:?}"),
        }
    }

    handle.shutdown();
    service.shutdown();
}

/// The client side of the same check, against a stand-in server that
/// answers `Hello` with `reply`.
fn connect_to_stub(reply: Response) -> Result<NetClient, NetError> {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stub = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut buf = Vec::new();
        assert!(read_frame(&mut stream, &mut buf).unwrap());
        encode_response(&reply, &mut buf);
        write_frame(&mut stream, &buf).unwrap();
    });
    let client = NetClient::connect(addr);
    stub.join().unwrap();
    client
}

#[test]
fn client_refuses_a_server_of_another_version() {
    let other = PROTO_VERSION + 1;
    let answered = connect_to_stub(Response::Hello {
        version: other,
        head_seq: 0,
    });
    assert!(
        matches!(answered, Err(NetError::Handshake { server, client })
            if server == other && client == PROTO_VERSION),
        "{:?}",
        answered.err()
    );
    let refused = connect_to_stub(Response::Error {
        code: ERR_VERSION,
        message: format!("server speaks protocol {other}"),
    });
    assert!(
        matches!(refused, Err(NetError::Handshake { server, .. }) if server == other),
        "{:?}",
        refused.err()
    );
}

#[test]
fn malformed_frames_are_refused_with_a_typed_error() {
    let g = DynamicGraph::from_edges(3, &[(0, 1)]);
    let (handle, service, _reader, addr) = serve(g, NetConfig::default());
    let mut reply = Vec::new();

    // Garbage payload in a well-formed frame.
    let mut stream = TcpStream::connect(&addr).unwrap();
    write_frame(&mut stream, &[0xAB, 0xCD, 0xEF]).unwrap();
    assert!(read_frame(&mut stream, &mut reply).unwrap());
    match decode_response(&reply).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ERR_MALFORMED),
        other => panic!("expected a malformed error, got {other:?}"),
    }
    assert!(!read_frame(&mut stream, &mut reply).unwrap(), "then close");

    // Corrupt (oversized) length prefix: same refusal, without ever
    // allocating the claimed four gigabytes.
    let mut stream = TcpStream::connect(&addr).unwrap();
    use std::io::Write as _;
    stream.write_all(&u32::MAX.to_le_bytes()).unwrap();
    assert!(read_frame(&mut stream, &mut reply).unwrap());
    match decode_response(&reply).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ERR_MALFORMED),
        other => panic!("expected a malformed error, got {other:?}"),
    }

    // After Hello, a Subscribe carrying the filter bytes an older peer
    // appended (`shard:0/2`: tag 2, 0u32, 2u32): same refusal, then a
    // close — the session never becomes a subscription.
    let mut stream = TcpStream::connect(&addr).unwrap();
    let mut payload = Vec::new();
    encode_request(
        &Request::Hello {
            version: PROTO_VERSION,
        },
        &mut payload,
    );
    write_frame(&mut stream, &payload).unwrap();
    assert!(read_frame(&mut stream, &mut reply).unwrap());
    assert!(matches!(
        decode_response(&reply).unwrap(),
        Response::Hello { .. }
    ));
    encode_request(&Request::Subscribe { after_seq: 0 }, &mut payload);
    payload.push(2);
    payload.extend_from_slice(&0u32.to_le_bytes());
    payload.extend_from_slice(&2u32.to_le_bytes());
    write_frame(&mut stream, &payload).unwrap();
    assert!(read_frame(&mut stream, &mut reply).unwrap());
    match decode_response(&reply).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ERR_MALFORMED),
        other => panic!("expected a malformed error, got {other:?}"),
    }
    assert!(!read_frame(&mut stream, &mut reply).unwrap(), "then close");

    handle.shutdown();
    service.shutdown();
}

#[test]
fn session_cap_refuses_with_busy_and_counts_the_shed() {
    let g = DynamicGraph::from_edges(3, &[(0, 1)]);
    let cfg = NetConfig {
        max_sessions: 1,
        ..NetConfig::default()
    };
    let (handle, service, _reader, addr) = serve(g, cfg);

    let _held = NetClient::connect(&addr).unwrap();
    match NetClient::connect(&addr) {
        Err(NetError::Busy { .. }) => {}
        Err(e) => panic!("expected Busy at the session cap, got {e}"),
        Ok(_) => panic!("expected Busy at the session cap, got a session"),
    }
    let stats = handle.stats();
    assert_eq!(stats.sessions, 1);
    assert!(stats.shed >= 1, "door refusal must count as shed");

    handle.shutdown();
    service.shutdown();
}

/// A connection that never sends `Hello` must not hold a session slot
/// forever: at the handshake deadline (a few seconds) it gets a typed
/// ordering error and a close, and the freed slot serves the next
/// client. A session past `Hello` may idle longer than that deadline.
#[test]
fn silent_connection_is_refused_at_the_handshake_deadline() {
    let g = DynamicGraph::from_edges(3, &[(0, 1)]);
    let cfg = NetConfig {
        max_sessions: 1,
        ..NetConfig::default()
    };
    let (handle, service, _reader, addr) = serve(g, cfg);

    let mut silent = TcpStream::connect(&addr).unwrap();
    silent
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reply = Vec::new();
    assert!(read_frame(&mut silent, &mut reply).unwrap());
    match decode_response(&reply).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ERR_ORDER),
        other => panic!("expected an ordering error, got {other:?}"),
    }
    assert!(!read_frame(&mut silent, &mut reply).unwrap(), "then close");

    // The silent session's thread may still be exiting when the close
    // arrives, so the door can answer Busy for a moment.
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut client = loop {
        match NetClient::connect(&addr) {
            Ok(c) => break c,
            Err(NetError::Busy { .. }) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(10))
            }
            Err(e) => panic!("the freed slot must serve a client: {e}"),
        }
    };
    client.ping().unwrap();
    std::thread::sleep(Duration::from_secs(4));
    client.ping().unwrap();

    handle.shutdown();
    service.shutdown();
}

#[test]
fn metrics_snapshot_is_served_over_the_wire() {
    // Stage timers are process-global-gated; turn them on so latency
    // histograms populate alongside the always-on counters.
    dynamis_obs::set_enabled(true);
    let g = chung_lu(300, 2.4, 6.0, 11);
    let ups = UpdateStream::new(&g, StreamConfig::default(), 3).take_updates(200);
    let (handle, service, _reader, addr) = serve(g, NetConfig::default());

    let mut client = NetClient::connect(&addr).unwrap();
    for u in ups {
        match client.apply(u) {
            Ok(_) | Err(NetError::Rejected(_)) => {}
            Err(e) => panic!("transport failure: {e}"),
        }
    }
    let m = client.metrics().unwrap();
    assert_eq!(m.version, dynamis_obs::SNAPSHOT_VERSION);
    assert!(
        m.counter("serve_applied_total").unwrap_or(0)
            + m.counter("serve_rejected_total").unwrap_or(0)
            >= 200,
        "every update must land in the serve counters"
    );
    let apply = m
        .histogram("net_req_apply_ns")
        .expect("per-request-type latency series");
    assert!(apply.count >= 200, "one apply latency sample per request");
    assert!(apply.quantile(0.5) > 0);
    assert!(
        m.histogram("serve_engine_apply_ns").map(|h| h.count) >= Some(1),
        "single-writer stage timers must record"
    );
    // The wire snapshot is the same schema the text encoders consume:
    // the JSON encoding parses back to exactly the transported value.
    let parsed = dynamis_obs::MetricsSnapshot::from_json(&m.to_json()).unwrap();
    assert_eq!(parsed, m);
    assert!(m
        .to_prometheus()
        .contains("# TYPE serve_applied_total counter"));

    handle.shutdown();
    service.shutdown();
}

#[test]
fn stats_are_served_over_the_wire_with_net_counters() {
    let g = DynamicGraph::from_edges(4, &[(0, 1), (2, 3)]);
    let (handle, service, _reader, addr) = serve(g, NetConfig::default());

    let mut a = NetClient::connect(&addr).unwrap();
    let _b = NetClient::connect(&addr).unwrap();
    a.apply(Update::InsertEdge(0, 2)).unwrap();
    let stats = a.stats().unwrap();
    assert!(stats.connections >= 2);
    assert_eq!(stats.sessions, 2);
    assert_eq!(stats.applied, 1);
    assert_eq!(stats.subscriptions, 0);

    handle.shutdown();
    service.shutdown();
}
