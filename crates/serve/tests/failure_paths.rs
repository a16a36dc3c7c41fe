//! Failure-path contract: every malformed or inadmissible input gets a
//! typed wire error — the daemon never panics, never hangs, and keeps
//! serving well-formed traffic afterwards.

use locert_serve::proto::{
    self, encode_requests, ErrorCode, Message, Mode, Request, Response, MAX_FRAME,
};
use locert_serve::{Client, ServeConfig, Server};
use std::io::Write;
use std::net::TcpStream;
use std::process::Command;
use std::time::Duration;

fn start(admission_limit: usize) -> Server {
    Server::start(&ServeConfig {
        admission_limit,
        ..ServeConfig::default()
    })
    .expect("bind an ephemeral port")
}

fn spanning_tree_request(n: usize) -> Request {
    let graph = locert_graph::generators::cycle(n);
    Request {
        mode: Mode::Roundtrip,
        scheme: "spanning-tree".to_string(),
        n: n as u32,
        edges: graph
            .edges()
            .map(|(u, v)| (u.0 as u32, v.0 as u32))
            .collect(),
        inputs: None,
        certs: None,
    }
}

#[test]
fn malformed_payload_gets_a_conn_error_then_close() {
    let server = start(4);
    let mut client = Client::connect(server.addr()).unwrap();
    // A payload too short to carry a header: malformed-frame.
    let reply = client.send_raw(b"xy").unwrap();
    match reply {
        Some(Message::ConnError(code, _)) => assert_eq!(code, ErrorCode::MalformedFrame),
        other => panic!("expected a conn error, got {other:?}"),
    }
    // The server closed; the next exchange fails rather than hanging.
    assert!(client.send_batch(&[spanning_tree_request(4)]).is_err());

    // Garbage with enough bytes for a header reads as a foreign magic:
    // unsupported-version, and again a closed connection.
    let mut client = Client::connect(server.addr()).unwrap();
    let reply = client.send_raw(b"definitely not a frame").unwrap();
    match reply {
        Some(Message::ConnError(code, _)) => assert_eq!(code, ErrorCode::UnsupportedVersion),
        other => panic!("expected a conn error, got {other:?}"),
    }
    assert!(client.send_batch(&[spanning_tree_request(4)]).is_err());
}

#[test]
fn oversized_frame_length_is_rejected_without_allocation() {
    let server = start(4);
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // A hostile length prefix alone: the daemon must answer frame-too-large
    // without waiting for (or allocating) the declared 256 MiB + 1.
    stream
        .write_all(&((MAX_FRAME + 1) as u32).to_le_bytes())
        .unwrap();
    stream.flush().unwrap();
    let mut reader = std::io::BufReader::new(stream);
    let reply = proto::read_frame(&mut reader)
        .unwrap()
        .expect("a reply frame");
    match proto::decode(&reply) {
        Ok(Message::ConnError(code, _)) => assert_eq!(code, ErrorCode::FrameTooLarge),
        other => panic!("expected frame-too-large, got {other:?}"),
    }
}

#[test]
fn unknown_scheme_is_a_typed_error_and_the_connection_survives() {
    let server = start(4);
    let mut client = Client::connect(server.addr()).unwrap();
    let mut bogus = spanning_tree_request(4);
    bogus.scheme = "no-such-scheme".to_string();
    let responses = client.send_batch(&[bogus]).unwrap();
    assert!(matches!(
        &responses[0],
        Response::Err {
            code: ErrorCode::UnknownScheme,
            ..
        }
    ));
    // Application-level errors keep the connection usable.
    let responses = client.send_batch(&[spanning_tree_request(5)]).unwrap();
    assert!(matches!(&responses[0], Response::Ok { accepted: true, .. }));
}

#[test]
fn oversized_graph_is_rejected_before_any_work() {
    let server = start(4);
    let mut client = Client::connect(server.addr()).unwrap();
    let mut huge = spanning_tree_request(4);
    huge.n = (locert_graph::io::MAX_VERTICES + 1) as u32;
    huge.edges.clear();
    let responses = client.send_batch(&[huge]).unwrap();
    assert!(matches!(
        &responses[0],
        Response::Err {
            code: ErrorCode::GraphTooLarge,
            ..
        }
    ));
}

#[test]
fn bad_graph_and_missing_certificates_are_typed() {
    let server = start(4);
    let mut client = Client::connect(server.addr()).unwrap();
    // An endpoint out of range.
    let mut out_of_range = spanning_tree_request(4);
    out_of_range.edges.push((0, 9));
    // Verify mode without certificates.
    let mut certless = spanning_tree_request(4);
    certless.mode = Mode::Verify;
    let responses = client.send_batch(&[out_of_range, certless]).unwrap();
    assert!(matches!(
        &responses[0],
        Response::Err {
            code: ErrorCode::BadGraph,
            ..
        }
    ));
    assert!(matches!(
        &responses[1],
        Response::Err {
            code: ErrorCode::BadRequest,
            ..
        }
    ));
}

#[test]
fn admission_limit_rejects_the_excess_deterministically() {
    let server = start(1);
    let mut client = Client::connect(server.addr()).unwrap();
    // Permits are acquired upfront in request order, so a batch of three
    // same-scheme requests against a limit of one always sees exactly
    // the last two rejected as overloaded.
    let batch = vec![
        spanning_tree_request(4),
        spanning_tree_request(5),
        spanning_tree_request(6),
    ];
    let responses = client.send_batch(&batch).unwrap();
    assert!(matches!(&responses[0], Response::Ok { .. }));
    for response in &responses[1..] {
        assert!(matches!(
            response,
            Response::Err {
                code: ErrorCode::Overloaded,
                ..
            }
        ));
    }
    // Permits released after the batch: the same load now admits again.
    let responses = client.send_batch(&[spanning_tree_request(7)]).unwrap();
    assert!(matches!(&responses[0], Response::Ok { .. }));
}

#[test]
fn drain_acks_and_joins_within_timeout() {
    let mut server = start(4);
    let addr = server.addr();
    let client = Client::connect(addr).unwrap();
    assert!(client.shutdown().unwrap(), "drain must be acknowledged");
    let t0 = std::time::Instant::now();
    server.join();
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "drain must finish promptly"
    );
    // After the drain the protocol port no longer answers requests.
    let late = Client::connect(addr).and_then(|mut c| c.send_batch(&[spanning_tree_request(4)]));
    assert!(late.is_err());
}

#[test]
fn finished_handlers_are_reaped_while_the_daemon_runs() {
    let server = start(4);
    for _ in 0..500 {
        drop(TcpStream::connect(server.addr()).unwrap());
    }
    // Each accept reaps the handlers finished by then. Once the closed
    // connections' handlers have exited, the next accepted connection
    // leaves only itself (and any handler still exiting) registered.
    let mut handlers = usize::MAX;
    for _ in 0..50 {
        std::thread::sleep(Duration::from_millis(100));
        let mut client = Client::connect(server.addr()).unwrap();
        let responses = client.send_batch(&[spanning_tree_request(5)]).unwrap();
        assert!(matches!(&responses[0], Response::Ok { .. }));
        handlers = server.handler_count();
        if handlers <= 4 {
            break;
        }
    }
    assert!(handlers <= 4, "{handlers} handlers registered");
}

#[test]
fn encode_requests_and_server_agree_on_the_frame_layout() {
    // A wire-level sanity check independent of the Client helper: bytes
    // out of encode_requests drive the daemon directly.
    let server = start(4);
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let payload = encode_requests(&[spanning_tree_request(6)]);
    proto::write_frame(&mut stream, &payload).unwrap();
    let mut reader = std::io::BufReader::new(stream);
    let reply = proto::read_frame(&mut reader).unwrap().expect("a response");
    match proto::decode(&reply) {
        Ok(Message::Responses(responses)) => {
            assert!(matches!(&responses[0], Response::Ok { accepted: true, .. }));
        }
        other => panic!("expected responses, got {other:?}"),
    }
}

/// Wire bytes for a one-request batch: 4-byte length prefix + payload.
fn request_wire(request: &Request) -> Vec<u8> {
    let payload = encode_requests(std::slice::from_ref(request));
    let mut wire = Vec::new();
    wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    wire.extend_from_slice(&payload);
    wire
}

/// Sends `wire` in two writes split at `split`, stalling past the
/// server's 200ms drain-poll read timeout in between, and expects a
/// well-framed `Ok` response (not a reset or desynchronized stream).
fn slow_write_roundtrip(split: usize) {
    let mut server = Server::start(&ServeConfig::default()).unwrap();
    let stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut w = stream.try_clone().unwrap();
    let request = Request {
        mode: Mode::Prove,
        scheme: "acyclicity".to_string(),
        n: 4,
        edges: vec![(0, 1), (1, 2), (2, 3)],
        inputs: None,
        certs: None,
    };
    let wire = request_wire(&request);
    assert!(split < wire.len());
    w.write_all(&wire[..split]).unwrap();
    w.flush().unwrap();
    std::thread::sleep(Duration::from_millis(600));
    w.write_all(&wire[split..]).unwrap();
    w.flush().unwrap();
    let mut r = std::io::BufReader::new(stream);
    let reply = proto::read_frame(&mut r).unwrap();
    match reply {
        None => panic!("server closed the connection on a slow mid-frame write"),
        Some(bytes) => match proto::decode(&bytes) {
            Ok(Message::Responses(rs)) => {
                assert!(matches!(rs[0], Response::Ok { .. }), "got {rs:?}");
            }
            other => panic!("expected a response batch, got {other:?}"),
        },
    }
    server.shutdown();
}

#[test]
fn slow_mid_frame_write_keeps_framing() {
    // Stall halfway through the payload: the prefix and a payload
    // prefix are buffered when the drain-poll timeout fires.
    let request = Request {
        mode: Mode::Prove,
        scheme: "acyclicity".to_string(),
        n: 4,
        edges: vec![(0, 1), (1, 2), (2, 3)],
        inputs: None,
        certs: None,
    };
    let wire = request_wire(&request);
    slow_write_roundtrip(wire.len() / 2);
}

#[test]
fn slow_write_inside_length_prefix_keeps_framing() {
    // Stall after two bytes of the 4-byte length prefix itself.
    slow_write_roundtrip(2);
}

/// `--threads 0` and `LOCERT_THREADS=0` are usage errors: exit 2, with
/// the source named on stderr (the workspace rule of `locert_par::cli`).
#[test]
fn zero_threads_is_a_usage_error() {
    let exe = env!("CARGO_BIN_EXE_locert-serve");
    let flag = Command::new(exe)
        .args(["--threads", "0"])
        .env_remove("LOCERT_THREADS")
        .output()
        .expect("spawn locert-serve");
    let env = Command::new(exe)
        .env("LOCERT_THREADS", "0")
        .output()
        .expect("spawn locert-serve");
    for (out, source) in [(flag, "--threads 0"), (env, "LOCERT_THREADS=0")] {
        assert_eq!(out.status.code(), Some(2), "{source} must exit 2");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains(source),
            "stderr names {source}"
        );
    }
}

/// An unknown `--schemes` id is a usage error naming the id: exit 2
/// while the arguments are parsed, before any connection, never a panic.
#[test]
fn loadgen_unknown_scheme_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_loadgen"))
        .args(["--addr", "127.0.0.1:1", "--schemes", "nope"])
        .output()
        .expect("spawn loadgen");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown scheme \"nope\""), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
