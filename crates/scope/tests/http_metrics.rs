//! Live-wire tests for the `/metrics` exporter.
//!
//! Binds a real listener on an ephemeral loopback port, speaks raw
//! HTTP/1.1 over `TcpStream`, and round-trips `/metrics` through the
//! crate's own Prometheus text parser — the acceptance gate for the
//! wire surface. One test function: the registry and journal are
//! process-global state.

use locert_scope::http::ScopeServer;
use locert_scope::prom;
use locert_trace::journal;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One GET over a fresh connection; returns (status line, body).
fn get(addr: SocketAddr, target: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    write!(stream, "GET {target} HTTP/1.1\r\nHost: locert\r\n\r\n").expect("request");
    let mut response = String::new();
    // Connection: close — read to EOF.
    stream.read_to_string(&mut response).expect("response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("header/body separator");
    let status = head.lines().next().expect("status line").to_string();
    (status, body.to_string())
}

#[test]
fn exporter_serves_metrics_health_and_tail() {
    // Populate the registry and journal with known content.
    locert_trace::enable();
    locert_trace::reset();
    journal::reset();
    journal::enable();
    locert_trace::add("scope.test.requests", 3);
    locert_trace::record("scope.test.latency", 7);
    journal::record_with(|| journal::Event::Marker {
        label: "http-test".into(),
    });
    for v in 0..5u64 {
        journal::record_with(|| journal::Event::Verdict {
            vertex: v,
            accepted: true,
            reason: None,
            bits_read: 8,
        });
    }

    let mut server = ScopeServer::serve("127.0.0.1:0", None).expect("bind");
    let addr = server.addr();

    // /healthz is alive.
    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert_eq!(body, "ok\n");

    // /metrics parses back through the crate's own Prometheus reader
    // and carries the counters and histograms we just registered.
    let (status, body) = get(addr, "/metrics");
    assert_eq!(status, "HTTP/1.1 200 OK");
    let samples = prom::parse_text(&body).expect("/metrics output is valid Prometheus text");
    let find = |name: &str| {
        samples
            .iter()
            .find(|s| s.name == name && s.labels.is_empty())
            .unwrap_or_else(|| panic!("sample {name} missing from /metrics"))
            .value
    };
    assert_eq!(find("locert_scope_test_requests_total"), 3.0);
    assert_eq!(find("locert_scope_test_latency_count"), 1.0);
    assert_eq!(find("locert_scope_test_latency_sum"), 7.0);
    assert!(
        samples
            .iter()
            .any(|s| s.name == "locert_scope_test_latency_bucket"
                && s.labels.iter().any(|(k, v)| k == "le" && v == "+Inf")),
        "histogram exports a +Inf bucket"
    );

    // /journal/tail?n= serves the newest N entries as parseable JSONL.
    let (status, body) = get(addr, "/journal/tail?n=2");
    assert_eq!(status, "HTTP/1.1 200 OK");
    let lines: Vec<&str> = body.lines().collect();
    assert_eq!(lines.len(), 2, "tail honors n");
    for line in &lines {
        let v = locert_trace::json::parse(line).expect("tail line is JSON");
        assert!(
            journal::Event::from_json(&v).is_some(),
            "tail line decodes as a journal event: {line}"
        );
    }
    assert!(
        lines[1].contains("\"vertex\":4"),
        "tail ends at the newest entry"
    );

    // Unknown routes 404; non-GET methods 405.
    let (status, _) = get(addr, "/nope");
    assert_eq!(status, "HTTP/1.1 404 Not Found");
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, "POST /metrics HTTP/1.1\r\nHost: locert\r\n\r\n").expect("request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("response");
        assert!(response.starts_with("HTTP/1.1 405 "), "got: {response}");
    }

    // Shutdown joins the thread; the port stops answering.
    server.shutdown();
    // (A second shutdown, via Drop, must be a no-op.)
    drop(server);

    journal::disable();
    journal::reset();
    locert_trace::reset();
}

#[test]
fn request_budget_makes_the_server_exit() {
    let mut server = ScopeServer::serve("127.0.0.1:0", Some(2)).expect("bind");
    let addr = server.addr();
    let (status, _) = get(addr, "/healthz");
    assert_eq!(status, "HTTP/1.1 200 OK");
    let (status, _) = get(addr, "/healthz");
    assert_eq!(status, "HTTP/1.1 200 OK");
    // Budget exhausted: the accept loop returns on its own.
    server.join();
}
