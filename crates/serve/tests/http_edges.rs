//! HTTP-layer edge cases against a live server with a short I/O timeout:
//! malformed, truncated, oversized, and stalling requests must all earn a
//! canonical `400` JSON error and a closed connection — never a hang, never a
//! worker pinned past the timeout, never a crash that a later healthy request
//! would reveal.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

use serve::{http, Server, ServerConfig};

/// The server's per-connection socket timeout for these tests — short enough
/// that a stalling client is shed quickly, long enough to be robust on a
/// loaded machine.
const IO_TIMEOUT: Duration = Duration::from_millis(300);

/// Ceiling on how long any single misbehaving request may take end-to-end.
/// Far above `IO_TIMEOUT`, far below a test timeout: a hang fails fast.
const STALL_BUDGET: Duration = Duration::from_secs(10);

fn start() -> (Server, String) {
    let config = ServerConfig {
        io_timeout: IO_TIMEOUT,
        ..ServerConfig::default()
    };
    let (server, _) = Server::start("127.0.0.1:0", None, config).expect("bind");
    let addr = server.addr().to_string();
    (server, addr)
}

/// Send raw bytes, optionally half-close the write side, and read whatever
/// the server answers (until it closes). Returns the raw response text.
fn raw_exchange(addr: &str, payload: &[u8], half_close: bool) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(STALL_BUDGET)).unwrap();
    stream.set_write_timeout(Some(STALL_BUDGET)).unwrap();
    stream.write_all(payload).expect("send");
    if half_close {
        stream.shutdown(Shutdown::Write).expect("half-close");
    }
    let mut raw = Vec::new();
    let _ = stream.read_to_end(&mut raw);
    String::from_utf8_lossy(&raw).into_owned()
}

/// Assert a raw response is the canonical 400: status line, JSON error
/// envelope, and `Connection: close`.
fn assert_canonical_400(raw: &str, case: &str) {
    assert!(
        raw.starts_with("HTTP/1.1 400 "),
        "{case}: not a 400:\n{raw}"
    );
    assert!(
        raw.contains("Connection: close"),
        "{case}: connection not closed:\n{raw}"
    );
    assert!(
        raw.contains("{\"error\":"),
        "{case}: no JSON error envelope:\n{raw}"
    );
}

/// After the abuse, the server must still answer a clean request — proof that
/// no worker was lost, no state corrupted.
fn assert_still_healthy(addr: &str) {
    let (status, body) =
        http::fetch(addr, "GET", "/healthz", b"", STALL_BUDGET).expect("healthz after abuse");
    assert_eq!((status, body.as_slice()), (200, b"ok\n".as_slice()));
}

#[test]
fn malformed_heads_earn_canonical_400s() {
    let (server, addr) = start();

    // A request line with no path.
    let raw = raw_exchange(&addr, b"GET\r\n\r\n", false);
    assert_canonical_400(&raw, "truncated request line");
    assert!(raw.contains("malformed request line"), "{raw}");

    // A head that is not UTF-8 (binary garbage with a valid terminator).
    let mut garbage: Vec<u8> = vec![0x00, 0xff, 0xfe, 0x80, 0x13, 0x37];
    garbage.extend_from_slice(b"\r\n\r\n");
    let raw = raw_exchange(&addr, &garbage, false);
    assert_canonical_400(&raw, "binary garbage");

    // A client that gives up mid-head: the close is answered, not hung on.
    let raw = raw_exchange(&addr, b"GET /healthz HTT", true);
    assert_canonical_400(&raw, "mid-head close");
    assert!(raw.contains("before end of request head"), "{raw}");

    assert_still_healthy(&addr);
    server.handle().shutdown();
    server.join();
}

#[test]
fn oversized_head_and_body_are_rejected_not_buffered() {
    let (server, addr) = start();

    // A head that never ends: headers past MAX_HEAD must be cut off without
    // waiting for the terminator (or buffering without bound).
    let mut endless = b"GET /healthz HTTP/1.1\r\n".to_vec();
    while endless.len() <= http::MAX_HEAD {
        endless.extend_from_slice(b"X-Padding: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n");
    }
    let raw = raw_exchange(&addr, &endless, false);
    assert_canonical_400(&raw, "oversized head");
    assert!(raw.contains("request head exceeds"), "{raw}");

    // A declared body over MAX_BODY is refused from the header alone —
    // instantly, without reading (or waiting for) a single body byte.
    let started = Instant::now();
    let head = format!(
        "POST /v1/experiments HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        http::MAX_BODY + 1
    );
    let raw = raw_exchange(&addr, head.as_bytes(), false);
    assert_canonical_400(&raw, "oversized body");
    assert!(raw.contains("request body exceeds"), "{raw}");
    assert!(
        started.elapsed() < STALL_BUDGET,
        "oversized body was waited for, not refused"
    );

    assert_still_healthy(&addr);
    server.handle().shutdown();
    server.join();
}

#[test]
fn short_bodies_cannot_hang_a_worker() {
    let (server, addr) = start();
    let head = b"POST /v1/experiments HTTP/1.1\r\nContent-Length: 100\r\n\r\ntoo short";

    // Peer closes mid-body: immediate 400.
    let raw = raw_exchange(&addr, head, true);
    assert_canonical_400(&raw, "mid-body close");
    assert!(raw.contains("connection closed mid-body"), "{raw}");

    // Peer stalls mid-body: the socket timeout sheds it — the worker is
    // returned well within the stall budget instead of pinned forever.
    let started = Instant::now();
    let raw = raw_exchange(&addr, head, false);
    let elapsed = started.elapsed();
    assert_canonical_400(&raw, "mid-body stall");
    assert!(
        elapsed >= IO_TIMEOUT && elapsed < STALL_BUDGET,
        "stalling client held the worker for {elapsed:?}"
    );

    assert_still_healthy(&addr);
    server.handle().shutdown();
    server.join();
}

#[test]
fn content_length_is_parsed_strictly() {
    let (server, addr) = start();
    let cases: &[(&str, &str, &str)] = &[
        (
            "duplicate Content-Length",
            "POST /v1/experiments HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\n{}",
            "duplicate Content-Length",
        ),
        (
            "signed Content-Length",
            "POST /v1/experiments HTTP/1.1\r\nContent-Length: +2\r\n\r\n{}",
            "bad Content-Length",
        ),
        (
            "non-numeric Content-Length",
            "POST /v1/experiments HTTP/1.1\r\nContent-Length: two\r\n\r\n{}",
            "bad Content-Length",
        ),
        (
            "empty Content-Length",
            "POST /v1/experiments HTTP/1.1\r\nContent-Length:\r\n\r\n{}",
            "bad Content-Length",
        ),
    ];
    for (case, payload, want) in cases {
        let raw = raw_exchange(&addr, payload.as_bytes(), false);
        assert_canonical_400(&raw, case);
        assert!(raw.contains(want), "{case}:\n{raw}");
    }

    // Trailing bytes beyond the declared length are ignored, not smuggled
    // into a second request (one request per connection by design).
    let raw = raw_exchange(
        &addr,
        b"GET /healthz HTTP/1.1\r\nContent-Length: 0\r\n\r\nGET /nope HTTP/1.1\r\n\r\n",
        false,
    );
    assert!(raw.starts_with("HTTP/1.1 200 "), "{raw}");
    assert_eq!(
        raw.matches("HTTP/1.1").count(),
        1,
        "one response only:\n{raw}"
    );

    assert_still_healthy(&addr);
    server.handle().shutdown();
    server.join();
}

/// A body nested deeper than the JSON parser's bound earns a 400 that names
/// the nesting, where unbounded recursion would overflow the worker's stack
/// and abort the whole daemon.
#[test]
fn deeply_nested_json_earns_a_400() {
    let (server, addr) = start();
    let body = "[".repeat(20_000);
    let (status, answer) = http::fetch(
        &addr,
        "POST",
        "/v1/fuzz/report",
        body.as_bytes(),
        STALL_BUDGET,
    )
    .expect("answers");
    let answer = String::from_utf8_lossy(&answer);
    assert_eq!(status, 400, "{answer}");
    assert!(answer.contains("nesting deeper than"), "{answer}");
    assert_still_healthy(&addr);
    server.handle().shutdown();
    server.join();
}
