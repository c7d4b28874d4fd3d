//! Torture tests for the incremental push parser and the epoll reactor.
//!
//! The invariant under attack: *how* bytes arrive must never change *what*
//! the server answers.  A request delivered byte-at-a-time, split at any
//! header boundary, or glued to its pipelined successor must produce
//! responses byte-identical to the same request delivered in one write.
//!
//! Also pinned here: the reactor's timer wheel actually defends the
//! daemon — a slow-loris socket dribbling a header is closed on the
//! header deadline while concurrent well-behaved requests keep being
//! answered, and idle keep-alive sockets are reaped on the idle deadline.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use afg_service::{start, Parse, RequestParser, ServerHandle, ServiceConfig};

fn boot() -> ServerHandle {
    start(ServiceConfig {
        threads: 2,
        keep_alive_timeout: Duration::from_millis(400),
        ..ServiceConfig::default()
    })
    .expect("bind an ephemeral port")
}

/// Writes `raw` in the given chunks (flushing each), then reads until the
/// server closes or idles out.
fn exchange_chunked(addr: std::net::SocketAddr, chunks: &[&[u8]]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let _ = stream.set_nodelay(true);
    for chunk in chunks {
        stream.write_all(chunk).expect("write chunk");
        stream.flush().expect("flush chunk");
    }
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let mut response = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => response.extend_from_slice(&buf[..n]),
            Err(_) => break,
        }
    }
    String::from_utf8_lossy(&response).into_owned()
}

// ---------------------------------------------------------------------------
// Parser-level: every split boundary, no server involved
// ---------------------------------------------------------------------------

#[test]
fn every_split_boundary_parses_identically() {
    let raw: &[u8] = b"POST /problems/x/grade HTTP/1.1\r\n\
                       Host: example\r\n\
                       Content-Length: 11\r\n\
                       Connection: keep-alive\r\n\
                       \r\n\
                       hello world";
    // Reference: one whole-buffer feed.
    let reference = {
        let mut parser = RequestParser::new();
        match parser.feed(raw) {
            Parse::Complete(request) => format!("{request:?}"),
            other => panic!("whole feed must complete, got {other:?}"),
        }
    };
    // Every two-way split, including the empty prefix and suffix.
    for at in 0..=raw.len() {
        let mut parser = RequestParser::new();
        let first = parser.feed(&raw[..at]);
        let request = match first {
            Parse::Complete(request) => request,
            Parse::Partial => match parser.feed(&raw[at..]) {
                Parse::Complete(request) => request,
                other => panic!("split at {at}: second feed gave {other:?}"),
            },
            Parse::Error(err) => panic!("split at {at}: first feed errored: {err:?}"),
        };
        assert_eq!(
            format!("{request:?}"),
            reference,
            "split at byte {at} changed the parse"
        );
    }
    // Byte-at-a-time.
    let mut parser = RequestParser::new();
    let mut complete = None;
    for (i, byte) in raw.iter().enumerate() {
        match parser.feed(std::slice::from_ref(byte)) {
            Parse::Complete(request) => {
                assert_eq!(i, raw.len() - 1, "completed early at byte {i}");
                complete = Some(request);
            }
            Parse::Partial => {}
            Parse::Error(err) => panic!("byte {i}: {err:?}"),
        }
    }
    let request = complete.expect("byte-at-a-time must complete");
    assert_eq!(format!("{request:?}"), reference);
}

// ---------------------------------------------------------------------------
// Wire-level: delivery shape vs. response bytes
// ---------------------------------------------------------------------------

#[test]
fn byte_at_a_time_delivery_answers_identically() {
    let raw: &[u8] = b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n";
    let handle = boot();
    let whole = exchange_chunked(handle.addr(), &[raw]);
    let dribbled: Vec<&[u8]> = raw.chunks(1).collect();
    let trickled = exchange_chunked(handle.addr(), &dribbled);
    assert_eq!(
        whole, trickled,
        "byte-at-a-time delivery changed the response"
    );
    assert!(
        whole.starts_with("HTTP/1.1 200 "),
        "expected a 200, got:\n{whole}"
    );
    handle.shutdown();
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let mut raw = Vec::new();
    raw.extend_from_slice(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
    raw.extend_from_slice(b"GET /nope HTTP/1.1\r\nHost: x\r\n\r\n");
    raw.extend_from_slice(b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
    let handle = boot();
    let response = exchange_chunked(handle.addr(), &[&raw]);
    let statuses: Vec<&str> = response
        .match_indices("HTTP/1.1 ")
        .map(|(at, _)| &response[at + 9..at + 12])
        .collect();
    assert_eq!(
        statuses,
        vec!["200", "404", "200"],
        "pipelined responses out of order:\n{response}"
    );
    handle.shutdown();
}

#[test]
fn over_limit_bodies_get_a_closing_413() {
    // Headers dribbled in two chunks, declaring a body beyond MAX_BODY.
    let head = b"POST /problems HTTP/1.1\r\nHost: x\r\nContent-";
    let rest = b"Length: 999999999\r\n\r\n";
    let handle = boot();
    let response = exchange_chunked(handle.addr(), &[head, rest]);
    assert!(
        response.starts_with("HTTP/1.1 413 "),
        "expected 413, got:\n{response}"
    );
    assert!(
        response.contains("Connection: close"),
        "a closing rejection must say Connection: close:\n{response}"
    );
    handle.shutdown();
}

// ---------------------------------------------------------------------------
// Timer wheel: slow-loris and idle reaping
// ---------------------------------------------------------------------------

/// Reads until the peer closes, returning how long that took; panics if it
/// takes longer than `limit`.
fn wait_for_close(stream: &mut TcpStream, limit: Duration) -> Duration {
    let start = Instant::now();
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut buf = [0u8; 1024];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => return start.elapsed(),
            Ok(_) => {}
            Err(err)
                if err.kind() == ErrorKind::WouldBlock || err.kind() == ErrorKind::TimedOut => {}
            // RST also counts as the server hanging up.
            Err(_) => return start.elapsed(),
        }
        assert!(
            start.elapsed() < limit,
            "server did not close the connection within {limit:?}"
        );
    }
}

#[test]
fn slow_loris_socket_is_closed_while_concurrent_requests_proceed() {
    let handle = start(ServiceConfig {
        threads: 2,
        header_timeout: Duration::from_millis(250),
        // Idle limit far above the header limit: proves the *header*
        // deadline is what fires.
        keep_alive_timeout: Duration::from_secs(30),
        ..ServiceConfig::default()
    })
    .expect("bind an ephemeral port");

    // The attacker: dribbles half a request line and then stalls.
    let mut loris = TcpStream::connect(handle.addr()).expect("connect loris");
    loris.write_all(b"GET /hea").expect("dribble");
    loris.flush().expect("flush");

    // A well-behaved client keeps being served while the loris stalls.
    let healthy = exchange_chunked(
        handle.addr(),
        &[b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"],
    );
    assert!(
        healthy.starts_with("HTTP/1.1 200 "),
        "concurrent request must succeed while the loris stalls:\n{healthy}"
    );

    // Generous bound for a loaded single-core CI runner; the deadline
    // itself is 250 ms.
    let took = wait_for_close(&mut loris, Duration::from_secs(10));
    assert!(
        took >= Duration::from_millis(100),
        "closed suspiciously fast ({took:?}) — did the read path error instead of the timer?"
    );
    handle.shutdown();
}

#[test]
fn idle_keep_alive_connections_are_reaped() {
    let handle = start(ServiceConfig {
        threads: 2,
        keep_alive_timeout: Duration::from_millis(250),
        ..ServiceConfig::default()
    })
    .expect("bind an ephemeral port");
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        .expect("write");
    // The response arrives, the connection stays open (keep-alive), then
    // the idle deadline reaps it.
    let took = wait_for_close(&mut stream, Duration::from_secs(10));
    assert!(
        took >= Duration::from_millis(100),
        "reaped before the idle deadline could plausibly fire ({took:?})"
    );
    handle.shutdown();
}
