//! Keep-alive safety regression tests for the raw HTTP layer.
//!
//! The dangerous failure mode on a keep-alive connection is *desync*: the
//! server answers a request without consuming exactly its body, and the
//! leftover (or swallowed) bytes are parsed as the next request — request
//! smuggling in miniature.  The most tempting spot to get this wrong is
//! the over-limit path: a request whose declared `Content-Length` exceeds
//! the body cap is rejected *before* its body is read, so the server must
//! either drain those bytes or close the connection.  The reactor closes;
//! these tests pin that down by pipelining a follow-up request behind the
//! rejected one and asserting it is never misparsed.  The same goes for
//! ambiguous framing: two differing `Content-Length` headers must not let
//! a smuggled body be answered as a request of its own.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use afg_service::{start, ServiceConfig};

/// Sends raw bytes on one connection and collects everything the server
/// sends back until it closes or idles out.
fn raw_exchange(raw: &[u8]) -> String {
    let handle = start(ServiceConfig {
        threads: 2,
        keep_alive_timeout: Duration::from_millis(300),
        ..ServiceConfig::default()
    })
    .expect("bind an ephemeral port");
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.write_all(raw).expect("write request bytes");
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let mut response = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => response.extend_from_slice(&buf[..n]),
            // Idle timeout after the server kept the connection open.
            Err(_) => break,
        }
    }
    drop(stream);
    handle.shutdown();
    String::from_utf8_lossy(&response).into_owned()
}

/// The status codes of every response in a raw byte stream, in order.
/// (Responses are not newline-terminated, so scanning by line would miss a
/// status line glued to the previous body.)
fn status_codes(response: &str) -> Vec<&str> {
    response
        .match_indices("HTTP/1.1 ")
        .map(|(at, _)| &response[at + 9..at + 12])
        .collect()
}

#[test]
fn over_limit_413_is_safe_under_epoll() {
    // Declared Content-Length far above MAX_BODY, followed by bytes that —
    // if the server kept reading the stream as requests without draining
    // the body — would be misparsed: first some body garbage (an invalid
    // request line), then a pipelined, perfectly valid request.
    let mut raw = Vec::new();
    raw.extend_from_slice(
        b"POST /problems HTTP/1.1\r\n\
          Host: x\r\n\
          Content-Length: 999999999\r\n\
          \r\n",
    );
    raw.extend_from_slice(b"this is body garbage that must not become a request\r\n");
    raw.extend_from_slice(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");

    let response = raw_exchange(&raw);
    assert!(
        response.starts_with("HTTP/1.1 413 "),
        "over-limit request must be rejected with 413, got:\n{response}"
    );
    // Safe state = drained (a later well-formed response) or closed (no
    // later response at all).  What must NEVER happen is the body bytes
    // being parsed as a request — that would surface as a 400 response
    // after the 413.
    let statuses = status_codes(&response);
    assert!(
        !statuses.iter().skip(1).any(|code| *code == "400"),
        "body bytes were misparsed as a request (desync):\n{response}"
    );
    match statuses.as_slice() {
        ["413"] => {
            // Closed: the 413 must have announced it so the client does not
            // pipeline in vain.
            assert!(
                response.contains("Connection: close"),
                "a closing rejection must say Connection: close:\n{response}"
            );
        }
        ["413", "200"] => {
            // Drained: the pipelined request was answered normally.
        }
        other => panic!("unexpected response sequence {other:?}:\n{response}"),
    }
}

#[test]
fn within_limit_pipelining_stays_in_sync_under_epoll() {
    // The positive control: a request whose body IS fully read must leave
    // the connection aligned so the pipelined follow-up is answered.
    let body = br#"{"source": 1}"#;
    let mut raw = Vec::new();
    raw.extend_from_slice(
        format!(
            "POST /problems/ghost/grade HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .as_bytes(),
    );
    raw.extend_from_slice(body);
    raw.extend_from_slice(b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");

    let response = raw_exchange(&raw);
    assert_eq!(
        status_codes(&response),
        vec!["404", "200"],
        "both pipelined requests must be answered in order:\n{response}"
    );
}

#[test]
fn differing_duplicate_content_lengths_get_exactly_one_response() {
    // `Content-Length: 0` then a second `Content-Length` covering a
    // complete `GET /healthz` as the body.  A server honouring the first
    // value would answer that body as a request of its own (400 then 200),
    // while a proxy honouring the last value forwarded one request.
    let smuggled = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n";
    let mut raw = format!(
        "POST /problems HTTP/1.1\r\n\
         Host: x\r\n\
         Content-Length: 0\r\n\
         Content-Length: {}\r\n\
         \r\n",
        smuggled.len()
    )
    .into_bytes();
    raw.extend_from_slice(smuggled);

    let response = raw_exchange(&raw);
    assert_eq!(
        status_codes(&response),
        vec!["400"],
        "ambiguous framing must get exactly one response:\n{response}"
    );
    assert!(
        response.contains("Connection: close"),
        "the rejection must close the connection:\n{response}"
    );
}
