//! A minimal HTTP/1.1 layer built around an **incremental push parser**.
//!
//! Only what the grading API needs: request-line + header parsing,
//! `Content-Length` bodies, keep-alive, and fixed-size limits so a hostile
//! peer cannot balloon memory.  No chunked encoding, no TLS, no
//! compression — the daemon is meant to sit behind a real edge proxy.
//!
//! The parser is resumable: [`RequestParser::feed`] accepts bytes in
//! arbitrary chunks (one syscall's worth from the epoll reactor, a whole
//! pipelined burst, or one byte at a time) and yields
//! [`Parse::Partial`] / [`Parse::Complete`] / [`Parse::Error`].  The epoll
//! reactor owns one parser per connection.  Leftover bytes after a
//! complete request (pipelining) stay buffered; call `feed(&[])` to drain
//! them before reading from the socket again.
//!
//! The parser's branches carry `afg_cov::cov_hit!()` hooks for the
//! coverage-guided `http` fuzz target; they compile to nothing unless the
//! fuzzer turns coverage on.

/// Largest accepted request body (a submission corpus for batch grading).
pub const MAX_BODY: usize = 8 * 1024 * 1024;
/// Largest accepted header section.
const MAX_HEADER_LINE: usize = 8 * 1024;
const MAX_HEADERS: usize = 100;

/// One parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, …).
    pub method: String,
    /// The path component, query string stripped.
    pub path: String,
    /// `HTTP/1.0` or `HTTP/1.1`.
    pub version: String,
    /// Headers with lower-cased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The raw body (empty without `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a header, by lower-case name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the connection should stay open after the response.
    pub fn keep_alive(&self) -> bool {
        match self.header("connection").map(str::to_ascii_lowercase) {
            Some(v) if v.contains("close") => false,
            Some(v) if v.contains("keep-alive") => true,
            _ => self.version == "HTTP/1.1",
        }
    }
}

/// Why a request cannot be parsed.  Once a parser reports an error it is
/// poisoned: the connection must be answered (400/413) and closed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The bytes on the wire are not HTTP (respond 400, drop).
    Malformed(String),
    /// The request exceeds a size limit (respond 413, drop).
    TooLarge,
}

/// Result of pushing bytes into a [`RequestParser`].
#[derive(Debug)]
pub enum Parse {
    /// More bytes are needed.
    Partial,
    /// One complete request.  Pipelined leftovers stay buffered — call
    /// `feed(&[])` to drain them before blocking on the socket.
    Complete(Request),
    /// The connection is poisoned; every further call repeats the error.
    Error(ParseError),
}

/// What an end-of-stream means, given how far the parser had gotten.
#[derive(Debug)]
pub enum EofOutcome {
    /// Clean EOF between requests.
    Closed,
    /// The unterminated tail still formed a complete request.
    Complete(Request),
    /// The tail was malformed or truncated inside the header section.
    Error(ParseError),
    /// EOF inside a declared body: drop silently (I/O-error-equivalent).
    Drop,
}

/// Which phase of a request the parser is inside — the reactor uses this
/// to pick the right timeout (header vs body are both "mid-request").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Request line + headers.
    Head,
    /// A `Content-Length` body.
    Body,
}

enum ParserState {
    /// Reading the request line (`request` is `None`) or headers.
    Head { request: Option<Request> },
    /// Reading `needed` more body bytes.
    Body { request: Request, needed: usize },
    /// Sticky error.
    Failed(ParseError),
}

/// The resumable request parser: a byte buffer plus a state machine.
///
/// One parser lives per connection and persists across requests, carrying
/// pipelined leftovers forward.
pub struct RequestParser {
    buf: Vec<u8>,
    /// Consumed prefix of `buf`; compacted after every `feed`/`eof`.
    pos: usize,
    state: ParserState,
}

impl Default for RequestParser {
    fn default() -> RequestParser {
        RequestParser::new()
    }
}

impl RequestParser {
    #[must_use]
    pub fn new() -> RequestParser {
        RequestParser {
            buf: Vec::new(),
            pos: 0,
            state: ParserState::Head { request: None },
        }
    }

    /// True when no byte of a new request has been seen: the connection is
    /// idle between requests (keep-alive timeout territory), as opposed to
    /// mid-request (header timeout territory).
    #[must_use]
    pub fn is_idle(&self) -> bool {
        matches!(&self.state, ParserState::Head { request: None }) && self.pos >= self.buf.len()
    }

    /// Which phase of a request the parser is inside.
    #[must_use]
    pub fn stage(&self) -> Stage {
        match &self.state {
            ParserState::Body { .. } => Stage::Body,
            _ => Stage::Head,
        }
    }

    /// Pushes bytes into the parser and advances as far as they allow.
    /// `feed(&[])` advances over already-buffered (pipelined) bytes.
    pub fn feed(&mut self, bytes: &[u8]) -> Parse {
        if let ParserState::Failed(err) = &self.state {
            return Parse::Error(err.clone());
        }
        self.buf.extend_from_slice(bytes);
        let parse = self.advance(false);
        self.compact();
        parse
    }

    /// Tells the parser the stream ended.  A partial header line is
    /// flushed and parsed as if it had been terminated.
    pub fn eof(&mut self) -> EofOutcome {
        if let ParserState::Failed(err) = &self.state {
            afg_cov::cov_hit!();
            return EofOutcome::Error(err.clone());
        }
        if self.is_idle() {
            afg_cov::cov_hit!();
            return EofOutcome::Closed;
        }
        let parse = self.advance(true);
        self.compact();
        match parse {
            Parse::Complete(request) => EofOutcome::Complete(request),
            Parse::Error(err) => EofOutcome::Error(err),
            Parse::Partial => match &self.state {
                ParserState::Body { .. } => {
                    afg_cov::cov_hit!();
                    EofOutcome::Drop
                }
                _ => EofOutcome::Closed,
            },
        }
    }

    fn fail(&mut self, err: ParseError) -> Parse {
        self.state = ParserState::Failed(err.clone());
        Parse::Error(err)
    }

    fn compact(&mut self) {
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }

    /// Takes the next header-section line out of the buffer, including its
    /// terminating `\n`.  At EOF an unterminated tail is flushed as a
    /// line.  Returns `Ok(None)` when more bytes are needed (or, at EOF,
    /// when nothing is pending).
    fn next_line(&mut self, at_eof: bool) -> Result<Option<std::ops::Range<usize>>, ParseError> {
        let start = self.pos;
        let avail = &self.buf[start..];
        match avail.iter().position(|&b| b == b'\n') {
            Some(i) => {
                // The cap counts bytes *before* the newline, matching the
                // old byte-at-a-time reader exactly.
                if i > MAX_HEADER_LINE {
                    afg_cov::cov_hit!();
                    return Err(ParseError::TooLarge);
                }
                afg_cov::cov_hit!();
                self.pos = start + i + 1;
                Ok(Some(start..start + i + 1))
            }
            None => {
                if avail.len() > MAX_HEADER_LINE {
                    afg_cov::cov_hit!();
                    return Err(ParseError::TooLarge);
                }
                if at_eof && !avail.is_empty() {
                    afg_cov::cov_hit!();
                    self.pos = self.buf.len();
                    Ok(Some(start..self.buf.len()))
                } else {
                    Ok(None)
                }
            }
        }
    }

    fn advance(&mut self, at_eof: bool) -> Parse {
        loop {
            let state = std::mem::replace(&mut self.state, ParserState::Head { request: None });
            match state {
                ParserState::Failed(err) => {
                    afg_cov::cov_hit!();
                    self.state = ParserState::Failed(err.clone());
                    return Parse::Error(err);
                }
                ParserState::Head { request } => {
                    let range = match self.next_line(at_eof) {
                        Ok(Some(range)) => range,
                        Ok(None) => {
                            if at_eof && request.is_some() {
                                afg_cov::cov_hit!();
                                return self
                                    .fail(ParseError::Malformed("eof inside headers".into()));
                            }
                            self.state = ParserState::Head { request };
                            return Parse::Partial;
                        }
                        Err(err) => return self.fail(err),
                    };
                    let Ok(line) = std::str::from_utf8(&self.buf[range]) else {
                        afg_cov::cov_hit!();
                        return self.fail(ParseError::Malformed("non-UTF-8 header bytes".into()));
                    };
                    match request {
                        None => match parse_request_line(line) {
                            Ok(request) => {
                                afg_cov::cov_hit!();
                                self.state = ParserState::Head {
                                    request: Some(request),
                                };
                            }
                            Err(err) => {
                                afg_cov::cov_hit!();
                                return self.fail(err);
                            }
                        },
                        Some(mut request) => {
                            let trimmed = line.trim_end_matches(['\r', '\n']);
                            if trimmed.is_empty() {
                                // End of headers: body bookkeeping.
                                match body_length(&request) {
                                    Ok(0) => {
                                        afg_cov::cov_hit!();
                                        self.state = ParserState::Head { request: None };
                                        return Parse::Complete(request);
                                    }
                                    Ok(needed) => {
                                        afg_cov::cov_hit!();
                                        request.body.reserve(needed.min(64 * 1024));
                                        self.state = ParserState::Body { request, needed };
                                    }
                                    Err(err) => return self.fail(err),
                                }
                            } else {
                                if request.headers.len() >= MAX_HEADERS {
                                    afg_cov::cov_hit!();
                                    return self.fail(ParseError::TooLarge);
                                }
                                let Some((name, value)) = trimmed.split_once(':') else {
                                    afg_cov::cov_hit!();
                                    return self.fail(ParseError::Malformed(format!(
                                        "bad header: {trimmed:?}"
                                    )));
                                };
                                afg_cov::cov_hit!();
                                request.headers.push((
                                    name.trim().to_ascii_lowercase(),
                                    value.trim().to_string(),
                                ));
                                self.state = ParserState::Head {
                                    request: Some(request),
                                };
                            }
                        }
                    }
                }
                ParserState::Body {
                    mut request,
                    mut needed,
                } => {
                    let take = needed.min(self.buf.len() - self.pos);
                    request
                        .body
                        .extend_from_slice(&self.buf[self.pos..self.pos + take]);
                    self.pos += take;
                    needed -= take;
                    if needed == 0 {
                        afg_cov::cov_hit!();
                        self.state = ParserState::Head { request: None };
                        return Parse::Complete(request);
                    }
                    afg_cov::cov_hit!();
                    self.state = ParserState::Body { request, needed };
                    return Parse::Partial;
                }
            }
        }
    }
}

fn parse_request_line(line: &str) -> Result<Request, ParseError> {
    let mut parts = line.split_whitespace();
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        afg_cov::cov_hit!();
        return Err(ParseError::Malformed(format!("bad request line: {line:?}")));
    };
    if !version.starts_with("HTTP/") {
        afg_cov::cov_hit!();
        return Err(ParseError::Malformed(format!("bad version: {version:?}")));
    }
    let path = target.split('?').next().unwrap_or(target).to_string();
    Ok(Request {
        method: method.to_ascii_uppercase(),
        path,
        version: version.to_string(),
        headers: Vec::new(),
        body: Vec::new(),
    })
}

/// Validates the body-framing headers once the header section ends.
fn body_length(request: &Request) -> Result<usize, ParseError> {
    // No chunked-body support: treating an unread chunked body as "length
    // 0" would let its payload be parsed as the *next* request on this
    // keep-alive connection (request smuggling) — reject instead.
    if request.header("transfer-encoding").is_some() {
        afg_cov::cov_hit!();
        return Err(ParseError::Malformed(
            "transfer-encoding is not supported".into(),
        ));
    }
    // RFC 9112 §6.3: differing duplicate lengths, or a value that is not
    // all digits (`usize::from_str` would take `+5`), leave the framing
    // ambiguous — a proxy honouring another reading would see a different
    // request boundary (smuggling).  Identical duplicates are harmless.
    let mut values = request
        .headers
        .iter()
        .filter(|(name, _)| name == "content-length")
        .map(|(_, value)| value.as_str());
    let content_length = match values.next() {
        None => 0,
        Some(value) => {
            if values.any(|other| other != value) {
                afg_cov::cov_hit!();
                return Err(ParseError::Malformed(
                    "conflicting content-length headers".into(),
                ));
            }
            match value.parse::<usize>() {
                Ok(n) if value.bytes().all(|b| b.is_ascii_digit()) => n,
                _ => {
                    afg_cov::cov_hit!();
                    return Err(ParseError::Malformed(format!(
                        "bad content-length: {value:?}"
                    )));
                }
            }
        }
    };
    if content_length > MAX_BODY {
        afg_cov::cov_hit!();
        return Err(ParseError::TooLarge);
    }
    Ok(content_length)
}

/// Encodes one response into a single byte buffer, so header and body go
/// out in one write — two small writes on a socket interact with Nagle +
/// delayed ACK into ~40 ms stalls, which would dwarf a cache-hit grade.
#[must_use]
pub fn encode_response(
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, String)],
    body: &str,
    keep_alive: bool,
) -> Vec<u8> {
    let reason = reason_phrase(status);
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let mut response = format!(
        "HTTP/1.1 {status} {reason}\r\n\
         Content-Type: {content_type}\r\n\
         Content-Length: {}\r\n\
         Connection: {connection}\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        response.push_str(name);
        response.push_str(": ");
        response.push_str(value);
        response.push_str("\r\n");
    }
    response.push_str("\r\n");
    response.push_str(body);
    response.into_bytes()
}

fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feeds raw bytes to a fresh parser in one chunk and then signals the
    /// end of the stream — what the reactor does when a peer writes a
    /// request and half-closes.
    fn parse_raw(raw: &[u8]) -> EofOutcome {
        let mut parser = RequestParser::new();
        match parser.feed(raw) {
            Parse::Complete(request) => EofOutcome::Complete(request),
            Parse::Error(err) => EofOutcome::Error(err),
            Parse::Partial => parser.eof(),
        }
    }

    fn is_malformed(outcome: &EofOutcome) -> bool {
        matches!(outcome, EofOutcome::Error(ParseError::Malformed(_)))
    }

    #[test]
    fn parses_a_post_with_body() {
        let outcome = parse_raw(
            b"POST /problems/x/grade?verbose=1 HTTP/1.1\r\n\
              Host: localhost\r\n\
              Content-Length: 4\r\n\
              \r\n\
              {\"a\"",
        );
        let EofOutcome::Complete(request) = outcome else {
            panic!("expected request, got {outcome:?}");
        };
        assert_eq!(request.method, "POST");
        assert_eq!(request.path, "/problems/x/grade");
        assert_eq!(request.body, b"{\"a\"");
        assert_eq!(request.header("host"), Some("localhost"));
        assert!(request.keep_alive());
    }

    #[test]
    fn connection_close_and_http10_disable_keep_alive() {
        let outcome = parse_raw(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
        let EofOutcome::Complete(request) = outcome else {
            panic!("{outcome:?}")
        };
        assert!(!request.keep_alive());
        let outcome = parse_raw(b"GET /healthz HTTP/1.0\r\n\r\n");
        let EofOutcome::Complete(request) = outcome else {
            panic!("{outcome:?}")
        };
        assert!(!request.keep_alive());
    }

    #[test]
    fn clean_eof_reports_closed_and_garbage_reports_malformed() {
        assert!(matches!(parse_raw(b""), EofOutcome::Closed));
        assert!(is_malformed(&parse_raw(b"nonsense\r\n\r\n")));
        // A length that is not all ASCII digits is malformed, including
        // the `+2` that `usize::from_str` would accept.
        for value in ["nope", "+2", "-0", "2, 2", "0x2", ""] {
            let raw = format!("POST / HTTP/1.1\r\nContent-Length: {value}\r\n\r\n{{}}");
            let outcome = parse_raw(raw.as_bytes());
            assert!(is_malformed(&outcome), "{value:?}: {outcome:?}");
        }
    }

    #[test]
    fn oversized_bodies_are_rejected_without_allocation() {
        let outcome = parse_raw(b"POST / HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n");
        assert!(matches!(outcome, EofOutcome::Error(ParseError::TooLarge)));
    }

    #[test]
    fn oversized_header_lines_are_rejected() {
        let mut raw = b"GET /".to_vec();
        raw.extend(std::iter::repeat_n(b'a', MAX_HEADER_LINE + 8));
        raw.extend_from_slice(b" HTTP/1.1\r\n\r\n");
        assert!(matches!(
            parse_raw(&raw),
            EofOutcome::Error(ParseError::TooLarge)
        ));
    }

    #[test]
    fn chunked_bodies_are_rejected_not_smuggled() {
        // Without this rejection the chunk lines would be parsed as a
        // second request on the keep-alive connection.
        let outcome = parse_raw(
            b"POST /problems HTTP/1.1\r\n\
              Transfer-Encoding: chunked\r\n\
              \r\n\
              5\r\nhello\r\n0\r\n\r\n",
        );
        assert!(is_malformed(&outcome), "{outcome:?}");
    }

    #[test]
    fn differing_duplicate_content_lengths_are_rejected_not_smuggled() {
        // Honouring the first value would answer the body as a second
        // request; a proxy honouring the last one sees one request.
        let outcome = parse_raw(
            b"POST /problems HTTP/1.1\r\n\
              Content-Length: 0\r\n\
              Content-Length: 25\r\n\
              \r\n\
              GET /healthz HTTP/1.1\r\n\r\n",
        );
        assert!(is_malformed(&outcome), "{outcome:?}");
        // Identical duplicates frame the body unambiguously.
        let outcome = parse_raw(
            b"POST /problems HTTP/1.1\r\n\
              Content-Length: 2\r\n\
              Content-Length: 2\r\n\
              \r\n\
              {}",
        );
        let EofOutcome::Complete(request) = outcome else {
            panic!("{outcome:?}")
        };
        assert_eq!(request.body, b"{}");
    }

    #[test]
    fn eof_inside_headers_is_malformed_not_silent() {
        let outcome = parse_raw(b"GET /healthz HTTP/1.1\r\nHost: x\r\n");
        assert!(is_malformed(&outcome), "{outcome:?}");
    }

    #[test]
    fn parser_errors_are_sticky() {
        let mut parser = RequestParser::new();
        assert!(matches!(
            parser.feed(b"bogus\r\n\r\n"),
            Parse::Error(ParseError::Malformed(_))
        ));
        assert!(matches!(
            parser.feed(b"GET / HTTP/1.1\r\n\r\n"),
            Parse::Error(ParseError::Malformed(_))
        ));
    }
}
