//! A minimal hand-rolled HTTP/1.1 layer: just enough of RFC 9112 for a
//! loopback JSON service — request parsing with size limits, keep-alive,
//! and fixed-length responses. No chunked transfer encoding, no TLS, no
//! concurrent pipelining (each request is answered before the next is
//! parsed; bytes received past the current request stay buffered for it).
//!
//! Parsing is a *resumable continuation* ([`RequestParser`]): a pure
//! function of the bytes accumulated so far that either yields a complete
//! [`Request`] or asks for more. The reactor's per-connection state
//! machines feed it whatever the socket delivered; how the bytes were
//! split across reads never changes the result (property-tested below).
//! Responses are encoded into byte buffers ([`encode_response_with`]) that
//! the reactor drains as the socket accepts them. The blocking read cores
//! (`fill_until`, `fill_exact`) serve the loopback client.

use std::io::{ErrorKind, Read};

/// The interim response sent when a client declares `Expect: 100-continue`
/// and the body has not arrived yet (curl does this for bodies over 1 KB
/// and stalls ~1s waiting for it otherwise).
pub(crate) const CONTINUE: &[u8] = b"HTTP/1.1 100 Continue\r\n\r\n";

/// Request methods the service routes. Anything else is a 400 — the
/// surface is closed-world.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// `GET`
    Get,
    /// `POST`
    Post,
}

/// One parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method.
    pub method: Method,
    /// Request target as sent, query string included (the router splits
    /// path from query at dispatch time).
    pub path: String,
    /// The request body (exactly `Content-Length` bytes).
    pub body: Vec<u8>,
    /// Whether the client asked to keep the connection open (HTTP/1.1
    /// default, overridden by `Connection: close`).
    pub keep_alive: bool,
}

/// Why the received bytes are not a servable request. Each variant maps to
/// an HTTP error response, after which the connection closes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestError {
    /// The request was malformed, unsupported, or cut off by the peer's
    /// EOF → `400`.
    Bad(String),
    /// The declared body exceeds the configured cap → `413`. The body was
    /// not read; the connection must be closed after responding.
    TooLarge {
        /// The `Content-Length` the client declared.
        declared: u64,
        /// The configured [`Limits::max_body_bytes`].
        max: usize,
    },
}

/// Size caps enforced while reading a request.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum request-head size (request line + headers).
    pub max_header_bytes: usize,
    /// Maximum declared body size.
    pub max_body_bytes: usize,
}

/// Outcome of an accumulation read ([`fill_until`] / [`fill_exact`]).
pub(crate) enum Fill<T> {
    /// The predicate/target was satisfied.
    Done(T),
    /// The peer closed the connection before it was.
    Eof,
    /// The `on_timeout` callback asked to abandon the read.
    Aborted,
}

/// Read chunks from `stream` into `buf` until `done(buf)` yields a value.
/// `on_timeout` runs on every read-timeout tick (`WouldBlock`/`TimedOut`);
/// returning `true` abandons the read. The loopback client's response
/// reader is built on this and [`fill_exact`].
pub(crate) fn fill_until<T>(
    stream: &mut impl Read,
    buf: &mut Vec<u8>,
    mut done: impl FnMut(&[u8]) -> Option<T>,
    mut on_timeout: impl FnMut() -> bool,
) -> std::io::Result<Fill<T>> {
    let mut tmp = [0u8; 4096];
    loop {
        if let Some(t) = done(buf) {
            return Ok(Fill::Done(t));
        }
        match stream.read(&mut tmp) {
            Ok(0) => return Ok(Fill::Eof),
            Ok(n) => buf.extend_from_slice(&tmp[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if on_timeout() {
                    return Ok(Fill::Aborted);
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Grow `buf` to exactly `target_len` bytes, reading directly into the
/// final buffer — the length is known (declared `Content-Length`), so
/// there is no scratch-buffer bounce and no incremental reallocation. On
/// `Eof`/`Aborted` the buffer is truncated back to the bytes actually
/// received.
pub(crate) fn fill_exact(
    stream: &mut impl Read,
    buf: &mut Vec<u8>,
    target_len: usize,
    mut on_timeout: impl FnMut() -> bool,
) -> std::io::Result<Fill<()>> {
    let mut filled = buf.len();
    if filled >= target_len {
        return Ok(Fill::Done(()));
    }
    buf.resize(target_len, 0);
    loop {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                buf.truncate(filled);
                return Ok(Fill::Eof);
            }
            Ok(n) => {
                filled += n;
                if filled == target_len {
                    return Ok(Fill::Done(()));
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if on_timeout() {
                    buf.truncate(filled);
                    return Ok(Fill::Aborted);
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => {
                buf.truncate(filled);
                return Err(e);
            }
        }
    }
}

/// Head facts of a partially received request: everything the parser
/// learned from the request line and headers, kept as the continuation
/// state while the body is still arriving.
#[derive(Debug, Clone)]
struct ParsedHead {
    method: Method,
    path: String,
    keep_alive: bool,
    expect_continue: bool,
    /// Byte offset where the body starts (head end + `\r\n\r\n`).
    body_start: usize,
    /// Byte offset one past the body (`body_start + Content-Length`).
    body_end: usize,
}

/// What a [`RequestParser::advance`] call concluded from the bytes
/// accumulated so far.
#[derive(Debug)]
pub enum ParseStatus {
    /// The buffer does not hold a complete request yet — read more bytes
    /// and call [`RequestParser::advance`] again. When `send_continue` is
    /// set the client declared `Expect: 100-continue` and is holding the
    /// body back: write the interim `HTTP/1.1 100 Continue` response
    /// before the next read. The flag fires at most once per request.
    NeedMore {
        /// Write the interim `100 Continue` response before reading on.
        send_continue: bool,
    },
    /// A complete request: `consumed` bytes of the buffer belong to it
    /// (head + body); everything after is pipelined surplus for the next
    /// request. The parser has reset itself for that next request.
    Ready {
        /// The parsed request.
        request: Request,
        /// How many buffer bytes this request consumed.
        consumed: usize,
    },
}

/// A resumable HTTP/1.1 request parser: feed it the connection's
/// accumulated byte buffer as often as you like ([`RequestParser::advance`]
/// is a pure function of that buffer plus the parser's continuation state)
/// and it yields a [`Request`] once the bytes are complete, whatever the
/// split of those bytes across calls.
#[derive(Debug, Default)]
pub struct RequestParser {
    head: Option<ParsedHead>,
    continue_signalled: bool,
}

impl RequestParser {
    /// A parser at the start of a request.
    pub fn new() -> Self {
        Self::default()
    }

    /// Classify the peer's EOF, given the `unconsumed` buffered bytes that
    /// [`RequestParser::advance`] last answered `NeedMore` for: `Ok` when
    /// nothing of a request had arrived (the clean end of a keep-alive
    /// connection), otherwise the `400` the truncated request earns —
    /// "connection closed mid-body" once the head is parsed, "connection
    /// closed mid-request" before that.
    ///
    /// # Errors
    /// [`RequestError::Bad`] for a truncated request.
    pub fn eof(&self, unconsumed: &[u8]) -> Result<(), RequestError> {
        if self.head.is_some() {
            Err(RequestError::Bad("connection closed mid-body".into()))
        } else if unconsumed.is_empty() {
            Ok(())
        } else {
            Err(RequestError::Bad("connection closed mid-request".into()))
        }
    }

    /// Inspect `buf` (the bytes received so far on this connection) and
    /// either yield a complete request or ask for more bytes.
    ///
    /// # Errors
    /// [`RequestError::Bad`] for a malformed head (including one longer
    /// than [`Limits::max_header_bytes`]), [`RequestError::TooLarge`] for
    /// a declared body over [`Limits::max_body_bytes`]. The parser is not
    /// usable for this connection afterwards (protocol errors close it).
    pub fn advance(&mut self, buf: &[u8], limits: &Limits) -> Result<ParseStatus, RequestError> {
        if self.head.is_none() {
            let max_head = limits.max_header_bytes;
            let head_end = match find_head_end(buf) {
                Some(pos) if pos <= max_head => pos,
                Some(_) => {
                    return Err(RequestError::Bad(format!(
                        "request head exceeds {max_head} bytes"
                    )))
                }
                // a terminator starting at or before `max_head` may still
                // be completing in the last three bytes: only past that
                // is the head provably too long (so the verdict does not
                // depend on how the bytes were split across reads)
                None if buf.len() > max_head + 3 => {
                    return Err(RequestError::Bad(format!(
                        "request head exceeds {max_head} bytes"
                    )))
                }
                None => return Ok(ParseStatus::NeedMore { send_continue: false }),
            };
            self.head = Some(parse_head(&buf[..head_end], head_end, limits)?);
        }
        let head = self.head.as_ref().expect("head parsed above");
        if buf.len() < head.body_end {
            // an expecting client holds the body back until the interim
            // response; signal it exactly once
            let send_continue = head.expect_continue && !self.continue_signalled;
            self.continue_signalled |= send_continue;
            return Ok(ParseStatus::NeedMore { send_continue });
        }
        let head = self.head.take().expect("head parsed above");
        self.continue_signalled = false;
        let request = Request {
            method: head.method,
            path: head.path,
            body: buf[head.body_start..head.body_end].to_vec(),
            keep_alive: head.keep_alive,
        };
        Ok(ParseStatus::Ready { request, consumed: head.body_end })
    }
}

/// Parse the request line and headers (`head` is the bytes before the
/// `\r\n\r\n` terminator at offset `head_end`).
fn parse_head(head: &[u8], head_end: usize, limits: &Limits) -> Result<ParsedHead, RequestError> {
    let head = std::str::from_utf8(head)
        .map_err(|_| RequestError::Bad("request head is not UTF-8".into()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let method = match parts.next() {
        Some("GET") => Method::Get,
        Some("POST") => Method::Post,
        other => {
            return Err(RequestError::Bad(format!(
                "unsupported method {:?}",
                other.unwrap_or("")
            )))
        }
    };
    let path = parts
        .next()
        .filter(|p| !p.is_empty())
        .ok_or_else(|| RequestError::Bad("missing request target".into()))?
        .to_owned();
    let version = parts
        .next()
        .ok_or_else(|| RequestError::Bad("missing HTTP version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(RequestError::Bad(format!("unsupported version {version:?}")));
    }
    let mut keep_alive = version != "HTTP/1.0";
    let mut content_length: Option<u64> = None;
    let mut expect_continue = false;
    for line in lines {
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| RequestError::Bad(format!("malformed header line {line:?}")))?;
        // RFC 9112 §5.1: no whitespace between field name and colon (a
        // space-tolerant intermediary would frame "Content-Length : N"
        // differently than a strict one — another smuggling vector), and no
        // leading whitespace (obsolete line folding is not supported)
        if name.is_empty() || name.trim() != name {
            return Err(RequestError::Bad(format!("malformed header name {name:?}")));
        }
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            // RFC 9112 §6.3: conflicting/duplicate Content-Length headers
            // must be rejected — honoring one of them while an intermediary
            // honors the other desynchronizes request boundaries
            if content_length.is_some() {
                return Err(RequestError::Bad("duplicate Content-Length header".into()));
            }
            // RFC 9110 `1*DIGIT` exactly: `u64::from_str` would also accept
            // a leading `+`, which a conforming intermediary rejects — the
            // same framing-disagreement class as duplicate headers
            if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
                return Err(RequestError::Bad(format!("invalid Content-Length {value:?}")));
            }
            content_length = Some(
                value
                    .parse()
                    .map_err(|_| RequestError::Bad(format!("invalid Content-Length {value:?}")))?,
            );
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(RequestError::Bad("Transfer-Encoding is not supported".into()));
        } else if name.eq_ignore_ascii_case("expect") {
            if !value.eq_ignore_ascii_case("100-continue") {
                return Err(RequestError::Bad(format!("unsupported Expect {value:?}")));
            }
            expect_continue = true;
        } else if name.eq_ignore_ascii_case("connection") {
            let value = value.to_ascii_lowercase();
            if value.split(',').any(|t| t.trim() == "close") {
                keep_alive = false;
            } else if value.split(',').any(|t| t.trim() == "keep-alive") {
                keep_alive = true;
            }
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > limits.max_body_bytes as u64 {
        return Err(RequestError::TooLarge {
            declared: content_length,
            max: limits.max_body_bytes,
        });
    }
    let body_start = head_end + 4;
    Ok(ParsedHead {
        method,
        path,
        keep_alive,
        expect_continue,
        body_start,
        body_end: body_start + content_length as usize,
    })
}

/// Index of the `\r\n\r\n` head terminator, if present.
pub(crate) fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Encode one fixed-length response with an explicit content type and
/// extra headers (the log-shipping endpoints answer raw frame bytes with
/// `application/octet-stream` plus offset/generation metadata headers).
/// The reactor queues these bytes on the connection's write buffer and
/// drains them as the socket reports writability (partial writes resume
/// where they left off).
pub fn encode_response_with(
    status: u16,
    content_type: &str,
    extra_headers: &[(String, String)],
    body: &[u8],
    keep_alive: bool,
) -> Vec<u8> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        status,
        reason(status),
        content_type,
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    let mut bytes = head.into_bytes();
    bytes.extend_from_slice(body);
    bytes
}

/// Canonical reason phrase for the statuses this service emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn limits() -> Limits {
        Limits { max_header_bytes: 1024, max_body_bytes: 64 }
    }

    /// Parse `raw` handed over in one piece: the first request and the
    /// bytes it consumed.
    fn parse(raw: &[u8]) -> Result<(Request, usize), RequestError> {
        parse_with(raw, &limits())
    }

    fn parse_with(raw: &[u8], limits: &Limits) -> Result<(Request, usize), RequestError> {
        match RequestParser::new().advance(raw, limits)? {
            ParseStatus::Ready { request, consumed } => Ok((request, consumed)),
            other => panic!("expected Ready on {} bytes, got {other:?}", raw.len()),
        }
    }

    fn request(raw: &[u8]) -> Request {
        parse(raw).expect("well-formed request").0
    }

    /// What a connection saw after receiving `raw` in chunks ending at
    /// `cuts` (then the rest): every request it parsed with the bytes each
    /// consumed, the `100 Continue` signals of each, and the protocol
    /// error that ended it, if any.
    #[derive(Debug, PartialEq)]
    struct Session {
        requests: Vec<(Request, usize, usize)>,
        error: Option<RequestError>,
    }

    /// Drive one parser over `raw` the way the reactor does: append each
    /// chunk to the connection buffer, then advance until it asks for
    /// more, draining every consumed request.
    fn session(raw: &[u8], cuts: &[usize], limits: &Limits) -> Session {
        let mut parser = RequestParser::new();
        let mut buf = Vec::new();
        let mut requests = Vec::new();
        let mut continues = 0usize;
        let mut fed = 0;
        for &cut in cuts.iter().chain(std::iter::once(&raw.len())) {
            let cut = cut.clamp(fed, raw.len());
            buf.extend_from_slice(&raw[fed..cut]);
            fed = cut;
            loop {
                match parser.advance(&buf, limits) {
                    Ok(ParseStatus::Ready { request, consumed }) => {
                        buf.drain(..consumed);
                        requests.push((request, consumed, std::mem::take(&mut continues)));
                    }
                    Ok(ParseStatus::NeedMore { send_continue }) => {
                        continues += usize::from(send_continue);
                        break;
                    }
                    Err(error) => return Session { requests, error: Some(error) },
                }
            }
        }
        Session { requests, error: None }
    }

    #[test]
    fn incremental_parse_matches_one_shot_parse() {
        let cases: &[&[u8]] = &[
            b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n",
            b"POST /solve HTTP/1.1\r\nContent-Length: 4\r\n\r\n{\"a\"",
            b"GET / HTTP/1.0\r\n\r\n",
            b"POST /ingest HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 2\r\n\r\n[]",
            b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n",
        ];
        for raw in cases {
            let (one_shot, consumed) = parse(raw).expect("one-shot parse");
            assert_eq!(consumed, raw.len(), "whole request consumed, no surplus");
            // drip-fed one byte at a time: same request, same consumption
            let cuts: Vec<usize> = (0..raw.len()).collect();
            let drip = session(raw, &cuts, &limits());
            assert_eq!(drip.error, None);
            assert_eq!(drip.requests.len(), 1);
            let (dripped, dripped_consumed, continues) = &drip.requests[0];
            assert_eq!(dripped, &one_shot);
            assert_eq!(*dripped_consumed, consumed);
            assert!(*continues <= 1, "100-continue must be signalled at most once");
        }
    }

    #[test]
    fn incremental_parse_leaves_pipelined_surplus() {
        let raw = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        let mut parser = RequestParser::new();
        let first = parser.advance(raw, &limits()).unwrap();
        let consumed = match first {
            ParseStatus::Ready { request, consumed } => {
                assert_eq!(request.path, "/a");
                consumed
            }
            other => panic!("expected Ready, got {other:?}"),
        };
        // the parser reset itself: the surplus parses as the next request
        match parser.advance(&raw[consumed..], &limits()).unwrap() {
            ParseStatus::Ready { request, consumed } => {
                assert_eq!(request.path, "/b");
                assert_eq!(consumed, raw.len() - consumed);
            }
            other => panic!("expected Ready, got {other:?}"),
        }
    }

    #[test]
    fn incremental_parse_rejects_the_same_bad_heads() {
        let bad: &[&[u8]] = &[
            b"PUT / HTTP/1.1\r\n\r\n",
            b"GET / HTTP/2.0\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nab",
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length : 2\r\n\r\nab",
        ];
        for raw in bad {
            let one_shot = RequestParser::new().advance(raw, &limits()).unwrap_err();
            assert!(matches!(one_shot, RequestError::Bad(_)), "{one_shot:?}");
            let cuts: Vec<usize> = (0..raw.len()).collect();
            assert_eq!(session(raw, &cuts, &limits()).error, Some(one_shot));
        }
    }

    #[test]
    fn parses_get_without_body() {
        let r = request(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(r.method, Method::Get);
        assert_eq!(r.path, "/healthz");
        assert!(r.body.is_empty());
        assert!(r.keep_alive);
    }

    #[test]
    fn parses_post_with_exact_body() {
        let r = request(b"POST /solve HTTP/1.1\r\nContent-Length: 4\r\n\r\n{\"a\"");
        assert_eq!(r.method, Method::Post);
        assert_eq!(r.body, b"{\"a\"");
    }

    #[test]
    fn connection_close_and_http10_disable_keep_alive() {
        assert!(!request(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").keep_alive);
        assert!(!request(b"GET / HTTP/1.0\r\n\r\n").keep_alive);
        assert!(request(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").keep_alive);
    }

    #[test]
    fn oversized_body_is_too_large_before_reading_it() {
        // the head alone decides: no body byte has arrived
        let raw = b"POST /ingest HTTP/1.1\r\nContent-Length: 100000\r\n\r\n";
        assert_eq!(
            RequestParser::new().advance(raw, &limits()).unwrap_err(),
            RequestError::TooLarge { declared: 100000, max: 64 }
        );
        // a Content-Length beyond u64 parsing is malformed, not a panic
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: 99999999999999999999999\r\n\r\n"),
            Err(RequestError::Bad(_))
        ));
    }

    #[test]
    fn malformed_heads_are_bad_requests() {
        for raw in [
            &b"FLY / HTTP/1.1\r\n\r\n"[..],
            &b"GET  HTTP/1.1\r\n\r\n"[..],
            &b"GET /x SPDY/3\r\n\r\n"[..],
            &b"GET /x HTTP/1.1\r\nbroken header\r\n\r\n"[..],
            &b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"[..],
            &b"POST /x HTTP/1.1\r\nContent-Length: ten\r\n\r\n"[..],
            // RFC 9110 1*DIGIT: a leading sign is a framing disagreement
            // with conforming intermediaries
            &b"POST /x HTTP/1.1\r\nContent-Length: +2\r\n\r\nhi"[..],
            // RFC 9112 §5.1: whitespace around the field name would be
            // dropped as an unknown header, silently un-framing the body
            &b"POST /x HTTP/1.1\r\nContent-Length : 5\r\n\r\nhello"[..],
            &b"POST /x HTTP/1.1\r\n Content-Length: 5\r\n\r\nhello"[..],
            // RFC 9112 §6.3: conflicting/duplicate Content-Length headers
            // are a request-smuggling vector and must be rejected
            &b"POST /x HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 0\r\n\r\nhello"[..],
            &b"POST /x HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nhi"[..],
        ] {
            assert!(matches!(parse(raw), Err(RequestError::Bad(_))), "{raw:?}");
        }
        // a head larger than the cap is rejected rather than buffered
        // forever — even before its terminator arrives
        let mut big = b"GET /x HTTP/1.1\r\nX-Pad: ".to_vec();
        big.extend(std::iter::repeat_n(b'a', 2048));
        assert!(matches!(
            RequestParser::new().advance(&big, &limits()),
            Err(RequestError::Bad(_))
        ));
        big.extend(b"\r\n\r\n");
        assert!(matches!(parse(&big), Err(RequestError::Bad(_))));
    }

    #[test]
    fn eof_before_any_byte_is_closed_mid_request_is_bad() {
        // nothing of a request arrived: the clean end of a keep-alive
        // connection
        assert_eq!(RequestParser::new().eof(b""), Ok(()));
        // EOF inside the head, then inside the body
        for (raw, message) in [
            (&b"GET /x HT"[..], "connection closed mid-request"),
            (&b"POST /x HTTP/1.1\r\nContent-Length: 9\r\n\r\nshort"[..], "connection closed mid-body"),
        ] {
            let mut parser = RequestParser::new();
            assert!(matches!(
                parser.advance(raw, &limits()),
                Ok(ParseStatus::NeedMore { .. })
            ));
            assert_eq!(parser.eof(raw), Err(RequestError::Bad(message.into())));
        }
    }

    #[test]
    fn pipelined_surplus_is_carried_to_the_next_request() {
        let raw = b"POST /a HTTP/1.1\r\nContent-Length: 2\r\n\r\nxxGET /b HTTP/1.1\r\n\r\n";
        let (first, consumed) = parse(raw).unwrap();
        assert_eq!(first.path, "/a");
        assert_eq!(first.body, b"xx");
        let (second, rest) = parse(&raw[consumed..]).unwrap();
        assert_eq!(second.path, "/b");
        assert_eq!(second.method, Method::Get);
        assert_eq!(consumed + rest, raw.len());
    }

    #[test]
    fn expect_100_continue_gets_the_interim_response() {
        let head = b"POST /ingest HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 5\r\n\r\n";
        let mut raw = head.to_vec();
        raw.extend(b"hello");
        // head parsed, body held back: signal the interim response once…
        let mut parser = RequestParser::new();
        for (end, signalled) in [(head.len(), true), (head.len(), false), (head.len() + 2, false)] {
            match parser.advance(&raw[..end], &limits()).unwrap() {
                ParseStatus::NeedMore { send_continue } => assert_eq!(send_continue, signalled),
                other => panic!("expected NeedMore, got {other:?}"),
            }
        }
        // …and the body completes the request
        match parser.advance(&raw, &limits()).unwrap() {
            ParseStatus::Ready { request, .. } => assert_eq!(request.body, b"hello"),
            other => panic!("expected Ready, got {other:?}"),
        }

        // a body already in the buffer needs no interim response
        let drip = session(&raw, &[head.len() - 1], &limits());
        assert_eq!(drip.requests.len(), 1);
        assert_eq!(drip.requests[0].2, 0);

        // unknown expectations are rejected, not silently ignored
        assert!(matches!(
            parse(b"POST /x HTTP/1.1\r\nExpect: minotaur\r\nContent-Length: 0\r\n\r\n"),
            Err(RequestError::Bad(_))
        ));
    }

    #[test]
    fn responses_have_fixed_length_and_connection_header() {
        let out = encode_response_with(200, "application/json", &[], b"{\"ok\":true}", true);
        assert_eq!(
            out,
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 11\r\n\
              Connection: keep-alive\r\n\r\n{\"ok\":true}"
        );
        let text =
            String::from_utf8(encode_response_with(413, "application/json", &[], b"{}", false))
                .unwrap();
        assert!(text.starts_with("HTTP/1.1 413 Payload Too Large\r\n"));
        assert!(text.contains("Connection: close\r\n"));
    }

    #[test]
    fn responses_can_carry_binary_bodies_and_extra_headers() {
        let extra = vec![("x-morer-generation".to_owned(), "3".to_owned())];
        let out = encode_response_with(200, "application/octet-stream", &extra, &[0, 159, 7], true);
        let head_end = find_head_end(&out).unwrap();
        let head = std::str::from_utf8(&out[..head_end]).unwrap();
        assert!(head.contains("Content-Type: application/octet-stream\r\n"));
        // the extra header is the last line: its CRLF is the terminator's
        assert!(head.ends_with("x-morer-generation: 3"));
        assert!(head.contains("Content-Length: 3\r\n"));
        assert_eq!(&out[head_end + 4..], &[0, 159, 7]);
        assert_eq!(reason(409), "Conflict");
        assert_eq!(reason(503), "Service Unavailable");
    }

    /// A generated well-formed request: its wire bytes plus the `Request`
    /// they must parse to and whether it declares `Expect: 100-continue`.
    fn valid_request() -> impl Strategy<Value = (Vec<u8>, Request, bool)> {
        (
            (any::<bool>(), "/[a-z_]{1,12}", 0usize..3, any::<bool>()),
            (0usize..3, any::<bool>(), 0usize..3, 0usize..120),
            proptest::collection::vec(any::<u8>(), 0..48),
        )
            .prop_map(|((post, path, connection, http10), (extra, expect, tail, pad), body)| {
                let method = if post { Method::Post } else { Method::Get };
                let body = if post { body } else { Vec::new() };
                let mut head = format!(
                    "{} {path} HTTP/1.{}\r\n",
                    if post { "POST" } else { "GET" },
                    if http10 { 0 } else { 1 }
                );
                let mut keep_alive = !http10;
                match connection {
                    1 => {
                        head.push_str("Connection: close\r\n");
                        keep_alive = false;
                    }
                    2 => {
                        head.push_str("connection: Keep-Alive\r\n");
                        keep_alive = true;
                    }
                    _ => {}
                }
                for i in 0..extra {
                    head.push_str(&format!("X-Extra-{i}:  value {i} \r\n"));
                }
                // padding pushes heads across the header cap used below,
                // so the size verdict is exercised at every split too
                head.push_str(&format!("X-Pad: {}\r\n", "p".repeat(pad)));
                let expect = expect && post;
                if expect {
                    head.push_str("Expect: 100-continue\r\n");
                }
                if post || tail == 0 {
                    head.push_str(&format!("Content-Length: {}\r\n", body.len()));
                }
                head.push_str("\r\n");
                let mut raw = head.into_bytes();
                raw.extend_from_slice(&body);
                (raw, Request { method, path, body, keep_alive }, expect)
            })
    }

    /// Head cap small enough that padded heads straddle it.
    const PROP_LIMITS: Limits = Limits { max_header_bytes: 160, max_body_bytes: 40 };

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Splitting a pipelined pair at any point yields exactly the
        /// one-shot parse: the same requests, the same consumed counts,
        /// the same error; and `100 Continue` is signalled at most once
        /// per request, only when declared.
        #[test]
        fn any_split_matches_the_one_shot_parse(
            a in valid_request(),
            b in valid_request(),
        ) {
            let (raw_a, want_a, expect_a) = a;
            let (raw_b, want_b, expect_b) = b;
            let mut raw = raw_a.clone();
            raw.extend_from_slice(&raw_b);
            let one_shot = session(&raw, &[], &PROP_LIMITS);
            // whatever fits the limits parses to exactly what was generated
            let fits = |want: &Request, raw: &[u8]| {
                find_head_end(raw).is_some_and(|h| h <= PROP_LIMITS.max_header_bytes)
                    && want.body.len() <= PROP_LIMITS.max_body_bytes
            };
            if fits(&want_a, &raw_a) {
                prop_assert!(!one_shot.requests.is_empty(), "{:?}", one_shot.error);
                prop_assert_eq!(&one_shot.requests[0].0, &want_a);
                prop_assert_eq!(one_shot.requests[0].1, raw_a.len());
                if fits(&want_b, &raw_b) {
                    prop_assert_eq!(one_shot.requests.len(), 2);
                    prop_assert_eq!(&one_shot.requests[1].0, &want_b);
                    prop_assert_eq!(one_shot.error.clone(), None);
                }
            } else {
                prop_assert!(one_shot.requests.is_empty());
                prop_assert!(one_shot.error.is_some());
            }
            for cut in 0..=raw.len() {
                let split = session(&raw, &[cut], &PROP_LIMITS);
                let strip = |s: &Session| -> Vec<(Request, usize)> {
                    s.requests.iter().map(|(r, c, _)| (r.clone(), *c)).collect()
                };
                prop_assert_eq!(strip(&split), strip(&one_shot), "split at {}", cut);
                prop_assert_eq!(split.error.clone(), one_shot.error.clone(), "split at {}", cut);
                for (i, (_, _, continues)) in split.requests.iter().enumerate() {
                    let declared = if i == 0 { expect_a } else { expect_b };
                    prop_assert!(*continues <= usize::from(declared), "split at {}", cut);
                }
            }
        }

        /// Random bytes and mutated requests only ever produce a request
        /// or a typed error — never a panic — and the verdict still does
        /// not depend on how the bytes were split.
        #[test]
        fn mutated_heads_yield_only_typed_errors(
            base in valid_request(),
            edits in proptest::collection::vec((0usize..4096, any::<u8>(), 0usize..3), 1..6),
            noise in proptest::collection::vec(any::<u8>(), 0..96),
        ) {
            let mut raw = base.0;
            for (at, byte, op) in edits {
                let at = at % (raw.len() + 1);
                match op {
                    0 if at < raw.len() => raw[at] = byte,
                    1 if at < raw.len() => {
                        raw.remove(at);
                    }
                    _ => raw.insert(at, byte),
                }
            }
            for candidate in [raw, noise] {
                let one_shot = session(&candidate, &[], &PROP_LIMITS);
                let consumed: usize = one_shot.requests.iter().map(|(_, c, _)| c).sum();
                prop_assert!(consumed <= candidate.len());
                let cuts: Vec<usize> = (0..candidate.len()).collect();
                let drip = session(&candidate, &cuts, &PROP_LIMITS);
                prop_assert_eq!(drip.error.clone(), one_shot.error.clone());
                prop_assert_eq!(drip.requests.len(), one_shot.requests.len());
            }
        }
    }
}
