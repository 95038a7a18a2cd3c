//! A tiny blocking HTTP/1.1 client for the loopback use cases that ship
//! with the repo: integration tests, the `serve` benchmarks, `perfbench`,
//! `examples/serve_demo.rs` — and the log-shipping follower
//! ([`crate::replica::Replica`]), which is why responses are also
//! available in raw binary form with headers, and why reads can carry a
//! deadline (a follower must detect a dead leader, not hang on it). One
//! keep-alive connection per [`Connection`]; requests are strictly
//! sequential (send, then read the full response).

use std::io::{ErrorKind, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use crate::http;

/// One parsed HTTP response with a text body.
#[derive(Debug, Clone, PartialEq)]
pub struct HttpResponse {
    /// Status code from the status line.
    pub status: u16,
    /// The response body (exactly `Content-Length` bytes), as text.
    pub body: String,
    /// Whether the server announced it keeps the connection open.
    pub keep_alive: bool,
}

impl HttpResponse {
    /// Decode a 2xx JSON body into `T`. Non-2xx responses (and JSON that
    /// does not match `T`) become `InvalidData` errors carrying the body —
    /// which for this service is the `{"error": ...}` envelope.
    pub fn json<T: serde::Deserialize>(&self) -> std::io::Result<T> {
        if !(200..300).contains(&self.status) {
            return Err(std::io::Error::new(
                ErrorKind::InvalidData,
                format!("HTTP {}: {}", self.status, self.body),
            ));
        }
        serde_json::from_str(&self.body)
            .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e.to_string()))
    }
}

/// One parsed HTTP response in raw form: binary body plus the response
/// headers (what the log-shipping follower consumes — frame bytes are not
/// UTF-8, and the shipping metadata travels in `x-morer-*` headers).
#[derive(Debug, Clone, PartialEq)]
pub struct RawResponse {
    /// Status code from the status line.
    pub status: u16,
    /// Response headers as `(name, value)` pairs, in wire order.
    pub headers: Vec<(String, String)>,
    /// The response body (exactly `Content-Length` bytes).
    pub body: Vec<u8>,
    /// Whether the server announced it keeps the connection open.
    pub keep_alive: bool,
}

impl RawResponse {
    /// The value of the first header matching `name` (ASCII
    /// case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// A named header parsed as `u64`.
    pub fn header_u64(&self, name: &str) -> Option<u64> {
        self.header(name).and_then(|v| v.parse().ok())
    }
}

/// A persistent (keep-alive) client connection.
pub struct Connection {
    stream: TcpStream,
    carry: Vec<u8>,
    /// Per-response receive deadline; `None` blocks indefinitely.
    io_timeout: Option<Duration>,
}

impl Connection {
    /// Connect to a server (e.g. the [`crate::ServerHandle::addr`]).
    /// Response reads block until the server answers.
    pub fn open(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self { stream, carry: Vec::new(), io_timeout: None })
    }

    /// [`Connection::open`] with a per-response receive deadline: a read
    /// that has not produced a complete response within `io_timeout` fails
    /// with `TimedOut` instead of hanging — the follower's defense against
    /// a leader that accepts connections but never answers. The same
    /// deadline caps each socket *write*, so a server that stops reading
    /// (full receive buffer, stalled accept loop) fails the request
    /// instead of hanging the client in `write_all`. The loopback test
    /// suites connect through this constructor for exactly that reason: a
    /// stalled server under test must fail an assertion, not hang CI.
    pub fn open_timeout(
        addr: impl ToSocketAddrs,
        io_timeout: Duration,
    ) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // the socket read timeout is only the poll granularity; the real
        // deadline is enforced per response in read_raw_response
        let tick = io_timeout.min(Duration::from_millis(50)).max(Duration::from_millis(1));
        stream.set_read_timeout(Some(tick))?;
        // writes have no response-level loop to enforce a deadline in, so
        // the socket timeout is the deadline itself
        stream.set_write_timeout(Some(io_timeout.max(Duration::from_millis(1))))?;
        Ok(Self { stream, carry: Vec::new(), io_timeout: Some(io_timeout) })
    }

    /// `GET path`.
    pub fn get(&mut self, path: &str) -> std::io::Result<HttpResponse> {
        self.request("GET", path, None).and_then(Self::text_response)
    }

    /// `GET path`, keeping the body binary and the headers accessible.
    pub fn get_raw(&mut self, path: &str) -> std::io::Result<RawResponse> {
        self.request("GET", path, None)
    }

    /// `POST path` with a JSON body.
    pub fn post(&mut self, path: &str, body: &str) -> std::io::Result<HttpResponse> {
        self.request("POST", path, Some(body.as_bytes()))
            .and_then(Self::text_response)
    }

    /// `POST path` with a JSON body, keeping the headers accessible (e.g.
    /// the `x-morer-trace-id` every response carries).
    pub fn post_raw(&mut self, path: &str, body: &str) -> std::io::Result<RawResponse> {
        self.request("POST", path, Some(body.as_bytes()))
    }

    fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
    ) -> std::io::Result<RawResponse> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: morer\r\nContent-Length: {}\r\n\r\n",
            body.map_or(0, <[u8]>::len)
        );
        self.stream.write_all(head.as_bytes())?;
        if let Some(body) = body {
            self.stream.write_all(body)?;
        }
        self.stream.flush()?;
        self.read_raw_response()
    }

    /// Send raw bytes as-is and read one response (for protocol-level
    /// tests: malformed heads, oversized declarations, garbage).
    pub fn send_raw(&mut self, raw: &[u8]) -> std::io::Result<HttpResponse> {
        self.stream.write_all(raw)?;
        self.stream.flush()?;
        self.read_raw_response().and_then(Self::text_response)
    }

    fn text_response(raw: RawResponse) -> std::io::Result<HttpResponse> {
        let body = String::from_utf8(raw.body)
            .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e.to_string()))?;
        Ok(HttpResponse { status: raw.status, body, keep_alive: raw.keep_alive })
    }

    fn read_raw_response(&mut self) -> std::io::Result<RawResponse> {
        let deadline = self.io_timeout.map(|t| Instant::now() + t);
        let timed_out = || deadline.is_some_and(|d| Instant::now() >= d);
        let mut buf = std::mem::take(&mut self.carry);
        // head: same accumulation core as the server's request reader (with
        // no timeout configured, timeout ticks never fire)
        let head_end =
            match http::fill_until(&mut self.stream, &mut buf, http::find_head_end, timed_out)? {
                http::Fill::Done(pos) => pos,
                http::Fill::Eof => {
                    return Err(std::io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "server closed before a full response head",
                    ))
                }
                http::Fill::Aborted => {
                    return Err(std::io::Error::new(
                        ErrorKind::TimedOut,
                        "response head did not arrive within the io timeout",
                    ))
                }
            };
        let head = std::str::from_utf8(&buf[..head_end])
            .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e.to_string()))?
            .to_owned();
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or("");
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                std::io::Error::new(
                    ErrorKind::InvalidData,
                    format!("malformed status line {status_line:?}"),
                )
            })?;
        let mut content_length = 0usize;
        let mut keep_alive = true;
        let mut headers = Vec::new();
        for line in lines {
            let Some((name, value)) = line.split_once(':') else { continue };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.parse().map_err(|_| {
                    std::io::Error::new(
                        ErrorKind::InvalidData,
                        format!("invalid Content-Length {value:?}"),
                    )
                })?;
            } else if name.eq_ignore_ascii_case("connection")
                && value.eq_ignore_ascii_case("close")
            {
                keep_alive = false;
            }
            headers.push((name.to_owned(), value.to_owned()));
        }
        // body: length is known, read straight into the final buffer
        let body_start = head_end + 4;
        let body_end = body_start + content_length;
        match http::fill_exact(&mut self.stream, &mut buf, body_end, timed_out)? {
            http::Fill::Done(()) => {}
            http::Fill::Eof => {
                return Err(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "server closed mid-body",
                ))
            }
            http::Fill::Aborted => {
                return Err(std::io::Error::new(
                    ErrorKind::TimedOut,
                    "response body did not arrive within the io timeout",
                ))
            }
        }
        self.carry = buf.split_off(body_end);
        let body = buf.split_off(body_start);
        Ok(RawResponse { status, headers, body, keep_alive })
    }
}
