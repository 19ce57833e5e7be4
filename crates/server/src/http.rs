//! Minimal HTTP/1.1 parsing and serialization over blocking sockets.
//!
//! Deliberately dependency-free: the server speaks just enough HTTP/1.1 for
//! the SPARQL-protocol subset — request line, headers, `Content-Length`
//! bodies, keep-alive — over `std::net` streams. No chunked encoding, no
//! TLS, no HTTP/2.

use std::io::{self, IoSlice, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Upper bound on the request head (request line + headers).
const MAX_HEAD: usize = 64 * 1024;
/// Upper bound on a request body (N-Triples update batches can be sizable).
const MAX_BODY: usize = 64 * 1024 * 1024;

/// One parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    pub method: String,
    /// Decoded path, query string stripped.
    pub path: String,
    /// Decoded query-string parameters in order of appearance.
    pub params: Vec<(String, String)>,
    /// Headers with lowercased names.
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Request {
    /// First header with the given (lowercase) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// First query-string parameter with the given name.
    pub fn param(&self, name: &str) -> Option<&str> {
        self.params
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Did the client ask to drop the connection after this exchange?
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Why [`read_request`] returned without a request.
#[derive(Debug)]
pub enum ReadError {
    /// Clean end of stream, idle timeout, or server shutdown — close quietly.
    Closed,
    /// The bytes on the wire were not a well-formed request.
    Malformed(String),
    /// Transport failure (the error itself is unactionable — the peer is
    /// unreachable, so the connection just closes).
    Io,
}

/// Read one request from `stream`. `carry` holds bytes read past the end of
/// a previous request (keep-alive pipelining) and is updated in place. The
/// socket must have a read timeout set; on every timeout tick `stop()` is
/// consulted and `deadline` enforced, so a blocked reader notices shutdown
/// within one tick.
pub fn read_request(
    stream: &mut TcpStream,
    carry: &mut Vec<u8>,
    deadline: Instant,
    stop: &dyn Fn() -> bool,
) -> Result<Request, ReadError> {
    let head_end = loop {
        if let Some(i) = find_head_end(carry) {
            break i;
        }
        if carry.len() > MAX_HEAD {
            return Err(ReadError::Malformed("request head too large".into()));
        }
        // An idle keep-alive connection times out only *between* requests:
        // receiving any byte of the next request head disarms the deadline.
        if stop() || (carry.is_empty() && Instant::now() >= deadline) {
            return Err(ReadError::Closed);
        }
        let mut chunk = [0u8; 4096];
        match stream.read(&mut chunk) {
            Ok(0) => return Err(ReadError::Closed),
            Ok(n) => carry.extend_from_slice(&chunk[..n]),
            Err(e) if is_timeout(&e) => continue,
            Err(_) => return Err(ReadError::Io),
        }
    };
    let head = String::from_utf8_lossy(&carry[..head_end]).into_owned();
    let body_start = head_end + 4;
    let mut req = parse_head(&head)?;
    let content_len = match req.header("content-length") {
        Some(v) => v
            .trim()
            .parse::<usize>()
            .map_err(|_| ReadError::Malformed("bad Content-Length".into()))?,
        None => 0,
    };
    if content_len > MAX_BODY {
        return Err(ReadError::Malformed("request body too large".into()));
    }
    while carry.len() < body_start + content_len {
        if stop() {
            return Err(ReadError::Closed);
        }
        let mut chunk = [0u8; 16 * 1024];
        match stream.read(&mut chunk) {
            Ok(0) => return Err(ReadError::Closed),
            Ok(n) => carry.extend_from_slice(&chunk[..n]),
            Err(e) if is_timeout(&e) => continue,
            Err(_) => return Err(ReadError::Io),
        }
    }
    req.body = carry[body_start..body_start + content_len].to_vec();
    carry.drain(..body_start + content_len);
    Ok(req)
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
    )
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn parse_head(head: &str) -> Result<Request, ReadError> {
    let mut lines = head.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| ReadError::Malformed("empty request".into()))?;
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return Err(ReadError::Malformed("bad request line".into())),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(ReadError::Malformed(format!(
            "unsupported version {version}"
        )));
    }
    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| ReadError::Malformed(format!("bad header line {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    Ok(Request {
        method: method.to_string(),
        path: percent_decode(raw_path),
        params: parse_query_string(raw_query),
        headers,
        body: Vec::new(),
    })
}

/// Decode `%XX` escapes and `+`-as-space (form/query-string convention).
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' if i + 2 < bytes.len() => match hex_pair(bytes[i + 1], bytes[i + 2]) {
                Some(b) => {
                    out.push(b);
                    i += 3;
                }
                None => {
                    out.push(b'%');
                    i += 1;
                }
            },
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn hex_pair(hi: u8, lo: u8) -> Option<u8> {
    let d = |c: u8| match c {
        b'0'..=b'9' => Some(c - b'0'),
        b'a'..=b'f' => Some(c - b'a' + 10),
        b'A'..=b'F' => Some(c - b'A' + 10),
        _ => None,
    };
    Some(d(hi)? << 4 | d(lo)?)
}

/// Split `a=1&b=2` into decoded pairs; bare keys get an empty value.
pub fn parse_query_string(qs: &str) -> Vec<(String, String)> {
    qs.split('&')
        .filter(|p| !p.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(pair), String::new()),
        })
        .collect()
}

/// One response about to be serialized.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub content_type: &'static str,
    pub body: Vec<u8>,
    /// Emitted as a `Retry-After` header (503 backpressure hint).
    pub retry_after: Option<u64>,
    /// Emit `Connection: close` and drop the connection after writing.
    pub close: bool,
}

impl Response {
    pub fn new(status: u16, content_type: &'static str, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            content_type,
            body: body.into(),
            retry_after: None,
            close: false,
        }
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        499 => "Client Closed Request",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Serialize `resp` onto the stream: head and body go out in one vectored
/// write (the body is not copied), and a short write is resumed where it
/// stopped. An unreachable peer surfaces as the final error.
pub fn write_response(stream: &mut TcpStream, resp: &Response) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
        resp.status,
        reason(resp.status),
        resp.content_type,
        resp.body.len()
    );
    if let Some(secs) = resp.retry_after {
        head.push_str(&format!("Retry-After: {secs}\r\n"));
    }
    if resp.close {
        head.push_str("Connection: close\r\n");
    }
    head.push_str("\r\n");
    let (mut head, mut body) = (head.as_bytes(), resp.body.as_slice());
    while !head.is_empty() || !body.is_empty() {
        let n = match stream.write_vectored(&[IoSlice::new(head), IoSlice::new(body)]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        let from_head = n.min(head.len());
        head = &head[from_head..];
        body = &body[n - from_head..];
    }
    Ok(())
}

/// A sane per-read poll tick: long blocking reads are chopped into ticks so
/// shutdown and idle deadlines are noticed promptly.
pub const POLL_TICK: Duration = Duration::from_millis(50);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_decoding() {
        assert_eq!(percent_decode("a%20b+c%3f"), "a b c?");
        assert_eq!(percent_decode("100%"), "100%");
        assert_eq!(percent_decode("%zz"), "%zz");
    }

    #[test]
    fn query_string_pairs() {
        let p = parse_query_string("query=SELECT+%3Fx&lang=sql&flag");
        assert_eq!(
            p,
            vec![
                ("query".into(), "SELECT ?x".into()),
                ("lang".into(), "sql".into()),
                ("flag".into(), String::new()),
            ]
        );
    }

    #[test]
    fn head_parsing() {
        let r = parse_head(
            "POST /query?lang=sql HTTP/1.1\r\nHost: x\r\nContent-Length: 3\r\nAccept: text/tab-separated-values",
        )
        .unwrap();
        assert_eq!(r.method, "POST");
        assert_eq!(r.path, "/query");
        assert_eq!(r.param("lang"), Some("sql"));
        assert_eq!(r.header("content-length"), Some("3"));
        assert!(!r.wants_close());
    }

    #[test]
    fn bad_heads_are_rejected() {
        assert!(matches!(parse_head(""), Err(ReadError::Malformed(_))));
        assert!(matches!(
            parse_head("GET /x SPDY/9\r\n"),
            Err(ReadError::Malformed(_))
        ));
        assert!(matches!(
            parse_head("GET /x HTTP/1.1\r\nnocolon\r\n"),
            Err(ReadError::Malformed(_))
        ));
    }
}
