//! A deliberately minimal HTTP/1.0 subset shared by the daemon, the sweep
//! coordinator, and their blocking clients.
//!
//! The vendor/ constraint rules out async runtimes and HTTP crates, and the
//! protocol needs very little: one request per connection, `Content-Length`
//! bodies, `Connection: close` responses, and one streaming response shape
//! (the JSONL outcome tail, which has no length and ends when the socket
//! closes). A response may take a while to start: a server can hold a
//! request open until it has something to say (a `POST /lease` with no
//! shard to lease waits for one, for a few seconds at most). The grammar
//! both servers accept:
//!
//! ```text
//! request  = method SP path ["?" query] SP version CRLF *(header CRLF) CRLF [body]
//! method   = "GET" | "POST"
//! query    = key "=" value *("&" key "=" value)
//! header   = name ":" OWS value            ; names are case-insensitive
//! body     = octets, exactly Content-Length of them
//! ```
//!
//! Anything else — a torn head, a missing version, a body longer than the
//! route's payload limit — yields a typed [`RequestError`], which the front
//! end maps to a JSON error response (see [`WireError`]) rather than a
//! hangup, so clients always learn *why* they were refused.
//!
//! ## One front end, one client exchange
//!
//! [`serve`] is the accept loop of every server in the workspace: the
//! daemon and `sweep coordinate` each hand it a bound listener and their
//! [`Routes`], and it owns everything below routing — a thread per
//! connection, the read timeout, the per-route body bound, the typed
//! replies to unreadable requests and the drain before close. [`exchange`]
//! is the matching client side: one request, one response, per connection.
//!
//! ## Protocol versioning
//!
//! Coordination requests (`/lease`, `/heartbeat`, `/shards/{id}/complete`)
//! carry the explicit [`PROTO_VERSION_HEADER`] header naming the protocol
//! revision the sender speaks ([`PROTO_VERSION`]). A coordinator checks it
//! with [`check_proto_version`] before parsing the body, so a mixed-version
//! coordinator/worker pair fails fast with a typed
//! [`PROTOCOL_MISMATCH_KIND`] error instead of a confusing
//! malformed-message path deeper in. Revision `qosrm/2` dropped the lease
//! reply's retry hint, when lease requests began to be held instead;
//! `qosrm/3` dropped the lease grant's `serial` flag.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Upper bound on the request head (request line + headers). Large requests
/// put their payload in the body, never the head.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;

/// Name of the protocol-version header every coordination request carries.
pub const PROTO_VERSION_HEADER: &str = "x-qosrm-proto";

/// The protocol revision this build speaks. Bump it whenever a wire message
/// changes incompatibly; a coordinator and worker disagreeing on it refuse
/// each other with a typed error instead of mis-parsing bodies.
pub const PROTO_VERSION: &str = "qosrm/3";

/// `kind` of the typed error a version mismatch produces.
pub const PROTOCOL_MISMATCH_KIND: &str = "ProtocolMismatch";

/// Verifies a coordination request's [`PROTO_VERSION_HEADER`]. A missing or
/// mismatched header yields the [`PROTOCOL_MISMATCH_KIND`] error the caller
/// should answer with (HTTP 400) before touching the body.
pub fn check_proto_version(request: &Request) -> Result<(), WireError> {
    match request.header(PROTO_VERSION_HEADER) {
        Some(version) if version == PROTO_VERSION => Ok(()),
        Some(version) => Err(WireError::new(
            PROTOCOL_MISMATCH_KIND,
            format!(
                "peer speaks protocol {version:?} but this build speaks {PROTO_VERSION:?}; \
                 run matching coordinator and worker builds"
            ),
        )),
        None => Err(WireError::new(
            PROTOCOL_MISMATCH_KIND,
            format!(
                "request carries no {PROTO_VERSION_HEADER} header (an older build?); \
                 this build speaks {PROTO_VERSION:?}"
            ),
        )),
    }
}

/// A parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method (`GET`, `POST`).
    pub method: String,
    /// Decoded path without the query string (e.g. `/runs/r0123/stream`).
    pub path: String,
    /// Decoded query parameters.
    pub query: HashMap<String, String>,
    /// Headers with lower-cased names.
    pub headers: HashMap<String, String>,
    /// Request body (`Content-Length` octets).
    pub body: Vec<u8>,
}

impl Request {
    /// A query parameter, if present.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query.get(key).map(String::as_str)
    }

    /// A header value by case-insensitive name, if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .get(&name.to_ascii_lowercase())
            .map(String::as_str)
    }
}

/// Why a request could not be read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestError {
    /// The head or body exceeded a configured limit (the limit in bytes).
    TooLarge {
        /// The limit that was exceeded, in bytes.
        limit: usize,
    },
    /// The bytes on the wire were not a well-formed request (torn head,
    /// bad request line, unparsable `Content-Length`, truncated body).
    Malformed(String),
    /// The peer closed the connection before sending anything.
    Closed,
}

/// Reads one request from `stream`. The head is bounded by
/// [`MAX_HEAD_BYTES`]; once it is read, `body_limit(method, path)` bounds
/// the accepted `Content-Length`.
pub fn read_request(
    stream: &mut TcpStream,
    body_limit: &dyn Fn(&str, &str) -> usize,
) -> Result<Request, RequestError> {
    // Read the head byte-wise-ish (buffered in chunks) until CRLFCRLF.
    let mut head = Vec::new();
    let mut buf = [0u8; 1024];
    let header_end = loop {
        if let Some(pos) = find_head_end(&head) {
            break pos;
        }
        if head.len() > MAX_HEAD_BYTES {
            return Err(RequestError::TooLarge {
                limit: MAX_HEAD_BYTES,
            });
        }
        let n = stream
            .read(&mut buf)
            .map_err(|e| RequestError::Malformed(format!("read failed: {e}")))?;
        if n == 0 {
            if head.is_empty() {
                return Err(RequestError::Closed);
            }
            return Err(RequestError::Malformed(
                "connection closed before the request head completed".to_string(),
            ));
        }
        head.extend_from_slice(&buf[..n]);
    };
    let body_prefix = head.split_off(header_end + 4);
    let head_text = String::from_utf8(head)
        .map_err(|_| RequestError::Malformed("request head is not UTF-8".to_string()))?;

    let mut lines = head_text.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| RequestError::Malformed("empty request line".to_string()))?
        .to_string();
    let target = parts
        .next()
        .ok_or_else(|| RequestError::Malformed("request line has no path".to_string()))?;
    let version = parts
        .next()
        .ok_or_else(|| RequestError::Malformed("request line has no HTTP version".to_string()))?;
    if !version.starts_with("HTTP/") {
        return Err(RequestError::Malformed(format!(
            "bad HTTP version {version:?}"
        )));
    }

    let mut headers = HashMap::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line.split_once(':').ok_or_else(|| {
            RequestError::Malformed(format!("header line without a colon: {line:?}"))
        })?;
        headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_string());
    }

    let (path, query) = parse_target(target);

    let content_length = match headers.get("content-length") {
        Some(raw) => raw
            .parse::<usize>()
            .map_err(|_| RequestError::Malformed(format!("unparsable Content-Length {raw:?}")))?,
        None => 0,
    };
    let max_body = body_limit(&method, &path);
    if content_length > max_body {
        return Err(RequestError::TooLarge { limit: max_body });
    }
    let mut body = body_prefix;
    if body.len() > content_length {
        return Err(RequestError::Malformed(
            "body is longer than Content-Length".to_string(),
        ));
    }
    while body.len() < content_length {
        let n = stream
            .read(&mut buf)
            .map_err(|e| RequestError::Malformed(format!("read failed: {e}")))?;
        if n == 0 {
            return Err(RequestError::Malformed(format!(
                "connection closed with {} of {content_length} body bytes read",
                body.len()
            )));
        }
        body.extend_from_slice(&buf[..n]);
        if body.len() > content_length {
            return Err(RequestError::Malformed(
                "body is longer than Content-Length".to_string(),
            ));
        }
    }

    Ok(Request {
        method,
        path,
        query,
        headers,
        body,
    })
}

fn find_head_end(bytes: &[u8]) -> Option<usize> {
    bytes.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Splits a request target into its decoded path and query map.
fn parse_target(target: &str) -> (String, HashMap<String, String>) {
    let (path, query_text) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let mut query = HashMap::new();
    for pair in query_text.split('&') {
        if pair.is_empty() {
            continue;
        }
        let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
        query.insert(percent_decode(key), percent_decode(value));
    }
    (percent_decode(path), query)
}

/// Minimal percent-decoding (enough for `%2F` in labels and `+` as space).
fn percent_decode(text: &str) -> String {
    let bytes = text.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' if i + 2 < bytes.len() => {
                let hex = &text[i + 1..i + 3];
                if let Ok(v) = u8::from_str_radix(hex, 16) {
                    out.push(v);
                    i += 3;
                } else {
                    out.push(b'%');
                    i += 1;
                }
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// The body of every error response: `{"error":{"kind":...,"message":...}}`.
///
/// `kind` is a stable machine-readable discriminator (`PayloadTooLarge`,
/// `MalformedRequest`, `InvalidSpec`, `QueueFull`, `RunNotFound`,
/// `RunNotComplete`, `NotFound`, `MethodNotAllowed`, `ProtocolMismatch`);
/// `message` is human-readable detail. Clients dispatch on `kind`, never on
/// `message`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireError {
    /// The error payload.
    pub error: WireErrorBody,
}

/// Inner payload of [`WireError`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireErrorBody {
    /// Stable machine-readable discriminator.
    pub kind: String,
    /// Human-readable detail.
    pub message: String,
}

impl WireError {
    /// Builds an error body.
    pub fn new(kind: &str, message: impl Into<String>) -> Self {
        WireError {
            error: WireErrorBody {
                kind: kind.to_string(),
                message: message.into(),
            },
        }
    }
}

/// Writes a complete response with a `Content-Length` and closes semantics
/// (`Connection: close`; the server drops the stream afterwards).
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &[u8],
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.0 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// Writes a JSON response.
pub fn write_json(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    body: &str,
) -> std::io::Result<()> {
    write_response(stream, status, reason, "application/json", body.as_bytes())
}

/// Writes a typed JSON error response.
pub fn write_error(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    error: &WireError,
) -> std::io::Result<()> {
    let body = serde_json::to_string(error).unwrap_or_else(|_| "{}".to_string());
    write_json(stream, status, reason, &body)
}

/// Writes the head of a streaming (unbounded) response; the body follows as
/// raw writes and ends when the connection closes.
pub fn write_stream_head(stream: &mut TcpStream, content_type: &str) -> std::io::Result<()> {
    let head =
        format!("HTTP/1.0 200 OK\r\nContent-Type: {content_type}\r\nConnection: close\r\n\r\n");
    stream.write_all(head.as_bytes())?;
    stream.flush()
}

/// How long a connection may stay silent before its request is abandoned.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// What one server mounts on the shared front end ([`serve`]).
pub trait Routes: Send + Sync + 'static {
    /// The body bound of a request, chosen once its head is read.
    fn body_limit(&self, method: &str, path: &str) -> usize;
    /// Answers one request (unmatched routes included: the implementor
    /// picks its own 404).
    fn respond(&self, stream: &mut TcpStream, request: &Request);
    /// Observes the status (413 or 400) of a request the front end refused
    /// as unreadable, just before the typed reply goes out.
    fn refused(&self, _status: u16) {}
}

/// A running front end (see [`serve`]).
pub struct HttpServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: JoinHandle<()>,
}

impl HttpServer {
    /// The bound address (with the resolved port when `:0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting and joins the accept thread. Connection threads
    /// finish their in-flight request.
    pub fn stop(self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let _ = self.accept.join();
    }
}

/// Serves `routes` on an already-bound `listener` until
/// [`HttpServer::stop`], one thread per connection.
pub fn serve<R: Routes>(listener: TcpListener, routes: Arc<R>) -> std::io::Result<HttpServer> {
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let stopping = shutdown.clone();
    let accept = thread::spawn(move || {
        for stream in listener.incoming() {
            if stopping.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let routes = routes.clone();
            thread::spawn(move || handle_connection(stream, &*routes));
        }
    });
    Ok(HttpServer {
        addr,
        shutdown,
        accept,
    })
}

fn handle_connection<R: Routes>(mut stream: TcpStream, routes: &R) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let (status, reason, reply) =
        match read_request(&mut stream, &|method, path| routes.body_limit(method, path)) {
            Ok(request) => return routes.respond(&mut stream, &request),
            Err(RequestError::Closed) => return,
            Err(RequestError::TooLarge { limit }) => (
                413,
                "Payload Too Large",
                WireError::new(
                    "PayloadTooLarge",
                    format!("request exceeds the {limit}-byte limit"),
                ),
            ),
            Err(RequestError::Malformed(detail)) => (
                400,
                "Bad Request",
                WireError::new("MalformedRequest", detail),
            ),
        };
    routes.refused(status);
    let _ = write_error(&mut stream, status, reason, &reply);
    // Drain what the peer is still sending (bounded) before the socket
    // drops: closing with unread bytes in the receive buffer makes the
    // kernel send RST, which can destroy the error reply before the client
    // reads it.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let _ = std::io::copy(&mut (&stream).take(4 * 1024 * 1024), &mut std::io::sink());
}

/// Why an [`exchange`] failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExchangeError {
    /// The connection could not be made or died mid-exchange.
    Transport(String),
    /// The peer answered with bytes that are not an HTTP response.
    Protocol(String),
}

/// One client request/response exchange: connects to `addr`, writes the
/// head (with the [`PROTO_VERSION_HEADER`], `headers` and the
/// `Content-Length`) and `body`, half-closes, reads the response to the end
/// and returns its status and body. `timeout` bounds the connect and every
/// socket read and write.
pub fn exchange(
    addr: impl ToSocketAddrs,
    timeout: Duration,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> Result<(u16, Vec<u8>), ExchangeError> {
    let transport = |e: std::io::Error| ExchangeError::Transport(e.to_string());
    let mut connected = Err(std::io::ErrorKind::AddrNotAvailable.into());
    for candidate in addr.to_socket_addrs().map_err(transport)? {
        connected = TcpStream::connect_timeout(&candidate, timeout);
        if connected.is_ok() {
            break;
        }
    }
    let mut stream = connected.map_err(transport)?;
    let _ = stream.set_read_timeout(Some(timeout));
    let _ = stream.set_write_timeout(Some(timeout));
    // Every request declares the protocol revision it speaks, so a
    // mixed-version pair fails fast with a typed `ProtocolMismatch`
    // instead of misparsing each other.
    let mut head =
        format!("{method} {path} HTTP/1.0\r\n{PROTO_VERSION_HEADER}: {PROTO_VERSION}\r\n");
    for (name, value) in headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body))
        .and_then(|()| stream.flush())
        .map_err(transport)?;
    // Half-close: the request is complete, so a server that rejects it
    // without reading the body sees EOF instead of blocking on a drain.
    let _ = stream.shutdown(Shutdown::Write);
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(transport)?;
    let head_end = find_head_end(&raw).ok_or_else(|| {
        ExchangeError::Protocol("response has no head/body separator".to_string())
    })?;
    let head = String::from_utf8_lossy(&raw[..head_end]);
    let status_line = head.lines().next().unwrap_or("");
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or_else(|| ExchangeError::Protocol(format!("bad status line {status_line:?}")))?;
    Ok((status, raw[head_end + 4..].to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_parsing_splits_path_and_query() {
        let (path, query) = parse_target("/runs/r01/stream?from=42&quick=false");
        assert_eq!(path, "/runs/r01/stream");
        assert_eq!(query.get("from").map(String::as_str), Some("42"));
        assert_eq!(query.get("quick").map(String::as_str), Some("false"));
        let (path, query) = parse_target("/stats");
        assert_eq!(path, "/stats");
        assert!(query.is_empty());
    }

    #[test]
    fn percent_decoding() {
        assert_eq!(percent_decode("a%2Fb+c"), "a/b c");
        assert_eq!(percent_decode("plain"), "plain");
        assert_eq!(percent_decode("bad%zz"), "bad%zz");
    }

    #[test]
    fn wire_error_roundtrip() {
        let err = WireError::new("QueueFull", "queue is at its 64-run bound");
        let json = serde_json::to_string(&err).unwrap();
        assert!(json.contains("\"QueueFull\""));
        let back: WireError = serde_json::from_str(&json).unwrap();
        assert_eq!(back, err);
    }

    fn request_with_version(version: Option<&str>) -> Request {
        let mut headers = HashMap::new();
        if let Some(v) = version {
            headers.insert(PROTO_VERSION_HEADER.to_string(), v.to_string());
        }
        Request {
            method: "POST".to_string(),
            path: "/lease".to_string(),
            query: HashMap::new(),
            headers,
            body: Vec::new(),
        }
    }

    #[test]
    fn proto_version_check_accepts_only_the_current_revision() {
        assert!(check_proto_version(&request_with_version(Some(PROTO_VERSION))).is_ok());
        let missing = check_proto_version(&request_with_version(None)).unwrap_err();
        assert_eq!(missing.error.kind, PROTOCOL_MISMATCH_KIND);
        // The previous revision, whose lease replies carried a retry hint.
        let wrong = check_proto_version(&request_with_version(Some("qosrm/1"))).unwrap_err();
        assert_eq!(wrong.error.kind, PROTOCOL_MISMATCH_KIND);
        assert!(wrong.error.message.contains("qosrm/1"));
    }
}
