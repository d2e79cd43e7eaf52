//! A blocking client for the daemon protocol, used by `qosrm_load`, the
//! protocol tests, and the serving benchmark.

use crate::http::{self, ExchangeError, WireError};
use crate::server::{RunStatus, StatsReport};
use std::net::SocketAddr;
use std::time::Duration;

/// Why a client call failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientError {
    /// The daemon answered with a typed error (`kind` dispatchable:
    /// `QueueFull`, `InvalidSpec`, `PayloadTooLarge`, `RunNotFound`,
    /// `RunNotComplete`, ...).
    Rejected {
        /// HTTP status code.
        status: u16,
        /// Machine-readable error kind.
        kind: String,
        /// Human-readable detail.
        message: String,
    },
    /// The connection could not be established or died mid-exchange (the
    /// daemon may have been killed; retrying is reasonable).
    Transport(String),
    /// The daemon answered with bytes the client could not interpret.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Rejected {
                status,
                kind,
                message,
            } => write!(f, "rejected ({status} {kind}): {message}"),
            ClientError::Transport(detail) => write!(f, "transport error: {detail}"),
            ClientError::Protocol(detail) => write!(f, "protocol error: {detail}"),
        }
    }
}

/// Blocking daemon client. One TCP connection per call (the protocol is
/// one request per connection).
#[derive(Debug, Clone)]
pub struct Client {
    addr: SocketAddr,
    timeout: Duration,
}

impl Client {
    /// Creates a client for a daemon address.
    pub fn new(addr: SocketAddr) -> Self {
        Client {
            addr,
            timeout: Duration::from_secs(120),
        }
    }

    /// Overrides the per-call socket timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Submits a spec. Returns the run status plus whether this submission
    /// *created* the run (HTTP 202) or deduplicated to an existing one
    /// (HTTP 200).
    pub fn submit(
        &self,
        spec_json: &str,
        client_name: &str,
        quick: bool,
        shard_size: usize,
    ) -> Result<(bool, RunStatus), ClientError> {
        let path = format!("/runs?quick={quick}&shard_size={shard_size}");
        let headers = [
            ("x-client", client_name),
            ("content-type", "application/json"),
        ];
        let (status, body) = self.call("POST", &path, &headers, spec_json.as_bytes())?;
        Ok((status == 202, parse_json(&body)?))
    }

    /// Fetches a run's status.
    pub fn status(&self, run_id: &str) -> Result<RunStatus, ClientError> {
        self.json("GET", &format!("/runs/{run_id}"))
    }

    /// Lists all runs.
    pub fn list(&self) -> Result<Vec<RunStatus>, ClientError> {
        self.json("GET", "/runs")
    }

    /// Cancels a run, returning its status after the cancel.
    pub fn cancel(&self, run_id: &str) -> Result<RunStatus, ClientError> {
        self.json("POST", &format!("/runs/{run_id}/cancel"))
    }

    /// Fetches the merged result bytes of a complete run — the exact bytes
    /// the offline `sweep merge --result` path writes.
    pub fn result(&self, run_id: &str) -> Result<Vec<u8>, ClientError> {
        let (_, body) = self.call("GET", &format!("/runs/{run_id}/result"), &[], b"")?;
        Ok(body)
    }

    /// Fetches the `/stats` report.
    pub fn stats(&self) -> Result<StatsReport, ClientError> {
        self.json("GET", "/stats")
    }

    /// Streams outcome lines, skipping the first `from`, feeding each
    /// complete JSONL line to `sink`, until the daemon closes the tail —
    /// which it does exactly when the run is terminal (or the daemon
    /// stops). Every outcome arrives once, in shard order, so a tail cut
    /// short resumes exactly with `from` = the lines it received. Returns
    /// the number of lines received.
    pub fn stream(
        &self,
        run_id: &str,
        from: usize,
        mut sink: impl FnMut(&str),
    ) -> Result<usize, ClientError> {
        let path = format!("/runs/{run_id}/stream?from={from}");
        let (_, body) = self.call("GET", &path, &[], b"")?;
        let text = String::from_utf8_lossy(&body);
        let mut count = 0;
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            sink(line);
            count += 1;
        }
        Ok(count)
    }

    /// A bodiless request whose 2xx answer is JSON.
    fn json<T: serde::Deserialize>(&self, method: &str, path: &str) -> Result<T, ClientError> {
        let (_, body) = self.call(method, path, &[], b"")?;
        parse_json(&body)
    }

    /// One exchange; a non-2xx answer becomes [`ClientError::Rejected`].
    fn call(
        &self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> Result<(u16, Vec<u8>), ClientError> {
        let (status, body) = http::exchange(self.addr, self.timeout, method, path, headers, body)
            .map_err(|e| match e {
            ExchangeError::Transport(detail) => ClientError::Transport(detail),
            ExchangeError::Protocol(detail) => ClientError::Protocol(detail),
        })?;
        if (200..300).contains(&status) {
            return Ok((status, body));
        }
        let text = String::from_utf8_lossy(&body);
        Err(match serde_json::from_str::<WireError>(&text) {
            Ok(wire) => ClientError::Rejected {
                status,
                kind: wire.error.kind,
                message: wire.error.message,
            },
            Err(_) => ClientError::Rejected {
                status,
                kind: "Unknown".to_string(),
                message: text.into_owned(),
            },
        })
    }
}

fn parse_json<T: serde::Deserialize>(body: &[u8]) -> Result<T, ClientError> {
    let text = String::from_utf8_lossy(body);
    serde_json::from_str(&text)
        .map_err(|e| ClientError::Protocol(format!("unparsable response body: {e} in {text:.120}")))
}
