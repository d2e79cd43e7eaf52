//! # qosrm-serve
//!
//! Sweep-as-a-service: a resident daemon (`qosrm_serve`) that keeps the
//! expensive experiment state — simulation databases and the energy-curve
//! memoization cache — warm across scenario sweeps, plus the load
//! generator (`qosrm_load`) that hammers it in CI.
//!
//! The daemon wraps the existing [`experiments::stream`] executor behind a
//! hand-rolled minimal HTTP/JSONL protocol on [`std::net::TcpListener`]
//! (thread-per-connection plus a bounded worker pool; no async runtime —
//! the workspace vendors all dependencies). Crucially it adds **no new
//! on-disk format**: a run directory is a standard streaming-run directory
//! (`manifest.json` + `shard-*.jsonl`) plus a daemon-owned `run.json`, so
//!
//! * a daemon restart resumes in-flight runs from their manifests, and
//! * the merged result of a daemon run is **byte-identical** to
//!   `qosrm_experiments sweep run` of the same spec — the serving path can
//!   never drift from the offline one.
//!
//! ## Protocol
//!
//! | Request | Meaning |
//! |---|---|
//! | `POST /runs?quick=&shard_size=` (body: spec JSON) | submit; 202 = admitted, 200 = deduplicated, 429 = queue full |
//! | `GET /runs` | list run statuses |
//! | `GET /runs/{id}` | one run's status |
//! | `GET /runs/{id}/stream?from=N` | JSONL tail of completed outcomes |
//! | `GET /runs/{id}/result` | merged result (409 until complete) |
//! | `POST /runs/{id}/cancel` | cancel (honoured between shards) |
//! | `GET /stats` | queue, counters, curve-cache and lease telemetry |
//! | `GET /healthz` | liveness |
//! | `POST /lease` | lease the next pending shard to an external worker |
//! | `POST /heartbeat` | renew a held shard lease |
//! | `POST /shards/{id}/complete` | deliver a finished shard's outcome log |
//! | `GET /status` | coordination snapshot of the active run |
//!
//! The last four are the coordination endpoints of
//! [`experiments::dist`] — the daemon *is* a sweep coordinator, so
//! external `qosrm_worker` processes drain the same per-run shard queue
//! as the in-process worker pool. Coordination `POST`s must carry the
//! explicit protocol-version header
//! ([`http::PROTO_VERSION_HEADER`]`: `[`http::PROTO_VERSION`]); a missing
//! or mismatched revision is rejected with a typed `ProtocolMismatch`
//! error, so mixed-version worker/daemon pairs fail fast.
//!
//! Errors are always typed JSON bodies ([`http::WireError`]); the run id
//! is the fingerprint of `(spec, quick)`, so identical submissions — from
//! any number of concurrent clients — deduplicate to a single run.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod client;
pub mod load;
pub mod server;
pub mod state;

/// The shared wire protocol (re-exported from [`qosrm_proto`], where it now
/// lives so the offline coordinator in [`experiments::dist`] speaks the
/// same bytes without depending on this crate).
pub use qosrm_proto::http;

pub use client::{Client, ClientError};
pub use load::{execute, plan, LoadConfig, LoadPlan, LoadReport};
pub use server::{
    run_id, CacheStats, RmaStats, RunStatus, ServeConfig, Server, SimdbStats, StatsReport,
    STATS_SCHEMA,
};
pub use state::{RunMeta, RunState};
