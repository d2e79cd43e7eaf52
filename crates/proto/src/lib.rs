//! # qosrm-proto
//!
//! The wire protocol shared by everything that talks over a socket in this
//! workspace: the `qosrm_serve` daemon and its clients, and the distributed
//! sweep coordinator/worker pair (`sweep coordinate` / `sweep work` /
//! `qosrm_worker`).
//!
//! The crate deliberately sits *below* both `experiments` and `qosrm-serve`
//! in the dependency graph: the coordinator lives in `experiments::dist`
//! (so offline multi-process sweeps need no daemon), the daemon embeds the
//! same coordinator behind its own endpoints, and both speak the byte-level
//! protocol defined here.
//!
//! Two modules:
//!
//! * [`http`] — the hand-rolled minimal HTTP/1.0 subset ([`std::net`] only;
//!   the vendor/ constraint rules out async runtimes and HTTP crates): the
//!   one accept loop both servers mount their routes on ([`http::serve`]),
//!   the one client exchange ([`http::exchange`]), and the explicit
//!   protocol-version header that makes a mixed-version coordinator/worker
//!   pair fail fast with a typed [`http::WireError`] instead of a confusing
//!   malformed-request path;
//! * [`wire`] — the JSON message bodies of the coordination endpoints
//!   (`POST /lease`, `POST /heartbeat`, `POST /shards/{id}/complete`).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod http;
pub mod wire;

pub use http::{
    check_proto_version, WireError, WireErrorBody, PROTOCOL_MISMATCH_KIND, PROTO_VERSION,
    PROTO_VERSION_HEADER,
};
pub use wire::{
    CompleteReply, CompleteRequest, CoordStatus, HeartbeatReply, HeartbeatRequest, LeaseGrant,
    LeaseReply, LeaseRequest, LeaseTelemetry,
};
