//! JSON message bodies of the coordination endpoints.
//!
//! Three request/reply pairs drive the lease protocol:
//!
//! * `POST /lease` — [`LeaseRequest`] → [`LeaseReply`]: a worker asks for a
//!   shard; the coordinator answers with a [`LeaseGrant`] (work) or
//!   `finished` (the run is complete, the worker may exit). With nothing
//!   pending it holds the request until a completion, a lease expiry or a
//!   run transition — at most a few seconds — and may then answer with
//!   neither, whereupon the worker asks again at once.
//! * `POST /heartbeat` — [`HeartbeatRequest`] → [`HeartbeatReply`]: renews a
//!   held lease before it expires.
//! * `POST /shards/{id}/complete` — [`CompleteRequest`] → [`CompleteReply`]:
//!   delivers the shard's JSONL outcome log. The coordinator accepts it only
//!   if the named lease epoch is still the active one; a presumed-dead
//!   worker finishing after its shard was reinjected gets `stale: true` and
//!   its log is dropped, so exactly one log per shard ever reaches disk.
//!
//! `GET /status` returns a [`CoordStatus`] snapshot (progress plus the
//! [`LeaseTelemetry`] counters that also feed the daemon's `/stats`).
//!
//! All types obey the vendored serde stub's limits: plain derives, no field
//! attributes, every field required on deserialize, maps keyed by `String`
//! in a `BTreeMap`. Timestamps and durations are `u64` milliseconds.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Worker → coordinator: request a shard lease.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LeaseRequest {
    /// Stable worker identity (appears in telemetry and log lines).
    pub worker: String,
    /// Run to lease from; the empty string means "any run with pending
    /// shards" (daemon mode, where several runs may be live at once).
    pub run: String,
}

/// One leased shard: everything a worker needs to evaluate it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LeaseGrant {
    /// Run the shard belongs to.
    pub run: String,
    /// Shard index within the run (names the `shard-NNNN.jsonl` log).
    pub shard: u64,
    /// Lease epoch. Completions must echo it exactly; after expiry the
    /// shard is re-leased under a higher epoch and the old epoch is dead.
    pub epoch: u64,
    /// Lease duration in milliseconds; heartbeat well inside it.
    pub lease_ms: u64,
    /// Coordinator-clock expiry, milliseconds since the Unix epoch.
    pub expires_ms: u64,
    /// The sweep spec, as its canonical JSON text.
    pub spec_json: String,
    /// Whether the run is a quick-mode (reduced-fidelity) sweep.
    pub quick: bool,
    /// Grid-point indices (into the spec's canonical point order) this
    /// shard evaluates.
    pub points: Vec<u64>,
}

/// Coordinator → worker: answer to a (possibly held) lease request. With
/// neither a grant nor `finished`, the hold ended without work for this
/// worker (all remaining shards are leased to others) and it asks again.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LeaseReply {
    /// The granted shard, if any shard was pending.
    pub grant: Option<LeaseGrant>,
    /// True once every shard of the run is complete; the worker may exit.
    pub finished: bool,
}

/// Worker → coordinator: renew a held lease.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HeartbeatRequest {
    /// The worker renewing.
    pub worker: String,
    /// Run the lease belongs to.
    pub run: String,
    /// Leased shard index.
    pub shard: u64,
    /// The epoch the worker holds; renewal fails if it is no longer active.
    pub epoch: u64,
}

/// Coordinator → worker: heartbeat outcome.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HeartbeatReply {
    /// True if the lease was still active and its expiry was pushed out;
    /// false means the lease is dead and the worker should abandon the
    /// shard (its eventual completion would be rejected as stale anyway).
    pub renewed: bool,
    /// The new coordinator-clock expiry when renewed, else 0.
    pub expires_ms: u64,
}

/// Worker → coordinator: deliver a finished shard's outcome log.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompleteRequest {
    /// The worker delivering.
    pub worker: String,
    /// Run the shard belongs to.
    pub run: String,
    /// Completed shard index.
    pub shard: u64,
    /// The epoch under which the worker held the shard.
    pub epoch: u64,
    /// The shard's outcome log: one canonical `ScenarioOutcome` JSON object
    /// per line, in the shard's point order.
    pub outcomes_jsonl: String,
    /// Curve-cache hits the evaluation scored (merged into run telemetry).
    pub curve_hits: u64,
    /// Curve-cache misses the evaluation scored.
    pub curve_misses: u64,
}

/// Coordinator → worker: completion outcome.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompleteReply {
    /// True if the log was accepted and durably written.
    pub accepted: bool,
    /// True if the completion was rejected because its lease epoch is no
    /// longer the active one (the shard was reinjected; another log wins).
    pub stale: bool,
    /// True once every shard of the run is complete.
    pub finished: bool,
}

/// Lease-protocol telemetry counters.
///
/// Surfaced by the coordinator's `GET /status` and folded into the daemon's
/// `GET /stats` report. The `Display` impl destructures exhaustively — no
/// `..` — so adding a field here fails compilation until it is surfaced.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LeaseTelemetry {
    /// Leases granted (first grants and re-grants after expiry alike).
    pub granted: u64,
    /// Heartbeat renewals of still-active leases.
    pub renewed: u64,
    /// Leases that expired before their shard completed.
    pub expired: u64,
    /// Shards reinjected into the pending queue after a lease expired.
    pub reinjected: u64,
    /// Completions rejected because their lease epoch was no longer active.
    pub stale_rejected: u64,
    /// Shard completions accepted and durably written.
    pub completed: u64,
    /// Accepted shard completions per worker id.
    pub per_worker: BTreeMap<String, u64>,
}

impl fmt::Display for LeaseTelemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Exhaustive destructure: a new counter fails compilation here
        // until it is printed.
        let LeaseTelemetry {
            granted,
            renewed,
            expired,
            reinjected,
            stale_rejected,
            completed,
            ref per_worker,
        } = *self;
        write!(
            f,
            "leases: granted {granted} renewed {renewed} expired {expired} \
             reinjected {reinjected} stale-rejected {stale_rejected} completed {completed}"
        )?;
        if !per_worker.is_empty() {
            write!(f, " | per-worker:")?;
            for (worker, shards) in per_worker {
                write!(f, " {worker}={shards}")?;
            }
        }
        Ok(())
    }
}

/// Coordinator progress snapshot (`GET /status`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoordStatus {
    /// Run identifier.
    pub run: String,
    /// Whether the run is a quick-mode sweep.
    pub quick: bool,
    /// Scenarios completed so far.
    pub completed: u64,
    /// Total scenarios in the sweep grid.
    pub total: u64,
    /// True once every shard is complete.
    pub finished: bool,
    /// Lease-protocol counters.
    pub leases: LeaseTelemetry,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lease_reply_roundtrips_with_and_without_a_grant() {
        let grant = LeaseGrant {
            run: "r0abc".to_string(),
            shard: 3,
            epoch: 2,
            lease_ms: 5000,
            expires_ms: 1_700_000_005_000,
            spec_json: "{\"label\":\"t\"}".to_string(),
            quick: false,
            points: vec![12, 13, 14, 15],
        };
        let reply = LeaseReply {
            grant: Some(grant),
            finished: false,
        };
        let json = serde_json::to_string(&reply).unwrap();
        let back: LeaseReply = serde_json::from_str(&json).unwrap();
        assert_eq!(back, reply);

        let idle = LeaseReply {
            grant: None,
            finished: true,
        };
        let json = serde_json::to_string(&idle).unwrap();
        let back: LeaseReply = serde_json::from_str(&json).unwrap();
        assert_eq!(back, idle);
    }

    #[test]
    fn telemetry_display_surfaces_every_counter() {
        let mut telemetry = LeaseTelemetry {
            granted: 7,
            renewed: 4,
            expired: 1,
            reinjected: 1,
            stale_rejected: 1,
            completed: 6,
            per_worker: BTreeMap::new(),
        };
        telemetry.per_worker.insert("w1".to_string(), 4);
        telemetry.per_worker.insert("w2".to_string(), 2);
        let text = telemetry.to_string();
        for needle in [
            "granted 7",
            "renewed 4",
            "expired 1",
            "reinjected 1",
            "stale-rejected 1",
            "completed 6",
            "w1=4",
            "w2=2",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in {text:?}");
        }
        let json = serde_json::to_string(&telemetry).unwrap();
        let back: LeaseTelemetry = serde_json::from_str(&json).unwrap();
        assert_eq!(back, telemetry);
    }
}
