//! Multi-process distributed sweeps: a coordinator serving shard leases
//! over the wire protocol of [`qosrm_proto`], and the worker loop that
//! drains it.
//!
//! The [`Coordinator`] is a thin concurrency shell around the durable
//! [`ShardScheduler`] of [`crate::stream`] — every grant, heartbeat, and
//! completion lands in the run directory's `manifest.json`, so a SIGKILLed
//! coordinator can be reopened over the same directory and live workers
//! simply keep going (their unexpired leases are restored). Workers
//! evaluate grants with the same `SweepEngine` the
//! single-process path uses and deliver JSONL outcome logs back over
//! `POST /shards/{id}/complete`; the scheduler writes them through
//! `simdb::persist`, so `sweep merge` of a distributed run is
//! byte-identical to a single-process run of the same spec.
//!
//! Three deployment shapes share this module:
//!
//! * **offline multi-process** — `sweep coordinate` serves a directory
//!   ([`serve_coordinator`]), `sweep work` processes drain it
//!   ([`run_worker`]);
//! * **daemon** — `qosrm_serve` opens a [`Coordinator`] per run and mounts
//!   the same endpoints on its own listener, with its in-process workers
//!   and external `qosrm_worker` processes drawing from one queue;
//! * **in-process** — benches and tests drive [`Coordination`] directly,
//!   with explicit clocks and no sockets.

use crate::context::ExperimentContext;
use crate::spec::ScenarioSpec;
use crate::stream::{self, LeaseCounters, ShardScheduler, SweepManifest, MANIFEST_FILE};
use crate::sweep::{grid_points, mix_pairs, GridPoint, SweepEngine, SweepOptions};
use crate::sync::LockUnpoisoned;
use qosrm_proto::http::{
    check_proto_version, read_request, write_error, write_json, Request, RequestError, WireError,
    PROTO_VERSION, PROTO_VERSION_HEADER,
};
use qosrm_proto::{
    CompleteReply, CompleteRequest, CoordStatus, HeartbeatReply, HeartbeatRequest, LeaseGrant,
    LeaseReply, LeaseRequest, LeaseTelemetry,
};
use qosrm_types::QosrmError;
use serde::Serialize;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// Body bound of coordination requests. Completions carry whole shard logs,
/// so this is far above the daemon's default submission payload cap.
pub const MAX_COMPLETE_BYTES: usize = 64 * 1024 * 1024;

/// Milliseconds since the Unix epoch, the coordinator's lease clock.
pub fn unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Tuning of a [`Coordinator`].
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Scenarios per shard when the directory is fresh.
    pub shard_size: usize,
    /// Lease duration; workers heartbeat at a third of it.
    pub lease_ms: u64,
    /// Retry hint handed to workers when nothing is pending right now.
    pub retry_ms: u64,
    /// Ask workers to evaluate serially (deterministic counter sequencing
    /// for benchmarks; memoization stays on).
    pub serial: bool,
    /// Log grants, completions, and reinjections to stderr.
    pub verbose: bool,
    /// Worker-id prefix whose live leases are reclaimed (forced to expire)
    /// at open. The daemon names its in-process workers with a fixed
    /// prefix; those leases cannot outlive the daemon process, so a
    /// restarted daemon reinjects them immediately instead of waiting out
    /// `lease_ms` — while *external* workers' leases survive the restart.
    /// Empty (the default) reclaims nothing.
    pub reclaim_prefix: String,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            shard_size: 32,
            lease_ms: 10_000,
            retry_ms: 250,
            serial: false,
            verbose: false,
            reclaim_prefix: String::new(),
        }
    }
}

/// The lease-granting side of a distributed sweep: a [`ShardScheduler`]
/// over one run directory, shared across connection threads.
pub struct Coordinator {
    run: String,
    spec_json: String,
    quick: bool,
    config: CoordinatorConfig,
    counters: Arc<LeaseCounters>,
    scheduler: Mutex<ShardScheduler>,
}

impl Coordinator {
    /// Opens (creating or resuming) the run directory `dir` for `spec`.
    ///
    /// A fresh directory gets a manifest; an existing one is adopted after
    /// checking that its spec and quick mode match — a coordinator restart
    /// must continue the same sweep, not silently start a different one.
    /// Unexpired leases survive the reopen; expired (and single-process
    /// `"local"`) leases are reinjected.
    pub fn open(
        run: &str,
        spec: &ScenarioSpec,
        quick: bool,
        dir: &Path,
        config: &CoordinatorConfig,
        counters: Arc<LeaseCounters>,
    ) -> Result<Coordinator, QosrmError> {
        let spec_json = serde_json::to_string(spec).map_err(|e| QosrmError::Io(e.to_string()))?;
        let mut manifest = if dir.join(MANIFEST_FILE).exists() {
            let manifest = SweepManifest::load(dir)?;
            if manifest.quick != quick {
                return Err(QosrmError::Io(format!(
                    "run at {} was started in {} mode but the coordinator is in {} mode",
                    dir.display(),
                    if manifest.quick { "quick" } else { "full" },
                    if quick { "quick" } else { "full" },
                )));
            }
            let existing =
                serde_json::to_string(&manifest.spec).map_err(|e| QosrmError::Io(e.to_string()))?;
            if existing != spec_json {
                return Err(QosrmError::Io(format!(
                    "run at {} embeds a different spec ({:?}); refusing to mix sweeps \
                     in one directory",
                    dir.display(),
                    manifest.spec.name,
                )));
            }
            manifest
        } else {
            stream::init_manifest(spec, quick, dir, config.shard_size)?
        };
        if !config.reclaim_prefix.is_empty() {
            // Leases held by this process family's own (dead) workers are
            // forced to expire so the scheduler reinjects them at open.
            for record in &mut manifest.leases {
                if !record.done
                    && record.epoch > 0
                    && record.worker.starts_with(&config.reclaim_prefix)
                {
                    record.expires_ms = 0;
                }
            }
        }
        let scheduler = ShardScheduler::open(
            manifest,
            dir,
            config.shard_size,
            config.lease_ms,
            counters.clone(),
            false,
            unix_ms(),
        )?;
        Ok(Coordinator {
            run: run.to_string(),
            spec_json,
            quick,
            config: config.clone(),
            counters,
            scheduler: Mutex::new(scheduler),
        })
    }

    /// The run identifier workers echo back on every request.
    pub fn run(&self) -> &str {
        &self.run
    }

    /// Whether every scenario has a durable outcome.
    pub fn finished(&self) -> bool {
        self.scheduler.lock_unpoisoned().finished()
    }

    /// `(completed, total)` scenarios.
    pub fn progress(&self) -> (usize, usize) {
        let scheduler = self.scheduler.lock_unpoisoned();
        (scheduler.manifest().completed_scenarios, scheduler.total())
    }

    /// A snapshot of the lease-protocol counters.
    pub fn telemetry(&self) -> LeaseTelemetry {
        self.counters.snapshot()
    }

    /// The `GET /status` snapshot.
    pub fn status(&self) -> CoordStatus {
        let (completed, total) = self.progress();
        CoordStatus {
            run: self.run.clone(),
            quick: self.quick,
            completed: completed as u64,
            total: total as u64,
            finished: completed >= total,
            leases: self.telemetry(),
        }
    }

    fn log(&self, line: &str) {
        if self.config.verbose {
            eprintln!("[coordinator] {line}");
        }
    }

    /// Leases the next pending shard to `worker` (reinjecting any leases
    /// that expired first).
    pub fn lease_shard(&self, worker: &str) -> Result<LeaseReply, QosrmError> {
        let mut scheduler = self.scheduler.lock_unpoisoned();
        let reinjected_before = self.counters.snapshot().reinjected;
        let lease = scheduler.lease(worker, unix_ms())?;
        let reinjected = self.counters.snapshot().reinjected - reinjected_before;
        if reinjected > 0 {
            self.log(&format!(
                "{reinjected} expired lease(s) reinjected into the pending queue"
            ));
        }
        Ok(match lease {
            Some(lease) => {
                self.log(&format!(
                    "shard {} epoch {} -> {worker} ({} scenario(s))",
                    lease.shard,
                    lease.epoch,
                    lease.points.len()
                ));
                LeaseReply {
                    grant: Some(LeaseGrant {
                        run: self.run.clone(),
                        shard: lease.shard,
                        epoch: lease.epoch,
                        lease_ms: self.config.lease_ms,
                        expires_ms: lease.expires_ms,
                        spec_json: self.spec_json.clone(),
                        quick: self.quick,
                        points: lease.points,
                        serial: self.config.serial,
                    }),
                    finished: false,
                    retry_ms: 0,
                }
            }
            None => LeaseReply {
                grant: None,
                finished: scheduler.finished(),
                retry_ms: self.config.retry_ms,
            },
        })
    }

    /// Renews a held lease.
    pub fn renew(&self, request: &HeartbeatRequest) -> Result<HeartbeatReply, QosrmError> {
        let mut scheduler = self.scheduler.lock_unpoisoned();
        let renewed =
            scheduler.heartbeat(&request.worker, request.shard, request.epoch, unix_ms())?;
        Ok(HeartbeatReply {
            renewed: renewed.is_some(),
            expires_ms: renewed.unwrap_or(0),
        })
    }

    /// Delivers a finished shard's log; stale epochs are rejected and
    /// their log dropped.
    pub fn deliver(&self, request: &CompleteRequest) -> Result<CompleteReply, QosrmError> {
        let mut scheduler = self.scheduler.lock_unpoisoned();
        let outcome = scheduler.complete(
            &request.worker,
            request.shard,
            request.epoch,
            &request.outcomes_jsonl,
            request.curve_hits,
            request.curve_misses,
            unix_ms(),
        )?;
        if outcome.accepted {
            self.log(&format!(
                "shard {} completed by {} ({}/{} scenarios done)",
                request.shard,
                request.worker,
                scheduler.manifest().completed_scenarios,
                scheduler.total(),
            ));
        } else {
            self.log(&format!(
                "stale completion of shard {} epoch {} from {} rejected",
                request.shard, request.epoch, request.worker
            ));
        }
        Ok(CompleteReply {
            accepted: outcome.accepted,
            stale: outcome.stale,
            finished: scheduler.finished(),
        })
    }
}

/// The lease/heartbeat/complete surface a worker drains — implemented by
/// [`Coordinator`] (in-process) and [`WorkerClient`] (over the wire), so
/// the worker loop and the daemon's internal workers share one code path.
pub trait Coordination {
    /// Requests a shard lease for `worker` (from `run`, or any run when
    /// empty).
    fn lease(&self, worker: &str, run: &str) -> Result<LeaseReply, QosrmError>;
    /// Renews a held lease.
    fn heartbeat(&self, request: &HeartbeatRequest) -> Result<HeartbeatReply, QosrmError>;
    /// Delivers a finished shard's log.
    fn complete(&self, request: &CompleteRequest) -> Result<CompleteReply, QosrmError>;
}

impl Coordination for Coordinator {
    fn lease(&self, worker: &str, run: &str) -> Result<LeaseReply, QosrmError> {
        if !run.is_empty() && run != self.run {
            return Err(QosrmError::Io(format!(
                "this coordinator serves run {:?}, not {run:?}",
                self.run
            )));
        }
        self.lease_shard(worker)
    }

    fn heartbeat(&self, request: &HeartbeatRequest) -> Result<HeartbeatReply, QosrmError> {
        self.renew(request)
    }

    fn complete(&self, request: &CompleteRequest) -> Result<CompleteReply, QosrmError> {
        self.deliver(request)
    }
}

/// Evaluates the grid points `indices` (into `spec`'s canonical point
/// order) and returns `(outcomes_jsonl, curve_hits, curve_misses)` — the
/// exact payload of a [`CompleteRequest`]. The single public seam between
/// the wire protocol and the sweep engine; the single-process path,
/// workers, the daemon, and the tests all produce shard logs through the
/// same engine, which is what keeps distributed merges byte-identical.
pub fn evaluate_points(
    ctx: &ExperimentContext,
    spec: &ScenarioSpec,
    indices: &[u64],
    options: SweepOptions,
) -> Result<(String, u64, u64), QosrmError> {
    let grid = spec.lower()?;
    let points = grid_points(&grid);
    let chunk: Vec<GridPoint> = indices
        .iter()
        .map(|&idx| {
            points.get(idx as usize).copied().ok_or_else(|| {
                QosrmError::Io(format!(
                    "grid point index {idx} is out of range for spec {:?} ({} points); \
                     coordinator and worker disagree on the spec",
                    spec.name,
                    points.len()
                ))
            })
        })
        .collect::<Result<_, QosrmError>>()?;
    let engine = SweepEngine::new(&grid, ctx, options);
    let units = engine.build_units(&mix_pairs(&chunk));
    let cache = ctx.curve_cache();
    let (hits_before, misses_before) = (cache.hits(), cache.misses());
    let outcomes = engine.evaluate_all(&units, &chunk);
    drop(units);
    let mut log = String::new();
    for outcome in &outcomes {
        log.push_str(&serde_json::to_string(outcome).map_err(|e| QosrmError::Io(e.to_string()))?);
        log.push('\n');
    }
    Ok((
        log,
        cache.hits() - hits_before,
        cache.misses() - misses_before,
    ))
}

/// Evaluates one grant's points, heartbeating the lease from a side thread
/// the whole time. Returns the [`CompleteRequest`] payload; a lost lease
/// does not abort the evaluation — the completion is simply delivered and
/// resolved (accepted or stale) by epoch at the coordinator.
pub fn evaluate_grant<C: Coordination + Sync>(
    coordination: &C,
    worker: &str,
    grant: &LeaseGrant,
    ctx: &ExperimentContext,
) -> Result<(String, u64, u64), QosrmError> {
    let spec: ScenarioSpec = serde_json::from_str(&grant.spec_json)
        .map_err(|e| QosrmError::Io(format!("grant carries an unparsable spec: {e}")))?;
    let options = SweepOptions {
        parallel: !grant.serial,
        ..SweepOptions::default()
    };
    let stop = AtomicBool::new(false);
    let heartbeat = HeartbeatRequest {
        worker: worker.to_string(),
        run: grant.run.clone(),
        shard: grant.shard,
        epoch: grant.epoch,
    };
    let interval = Duration::from_millis((grant.lease_ms / 3).max(50));
    thread::scope(|scope| {
        scope.spawn(|| {
            let tick = Duration::from_millis(25);
            let mut elapsed = Duration::ZERO;
            while !stop.load(Ordering::Relaxed) {
                thread::sleep(tick);
                elapsed += tick;
                if elapsed >= interval {
                    elapsed = Duration::ZERO;
                    // Transport hiccups and lost leases are both fine to
                    // ignore here: the completion is resolved by epoch.
                    let _ = coordination.heartbeat(&heartbeat);
                }
            }
        });
        // Contain evaluation panics (e.g. an exceeded event budget deep in
        // the engine): an escaping unwind would skip the stop-flag store
        // and leave the heartbeat thread spinning forever in the scope's
        // implicit join, hanging the worker instead of failing the run.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            evaluate_points(ctx, &spec, &grant.points, options)
        }));
        stop.store(true, Ordering::Relaxed);
        result.unwrap_or_else(|panic| {
            let message = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Err(QosrmError::Io(format!(
                "shard evaluation panicked: {message}"
            )))
        })
    })
}

/// Tuning of a worker process.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Worker identity (appears in telemetry and coordinator logs).
    pub worker: String,
    /// Run to draw from; empty means "any run" (daemon mode).
    pub run: String,
    /// Fallback poll interval when the coordinator grants nothing and
    /// offers no retry hint.
    pub poll_ms: u64,
    /// Artificial pause between evaluating a shard and delivering its
    /// completion (0 in production; the kill-window of the dist smoke).
    pub shard_delay_ms: u64,
    /// Transport-level retries per request before the worker gives up on
    /// the coordinator.
    pub transport_retries: u32,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        WorkerConfig {
            worker: format!("worker-{}", std::process::id()),
            run: String::new(),
            poll_ms: 200,
            shard_delay_ms: 0,
            transport_retries: 25,
        }
    }
}

/// What a worker accomplished before the coordinator reported the run
/// finished.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerReport {
    /// Shard completions accepted.
    pub shards_completed: u64,
    /// Completions rejected as stale (the shard was reinjected and won by
    /// someone else).
    pub shards_stale: u64,
    /// Scenarios evaluated (including those of stale shards).
    pub scenarios: u64,
}

/// Runs the worker loop against the coordinator at `addr` until the run
/// finishes, building one [`ExperimentContext`] per database mode on
/// demand.
pub fn run_worker(addr: &str, config: &WorkerConfig) -> Result<WorkerReport, QosrmError> {
    let mut contexts: HashMap<bool, Arc<ExperimentContext>> = HashMap::new();
    run_worker_with(addr, config, &mut |quick| {
        contexts
            .entry(quick)
            .or_insert_with(|| Arc::new(ExperimentContext::new(quick)))
            .clone()
    })
}

/// [`run_worker`] with caller-supplied contexts (benches share one warm
/// context across several worker threads).
pub fn run_worker_with(
    addr: &str,
    config: &WorkerConfig,
    ctx_for: &mut dyn FnMut(bool) -> Arc<ExperimentContext>,
) -> Result<WorkerReport, QosrmError> {
    let client = WorkerClient::new(addr, config.transport_retries);
    let mut report = WorkerReport::default();
    loop {
        let reply = client.lease(&config.worker, &config.run)?;
        let Some(grant) = reply.grant else {
            if reply.finished {
                return Ok(report);
            }
            let wait = if reply.retry_ms > 0 {
                reply.retry_ms
            } else {
                config.poll_ms
            };
            thread::sleep(Duration::from_millis(wait.max(10)));
            continue;
        };
        let ctx = ctx_for(grant.quick);
        let (outcomes_jsonl, curve_hits, curve_misses) =
            evaluate_grant(&client, &config.worker, &grant, &ctx)?;
        if config.shard_delay_ms > 0 {
            thread::sleep(Duration::from_millis(config.shard_delay_ms));
        }
        let delivered = client.complete(&CompleteRequest {
            worker: config.worker.clone(),
            run: grant.run.clone(),
            shard: grant.shard,
            epoch: grant.epoch,
            outcomes_jsonl,
            curve_hits,
            curve_misses,
        })?;
        report.scenarios += grant.points.len() as u64;
        if delivered.accepted {
            report.shards_completed += 1;
        } else {
            report.shards_stale += 1;
        }
    }
}

/// Blocking wire client of the coordination endpoints. Transport errors
/// retry with backoff (a coordinator restart is survivable mid-run); typed
/// rejections — above all a protocol-version mismatch — fail fast.
pub struct WorkerClient {
    addr: String,
    transport_retries: u32,
    timeout: Duration,
}

impl WorkerClient {
    /// A client of the coordinator at `addr` (`host:port`).
    pub fn new(addr: &str, transport_retries: u32) -> Self {
        WorkerClient {
            addr: addr.to_string(),
            transport_retries,
            timeout: Duration::from_secs(120),
        }
    }

    /// Fetches the coordinator's `GET /status` snapshot.
    pub fn status(&self) -> Result<CoordStatus, QosrmError> {
        self.call_raw("GET", "/status", String::new())
    }

    fn call<B: Serialize, R: serde::Deserialize>(
        &self,
        method: &str,
        path: &str,
        body: &B,
    ) -> Result<R, QosrmError> {
        let payload = serde_json::to_string(body).map_err(|e| QosrmError::Io(e.to_string()))?;
        self.call_raw(method, path, payload)
    }

    fn call_raw<R: serde::Deserialize>(
        &self,
        method: &str,
        path: &str,
        payload: String,
    ) -> Result<R, QosrmError> {
        let mut last_error = String::new();
        for attempt in 0..self.transport_retries.max(1) {
            if attempt > 0 {
                thread::sleep(Duration::from_millis(200));
            }
            match self.exchange(method, path, &payload) {
                Ok((status, text)) if status < 400 => {
                    return serde_json::from_str(&text).map_err(|e| {
                        QosrmError::Io(format!("unparsable coordinator reply on {path}: {e}"))
                    });
                }
                Ok((status, text)) => {
                    // Typed rejection: not a transport problem, do not retry.
                    let detail = serde_json::from_str::<WireError>(&text)
                        .map(|e| format!("{}: {}", e.error.kind, e.error.message))
                        .unwrap_or(text);
                    return Err(QosrmError::Io(format!(
                        "coordinator rejected {method} {path} ({status}): {detail}"
                    )));
                }
                Err(e) => last_error = e,
            }
        }
        Err(QosrmError::Io(format!(
            "coordinator at {} unreachable after {} attempt(s) on {method} {path}: {last_error}",
            self.addr,
            self.transport_retries.max(1)
        )))
    }

    fn exchange(&self, method: &str, path: &str, payload: &str) -> Result<(u16, String), String> {
        let stream = TcpStream::connect(&self.addr).map_err(|e| e.to_string())?;
        stream.set_read_timeout(Some(self.timeout)).ok();
        stream.set_write_timeout(Some(self.timeout)).ok();
        let mut stream = stream;
        let head = format!(
            "{method} {path} HTTP/1.0\r\nHost: qosrm\r\n{PROTO_VERSION_HEADER}: {PROTO_VERSION}\r\n\
             Content-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            payload.len()
        );
        stream
            .write_all(head.as_bytes())
            .map_err(|e| e.to_string())?;
        stream
            .write_all(payload.as_bytes())
            .map_err(|e| e.to_string())?;
        stream.flush().map_err(|e| e.to_string())?;
        stream.shutdown(std::net::Shutdown::Write).ok();
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).map_err(|e| e.to_string())?;
        let text = String::from_utf8_lossy(&raw);
        let (head, body) = text
            .split_once("\r\n\r\n")
            .ok_or_else(|| "response has no header/body separator".to_string())?;
        let status = head
            .lines()
            .next()
            .and_then(|line| line.split_whitespace().nth(1))
            .and_then(|code| code.parse::<u16>().ok())
            .ok_or_else(|| format!("unparsable status line in {head:?}"))?;
        Ok((status, body.to_string()))
    }
}

impl Coordination for WorkerClient {
    fn lease(&self, worker: &str, run: &str) -> Result<LeaseReply, QosrmError> {
        self.call(
            "POST",
            "/lease",
            &LeaseRequest {
                worker: worker.to_string(),
                run: run.to_string(),
            },
        )
    }

    fn heartbeat(&self, request: &HeartbeatRequest) -> Result<HeartbeatReply, QosrmError> {
        self.call("POST", "/heartbeat", request)
    }

    fn complete(&self, request: &CompleteRequest) -> Result<CompleteReply, QosrmError> {
        self.call(
            "POST",
            &format!("/shards/{}/complete", request.shard),
            request,
        )
    }
}

/// A running coordinator listener (see [`serve_coordinator`]).
pub struct CoordinatorServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl CoordinatorServer {
    /// The bound address (useful with an ephemeral port 0 bind).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting and joins the listener thread. Connection threads
    /// finish their in-flight request.
    pub fn stop(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Mounts `coordinator` on a listener at `addr` (`host:port`, port 0 for
/// ephemeral) and serves the coordination endpoints until
/// [`CoordinatorServer::stop`]:
///
/// | Request | Body | Meaning |
/// |---|---|---|
/// | `POST /lease` | [`LeaseRequest`] | lease the next pending shard |
/// | `POST /heartbeat` | [`HeartbeatRequest`] | renew a held lease |
/// | `POST /shards/{id}/complete` | [`CompleteRequest`] | deliver a shard log |
/// | `GET /status` | — | [`CoordStatus`] snapshot |
/// | `GET /healthz` | — | liveness |
///
/// Every `POST` requires the [`PROTO_VERSION_HEADER`] header; a missing or
/// mismatched version is answered with a typed `ProtocolMismatch` error.
pub fn serve_coordinator(
    addr: &str,
    coordinator: Arc<Coordinator>,
) -> Result<CoordinatorServer, QosrmError> {
    let listener = TcpListener::bind(addr)
        .map_err(|e| QosrmError::Io(format!("cannot bind coordinator listener at {addr}: {e}")))?;
    let local = listener
        .local_addr()
        .map_err(|e| QosrmError::Io(e.to_string()))?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let accept_shutdown = shutdown.clone();
    let handle = thread::spawn(move || {
        for stream in listener.incoming() {
            if accept_shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let coordinator = coordinator.clone();
            thread::spawn(move || {
                let mut stream = stream;
                handle_coordination_connection(&mut stream, &coordinator);
            });
        }
    });
    Ok(CoordinatorServer {
        addr: local,
        shutdown,
        handle: Some(handle),
    })
}

fn handle_coordination_connection(stream: &mut TcpStream, coordinator: &Arc<Coordinator>) {
    let request = match read_request(stream, MAX_COMPLETE_BYTES) {
        Ok(request) => request,
        Err(RequestError::Closed) => return,
        Err(RequestError::TooLarge { limit }) => {
            let _ = write_error(
                stream,
                413,
                "Payload Too Large",
                &WireError::new(
                    "PayloadTooLarge",
                    format!("request exceeds the {limit}-byte bound"),
                ),
            );
            return;
        }
        Err(RequestError::Malformed(detail)) => {
            let _ = write_error(
                stream,
                400,
                "Bad Request",
                &WireError::new("MalformedRequest", detail),
            );
            return;
        }
    };
    let resolve = |run: &str| {
        if run.is_empty() || run == coordinator.run() {
            Resolution::Coordinated(coordinator.clone())
        } else {
            Resolution::Unknown
        }
    };
    if let Ok(false) = respond_coordination(stream, &request, &resolve) {
        let _ = write_error(
            stream,
            404,
            "Not Found",
            &WireError::new("NotFound", format!("no such endpoint: {}", request.path)),
        );
    }
}

/// What a run id a coordination request names resolves to.
///
/// The standalone listener only ever answers `Coordinated` (its single
/// coordinator) or `Unknown` (a mismatched run id — fail fast, the worker
/// is pointed at the wrong coordinator). The daemon additionally knows
/// about runs *around* their coordinated phase: `Pending` (admitted but
/// not yet claimed by a worker — retry soon) and `Finished` (terminal; the
/// coordinator is gone and the worker should stop).
pub enum Resolution {
    /// A live coordinator serves this run.
    Coordinated(Arc<Coordinator>),
    /// The run exists but is not coordinated *yet*; workers should retry.
    Pending,
    /// The run reached a terminal state; workers should stop draining it.
    Finished,
    /// No such run.
    Unknown,
}

/// Routes one parsed coordination request, returning `Ok(false)` when the
/// request matched none of the coordination endpoints (so an embedding
/// dispatcher — the daemon — can fall through to its own routes or a 404).
///
/// `resolve` maps the run id a request names to a [`Resolution`]; the
/// empty string means "any run with pending work". Uncoordinated
/// resolutions keep workers well-behaved: a `Pending` (or any-run
/// `Unknown`) lease is told to retry, a `Finished` lease is told the run
/// is done, a named-run `Unknown` lease is a typed `RunNotFound`, an
/// uncoordinated heartbeat is answered "lease dead", and an uncoordinated
/// completion is answered "stale" — the run finished (or died) without
/// this shard, so the log is dropped.
pub fn respond_coordination(
    stream: &mut TcpStream,
    request: &Request,
    resolve: &dyn Fn(&str) -> Resolution,
) -> std::io::Result<bool> {
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    match (request.method.as_str(), segments.as_slice()) {
        ("POST", ["lease"]) => {
            if let Err(error) = check_proto_version(request) {
                return write_error(stream, 400, "Bad Request", &error).map(|_| true);
            }
            let body: LeaseRequest = match parse_body(&request.body) {
                Ok(body) => body,
                Err(error) => return write_error(stream, 400, "Bad Request", &error).map(|_| true),
            };
            let idle = |finished: bool| LeaseReply {
                grant: None,
                finished,
                retry_ms: 500,
            };
            match resolve(&body.run) {
                Resolution::Coordinated(coordinator) => {
                    reply_json(stream, coordinator.lease_shard(&body.worker)).map(|_| true)
                }
                Resolution::Pending => reply_json(stream, Ok(idle(false))).map(|_| true),
                Resolution::Finished => reply_json(stream, Ok(idle(true))).map(|_| true),
                Resolution::Unknown if body.run.is_empty() => {
                    reply_json(stream, Ok(idle(false))).map(|_| true)
                }
                Resolution::Unknown => write_error(
                    stream,
                    404,
                    "Not Found",
                    &WireError::new(
                        "RunNotFound",
                        format!("no coordinated run {:?} here", body.run),
                    ),
                )
                .map(|_| true),
            }
        }
        ("POST", ["heartbeat"]) => {
            if let Err(error) = check_proto_version(request) {
                return write_error(stream, 400, "Bad Request", &error).map(|_| true);
            }
            let body: HeartbeatRequest = match parse_body(&request.body) {
                Ok(body) => body,
                Err(error) => return write_error(stream, 400, "Bad Request", &error).map(|_| true),
            };
            match resolve(&body.run) {
                Resolution::Coordinated(coordinator) => {
                    reply_json(stream, coordinator.renew(&body)).map(|_| true)
                }
                _ => reply_json(
                    stream,
                    Ok(HeartbeatReply {
                        renewed: false,
                        expires_ms: 0,
                    }),
                )
                .map(|_| true),
            }
        }
        ("POST", ["shards", shard, "complete"]) => {
            if let Err(error) = check_proto_version(request) {
                return write_error(stream, 400, "Bad Request", &error).map(|_| true);
            }
            let body: CompleteRequest = match parse_body(&request.body) {
                Ok(body) => body,
                Err(error) => return write_error(stream, 400, "Bad Request", &error).map(|_| true),
            };
            if shard.parse::<u64>() != Ok(body.shard) {
                return write_error(
                    stream,
                    400,
                    "Bad Request",
                    &WireError::new(
                        "MalformedRequest",
                        format!("path names shard {shard} but the body names {}", body.shard),
                    ),
                )
                .map(|_| true);
            }
            match resolve(&body.run) {
                Resolution::Coordinated(coordinator) => {
                    reply_json(stream, coordinator.deliver(&body)).map(|_| true)
                }
                _ => reply_json(
                    stream,
                    Ok(CompleteReply {
                        accepted: false,
                        stale: true,
                        finished: true,
                    }),
                )
                .map(|_| true),
            }
        }
        ("GET", ["status"]) => match resolve("") {
            Resolution::Coordinated(coordinator) => {
                reply_json(stream, Ok(coordinator.status())).map(|_| true)
            }
            _ => write_error(
                stream,
                404,
                "Not Found",
                &WireError::new("RunNotFound", "no coordinated run is active"),
            )
            .map(|_| true),
        },
        ("GET", ["healthz"]) => write_json(stream, 200, "OK", "{\"ok\":true}").map(|_| true),
        _ => Ok(false),
    }
}

fn parse_body<T: serde::Deserialize>(body: &[u8]) -> Result<T, WireError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| WireError::new("MalformedRequest", "body is not UTF-8"))?;
    serde_json::from_str(text)
        .map_err(|e| WireError::new("MalformedRequest", format!("unparsable body: {e}")))
}

fn reply_json<T: Serialize>(
    stream: &mut TcpStream,
    result: Result<T, QosrmError>,
) -> std::io::Result<()> {
    match result {
        Ok(value) => {
            let body = serde_json::to_string(&value).unwrap_or_else(|_| "{}".to_string());
            write_json(stream, 200, "OK", &body)
        }
        Err(e) => write_error(
            stream,
            500,
            "Internal Server Error",
            &WireError::new("Internal", e.to_string()),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{PlatformAxisSpec, PlatformSpec, WorkloadSource};
    use crate::sweep::{QosAxis, RmaVariant};
    use qosrm_types::QosSpec;
    use std::path::PathBuf;
    use workload::{MixPopulation, SynthSpec};

    fn tiny_spec() -> ScenarioSpec {
        ScenarioSpec {
            name: "dist-test".to_string(),
            platforms: vec![PlatformAxisSpec {
                label: "p4".to_string(),
                platform: PlatformSpec::Paper1 { num_cores: 4 },
                workloads: WorkloadSource::Synth(SynthSpec {
                    seed: 3,
                    count: 3,
                    num_cores: 4,
                    population: MixPopulation::Mixed,
                    name_prefix: "s-".to_string(),
                }),
            }],
            qos: vec![QosAxis::uniform("strict", QosSpec::STRICT)],
            variants: vec![RmaVariant::Paper1],
            options: Some(rma_sim::SimulationOptions {
                provide_mlp_profiles: false,
                ..Default::default()
            }),
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("qosrm_dist_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn versionless_requests_fail_fast_with_a_typed_error() {
        let dir = temp_dir("version");
        let coordinator = Arc::new(
            Coordinator::open(
                "r-test",
                &tiny_spec(),
                true,
                &dir,
                &CoordinatorConfig::default(),
                Arc::new(LeaseCounters::default()),
            )
            .unwrap(),
        );
        let server = serve_coordinator("127.0.0.1:0", coordinator).unwrap();
        let addr = server.addr().to_string();

        // A hand-rolled request without the version header.
        let mut stream = TcpStream::connect(&addr).unwrap();
        let body = "{\"worker\":\"w\",\"run\":\"\"}";
        let head = format!(
            "POST /lease HTTP/1.0\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        );
        stream.write_all(head.as_bytes()).unwrap();
        stream.write_all(body.as_bytes()).unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).unwrap();
        let text = String::from_utf8_lossy(&raw);
        assert!(text.starts_with("HTTP/1.0 400"), "got {text:?}");
        assert!(text.contains("ProtocolMismatch"), "got {text:?}");

        // The versioned client is accepted.
        let client = WorkerClient::new(&addr, 3);
        let reply = client.lease("w", "").unwrap();
        assert!(reply.grant.is_some());
        server.stop();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wire_worker_drains_a_coordinator_to_a_mergeable_run() {
        let dir = temp_dir("drain");
        let config = CoordinatorConfig {
            shard_size: 2,
            ..Default::default()
        };
        let coordinator = Arc::new(
            Coordinator::open(
                "r-drain",
                &tiny_spec(),
                true,
                &dir,
                &config,
                Arc::new(LeaseCounters::default()),
            )
            .unwrap(),
        );
        let server = serve_coordinator("127.0.0.1:0", coordinator.clone()).unwrap();
        let addr = server.addr().to_string();
        let report = run_worker(
            &addr,
            &WorkerConfig {
                worker: "w1".to_string(),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(report.scenarios, 3);
        assert_eq!(report.shards_stale, 0);
        assert!(coordinator.finished());
        let telemetry = coordinator.telemetry();
        assert_eq!(telemetry.completed, report.shards_completed);
        assert_eq!(
            telemetry.per_worker.get("w1"),
            Some(&report.shards_completed)
        );
        server.stop();

        let merged = stream::merge(&dir).unwrap();
        assert_eq!(merged.scenarios.len(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }
}
