//! Multi-process distributed sweeps: a coordinator serving shard leases
//! over the wire protocol of [`qosrm_proto`], and the one loop that drains
//! shard leases everywhere ([`drain`]).
//!
//! The [`Coordinator`] is a thin concurrency shell around the durable
//! [`ShardScheduler`] of [`crate::stream`] — every grant, heartbeat, and
//! completion lands in the run directory's `manifest.json`, so a SIGKILLed
//! coordinator can be reopened over the same directory and live workers
//! simply keep going (their unexpired leases are restored). Workers
//! evaluate grants with [`evaluate_points`], the one shard evaluator, and
//! deliver JSONL outcome logs back over `POST /shards/{id}/complete`; the
//! scheduler writes them through `simdb::persist`, so `sweep merge` of a
//! distributed run is byte-identical to a single-process run of the same
//! spec.
//!
//! Every shard is drained by [`drain`] — lease, evaluate while
//! heartbeating, complete — over the [`Coordination`] trait. It has three
//! callers:
//!
//! * **local** — `sweep run`/`resume` ([`crate::stream::run`]) drain a
//!   clock-free [`Coordinator`] over their own directory as the single
//!   `"local"` worker;
//! * **offline multi-process** — `sweep coordinate` serves a directory
//!   ([`serve_coordinator`]), and `sweep work` / `qosrm_worker` processes
//!   drain it over the wire ([`run_worker`]);
//! * **daemon** — `qosrm_serve` opens a [`Coordinator`] per run, drains it
//!   from its worker pool and mounts the same endpoints on its own
//!   listener, so external `qosrm_worker` processes draw from the same
//!   queue.
//!
//! Both servers run on the one front end of [`qosrm_proto::http::serve`].
//!
//! No wait here is paced by a timer: a lease request with nothing to lease
//! is *held* on the coordinator's [`Signal`] ([`Coordinator::lease_shard`]).

use crate::context::ExperimentContext;
use crate::spec::ScenarioSpec;
use crate::stream::{
    self, LeaseCounters, ShardScheduler, StreamReport, SweepManifest, MANIFEST_FILE,
};
use crate::sweep::{grid_points, mix_pairs, GridPoint, SweepEngine, SweepOptions};
use crate::sync::{LockUnpoisoned, Signal};
use qosrm_proto::http::{
    self, check_proto_version, write_error, write_json, ExchangeError, HttpServer, Request, Routes,
    WireError,
};
use qosrm_proto::{
    CompleteReply, CompleteRequest, CoordStatus, HeartbeatReply, HeartbeatRequest, LeaseGrant,
    LeaseReply, LeaseRequest, LeaseTelemetry,
};
use qosrm_types::QosrmError;
use serde::Serialize;
use std::collections::HashMap;
use std::net::{TcpListener, TcpStream};
use std::ops::Deref;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// Body bound of coordination requests. Completions carry whole shard logs,
/// so this is far above the daemon's default submission payload cap.
pub const MAX_COMPLETE_BYTES: usize = 64 * 1024 * 1024;

/// The longest a lease request is held before it is answered without a
/// grant — far inside [`WorkerClient`]'s 120 s read timeout.
pub const LEASE_HOLD: Duration = Duration::from_secs(5);

/// Milliseconds since the Unix epoch, the coordinator's lease clock.
pub fn unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Tuning of a [`Coordinator`] (none of it paces a wait).
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Scenarios per shard when the directory is fresh.
    pub shard_size: usize,
    /// Lease duration; workers heartbeat at a third of it.
    pub lease_ms: u64,
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
            verbose: false,
            reclaim_prefix: String::new(),
        }
    }
}

/// What coordinators share: the lease-protocol counters and the change
/// signal their held lease requests wait on. A daemon shares one across
/// all of its runs; every other caller opens a coordinator over a fresh
/// one (`Arc::default()`).
#[derive(Debug, Default)]
pub struct CoordinatorHub {
    /// Lease-protocol telemetry.
    pub counters: Arc<LeaseCounters>,
    /// Bumped by every accepted completion (and by whatever else the
    /// sharing daemon wants held requests to see).
    pub signal: Signal,
}

/// The lease-granting side of a sweep: a [`ShardScheduler`] over one run
/// directory, shared across connection threads, with the lease clock it
/// reads and the hub its held lease requests wait on.
pub struct Coordinator {
    run: String,
    spec_json: String,
    quick: bool,
    config: CoordinatorConfig,
    hub: Arc<CoordinatorHub>,
    scheduler: Mutex<ShardScheduler>,
    /// Milliseconds "now": [`unix_ms`] for a served run, a constant 0 for
    /// the local executor, whose leases never expire.
    clock: fn() -> u64,
    closed: AtomicBool,
}

impl Coordinator {
    /// Opens (creating or resuming) the run directory `dir` for `spec`.
    ///
    /// A fresh directory gets a manifest; an existing one is adopted after
    /// checking that its spec and quick mode match — a coordinator restart
    /// must continue the same sweep, not silently start a different one.
    /// Unexpired leases survive the reopen; expired (and single-process
    /// `"local"`) leases are reinjected. Every accepted completion bumps
    /// the `hub`'s signal.
    pub fn open(
        run: &str,
        spec: &ScenarioSpec,
        quick: bool,
        dir: &Path,
        config: &CoordinatorConfig,
        hub: Arc<CoordinatorHub>,
    ) -> Result<Coordinator, QosrmError> {
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
            let to_json = |spec: &ScenarioSpec| {
                serde_json::to_string(spec).map_err(|e| QosrmError::Io(e.to_string()))
            };
            if to_json(&manifest.spec)? != to_json(spec)? {
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
        Self::over(run, manifest, dir, config, hub, false)
    }

    /// The local executor's coordinator over `dir`: it never reads a clock,
    /// grants [`stream::LOCAL_LEASE_MS`] leases, and reclaims every lease at
    /// open (its one worker is the calling thread), so a lease it cannot
    /// grant means the run is finished and is never held.
    pub(crate) fn local(
        manifest: SweepManifest,
        dir: &Path,
        shard_size: usize,
    ) -> Result<Coordinator, QosrmError> {
        let config = CoordinatorConfig {
            shard_size,
            lease_ms: stream::LOCAL_LEASE_MS,
            ..Default::default()
        };
        let run = manifest.spec.name.clone();
        Self::over(&run, manifest, dir, &config, Arc::default(), true)
    }

    fn over(
        run: &str,
        manifest: SweepManifest,
        dir: &Path,
        config: &CoordinatorConfig,
        hub: Arc<CoordinatorHub>,
        local: bool,
    ) -> Result<Coordinator, QosrmError> {
        let clock: fn() -> u64 = if local { || 0 } else { unix_ms };
        let spec_json =
            serde_json::to_string(&manifest.spec).map_err(|e| QosrmError::Io(e.to_string()))?;
        let quick = manifest.quick;
        let scheduler = ShardScheduler::open(
            manifest,
            dir,
            config.shard_size,
            config.lease_ms,
            hub.counters.clone(),
            local,
            clock(),
        )?;
        Ok(Coordinator {
            run: run.to_string(),
            spec_json,
            quick,
            config: config.clone(),
            hub,
            scheduler: Mutex::new(scheduler),
            clock,
            closed: AtomicBool::new(false),
        })
    }

    /// The local executor's report after `shards_run` completions.
    pub(crate) fn stream_report(&self, shards_run: usize) -> StreamReport {
        self.scheduler.lock_unpoisoned().report(shards_run)
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
        self.hub.counters.snapshot()
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

    /// The change signal lease requests are held on.
    pub fn signal(&self) -> &Signal {
        &self.hub.signal
    }

    /// Stops holding lease requests. The daemon closes a coordinator (on
    /// cancel or shutdown) before it bumps the signal, so a worker whose
    /// stop check raced the bump is not held past it.
    pub fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
    }

    /// Leases the next pending shard to `worker` (reinjecting any leases
    /// that expired first). With nothing to lease in an unfinished run, the
    /// request is held — without the scheduler lock — until the signal
    /// moves or the earliest live lease expires, at most [`LEASE_HOLD`],
    /// then tried once more and answered, possibly still without a grant.
    pub fn lease_shard(&self, worker: &str) -> Result<LeaseReply, QosrmError> {
        // Generation first: a completion after the attempt moves it.
        let seen = self.hub.signal.generation();
        let reply = self.try_lease(worker)?;
        if reply.grant.is_some() || reply.finished || self.closed.load(Ordering::SeqCst) {
            return Ok(reply);
        }
        let expiry = self.scheduler.lock_unpoisoned().earliest_expiry();
        // Saturating: the local executor's leases expire near `u64::MAX / 4`.
        let until = expiry.map_or(u64::MAX, |at| at.saturating_sub((self.clock)()));
        self.hub
            .signal
            .wait_past(seen, LEASE_HOLD.min(Duration::from_millis(until)));
        self.try_lease(worker)
    }

    /// One scheduler lease attempt, logging what it reinjected and granted.
    fn try_lease(&self, worker: &str) -> Result<LeaseReply, QosrmError> {
        let mut scheduler = self.scheduler.lock_unpoisoned();
        let reinjected_before = self.hub.counters.snapshot().reinjected;
        let lease = scheduler.lease(worker, (self.clock)())?;
        let reinjected = self.hub.counters.snapshot().reinjected - reinjected_before;
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
                    }),
                    finished: false,
                }
            }
            None => LeaseReply {
                grant: None,
                finished: scheduler.finished(),
            },
        })
    }
}

/// The lease/heartbeat/complete surface a worker drains — implemented by
/// [`Coordinator`] (in-process) and [`WorkerClient`] (over the wire), so
/// the worker loop and the daemon's internal workers share one code path.
pub trait Coordination {
    /// Requests a shard lease for `worker` (from `run`, or any run when
    /// empty). A coordinator holds the request while nothing is pending
    /// ([`Coordinator::lease_shard`]); a reply with neither a grant nor
    /// `finished` means "ask again".
    fn lease(&self, worker: &str, run: &str) -> Result<LeaseReply, QosrmError>;
    /// Renews a held lease.
    fn heartbeat(&self, request: &HeartbeatRequest) -> Result<HeartbeatReply, QosrmError>;
    /// Delivers a finished shard's log; stale epochs are rejected and their
    /// log dropped.
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
        let mut scheduler = self.scheduler.lock_unpoisoned();
        let renewed = scheduler.heartbeat(
            &request.worker,
            request.shard,
            request.epoch,
            (self.clock)(),
        )?;
        Ok(HeartbeatReply {
            renewed: renewed.is_some(),
            expires_ms: renewed.unwrap_or(0),
        })
    }

    fn complete(&self, request: &CompleteRequest) -> Result<CompleteReply, QosrmError> {
        let mut scheduler = self.scheduler.lock_unpoisoned();
        let outcome = scheduler.complete(
            &request.worker,
            request.shard,
            request.epoch,
            &request.outcomes_jsonl,
            request.curve_hits,
            request.curve_misses,
            (self.clock)(),
        )?;
        if outcome.accepted {
            self.log(&format!(
                "shard {} completed by {} ({}/{} scenarios done)",
                request.shard,
                request.worker,
                scheduler.manifest().completed_scenarios,
                scheduler.total(),
            ));
            // Held lease requests try again: the run may be finished now.
            self.hub.signal.bump();
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

/// Runs `work` while heartbeating `request`'s lease from a side thread
/// every third of `lease_ms` (at least every 50 ms). The side thread waits
/// on a [`Signal`] that the end of `work` bumps, so the helper returns as
/// soon as `work` does and no heartbeat follows its return. A panic in
/// `work` is contained and returned as an error.
fn heartbeating<C: Coordination + Sync, T>(
    coordination: &C,
    request: &HeartbeatRequest,
    lease_ms: u64,
    work: impl FnOnce() -> T,
) -> Result<T, QosrmError> {
    let interval = Duration::from_millis((lease_ms / 3).max(50));
    let ended = Signal::default();
    thread::scope(|scope| {
        scope.spawn(|| {
            while !ended.wait_past(0, interval) {
                // Transport hiccups and lost leases are both fine to ignore
                // here: the completion is resolved by epoch.
                let _ = coordination.heartbeat(request);
            }
        });
        // Contain evaluation panics (e.g. an exceeded event budget deep in
        // the engine): an escaping unwind would skip the wake-up below and
        // leave the heartbeat thread waiting in the scope's implicit join,
        // hanging the worker instead of failing the run.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(work));
        ended.bump();
        result.map_err(|panic| {
            let message = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            QosrmError::Io(format!("shard evaluation panicked: {message}"))
        })
    })
}

/// Identity and pacing of a worker draining shards ([`drain`]).
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Worker identity (appears in telemetry and coordinator logs).
    pub worker: String,
    /// Run to draw from; empty means "any run" (daemon mode).
    pub run: String,
    /// Artificial pause between evaluating a shard and delivering its
    /// completion, with no heartbeat running (0 in production; the
    /// kill window of the dist smoke, where the victim's lease expires
    /// while it holds an undelivered shard).
    pub shard_delay_ms: u64,
    /// Transport-level retries per request before a wire worker gives up
    /// on the coordinator.
    pub transport_retries: u32,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        WorkerConfig {
            worker: format!("worker-{}", std::process::id()),
            run: String::new(),
            shard_delay_ms: 0,
            transport_retries: 25,
        }
    }
}

/// What a [`drain`] accomplished.
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

/// The shard-drain loop: until `stop` says so or the coordinator reports
/// the run finished, lease a shard, evaluate it with [`evaluate_points`]
/// (on the context `ctx_for(quick)` returns) while heartbeating its lease,
/// pause `shard_delay_ms`, and deliver the completion. A reply without a
/// grant comes back from a held request ([`Coordinator::lease_shard`]), so
/// the loop leases again at once.
///
/// `stop` is asked before every lease with the tally so far. A lost lease
/// does not abort an evaluation — the completion is delivered and resolved
/// (accepted or stale) by epoch at the coordinator. Errors — a failed lease
/// or completion, a shard that fails to evaluate — end the loop.
pub fn drain<C, X>(
    coordination: &C,
    config: &WorkerConfig,
    ctx_for: &mut dyn FnMut(bool) -> X,
    stop: &mut dyn FnMut(&WorkerReport) -> bool,
) -> Result<WorkerReport, QosrmError>
where
    C: Coordination + Sync,
    X: Deref<Target = ExperimentContext>,
{
    let mut report = WorkerReport::default();
    while !stop(&report) {
        let reply = coordination.lease(&config.worker, &config.run)?;
        let Some(grant) = reply.grant else {
            if reply.finished {
                break;
            }
            continue;
        };
        let ctx = ctx_for(grant.quick);
        let spec: ScenarioSpec = serde_json::from_str(&grant.spec_json)
            .map_err(|e| QosrmError::Io(format!("grant carries an unparsable spec: {e}")))?;
        let heartbeat = HeartbeatRequest {
            worker: config.worker.clone(),
            run: grant.run.clone(),
            shard: grant.shard,
            epoch: grant.epoch,
        };
        let (outcomes_jsonl, curve_hits, curve_misses) =
            heartbeating(coordination, &heartbeat, grant.lease_ms, || {
                evaluate_points(&ctx, &spec, &grant.points, ctx.sweep)
            })??;
        if config.shard_delay_ms > 0 {
            #[allow(clippy::disallowed_methods)] // A deliberate pause, not a wait on anything.
            thread::sleep(Duration::from_millis(config.shard_delay_ms));
        }
        let delivered = coordination.complete(&CompleteRequest {
            worker: heartbeat.worker,
            run: heartbeat.run,
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
    Ok(report)
}

/// Drains the coordinator at `addr` over the wire until the run finishes,
/// building one [`ExperimentContext`] per database mode on demand.
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
    drain(&client, config, ctx_for, &mut |_| false)
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
        let headers = [("content-type", "application/json")];
        let mut last_error = String::new();
        for attempt in 0..self.transport_retries.max(1) {
            if attempt > 0 {
                #[allow(clippy::disallowed_methods)] // Backoff before a transport retry.
                thread::sleep(Duration::from_millis(200));
            }
            let addr = self.addr.as_str();
            match http::exchange(
                addr,
                self.timeout,
                method,
                path,
                &headers,
                payload.as_bytes(),
            ) {
                Ok((status, body)) => {
                    let text = String::from_utf8_lossy(&body);
                    if status < 400 {
                        return serde_json::from_str(&text).map_err(|e| {
                            QosrmError::Io(format!("unparsable coordinator reply on {path}: {e}"))
                        });
                    }
                    // Typed rejection: not a transport problem, do not retry.
                    let detail = serde_json::from_str::<WireError>(&text)
                        .map(|e| format!("{}: {}", e.error.kind, e.error.message))
                        .unwrap_or_else(|_| text.into_owned());
                    return Err(QosrmError::Io(format!(
                        "coordinator rejected {method} {path} ({status}): {detail}"
                    )));
                }
                Err(ExchangeError::Transport(e) | ExchangeError::Protocol(e)) => last_error = e,
            }
        }
        Err(QosrmError::Io(format!(
            "coordinator at {} unreachable after {} attempt(s) on {method} {path}: {last_error}",
            self.addr,
            self.transport_retries.max(1)
        )))
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

/// Mounts `coordinator` on a listener at `addr` (`host:port`, port 0 for
/// ephemeral) and serves the coordination endpoints until
/// [`HttpServer::stop`]:
///
/// | Request | Body | Meaning |
/// |---|---|---|
/// | `POST /lease` | [`LeaseRequest`] | lease the next pending shard (held while none is) |
/// | `POST /heartbeat` | [`HeartbeatRequest`] | renew a held lease |
/// | `POST /shards/{id}/complete` | [`CompleteRequest`] | deliver a shard log |
/// | `GET /status` | — | [`CoordStatus`] snapshot |
/// | `GET /healthz` | — | liveness |
///
/// Every `POST` requires the [`PROTO_VERSION_HEADER`] header; a missing or
/// mismatched version is answered with a typed `ProtocolMismatch` error.
///
/// [`PROTO_VERSION_HEADER`]: qosrm_proto::PROTO_VERSION_HEADER
pub fn serve_coordinator(
    addr: &str,
    coordinator: Arc<Coordinator>,
) -> Result<HttpServer, QosrmError> {
    let listener = TcpListener::bind(addr)
        .map_err(|e| QosrmError::Io(format!("cannot bind coordinator listener at {addr}: {e}")))?;
    http::serve(listener, Arc::new(CoordinatorRoutes(coordinator)))
        .map_err(|e| QosrmError::Io(e.to_string()))
}

/// The standalone coordinator's routes: the coordination endpoints of its
/// one run.
struct CoordinatorRoutes(Arc<Coordinator>);

impl Routes for CoordinatorRoutes {
    fn body_limit(&self, _method: &str, _path: &str) -> usize {
        MAX_COMPLETE_BYTES
    }

    fn respond(&self, stream: &mut TcpStream, request: &Request) {
        let resolve = |run: &str| {
            if run.is_empty() || run == self.0.run() {
                Resolution::Coordinated(self.0.clone())
            } else {
                Resolution::Unknown
            }
        };
        let _ = respond_coordination(stream, request, &resolve, self.0.signal());
    }
}

/// Whether `method path` names a coordination endpoint that carries a body
/// (`POST /lease`, `/heartbeat`, `/shards/{id}/complete`). An embedding
/// server bounds those bodies by [`MAX_COMPLETE_BYTES`]: completions carry
/// whole shard logs.
pub fn is_coordination_post(method: &str, path: &str) -> bool {
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    method == "POST"
        && matches!(
            segments.as_slice(),
            ["lease"] | ["heartbeat"] | ["shards", _, "complete"]
        )
}

/// What a run id a coordination request names resolves to.
///
/// The standalone listener only ever answers `Coordinated` (its single
/// coordinator) or `Unknown` (a mismatched run id — fail fast, the worker
/// is pointed at the wrong coordinator). The daemon additionally knows
/// about runs *around* their coordinated phase: `Pending` (admitted but
/// not yet claimed by a worker — the lease is held until the run moves)
/// and `Finished` (terminal; the coordinator is gone and the worker should
/// stop).
pub enum Resolution {
    /// A live coordinator serves this run.
    Coordinated(Arc<Coordinator>),
    /// The run exists but is not coordinated *yet*; workers ask again.
    Pending,
    /// The run reached a terminal state; workers should stop draining it.
    Finished,
    /// No such run.
    Unknown,
}

/// Answers one coordination request, and any request that matches no
/// coordination endpoint with a typed 404 (an embedding server — the daemon
/// — tries its own routes first).
///
/// `resolve` maps the run id a request names to a [`Resolution`]; the
/// empty string means "any run with pending work". An any-run lease held
/// on a run that finishes meanwhile is answered "ask again", so the worker
/// is resolved afresh: the daemon never resolves it to a finished run,
/// which keeps its any-run workers attached. Uncoordinated resolutions keep
/// workers well-behaved: a `Pending` lease is held on `signal` (which the
/// embedding server bumps whenever a run moves) for at most
/// [`LEASE_HOLD`], resolved once more and answered; a `Finished` lease is
/// told the run is done, an any-run `Unknown` lease to ask again, a
/// named-run `Unknown` lease is a typed `RunNotFound`, an uncoordinated
/// heartbeat is answered "lease dead", and an uncoordinated completion is
/// answered "stale" — the run finished (or died) without this shard, so
/// the log is dropped. Heartbeats and completions are never held.
pub fn respond_coordination(
    stream: &mut TcpStream,
    request: &Request,
    resolve: &dyn Fn(&str) -> Resolution,
    signal: &Signal,
) -> std::io::Result<()> {
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    match (request.method.as_str(), segments.as_slice()) {
        ("POST", ["lease"]) => {
            let body: LeaseRequest = match parse_body(request) {
                Ok(body) => body,
                Err(error) => return write_error(stream, 400, "Bad Request", &error),
            };
            let idle = |finished: bool| LeaseReply {
                grant: None,
                finished,
            };
            let seen = signal.generation();
            let mut resolution = resolve(&body.run);
            if matches!(resolution, Resolution::Pending) {
                signal.wait_past(seen, LEASE_HOLD);
                resolution = resolve(&body.run);
            }
            match resolution {
                Resolution::Coordinated(coordinator) => {
                    // An any-run lease ends its worker only on a run that was
                    // finished before it was held: one that finishes during
                    // the hold sends the worker back to be resolved afresh.
                    let ends = !body.run.is_empty() || coordinator.finished();
                    let reply = coordinator.lease_shard(&body.worker);
                    let reply = reply.map(|reply| LeaseReply {
                        finished: reply.finished && ends,
                        ..reply
                    });
                    reply_json(stream, reply)
                }
                Resolution::Pending => reply_json(stream, Ok(idle(false))),
                Resolution::Finished => reply_json(stream, Ok(idle(true))),
                Resolution::Unknown if body.run.is_empty() => reply_json(stream, Ok(idle(false))),
                Resolution::Unknown => write_error(
                    stream,
                    404,
                    "Not Found",
                    &WireError::new(
                        "RunNotFound",
                        format!("no coordinated run {:?} here", body.run),
                    ),
                ),
            }
        }
        ("POST", ["heartbeat"]) => {
            let body: HeartbeatRequest = match parse_body(request) {
                Ok(body) => body,
                Err(error) => return write_error(stream, 400, "Bad Request", &error),
            };
            match resolve(&body.run) {
                Resolution::Coordinated(coordinator) => {
                    reply_json(stream, coordinator.heartbeat(&body))
                }
                _ => reply_json(
                    stream,
                    Ok(HeartbeatReply {
                        renewed: false,
                        expires_ms: 0,
                    }),
                ),
            }
        }
        ("POST", ["shards", shard, "complete"]) => {
            let body = match parse_body::<CompleteRequest>(request) {
                Ok(body) if shard.parse::<u64>() != Ok(body.shard) => {
                    let detail =
                        format!("path names shard {shard} but the body names {}", body.shard);
                    let error = WireError::new("MalformedRequest", detail);
                    return write_error(stream, 400, "Bad Request", &error);
                }
                Ok(body) => body,
                Err(error) => return write_error(stream, 400, "Bad Request", &error),
            };
            match resolve(&body.run) {
                Resolution::Coordinated(coordinator) => {
                    reply_json(stream, coordinator.complete(&body))
                }
                _ => reply_json(
                    stream,
                    Ok(CompleteReply {
                        accepted: false,
                        stale: true,
                        finished: true,
                    }),
                ),
            }
        }
        ("GET", ["status"]) => match resolve("") {
            Resolution::Coordinated(coordinator) => reply_json(stream, Ok(coordinator.status())),
            _ => write_error(
                stream,
                404,
                "Not Found",
                &WireError::new("RunNotFound", "no coordinated run is active"),
            ),
        },
        ("GET", ["healthz"]) => write_json(stream, 200, "OK", "{\"ok\":true}"),
        _ => write_error(
            stream,
            404,
            "Not Found",
            &WireError::new("NotFound", format!("no such endpoint: {}", request.path)),
        ),
    }
}

/// Parses a coordination `POST` body, after checking its
/// protocol-version header.
fn parse_body<T: serde::Deserialize>(request: &Request) -> Result<T, WireError> {
    check_proto_version(request)?;
    let text = std::str::from_utf8(&request.body)
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
    use std::io::{Read, Write};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::mpsc;
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
                Arc::default(),
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
            Coordinator::open("r-drain", &tiny_spec(), true, &dir, &config, Arc::default())
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

    /// A coordinator over `tiny_spec`'s three scenarios in one shard.
    fn one_shard(tag: &str, lease_ms: u64) -> (Arc<Coordinator>, PathBuf) {
        let dir = temp_dir(tag);
        let config = CoordinatorConfig {
            shard_size: 3,
            lease_ms,
            ..Default::default()
        };
        let coordinator =
            Coordinator::open("r-hold", &tiny_spec(), true, &dir, &config, Arc::default());
        (Arc::new(coordinator.unwrap()), dir)
    }

    /// `worker`'s lease request, answered on a channel.
    fn lease_async(coordinator: &Arc<Coordinator>, worker: &str) -> mpsc::Receiver<LeaseReply> {
        let (answered, reply) = mpsc::channel();
        let (coordinator, worker) = (coordinator.clone(), worker.to_string());
        thread::spawn(move || {
            let _ = answered.send(coordinator.lease_shard(&worker).unwrap());
        });
        reply
    }

    #[test]
    fn a_held_lease_is_answered_finished_when_the_last_shard_completes() {
        let (coordinator, dir) = one_shard("hold-finish", 600_000);
        let grant = coordinator.lease_shard("a").unwrap().grant.unwrap();
        let reply = lease_async(&coordinator, "b");
        assert!(
            reply.recv_timeout(Duration::from_millis(200)).is_err(),
            "b is held while a's lease is live"
        );
        let ctx = ExperimentContext::new(true);
        let (outcomes_jsonl, curve_hits, curve_misses) =
            evaluate_points(&ctx, &tiny_spec(), &grant.points, SweepOptions::default()).unwrap();
        let delivered = coordinator
            .complete(&CompleteRequest {
                worker: "a".to_string(),
                run: grant.run,
                shard: grant.shard,
                epoch: grant.epoch,
                outcomes_jsonl,
                curve_hits,
                curve_misses,
            })
            .unwrap();
        assert!(delivered.accepted && delivered.finished);
        let reply = reply
            .recv_timeout(LEASE_HOLD / 2)
            .expect("the completion releases b");
        assert_eq!((reply.grant, reply.finished), (None, true));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_held_lease_takes_over_a_shard_whose_lease_expires() {
        let (coordinator, dir) = one_shard("hold-expiry", 200);
        let first = coordinator.lease_shard("a").unwrap().grant.unwrap();
        assert_eq!(first.epoch, 1);
        // a never heartbeats: b's one request is held until the lease
        // expires, then granted the same shard under the next epoch.
        let reply = lease_async(&coordinator, "b")
            .recv_timeout(LEASE_HOLD / 2)
            .expect("the expiry releases b before the hold cap");
        let grant = reply.grant.expect("the expired shard is re-leased to b");
        assert_eq!((grant.shard, grant.epoch), (first.shard, 2));
        assert_eq!(coordinator.telemetry().reinjected, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A [`Coordination`] double that renews every heartbeat and reports
    /// each one on a channel.
    struct Recorder {
        beats: AtomicU64,
        sent: Mutex<mpsc::Sender<u64>>,
    }

    impl Coordination for Recorder {
        fn lease(&self, _worker: &str, _run: &str) -> Result<LeaseReply, QosrmError> {
            unreachable!("the heartbeat never leases")
        }

        fn heartbeat(&self, request: &HeartbeatRequest) -> Result<HeartbeatReply, QosrmError> {
            let beat = self.beats.fetch_add(1, Ordering::SeqCst) + 1;
            let _ = self.sent.lock_unpoisoned().send(request.epoch);
            Ok(HeartbeatReply {
                renewed: true,
                expires_ms: beat,
            })
        }

        fn complete(&self, _request: &CompleteRequest) -> Result<CompleteReply, QosrmError> {
            unreachable!("the heartbeat never completes")
        }
    }

    fn recorder() -> (Recorder, mpsc::Receiver<u64>) {
        let (sent, received) = mpsc::channel();
        let recorder = Recorder {
            beats: AtomicU64::new(0),
            sent: Mutex::new(sent),
        };
        (recorder, received)
    }

    fn heartbeat_request() -> HeartbeatRequest {
        HeartbeatRequest {
            worker: "w".to_string(),
            run: "r".to_string(),
            shard: 3,
            epoch: 7,
        }
    }

    #[test]
    fn the_heartbeat_renews_the_lease_while_work_runs_and_stops_with_it() {
        let (double, beats) = recorder();
        // A 150 ms lease heartbeats every 50 ms. The work blocks until the
        // double has seen a renewal, so at least one lands mid-work.
        let result = heartbeating(&double, &heartbeat_request(), 150, || {
            beats
                .recv_timeout(Duration::from_secs(60))
                .expect("a heartbeat arrives while the work runs")
        });
        assert_eq!(result.unwrap(), 7, "the work saw the shard's epoch renewed");
        let at_return = double.beats.load(Ordering::SeqCst);
        assert!(at_return >= 1, "at least one renewal during the work");
        // Dropping the double drops the only sender: every heartbeat ever
        // sent is now in the channel, and none followed the return.
        drop(double);
        let after_return = beats.try_iter().count() as u64;
        assert_eq!(
            1 + after_return,
            at_return,
            "no heartbeat may follow the helper's return"
        );
    }

    #[test]
    fn the_heartbeat_ends_with_the_work_even_on_an_unbounded_lease() {
        // The local executor's lease: the side thread's wait must neither
        // overflow nor be waited out. The work is a real shard evaluation,
        // so the side thread is waiting when it ends; the channel bounds
        // how long the test waits for a helper that never returns.
        let (returned, outcome) = mpsc::channel();
        thread::spawn(move || {
            let (double, beats) = recorder();
            let ctx = ExperimentContext::new(true);
            let result = heartbeating(
                &double,
                &heartbeat_request(),
                stream::LOCAL_LEASE_MS,
                || evaluate_points(&ctx, &tiny_spec(), &[0], SweepOptions::default()),
            );
            drop(double);
            let _ = returned.send((result.map(|log| log.is_ok()), beats.try_iter().count()));
        });
        let (result, beats) = outcome
            .recv_timeout(Duration::from_secs(120))
            .expect("the helper returns as soon as the work ends");
        assert!(result.unwrap(), "the shard evaluates");
        assert_eq!(beats, 0, "an unbounded lease is never renewed");
        // A panicking work item is contained and reported.
        let (double, _beats) = recorder();
        let panicked = heartbeating(&double, &heartbeat_request(), 150, || -> u8 {
            panic!("event budget exceeded")
        });
        let error = panicked.unwrap_err().to_string();
        assert!(error.contains("panicked: event budget exceeded"), "{error}");
    }
}
