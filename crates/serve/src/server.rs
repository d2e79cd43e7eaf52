//! The resident sweep daemon: listener, router, worker pool, recovery.
//!
//! ## Execution model
//!
//! The shared front end ([`crate::http::serve`]) hands each connection to a
//! short-lived handler thread (one request per connection — the protocol is
//! deliberately stateless); the daemon's [`Routes`] answer its own
//! endpoints first and fall through to the coordination endpoints. A
//! bounded pool of worker threads drains the admission queue. The worker
//! that claims a run opens an [`experiments::dist::Coordinator`] over its
//! directory and drains it with [`experiments::dist::drain`] — the loop
//! `sweep run` and `qosrm_worker` run too — **one leased shard at a time**,
//! so every shard boundary is a checkpoint: cancellation and shutdown are
//! honoured between shards, a SIGKILL loses at most the leases in flight,
//! and a restarted daemon resumes from the manifest (reclaiming its own
//! dead workers' leases immediately, while external workers' leases
//! survive). Because the daemon *is* the coordinator, external
//! `qosrm_worker` processes can attach to `POST /lease` /
//! `POST /heartbeat` / `POST /shards/{id}/complete` and drain the same
//! per-run shard queue the in-process workers draw from.
//!
//! Nothing waits on a timer: one daemon-wide [`experiments::Signal`],
//! bumped by every accepted completion (all coordinators share it through
//! one [`CoordinatorHub`]), run transition, cancel and shutdown, holds
//! `POST /lease` requests with no shard to lease (up to
//! [`experiments::dist::LEASE_HOLD`]) and wakes `/stream` tails, which send
//! each shard log once, in shard order.
//!
//! ## Backpressure
//!
//! Admission is bounded: at most [`ServeConfig::max_queue`] runs may be
//! queued (running runs do not count). A submission over the bound is
//! rejected with HTTP 429 / kind `QueueFull` — never silently dropped or
//! buffered — and queued runs drain fairly per client
//! ([`crate::state::FairQueue`]). Submissions over
//! [`ServeConfig::max_payload_bytes`] are refused with 413 /
//! `PayloadTooLarge` before the spec is even parsed; shard completions
//! from external workers are bounded separately, by
//! [`experiments::dist::MAX_COMPLETE_BYTES`].

use crate::http::{
    self, write_error, write_json, write_response, write_stream_head, HttpServer, Request, Routes,
    WireError,
};
use crate::state::{RegistryInner, RunMeta, RunState, RunTallies, ServeCounters, RUN_META_FILE};
use experiments::dist::{self, Coordinator, CoordinatorConfig, CoordinatorHub, WorkerConfig};
use experiments::stream::{next_shard_index, shard_file_name};
use experiments::{ExperimentContext, LockUnpoisoned, ScenarioSpec, SweepManifest};
use qosrm_core::RmaWorkCounters;
use qosrm_proto::LeaseTelemetry;
use qosrm_types::QosrmError;
use serde::{Deserialize, Serialize};
use simdb::StoreCounters;
use std::collections::HashMap;
use std::fs;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Configuration of a daemon instance (no value paces a wait).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Root of the daemon's durable state: run directories live under
    /// `<data_dir>/runs/<id>/`, database caches under `<data_dir>/cache/`.
    pub data_dir: PathBuf,
    /// Worker threads executing runs.
    pub workers: usize,
    /// Bound on *queued* (not running) runs; submissions beyond it are
    /// rejected with `QueueFull`.
    pub max_queue: usize,
    /// Bound on submission bodies (`POST /runs`) and every other daemon
    /// route, in bytes. The coordination endpoints are bounded by
    /// [`dist::MAX_COMPLETE_BYTES`] instead, because an external worker's
    /// completion carries a whole shard log.
    pub max_payload_bytes: usize,
    /// Shard size used when a submission does not specify one.
    pub default_shard_size: usize,
    /// Artificial pause of the in-process workers between evaluating a
    /// shard and delivering it (0 in production; tests and demos use it for
    /// slow shards, to exercise mid-run cancellation and kill windows
    /// deterministically). The same meaning as
    /// [`WorkerConfig::shard_delay_ms`].
    pub shard_delay_ms: u64,
    /// Shard-lease duration handed to workers (in-process and external
    /// `qosrm_worker` processes alike); a worker that goes silent for this
    /// long forfeits its shard, which is reinjected for someone else.
    pub lease_ms: u64,
    /// Log requests and run transitions to stdout.
    pub verbose: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            data_dir: PathBuf::from("serve-data"),
            workers: 2,
            max_queue: 64,
            max_payload_bytes: 1024 * 1024,
            default_shard_size: 8,
            shard_delay_ms: 0,
            lease_ms: 30_000,
            verbose: false,
        }
    }
}

/// One run's status snapshot, as served on `GET /runs/{id}`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunStatus {
    /// Run id.
    pub id: String,
    /// Lifecycle state label (`queued`/`running`/`complete`/`cancelled`/
    /// `failed`).
    pub state: String,
    /// Submitting client.
    pub client: String,
    /// Whether the run uses quick-mode databases.
    pub quick: bool,
    /// Scenarios per shard.
    pub shard_size: usize,
    /// Total scenarios of the sweep.
    pub total_scenarios: usize,
    /// Scenarios completed on disk.
    pub completed_scenarios: usize,
    /// Completed shard count.
    pub shards: usize,
    /// Failure detail when failed.
    pub error: Option<String>,
}

/// Curve-cache telemetry of one database mode, as reported on `/stats`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Database mode the context serves (`quick` or `full`).
    pub mode: String,
    /// Entries resident in the cache.
    pub entries: usize,
    /// Lookup hits since daemon start.
    pub hits: u64,
    /// Lookup misses since daemon start.
    pub misses: u64,
    /// Capacity evictions (wholesale shard clears) since daemon start.
    pub evictions: u64,
    /// Entries discarded by those evictions.
    pub evicted_entries: u64,
    /// hits / (hits + misses), 0 when idle.
    pub hit_rate: f64,
}

/// Measured RMA optimization work of one database mode, as reported on
/// `/stats`. The daemon's sweeps run with the incremental delta path on,
/// so `delta_invocations` / `warm_rows_reused` / `chunked_conv_lanes`
/// report how much convolution and curve-building work the resident
/// process actually skipped.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RmaStats {
    /// Database mode the context serves (`quick` or `full`).
    pub mode: String,
    /// Aggregated [`RmaWorkCounters`] of every manager the mode's sweeps
    /// evaluated since daemon start.
    pub counters: RmaWorkCounters,
}

/// Simulation-database build work of one database mode, as reported on
/// `/stats`: how many benchmark records the mode's session characterized
/// and how many further databases assembled from stored records instead
/// (see [`simdb::RecordStore`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimdbStats {
    /// Database mode the context serves (`quick` or `full`).
    pub mode: String,
    /// Benchmark records characterized since daemon start.
    pub records_built: u64,
    /// Phases characterized for those records.
    pub phases_built: u64,
    /// Benchmark records reused from the session store since daemon start.
    pub records_reused: u64,
}

/// Counter snapshot within the `/stats` payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterSnapshot {
    /// Requests parsed off the wire.
    pub http_requests: u64,
    /// `POST /runs` submissions received.
    pub submissions: u64,
    /// Submissions admitted as new runs.
    pub admitted: u64,
    /// Submissions answered with an existing run id.
    pub deduplicated: u64,
    /// Submissions rejected at the queue bound.
    pub rejected_queue_full: u64,
    /// Submissions with unparsable or unlowerable specs.
    pub rejected_invalid_spec: u64,
    /// Requests over a size limit.
    pub rejected_payload: u64,
    /// Runs that completed.
    pub runs_completed: u64,
    /// Runs that were cancelled.
    pub runs_cancelled: u64,
    /// Runs that failed.
    pub runs_failed: u64,
    /// Outcome lines written to `/stream` responses.
    pub outcomes_streamed: u64,
}

/// The `/stats` payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatsReport {
    /// Payload schema identifier.
    pub schema: String,
    /// Queued runs right now.
    pub queue_depth: usize,
    /// The admission bound.
    pub queue_max: usize,
    /// Worker thread count.
    pub workers: usize,
    /// Registry tallies by state.
    pub runs: RunTallies,
    /// Monotonic counters.
    pub counters: CounterSnapshot,
    /// Curve-cache telemetry per active database mode.
    pub curve_cache: Vec<CacheStats>,
    /// Database-build work per active database mode.
    pub simdb: Vec<SimdbStats>,
    /// Measured RMA work per active database mode (delta-path and
    /// chunked-kernel counters included).
    pub rma: Vec<RmaStats>,
    /// Lease-protocol telemetry across all coordinated runs (grants,
    /// renewals, expiries, reinjections, stale rejections, per-worker
    /// completions) — process-lifetime, like the other counters.
    pub leases: LeaseTelemetry,
}

/// Schema identifier of the `/stats` payload.
pub const STATS_SCHEMA: &str = "qosrm-serve/v1";

/// Name prefix of the daemon's in-process worker threads. Leases held
/// under this prefix cannot outlive the process, so a restarted daemon
/// reclaims them immediately (see [`CoordinatorConfig::reclaim_prefix`]).
const WORKER_PREFIX: &str = "qosrm-serve-worker-";

struct Shared {
    config: ServeConfig,
    registry: Mutex<RegistryInner>,
    counters: ServeCounters,
    contexts: Mutex<HashMap<bool, Arc<ExperimentContext>>>,
    /// One coordinator per *live* (Running) run, shared between the worker
    /// thread executing the run and connection threads serving the
    /// coordination endpoints to external workers.
    coordinators: Mutex<HashMap<String, Arc<Coordinator>>>,
    /// Shared by every coordinator the daemon opens: the lease-protocol
    /// telemetry (process-lifetime, reported on `/stats`) and the change
    /// signal of every hold, tail and idle pool worker.
    hub: Arc<CoordinatorHub>,
    shutdown: AtomicBool,
}

impl Shared {
    fn runs_root(&self) -> PathBuf {
        self.config.data_dir.join("runs")
    }

    fn run_dir(&self, id: &str) -> PathBuf {
        self.runs_root().join(id)
    }

    fn log(&self, line: &str) {
        if self.config.verbose {
            println!("[serve] {line}");
            let _ = std::io::stdout().flush();
        }
    }

    /// The lazily-built experiment context of a database mode. All runs of
    /// one mode share it — and with it the process-wide curve cache and
    /// database memo, which is the whole point of a resident daemon.
    fn context_for(&self, quick: bool) -> Arc<ExperimentContext> {
        let mut contexts = self.contexts.lock_unpoisoned();
        contexts
            .entry(quick)
            .or_insert_with(|| {
                // The drain loop evaluates every shard with the context's
                // default options: parallel, memoized and on the delta path.
                Arc::new(
                    ExperimentContext::new(quick)
                        .with_cache_dir(self.config.data_dir.join("cache")),
                )
            })
            .clone()
    }

    /// The coordinator a coordination request resolves to: a named run's
    /// coordinator, or — for the empty "any run" id — the first live
    /// coordinator (by run id) with work left.
    fn coordinator_of(&self, run: &str) -> Option<Arc<Coordinator>> {
        let coordinators = self.coordinators.lock_unpoisoned();
        if run.is_empty() {
            let mut ids: Vec<&String> = coordinators.keys().collect();
            ids.sort();
            ids.into_iter()
                .map(|id| coordinators[id].clone())
                .find(|coordinator| !coordinator.finished())
        } else {
            coordinators.get(run).cloned()
        }
    }

    /// Builds a status snapshot of a run (reads the streaming manifest for
    /// completion counts).
    fn status_of(&self, meta: &RunMeta) -> RunStatus {
        let dir = self.run_dir(&meta.id);
        let (total, completed, shards) = match SweepManifest::load(&dir) {
            Ok(manifest) => (
                manifest.total_scenarios,
                manifest.completed_scenarios,
                manifest.shards.len(),
            ),
            Err(_) => (
                meta.spec.lower().map(|grid| grid.len()).unwrap_or_default(),
                0,
                0,
            ),
        };
        RunStatus {
            id: meta.id.clone(),
            state: meta.state.label().to_string(),
            client: meta.client.clone(),
            quick: meta.quick,
            shard_size: meta.shard_size,
            total_scenarios: total,
            completed_scenarios: completed,
            shards,
            error: meta.error.clone(),
        }
    }

    /// Transitions a run's registry state and durably persists the record.
    fn set_state(&self, id: &str, state: RunState, error: Option<String>) {
        let mut registry = self.registry.lock_unpoisoned();
        if let Some(meta) = registry.runs.get_mut(id) {
            meta.state = state;
            meta.error = error;
            let meta = meta.clone();
            drop(registry);
            let _ = meta.save(&self.run_dir(id));
            self.log(&format!("run {id} -> {}", state.label()));
            self.hub.signal.bump();
        }
    }

    /// The registry state of a run right now.
    fn state_of(&self, id: &str) -> Option<RunState> {
        let registry = self.registry.lock_unpoisoned();
        registry.runs.get(id).map(|meta| meta.state)
    }
}

/// Deterministic run id of a submission: the fingerprint of the spec plus
/// the database mode. Identical submissions — retries, concurrent clients,
/// resubmission after a daemon restart — map to one run.
pub fn run_id(spec: &ScenarioSpec, quick: bool) -> String {
    let digest = qosrm_core::memo::fingerprint(spec);
    format!(
        "r{:016x}{:016x}{}",
        digest.0,
        digest.1,
        if quick { "q" } else { "f" }
    )
}

/// A running daemon instance. Dropping it does *not* stop the threads —
/// call [`Server::stop`] (the binary instead runs until killed).
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    front: Option<HttpServer>,
    worker_handles: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, recovers persisted runs, and starts the worker pool and
    /// accept loop.
    ///
    /// Binding retries on `AddrInUse` for a bounded window: a restarted
    /// daemon must be able to reclaim its fixed port while the kernel
    /// still holds the killed process's sockets in TIME_WAIT.
    pub fn start(config: ServeConfig) -> Result<Server, QosrmError> {
        let listener = bind_with_retry(&config.addr)?;
        let addr = listener
            .local_addr()
            .map_err(|e| QosrmError::Io(e.to_string()))?;
        let shared = Arc::new(Shared {
            config,
            registry: Mutex::new(RegistryInner::default()),
            counters: ServeCounters::default(),
            contexts: Mutex::new(HashMap::new()),
            coordinators: Mutex::new(HashMap::new()),
            hub: Arc::default(),
            shutdown: AtomicBool::new(false),
        });
        fs::create_dir_all(shared.runs_root())?;
        recover_runs(&shared)?;

        let mut worker_handles = Vec::new();
        for index in 0..shared.config.workers.max(1) {
            let shared = shared.clone();
            worker_handles.push(
                thread::Builder::new()
                    .name(format!("qosrm-serve-worker-{index}"))
                    .spawn(move || worker_loop(&shared))
                    .map_err(|e| QosrmError::Io(e.to_string()))?,
            );
        }
        let front =
            http::serve(listener, shared.clone()).map_err(|e| QosrmError::Io(e.to_string()))?;

        shared.log(&format!("listening on {addr}"));
        Ok(Server {
            addr,
            shared,
            front: Some(front),
            worker_handles,
        })
    }

    /// The bound address (with the resolved port when `:0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the front end and workers and joins them. In-flight shards
    /// finish; queued runs stay durably queued for the next start. Held
    /// lease requests and stream tails are released at once.
    pub fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for coordinator in self.shared.coordinators.lock_unpoisoned().values() {
            coordinator.close();
        }
        self.shared.hub.signal.bump();
        if let Some(front) = self.front.take() {
            front.stop();
        }
        for handle in self.worker_handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn bind_with_retry(addr: &str) -> Result<TcpListener, QosrmError> {
    let mut last_err = None;
    for _ in 0..40 {
        match TcpListener::bind(addr) {
            Ok(listener) => return Ok(listener),
            Err(e) if e.kind() == std::io::ErrorKind::AddrInUse => {
                last_err = Some(e);
                #[allow(clippy::disallowed_methods)] // Backoff until the old socket is released.
                thread::sleep(Duration::from_millis(250));
            }
            Err(e) => return Err(QosrmError::Io(format!("cannot bind {addr}: {e}"))),
        }
    }
    Err(QosrmError::Io(format!(
        "cannot bind {addr}: {}",
        last_err.map(|e| e.to_string()).unwrap_or_default()
    )))
}

/// Re-registers persisted runs on startup. Non-terminal runs (queued, or
/// running when the previous process died) are re-queued: their manifest
/// and shard logs are intact, so the worker resumes exactly where the old
/// process stopped.
fn recover_runs(shared: &Arc<Shared>) -> Result<(), QosrmError> {
    let root = shared.runs_root();
    let mut recovered = Vec::new();
    for entry in fs::read_dir(&root)? {
        let dir = entry?.path();
        if !dir.join(RUN_META_FILE).is_file() {
            continue;
        }
        match RunMeta::load(&dir) {
            Ok(meta) => recovered.push(meta),
            Err(e) => shared.log(&format!(
                "skipping unreadable run record {}: {e}",
                dir.display()
            )),
        }
    }
    recovered.sort_by(|a, b| a.id.cmp(&b.id));
    let mut registry = shared.registry.lock_unpoisoned();
    for mut meta in recovered {
        if !meta.state.is_terminal() {
            meta.state = RunState::Queued;
            let _ = meta.save(&shared.run_dir(&meta.id));
            registry.queue.push(&meta.client.clone(), meta.id.clone());
            shared.log(&format!("recovered run {} (re-queued)", meta.id));
        }
        registry.runs.insert(meta.id.clone(), meta);
    }
    Ok(())
}

impl Routes for Shared {
    fn body_limit(&self, method: &str, path: &str) -> usize {
        if dist::is_coordination_post(method, path) {
            dist::MAX_COMPLETE_BYTES
        } else {
            self.config.max_payload_bytes
        }
    }

    fn refused(&self, status: u16) {
        if status == 413 {
            ServeCounters::bump(&self.counters.rejected_payload);
        }
    }

    fn respond(&self, stream: &mut TcpStream, request: &Request) {
        ServeCounters::bump(&self.counters.http_requests);
        self.log(&format!("{} {}", request.method, request.path));
        let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
        let _ = match (request.method.as_str(), segments.as_slice()) {
            ("POST", ["runs"]) => handle_submit(stream, self, request),
            ("GET", ["runs"]) => handle_list(stream, self),
            ("GET", ["runs", id]) => handle_status(stream, self, id),
            ("GET", ["runs", id, "stream"]) => handle_stream(stream, self, id, request),
            ("GET", ["runs", id, "result"]) => handle_result(stream, self, id),
            ("POST", ["runs", id, "cancel"]) => handle_cancel(stream, self, id),
            ("GET", ["stats"]) => handle_stats(stream, self),
            ("GET", ["healthz"]) => write_response(stream, 200, "OK", "text/plain", b"ok\n"),
            (method, _) if method != "GET" && method != "POST" => write_error(
                stream,
                405,
                "Method Not Allowed",
                &WireError::new("MethodNotAllowed", format!("method {method} not supported")),
            ),
            // Everything else falls through to the shared coordination
            // router: `POST /lease`, `POST /heartbeat`,
            // `POST /shards/{id}/complete`, and `GET /status` — the same
            // endpoints `sweep coordinate` mounts, resolved against this
            // daemon's per-run coordinator map.
            _ => handle_coordination(stream, self, request),
        };
    }
}

fn handle_coordination(
    stream: &mut TcpStream,
    shared: &Shared,
    request: &Request,
) -> std::io::Result<()> {
    let resolve = |run: &str| {
        if let Some(coordinator) = shared.coordinator_of(run) {
            return dist::Resolution::Coordinated(coordinator);
        }
        if run.is_empty() {
            // No live coordinator right now, but a submission may arrive
            // any moment: any-run workers are held and stay attached.
            return dist::Resolution::Pending;
        }
        match shared.state_of(run) {
            Some(state) if state.is_terminal() => dist::Resolution::Finished,
            // Admitted but not yet claimed by a worker thread (or mid
            // requeue after a shutdown): the coordinator will appear.
            Some(_) => dist::Resolution::Pending,
            None => dist::Resolution::Unknown,
        }
    };
    dist::respond_coordination(stream, request, &resolve, &shared.hub.signal)
}

fn handle_submit(
    stream: &mut TcpStream,
    shared: &Shared,
    request: &Request,
) -> std::io::Result<()> {
    ServeCounters::bump(&shared.counters.submissions);
    let client = request.header("x-client").unwrap_or("anon").to_string();
    let quick = request.query_param("quick") != Some("false");
    let shard_size = request
        .query_param("shard_size")
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(shared.config.default_shard_size)
        .max(1);

    let body = String::from_utf8_lossy(&request.body).into_owned();
    let spec: ScenarioSpec = match serde_json::from_str(&body) {
        Ok(spec) => spec,
        Err(e) => {
            ServeCounters::bump(&shared.counters.rejected_invalid_spec);
            return write_error(
                stream,
                400,
                "Bad Request",
                &WireError::new("InvalidSpec", format!("spec does not parse: {e}")),
            );
        }
    };
    if let Err(e) = spec.lower() {
        ServeCounters::bump(&shared.counters.rejected_invalid_spec);
        return write_error(
            stream,
            400,
            "Bad Request",
            &WireError::new("InvalidSpec", format!("spec does not lower: {e}")),
        );
    }

    let id = run_id(&spec, quick);
    let response = {
        let mut registry = shared.registry.lock_unpoisoned();
        if let Some(meta) = registry.runs.get(&id) {
            ServeCounters::bump(&shared.counters.deduplicated);
            (200, "OK", shared.status_of(meta))
        } else if registry.queue.len() >= shared.config.max_queue {
            ServeCounters::bump(&shared.counters.rejected_queue_full);
            drop(registry);
            return write_error(
                stream,
                429,
                "Too Many Requests",
                &WireError::new(
                    "QueueFull",
                    format!(
                        "admission queue is at its {}-run bound; retry later",
                        shared.config.max_queue
                    ),
                ),
            );
        } else {
            let meta = RunMeta {
                id: id.clone(),
                client: client.clone(),
                quick,
                shard_size,
                state: RunState::Queued,
                error: None,
                spec,
            };
            // Persist before acknowledging: an admission the daemon
            // confirmed must survive an immediate kill.
            let dir = shared.run_dir(&id);
            if let Err(e) = fs::create_dir_all(&dir)
                .map_err(QosrmError::from)
                .and_then(|()| meta.save(&dir))
            {
                drop(registry);
                return write_error(
                    stream,
                    500,
                    "Internal Server Error",
                    &WireError::new("Internal", format!("cannot persist run: {e}")),
                );
            }
            ServeCounters::bump(&shared.counters.admitted);
            let status = shared.status_of(&meta);
            registry.runs.insert(id.clone(), meta);
            registry.queue.push(&client, id.clone());
            (202, "Accepted", status)
        }
    };
    shared.hub.signal.bump();
    let (status, reason, payload) = response;
    let body = serde_json::to_string(&payload).unwrap_or_else(|_| "{}".to_string());
    write_json(stream, status, reason, &body)
}

fn handle_list(stream: &mut TcpStream, shared: &Shared) -> std::io::Result<()> {
    let statuses: Vec<RunStatus> = {
        let registry = shared.registry.lock_unpoisoned();
        let mut metas: Vec<RunMeta> = registry.runs.values().cloned().collect();
        metas.sort_by(|a, b| a.id.cmp(&b.id));
        metas.iter().map(|meta| shared.status_of(meta)).collect()
    };
    write_ok(stream, &statuses)
}

fn handle_status(stream: &mut TcpStream, shared: &Shared, id: &str) -> std::io::Result<()> {
    let status = {
        let registry = shared.registry.lock_unpoisoned();
        registry.runs.get(id).map(|meta| shared.status_of(meta))
    };
    match status {
        Some(status) => write_ok(stream, &status),
        None => run_not_found(stream, id),
    }
}

/// Writes a 200 answer whose body is `payload` as JSON.
fn write_ok<T: Serialize>(stream: &mut TcpStream, payload: &T) -> std::io::Result<()> {
    let body = serde_json::to_string(payload).map_err(|e| std::io::Error::other(e.to_string()))?;
    write_json(stream, 200, "OK", &body)
}

/// Writes the 404 answer for a run id the daemon does not know.
fn run_not_found(stream: &mut TcpStream, id: &str) -> std::io::Result<()> {
    let error = WireError::new("RunNotFound", format!("no run with id {id}"));
    write_error(stream, 404, "Not Found", &error)
}

/// Streams completed outcome lines as JSONL, tailing the run until it
/// reaches a terminal state. Shard logs go out once each, in shard-index
/// order: a log waits until every lower-indexed one was sent (a terminal
/// run sends every log it has), so each connection streams the same
/// sequence and `?from=N` skips exactly its first `N` lines (a client
/// reconnecting after a daemon restart resumes its count).
fn handle_stream(
    stream: &mut TcpStream,
    shared: &Shared,
    id: &str,
    request: &Request,
) -> std::io::Result<()> {
    if shared.state_of(id).is_none() {
        return run_not_found(stream, id);
    }
    let mut skip = request
        .query_param("from")
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(0);
    write_stream_head(stream, "application/jsonl")?;
    let dir = shared.run_dir(id);
    let mut next = 0u64;
    loop {
        // Generation first, state second, logs third: a change after the
        // generation read ends the wait below, and a state already terminal
        // here guarantees the logs read after it are all there are.
        let seen = shared.hub.signal.generation();
        let Some(state) = shared.state_of(id) else {
            break;
        };
        // A live run's tail stops at its first missing log; a terminal
        // run's sends every log left, past any gap.
        let terminal = state.is_terminal();
        let last = if terminal {
            next_shard_index(&dir).unwrap_or(next)
        } else {
            u64::MAX
        };
        let mut chunk = String::new();
        let mut lines = 0u64;
        while next < last {
            let log = fs::read_to_string(dir.join(shard_file_name(next)));
            if log.is_err() && !terminal {
                break;
            }
            next += 1;
            for line in log.iter().flat_map(|text| text.lines()) {
                if line.trim().is_empty() {
                    continue;
                }
                if skip > 0 {
                    skip -= 1;
                    continue;
                }
                chunk.push_str(line);
                chunk.push('\n');
                lines += 1;
            }
        }
        if lines > 0 {
            ServeCounters::add(&shared.counters.outcomes_streamed, lines);
            stream.write_all(chunk.as_bytes())?;
            stream.flush()?;
        }
        if terminal || shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        shared.hub.signal.wait_past(seen, Duration::MAX);
    }
    Ok(())
}

fn handle_result(stream: &mut TcpStream, shared: &Shared, id: &str) -> std::io::Result<()> {
    let Some(state) = shared.state_of(id) else {
        return run_not_found(stream, id);
    };
    if state != RunState::Complete {
        return write_error(
            stream,
            409,
            "Conflict",
            &WireError::new(
                "RunNotComplete",
                format!(
                    "run {id} is {}; the result exists once it is complete",
                    state.label()
                ),
            ),
        );
    }
    match experiments::stream::merge(&shared.run_dir(id)) {
        // The exact bytes `SweepResult::save` writes for the offline CLI
        // path — the serving contract is byte-identity with it.
        Ok(result) => write_ok(stream, &result),
        Err(e) => write_error(
            stream,
            500,
            "Internal Server Error",
            &WireError::new("Internal", format!("merge failed: {e}")),
        ),
    }
}

fn handle_cancel(stream: &mut TcpStream, shared: &Shared, id: &str) -> std::io::Result<()> {
    let mut registry = shared.registry.lock_unpoisoned();
    let Some(meta) = registry.runs.get_mut(id) else {
        drop(registry);
        return run_not_found(stream, id);
    };
    let state = meta.state;
    if state.is_terminal() {
        let meta = meta.clone();
        drop(registry);
        return write_ok(stream, &shared.status_of(&meta));
    }
    meta.state = RunState::Cancelled;
    let meta = meta.clone();
    if state == RunState::Queued {
        registry.queue.remove(id);
    }
    ServeCounters::bump(&shared.counters.runs_cancelled);
    drop(registry);
    let _ = meta.save(&shared.run_dir(id));
    shared.log(&format!("run {id} -> cancelled"));
    // Stop serving the run's leases: external workers pinned to it resolve
    // it as finished, and a worker held on it is released.
    if let Some(coordinator) = shared.coordinators.lock_unpoisoned().remove(id) {
        coordinator.close();
    }
    shared.hub.signal.bump();
    write_ok(stream, &shared.status_of(&meta))
}

fn handle_stats(stream: &mut TcpStream, shared: &Shared) -> std::io::Result<()> {
    let (queue_depth, tallies) = {
        let registry = shared.registry.lock_unpoisoned();
        (registry.queue.len(), registry.tallies())
    };
    let c = &shared.counters;
    let counters = CounterSnapshot {
        http_requests: ServeCounters::read(&c.http_requests),
        submissions: ServeCounters::read(&c.submissions),
        admitted: ServeCounters::read(&c.admitted),
        deduplicated: ServeCounters::read(&c.deduplicated),
        rejected_queue_full: ServeCounters::read(&c.rejected_queue_full),
        rejected_invalid_spec: ServeCounters::read(&c.rejected_invalid_spec),
        rejected_payload: ServeCounters::read(&c.rejected_payload),
        runs_completed: ServeCounters::read(&c.runs_completed),
        runs_cancelled: ServeCounters::read(&c.runs_cancelled),
        runs_failed: ServeCounters::read(&c.runs_failed),
        outcomes_streamed: ServeCounters::read(&c.outcomes_streamed),
    };
    let (curve_cache, simdb, rma) = {
        let contexts = shared.contexts.lock_unpoisoned();
        let mut modes: Vec<(bool, &Arc<ExperimentContext>)> =
            contexts.iter().map(|(quick, ctx)| (*quick, ctx)).collect();
        // `full` (false) before `quick` (true).
        modes.sort_by_key(|(quick, _)| *quick);
        let label = |quick: bool| if quick { "quick" } else { "full" }.to_string();
        let curve_cache = modes
            .iter()
            .map(|(quick, ctx)| {
                let cache = ctx.curve_cache();
                CacheStats {
                    mode: label(*quick),
                    entries: cache.len(),
                    hits: cache.hits(),
                    misses: cache.misses(),
                    evictions: cache.evictions(),
                    evicted_entries: cache.evicted_entries(),
                    hit_rate: cache.hit_rate(),
                }
            })
            .collect();
        let simdb = modes
            .iter()
            .map(|(quick, ctx)| {
                // Exhaustive destructuring (no `..`): a new store counter
                // fails compilation here until `/stats` reports it.
                let StoreCounters {
                    records_built,
                    phases_built,
                    records_reused,
                } = ctx.record_store().counters();
                SimdbStats {
                    mode: label(*quick),
                    records_built,
                    phases_built,
                    records_reused,
                }
            })
            .collect();
        let rma = modes
            .iter()
            .map(|(quick, ctx)| RmaStats {
                mode: label(*quick),
                counters: ctx.rma_telemetry().snapshot(),
            })
            .collect();
        (curve_cache, simdb, rma)
    };
    let report = StatsReport {
        schema: STATS_SCHEMA.to_string(),
        queue_depth,
        queue_max: shared.config.max_queue,
        workers: shared.config.workers.max(1),
        runs: tallies,
        counters,
        curve_cache,
        simdb,
        rma,
        leases: shared.hub.counters.snapshot(),
    };
    write_ok(stream, &report)
}

/// Worker: claims queued runs and executes them shard by shard, honouring
/// cancellation and shutdown at every shard boundary.
fn worker_loop(shared: &Arc<Shared>) {
    loop {
        // Generation first: a submission after the queue check moves it.
        let seen = shared.hub.signal.generation();
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let claimed = {
            let mut registry = shared.registry.lock_unpoisoned();
            loop {
                match registry.queue.pop() {
                    // A cancellation may have raced the pop.
                    Some(id)
                        if registry.runs.get(&id).map(|m| m.state) != Some(RunState::Queued) => {}
                    claimed => break claimed,
                }
            }
        };
        match claimed {
            Some(id) => {
                shared.set_state(&id, RunState::Running, None);
                execute_run(shared, &id);
            }
            None => {
                shared.hub.signal.wait_past(seen, Duration::MAX);
            }
        }
    }
}

/// Executes a run as its coordinator: the worker thread drains the same
/// [`Coordinator`] the daemon's coordination endpoints expose, so external
/// `qosrm_worker` processes drain the very same queue. The drain stops at
/// the first shard boundary where the run is no longer `Running` (a racing
/// cancel already persisted the terminal state) or the daemon is shutting
/// down (the run is re-queued for the next start); durable lease records
/// make a SIGKILL lose at most the leases in flight (reclaimed on the next
/// start).
fn execute_run(shared: &Shared, id: &str) {
    let meta = {
        let registry = shared.registry.lock_unpoisoned();
        match registry.runs.get(id) {
            Some(meta) => meta.clone(),
            None => return,
        }
    };
    let ctx = shared.context_for(meta.quick);
    let dir = shared.run_dir(id);
    let config = CoordinatorConfig {
        shard_size: meta.shard_size,
        lease_ms: shared.config.lease_ms.max(100),
        verbose: false,
        reclaim_prefix: WORKER_PREFIX.to_string(),
    };
    let coordinator = match Coordinator::open(
        id,
        &meta.spec,
        meta.quick,
        &dir,
        &config,
        shared.hub.clone(),
    ) {
        Ok(coordinator) => Arc::new(coordinator),
        Err(e) => return fail_run(shared, id, &e),
    };
    shared
        .coordinators
        .lock_unpoisoned()
        .insert(id.to_string(), coordinator.clone());
    // Leases held while the run was `Running` without a coordinator (the
    // state moves first) can now resolve it.
    shared.hub.signal.bump();
    let worker = WorkerConfig {
        worker: thread::current()
            .name()
            .unwrap_or("qosrm-serve-worker-?")
            .to_string(),
        run: id.to_string(),
        shard_delay_ms: shared.config.shard_delay_ms,
        ..Default::default()
    };
    let shutting_down = || shared.shutdown.load(Ordering::SeqCst);
    let drained = dist::drain(&*coordinator, &worker, &mut |_| &*ctx, &mut |_| {
        shutting_down() || shared.state_of(id) != Some(RunState::Running)
    });
    // The run leaves Running (terminal, re-queued, or failed): stop serving
    // its leases first, so a lease held until the transition below resolves
    // the run's new state. Late external completions resolve as stale.
    shared.coordinators.lock_unpoisoned().remove(id);
    // Only transition a run nothing else (a racing cancel) already moved.
    match drained {
        Err(e) => fail_run(shared, id, &e),
        Ok(_) if shared.state_of(id) != Some(RunState::Running) => {}
        // Count before the transition: whoever sees the run terminal
        // (a stream tail ends on it) must see it counted on `/stats`.
        Ok(_) if coordinator.finished() => {
            ServeCounters::bump(&shared.counters.runs_completed);
            shared.set_state(id, RunState::Complete, None);
        }
        // Stopped by shutdown: leave the run re-queueable for the next
        // start.
        Ok(_) => shared.set_state(id, RunState::Queued, None),
    }
}

fn fail_run(shared: &Shared, id: &str, e: &QosrmError) {
    if shared.state_of(id) == Some(RunState::Running) {
        ServeCounters::bump(&shared.counters.runs_failed);
        shared.set_state(id, RunState::Failed, Some(e.to_string()));
    }
}
