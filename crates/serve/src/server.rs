//! The resident sweep daemon: listener, router, worker pool, recovery.
//!
//! ## Execution model
//!
//! One accept thread hands each connection to a short-lived handler thread
//! (one request per connection — the protocol is deliberately stateless),
//! and a bounded pool of worker threads drains the admission queue. The
//! worker that claims a run opens an [`experiments::dist::Coordinator`]
//! over its directory and executes it **one leased shard at a time**, so
//! every shard boundary is a checkpoint: cancellation is honoured between
//! shards, a SIGKILL loses at most the leases in flight, and a restarted
//! daemon resumes from the manifest (reclaiming its own dead workers'
//! leases immediately, while external workers' leases survive). Because
//! the daemon *is* the coordinator, external `qosrm_worker` processes can
//! attach to `POST /lease` / `POST /heartbeat` /
//! `POST /shards/{id}/complete` and drain the same per-run shard queue the
//! in-process workers draw from.
//!
//! ## Backpressure
//!
//! Admission is bounded: at most [`ServeConfig::max_queue`] runs may be
//! queued (running runs do not count). A submission over the bound is
//! rejected with HTTP 429 / kind `QueueFull` — never silently dropped or
//! buffered — and queued runs drain fairly per client
//! ([`crate::state::FairQueue`]). Request bodies over
//! [`ServeConfig::max_payload_bytes`] are refused with 413 /
//! `PayloadTooLarge` before the spec is even parsed.

use crate::http::{
    read_request, write_error, write_json, write_response, write_stream_head, Request,
    RequestError, WireError,
};
use crate::state::{RegistryInner, RunMeta, RunState, RunTallies, ServeCounters, RUN_META_FILE};
use experiments::dist::{self, Coordinator, CoordinatorConfig};
use experiments::{
    ExperimentContext, LeaseCounters, LockUnpoisoned, ScenarioSpec, SweepManifest, SweepOptions,
    WaitUnpoisoned,
};
use qosrm_core::RmaWorkCounters;
use qosrm_proto::{CompleteRequest, LeaseTelemetry};
use qosrm_types::QosrmError;
use serde::{Deserialize, Serialize};
use simdb::StoreCounters;
use std::collections::HashMap;
use std::fs;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Configuration of a daemon instance.
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
    /// Bound on request bodies in bytes (submissions and external-worker
    /// shard completions alike — size shards so their outcome logs fit).
    pub max_payload_bytes: usize,
    /// Shard size used when a submission does not specify one.
    pub default_shard_size: usize,
    /// Evaluate scenarios serially within each run (deterministic counter
    /// sequencing for benchmarks; memoization stays on).
    pub serial: bool,
    /// Poll interval of `/stream` tails and worker cancellation checks.
    pub poll_interval_ms: u64,
    /// Artificial pause between shards (0 in production; tests and demos
    /// use it to exercise mid-run cancellation and kill windows
    /// deterministically).
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
            serial: false,
            poll_interval_ms: 25,
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
    work: Condvar,
    counters: ServeCounters,
    contexts: Mutex<HashMap<bool, Arc<ExperimentContext>>>,
    /// One coordinator per *live* (Running) run, shared between the worker
    /// thread executing the run and connection threads serving the
    /// coordination endpoints to external workers.
    coordinators: Mutex<HashMap<String, Arc<Coordinator>>>,
    /// Lease-protocol telemetry, shared by every coordinator the daemon
    /// opens (process-lifetime, reported on `/stats`).
    lease_counters: Arc<LeaseCounters>,
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
                // Serial mode stays memoized and on the delta path:
                // `SweepOptions::serial()` would also disable memoization,
                // which the serving bench relies on for deterministic
                // hit/miss counters.
                let sweep = SweepOptions {
                    parallel: !self.config.serial,
                    ..SweepOptions::default()
                };
                Arc::new(
                    ExperimentContext::new(quick)
                        .with_cache_dir(self.config.data_dir.join("cache"))
                        .with_sweep_options(sweep),
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
        }
    }

    /// The registry state of a run right now.
    fn state_of(&self, id: &str) -> Option<RunState> {
        self.registry
            .lock()
            .unwrap()
            .runs
            .get(id)
            .map(|meta| meta.state)
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
    accept_handle: Option<JoinHandle<()>>,
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
            work: Condvar::new(),
            counters: ServeCounters::default(),
            contexts: Mutex::new(HashMap::new()),
            coordinators: Mutex::new(HashMap::new()),
            lease_counters: Arc::new(LeaseCounters::default()),
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
        let accept_shared = shared.clone();
        let accept_handle = thread::Builder::new()
            .name("qosrm-serve-accept".to_string())
            .spawn(move || accept_loop(listener, &accept_shared))
            .map_err(|e| QosrmError::Io(e.to_string()))?;

        shared.log(&format!("listening on {addr}"));
        Ok(Server {
            addr,
            shared,
            accept_handle: Some(accept_handle),
            worker_handles,
        })
    }

    /// The bound address (with the resolved port when `:0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and workers and joins them. In-flight shards
    /// finish; queued runs stay durably queued for the next start.
    pub fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        {
            let mut registry = self.shared.registry.lock_unpoisoned();
            registry.shutdown = true;
        }
        self.shared.work.notify_all();
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
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
    drop(registry);
    shared.work.notify_all();
    Ok(())
}

fn accept_loop(listener: TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let shared = shared.clone();
        let _ = thread::Builder::new()
            .name("qosrm-serve-conn".to_string())
            .spawn(move || handle_connection(stream, &shared));
    }
}

fn handle_connection(mut stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let request = match read_request(&mut stream, shared.config.max_payload_bytes) {
        Ok(request) => request,
        Err(RequestError::Closed) => return,
        Err(RequestError::TooLarge { limit }) => {
            ServeCounters::bump(&shared.counters.rejected_payload);
            let _ = write_error(
                &mut stream,
                413,
                "Payload Too Large",
                &WireError::new(
                    "PayloadTooLarge",
                    format!("request exceeds the {limit}-byte limit"),
                ),
            );
            drain(&mut stream);
            return;
        }
        Err(RequestError::Malformed(detail)) => {
            let _ = write_error(
                &mut stream,
                400,
                "Bad Request",
                &WireError::new("MalformedRequest", detail),
            );
            drain(&mut stream);
            return;
        }
    };
    ServeCounters::bump(&shared.counters.http_requests);
    shared.log(&format!("{} {}", request.method, request.path));
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    let result = match (request.method.as_str(), segments.as_slice()) {
        ("POST", ["runs"]) => handle_submit(&mut stream, shared, &request),
        ("GET", ["runs"]) => handle_list(&mut stream, shared),
        ("GET", ["runs", id]) => handle_status(&mut stream, shared, id),
        ("GET", ["runs", id, "stream"]) => handle_stream(&mut stream, shared, id, &request),
        ("GET", ["runs", id, "result"]) => handle_result(&mut stream, shared, id),
        ("POST", ["runs", id, "cancel"]) => handle_cancel(&mut stream, shared, id),
        ("GET", ["stats"]) => handle_stats(&mut stream, shared),
        ("GET", ["healthz"]) => write_response(&mut stream, 200, "OK", "text/plain", b"ok\n"),
        (method, _) if method != "GET" && method != "POST" => write_error(
            &mut stream,
            405,
            "Method Not Allowed",
            &WireError::new("MethodNotAllowed", format!("method {method} not supported")),
        ),
        // Everything else falls through to the shared coordination router:
        // `POST /lease`, `POST /heartbeat`, `POST /shards/{id}/complete`,
        // and `GET /status` — the same endpoints `sweep coordinate` mounts,
        // resolved against this daemon's per-run coordinator map.
        _ => handle_coordination(&mut stream, shared, &request),
    };
    let _ = result;
}

fn handle_coordination(
    stream: &mut TcpStream,
    shared: &Arc<Shared>,
    request: &Request,
) -> std::io::Result<()> {
    let resolve = |run: &str| {
        if let Some(coordinator) = shared.coordinator_of(run) {
            return dist::Resolution::Coordinated(coordinator);
        }
        if run.is_empty() {
            // No live coordinator right now, but a submission may arrive
            // any moment: any-run workers stay attached and retry.
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
    if dist::respond_coordination(stream, request, &resolve)? {
        Ok(())
    } else {
        write_error(
            stream,
            404,
            "Not Found",
            &WireError::new("NotFound", format!("no such endpoint: {}", request.path)),
        )
    }
}

/// Discards whatever the peer is still sending (bounded) before the socket
/// drops. Closing with unread bytes in the receive buffer makes the kernel
/// send RST, which can destroy the queued error response before the client
/// reads it.
fn drain(stream: &mut TcpStream) {
    use std::io::Read;
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let mut sink = [0u8; 8192];
    let mut total = 0usize;
    while let Ok(n) = stream.read(&mut sink) {
        if n == 0 {
            break;
        }
        total += n;
        if total > 4 * 1024 * 1024 {
            break;
        }
    }
}

fn handle_submit(
    stream: &mut TcpStream,
    shared: &Arc<Shared>,
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
    shared.work.notify_one();
    let (status, reason, payload) = response;
    let body = serde_json::to_string(&payload).unwrap_or_else(|_| "{}".to_string());
    write_json(stream, status, reason, &body)
}

fn handle_list(stream: &mut TcpStream, shared: &Arc<Shared>) -> std::io::Result<()> {
    let statuses: Vec<RunStatus> = {
        let registry = shared.registry.lock_unpoisoned();
        let mut metas: Vec<RunMeta> = registry.runs.values().cloned().collect();
        metas.sort_by(|a, b| a.id.cmp(&b.id));
        metas.iter().map(|meta| shared.status_of(meta)).collect()
    };
    let body = serde_json::to_string(&statuses).unwrap_or_else(|_| "[]".to_string());
    write_json(stream, 200, "OK", &body)
}

fn handle_status(stream: &mut TcpStream, shared: &Arc<Shared>, id: &str) -> std::io::Result<()> {
    let status = {
        let registry = shared.registry.lock_unpoisoned();
        registry.runs.get(id).map(|meta| shared.status_of(meta))
    };
    match status {
        Some(status) => {
            let body = serde_json::to_string(&status).unwrap_or_else(|_| "{}".to_string());
            write_json(stream, 200, "OK", &body)
        }
        None => write_error(
            stream,
            404,
            "Not Found",
            &WireError::new("RunNotFound", format!("no run with id {id}")),
        ),
    }
}

/// Streams completed outcome lines as JSONL, tailing the run until it
/// reaches a terminal state. `?from=N` skips the first `N` lines (a client
/// reconnecting after a daemon restart resumes its cursor).
fn handle_stream(
    stream: &mut TcpStream,
    shared: &Arc<Shared>,
    id: &str,
    request: &Request,
) -> std::io::Result<()> {
    if shared.state_of(id).is_none() {
        return write_error(
            stream,
            404,
            "Not Found",
            &WireError::new("RunNotFound", format!("no run with id {id}")),
        );
    }
    let mut cursor = request
        .query_param("from")
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(0);
    write_stream_head(stream, "application/jsonl")?;
    let dir = shared.run_dir(id);
    // State first, lines second: if the state was already terminal, the
    // lines read below are guaranteed complete.
    while let Some(state) = shared.state_of(id) {
        let lines = outcome_lines(&dir);
        if lines.len() > cursor {
            let mut chunk = String::new();
            for line in &lines[cursor..] {
                chunk.push_str(line);
                chunk.push('\n');
            }
            ServeCounters::add(
                &shared.counters.outcomes_streamed,
                (lines.len() - cursor) as u64,
            );
            cursor = lines.len();
            stream.write_all(chunk.as_bytes())?;
            stream.flush()?;
        }
        if state.is_terminal() || shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        thread::sleep(Duration::from_millis(shared.config.poll_interval_ms));
    }
    Ok(())
}

/// All completed outcome lines of a run directory, in shard order. Shard
/// logs are written atomically, so any visible file is complete.
fn outcome_lines(dir: &Path) -> Vec<String> {
    let mut files: Vec<PathBuf> = match fs::read_dir(dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                let name = p.file_name().map(|n| n.to_string_lossy().into_owned());
                name.map(|n| n.starts_with("shard-") && n.ends_with(".jsonl"))
                    .unwrap_or(false)
            })
            .collect(),
        Err(_) => return Vec::new(),
    };
    files.sort();
    let mut lines = Vec::new();
    for file in files {
        if let Ok(text) = fs::read_to_string(&file) {
            lines.extend(
                text.lines()
                    .filter(|l| !l.trim().is_empty())
                    .map(String::from),
            );
        }
    }
    lines
}

fn handle_result(stream: &mut TcpStream, shared: &Arc<Shared>, id: &str) -> std::io::Result<()> {
    let state = match shared.state_of(id) {
        Some(state) => state,
        None => {
            return write_error(
                stream,
                404,
                "Not Found",
                &WireError::new("RunNotFound", format!("no run with id {id}")),
            )
        }
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
        Ok(result) => {
            // The exact bytes `SweepResult::save` writes for the offline
            // CLI path — the serving contract is byte-identity with it.
            let body =
                serde_json::to_string(&result).map_err(|e| std::io::Error::other(e.to_string()))?;
            write_response(stream, 200, "OK", "application/json", body.as_bytes())
        }
        Err(e) => write_error(
            stream,
            500,
            "Internal Server Error",
            &WireError::new("Internal", format!("merge failed: {e}")),
        ),
    }
}

fn handle_cancel(stream: &mut TcpStream, shared: &Arc<Shared>, id: &str) -> std::io::Result<()> {
    let status = {
        let mut registry = shared.registry.lock_unpoisoned();
        match registry.runs.get(id).map(|meta| meta.state) {
            None => None,
            Some(state) => {
                if state == RunState::Queued {
                    registry.queue.remove(id);
                }
                if !state.is_terminal() {
                    let meta = registry.runs.get_mut(id).unwrap();
                    meta.state = RunState::Cancelled;
                    let snapshot = meta.clone();
                    ServeCounters::bump(&shared.counters.runs_cancelled);
                    drop(registry);
                    let _ = snapshot.save(&shared.run_dir(id));
                    shared.log(&format!("run {id} -> cancelled"));
                    Some(shared.status_of(&snapshot))
                } else {
                    let meta = registry.runs.get(id).unwrap().clone();
                    drop(registry);
                    Some(shared.status_of(&meta))
                }
            }
        }
    };
    match status {
        Some(status) => {
            let body = serde_json::to_string(&status).unwrap_or_else(|_| "{}".to_string());
            write_json(stream, 200, "OK", &body)
        }
        None => write_error(
            stream,
            404,
            "Not Found",
            &WireError::new("RunNotFound", format!("no run with id {id}")),
        ),
    }
}

fn handle_stats(stream: &mut TcpStream, shared: &Arc<Shared>) -> std::io::Result<()> {
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
        leases: shared.lease_counters.snapshot(),
    };
    let body = serde_json::to_string(&report).unwrap_or_else(|_| "{}".to_string());
    write_json(stream, 200, "OK", &body)
}

/// Worker: claims queued runs and executes them shard by shard, honouring
/// cancellation and shutdown at every shard boundary.
fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let claimed = {
            let mut registry = shared.registry.lock_unpoisoned();
            loop {
                if registry.shutdown {
                    break None;
                }
                if let Some(id) = registry.queue.pop() {
                    // A cancellation may have raced the pop.
                    match registry.runs.get(&id).map(|meta| meta.state) {
                        Some(RunState::Queued) => break Some(id),
                        _ => continue,
                    }
                }
                registry = shared.work.wait_unpoisoned(registry);
            }
        };
        let Some(id) = claimed else { return };
        shared.set_state(&id, RunState::Running, None);
        execute_run(shared, &id);
    }
}

/// Executes a run as its coordinator: the worker thread leases shards to
/// itself through the same [`Coordinator`] the daemon's coordination
/// endpoints expose, so external `qosrm_worker` processes drain the very
/// same queue. Every shard boundary remains a checkpoint — cancellation is
/// honoured between shards, and durable lease records make a SIGKILL lose
/// at most the leases in flight (reclaimed on the next start).
fn execute_run(shared: &Arc<Shared>, id: &str) {
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
        retry_ms: shared.config.poll_interval_ms.max(10),
        serial: shared.config.serial,
        verbose: false,
        reclaim_prefix: WORKER_PREFIX.to_string(),
    };
    let coordinator = match Coordinator::open(
        id,
        &meta.spec,
        meta.quick,
        &dir,
        &config,
        shared.lease_counters.clone(),
    ) {
        Ok(coordinator) => Arc::new(coordinator),
        Err(e) => {
            fail_run(shared, id, &e);
            return;
        }
    };
    shared
        .coordinators
        .lock_unpoisoned()
        .insert(id.to_string(), coordinator.clone());
    let worker = thread::current()
        .name()
        .unwrap_or("qosrm-serve-worker-?")
        .to_string();
    // A state other than Running means a racing cancel handler already
    // persisted the terminal state; stop leasing immediately.
    while shared.state_of(id) == Some(RunState::Running) {
        if shared.shutdown.load(Ordering::SeqCst) {
            // Leave the run re-queueable: the next start recovers it.
            shared.set_state(id, RunState::Queued, None);
            break;
        }
        let reply = match coordinator.lease_shard(&worker) {
            Ok(reply) => reply,
            Err(e) => {
                fail_run(shared, id, &e);
                break;
            }
        };
        let Some(grant) = reply.grant else {
            if reply.finished {
                // Only transition if nothing else (a racing cancel)
                // already did.
                if shared.state_of(id) == Some(RunState::Running) {
                    shared.set_state(id, RunState::Complete, None);
                    ServeCounters::bump(&shared.counters.runs_completed);
                }
                break;
            }
            // Nothing pending right now, but external workers hold live
            // leases: wait for them to land (or expire and reinject).
            thread::sleep(Duration::from_millis(
                shared.config.poll_interval_ms.max(10),
            ));
            continue;
        };
        let delivered = dist::evaluate_grant(&*coordinator, &worker, &grant, &ctx).and_then(
            |(outcomes_jsonl, curve_hits, curve_misses)| {
                coordinator.deliver(&CompleteRequest {
                    worker: worker.clone(),
                    run: grant.run.clone(),
                    shard: grant.shard,
                    epoch: grant.epoch,
                    outcomes_jsonl,
                    curve_hits,
                    curve_misses,
                })
            },
        );
        if let Err(e) = delivered {
            fail_run(shared, id, &e);
            break;
        }
        if shared.config.shard_delay_ms > 0 {
            thread::sleep(Duration::from_millis(shared.config.shard_delay_ms));
        }
    }
    // The run left Running (terminal, re-queued, or failed): stop serving
    // leases for it. Late external completions resolve as stale.
    shared.coordinators.lock_unpoisoned().remove(id);
}

fn fail_run(shared: &Arc<Shared>, id: &str, e: &QosrmError) {
    if shared.state_of(id) == Some(RunState::Running) {
        shared.set_state(id, RunState::Failed, Some(e.to_string()));
        ServeCounters::bump(&shared.counters.runs_failed);
    }
}
