//! Protocol-level integration coverage of the daemon: typed rejections
//! (torn, oversized, invalid-spec, queue-full), dedup, cancellation, held
//! leases, and the byte-identity of daemon results with the offline sweep
//! path.
//!
//! Nothing here waits on a timer: the tests wait on the daemon's own
//! events — a run's `/stream` closes exactly when the run is terminal, its
//! first line lands with shard 0, and a lease request with nothing to lease
//! is held until the daemon moves — and bound the waits that must be short
//! with a channel timeout.

use experiments::dist::{evaluate_points, Coordination, WorkerClient, LEASE_HOLD};
use experiments::spec::{PlatformAxisSpec, PlatformSpec, WorkloadSource};
use experiments::sweep::ScenarioOutcome;
use experiments::{ExperimentContext, QosAxis, RmaVariant, ScenarioSpec, SweepOptions};
use qosrm_proto::{CompleteReply, CompleteRequest, LeaseGrant};
use qosrm_serve::{Client, ClientError, RunMeta, RunState, ServeConfig, Server};
use qosrm_types::{FreqLevel, PlatformConfig, QosSpec};
use std::collections::HashSet;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::Duration;
use workload::{MixPopulation, SynthSpec};

fn tiny_spec(name: &str, seed: u64, count: usize) -> ScenarioSpec {
    ScenarioSpec {
        name: name.to_string(),
        platforms: vec![PlatformAxisSpec {
            label: "p4".to_string(),
            platform: PlatformSpec::Paper1 { num_cores: 4 },
            workloads: WorkloadSource::Synth(SynthSpec {
                seed,
                count,
                num_cores: 4,
                population: MixPopulation::Mixed,
                name_prefix: "pt-".to_string(),
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
    let dir = std::env::temp_dir().join(format!("qosrm_serve_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn start(tag: &str, config: ServeConfig) -> (Server, Client, PathBuf) {
    let dir = temp_dir(tag);
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        data_dir: dir.clone(),
        ..config
    };
    let server = Server::start(config).expect("daemon starts");
    let client = Client::new(server.addr()).with_timeout(Duration::from_secs(30));
    (server, client, dir)
}

/// Reads the run's stream to its end — the daemon closes a tail exactly
/// when the run is terminal — and returns the state it settled in.
fn wait_terminal(client: &Client, id: &str) -> String {
    // A run may build its databases before its first line lands.
    let patient = client.clone().with_timeout(Duration::from_secs(120));
    patient.stream(id, 0, |_| {}).expect("stream");
    let state = client.status(id).expect("status").state;
    assert!(
        matches!(state.as_str(), "complete" | "cancelled" | "failed"),
        "the stream of run {id} ended while it was {state}"
    );
    state
}

/// Opens `/runs/{id}/stream` on a raw connection and returns its reader
/// once the response head is read: from then on the daemon tails the run.
fn tail(addr: SocketAddr, id: &str) -> BufReader<TcpStream> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    write!(stream, "GET /runs/{id}/stream HTTP/1.0\r\n\r\n").unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    while line != "\r\n" {
        line.clear();
        let read = reader.read_line(&mut line).unwrap();
        assert!(read > 0, "the stream head is complete");
    }
    reader
}

/// Blocks until the run's first outcome line is streamed, i.e. its shard 0
/// landed (the first to land when the in-process worker runs it alone).
fn first_outcome(addr: SocketAddr, id: &str) {
    let mut line = String::new();
    tail(addr, id).read_line(&mut line).unwrap();
    assert!(line.ends_with('\n'), "an outcome line, not the tail's end");
}

/// Runs `work` on a thread of its own and returns its result, failing the
/// test unless it finishes within `bound`.
fn within<T: Send + 'static>(bound: Duration, work: impl FnOnce() -> T + Send + 'static) -> T {
    let (done, result) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = done.send(work());
    });
    result
        .recv_timeout(bound)
        .expect("finished within its bound")
}

#[test]
fn torn_and_malformed_requests_get_typed_errors_and_leave_the_daemon_up() {
    let (mut server, client, dir) = start("torn", ServeConfig::default());

    // A torn request: head promised a body that never arrives.
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    raw.write_all(b"POST /runs HTTP/1.0\r\nContent-Length: 50\r\n\r\n{\"trunc")
        .unwrap();
    raw.shutdown(std::net::Shutdown::Write).unwrap();
    let mut response = String::new();
    raw.read_to_string(&mut response).unwrap();
    assert!(response.contains("400"), "torn request: {response}");
    assert!(
        response.contains("MalformedRequest"),
        "torn request: {response}"
    );

    // Not HTTP at all.
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    raw.write_all(b"garbage\r\n\r\n").unwrap();
    raw.shutdown(std::net::Shutdown::Write).unwrap();
    let mut response = String::new();
    raw.read_to_string(&mut response).unwrap();
    assert!(response.contains("MalformedRequest"), "garbage: {response}");

    // The daemon still serves normally afterwards.
    let stats = client.stats().expect("daemon survived the torn requests");
    assert_eq!(stats.schema, qosrm_serve::STATS_SCHEMA);

    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn oversized_payload_is_rejected_as_payload_too_large() {
    let (mut server, _client, dir) = start(
        "oversize",
        ServeConfig {
            max_payload_bytes: 256,
            ..Default::default()
        },
    );
    let client = Client::new(server.addr());
    let huge = format!("{{\"pad\":\"{}\"}}", "x".repeat(1024));
    // One byte over the bound is as oversized as a kilobyte over it.
    let just_over = format!("{{\"pad\":\"{}\"}}", "x".repeat(257 - 10));
    assert_eq!(just_over.len(), 257);
    for payload in [&huge, &just_over] {
        match client.submit(payload, "t", true, 4).unwrap_err() {
            ClientError::Rejected { status, kind, .. } => {
                assert_eq!(status, 413);
                assert_eq!(kind, "PayloadTooLarge");
            }
            other => panic!("expected PayloadTooLarge, got {other}"),
        }
    }
    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn invalid_specs_are_rejected_with_invalid_spec() {
    let (mut server, client, dir) = start("badspec", ServeConfig::default());

    // Unparsable JSON.
    let err = client.submit("{not json", "t", true, 4).unwrap_err();
    match err {
        ClientError::Rejected { status, kind, .. } => {
            assert_eq!(status, 400);
            assert_eq!(kind, "InvalidSpec");
        }
        other => panic!("expected InvalidSpec, got {other}"),
    }

    // Parses but does not lower: synth core count mismatches the platform.
    let mut bad = tiny_spec("bad-lower", 1, 2);
    if let WorkloadSource::Synth(synth) = &mut bad.platforms[0].workloads {
        synth.num_cores = 7;
    }
    let payload = serde_json::to_string(&bad).unwrap();
    let err = client.submit(&payload, "t", true, 4).unwrap_err();
    match err {
        ClientError::Rejected { kind, message, .. } => {
            assert_eq!(kind, "InvalidSpec");
            assert!(message.contains("lower"), "message: {message}");
        }
        other => panic!("expected InvalidSpec, got {other}"),
    }

    let stats = client.stats().unwrap();
    assert_eq!(stats.counters.rejected_invalid_spec, 2);
    assert_eq!(stats.counters.admitted, 0);
    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_runs_and_endpoints_are_typed_404s() {
    let (mut server, client, dir) = start("notfound", ServeConfig::default());
    match client.status("r-nope").unwrap_err() {
        ClientError::Rejected { status, kind, .. } => {
            assert_eq!(status, 404);
            assert_eq!(kind, "RunNotFound");
        }
        other => panic!("expected RunNotFound, got {other}"),
    }
    match client.result("r-nope").unwrap_err() {
        ClientError::Rejected { kind, .. } => assert_eq!(kind, "RunNotFound"),
        other => panic!("expected RunNotFound, got {other}"),
    }
    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn queue_bound_rejects_with_queue_full_and_fairness_is_per_client() {
    // One worker, a queue bound of 1, and slow shards: the worker is busy
    // with the first run while the queue holds exactly one more.
    let (mut server, client, dir) = start(
        "queuefull",
        ServeConfig {
            workers: 1,
            max_queue: 1,
            shard_delay_ms: 300,
            default_shard_size: 1,
            ..Default::default()
        },
    );
    let a = serde_json::to_string(&tiny_spec("qf-a", 1, 2)).unwrap();
    let b = serde_json::to_string(&tiny_spec("qf-b", 2, 2)).unwrap();
    let c = serde_json::to_string(&tiny_spec("qf-c", 3, 2)).unwrap();

    let (created, first) = client.submit(&a, "alice", true, 1).unwrap();
    assert!(created);
    // Wait until the worker runs the first run so the queue is empty.
    first_outcome(server.addr(), &first.id);
    let (created, _second) = client.submit(&b, "alice", true, 1).unwrap();
    assert!(created, "queue has room for exactly one");
    let err = client.submit(&c, "bob", true, 1).unwrap_err();
    match err {
        ClientError::Rejected { status, kind, .. } => {
            assert_eq!(status, 429);
            assert_eq!(kind, "QueueFull");
        }
        other => panic!("expected QueueFull, got {other}"),
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.counters.rejected_queue_full, 1);
    assert_eq!(stats.queue_max, 1);
    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn identical_submissions_deduplicate_to_one_run() {
    // One slowed worker: the quick run keeps it busy, so the full-mode run
    // below stays queued until we cancel it (a full database build has no
    // place in a unit test).
    let (mut server, client, dir) = start(
        "dedup",
        ServeConfig {
            workers: 1,
            shard_delay_ms: 500,
            default_shard_size: 1,
            ..Default::default()
        },
    );
    let payload = serde_json::to_string(&tiny_spec("dedup", 5, 2)).unwrap();
    let (created_a, a) = client.submit(&payload, "alice", true, 1).unwrap();
    let (created_b, b) = client.submit(&payload, "bob", true, 1).unwrap();
    assert!(created_a);
    assert!(!created_b, "second submission must deduplicate");
    assert_eq!(a.id, b.id);
    // Same spec, different database mode: a different run.
    let (created_full, full) = client.submit(&payload, "carol", false, 1).unwrap();
    assert!(created_full);
    assert_ne!(full.id, a.id);
    client.cancel(&full.id).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.counters.deduplicated, 1);
    assert_eq!(stats.counters.admitted, 2);
    wait_terminal(&client, &a.id);
    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn run_ids_of_a_committed_spec_are_pinned() {
    // `run_id` is `memo::fingerprint` of the spec. Its digests also name
    // search genomes and `--cache-dir` database files, so they must not
    // move when the curve-cache key (a separate digest) changes.
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/specs/synth_smoke.json"
    );
    let spec = ScenarioSpec::load(std::path::Path::new(path)).expect("committed spec loads");
    assert_eq!(
        qosrm_serve::server::run_id(&spec, true),
        "r230f670d6720711a13c48f2997424e9dq"
    );
    assert_eq!(
        qosrm_serve::server::run_id(&spec, false),
        "r230f670d6720711a13c48f2997424e9df"
    );
}

#[test]
fn a_second_database_reuses_the_overlapping_benchmark_records() {
    let (mut server, client, dir) = start("records", ServeConfig::default());
    let first = tiny_spec("records-a", 31, 2);
    // The same mixes on an E4-style platform (another baseline VF level): a
    // different database, but the same characterizer inputs.
    let mut second = first.clone();
    second.name = "records-b".to_string();
    let mut platform = PlatformConfig::paper1(4);
    platform.vf = platform.vf.with_baseline(FreqLevel(8)).unwrap();
    assert_ne!(platform, PlatformConfig::paper1(4));
    second.platforms[0].platform = PlatformSpec::Custom(platform);

    let run = |spec: &ScenarioSpec| {
        let payload = serde_json::to_string(spec).unwrap();
        let (created, status) = client.submit(&payload, "t", true, 2).unwrap();
        assert!(created);
        assert_eq!(wait_terminal(&client, &status.id), "complete");
        let stats = client.stats().unwrap();
        let quick = stats.simdb.iter().find(|s| s.mode == "quick");
        quick.expect("quick-mode database stats").clone()
    };
    let after_first = run(&first);
    assert!(after_first.records_built > 0);
    assert_eq!(after_first.records_reused, 0);
    let after_second = run(&second);
    assert_eq!(
        (after_second.records_built, after_second.phases_built),
        (after_first.records_built, after_first.phases_built),
        "no benchmark may be characterized twice"
    );
    assert_eq!(after_second.records_reused, after_first.records_built);
    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cancel_mid_run_settles_as_cancelled_and_stream_terminates() {
    // Slow shards (one scenario each, 300 ms apart) make the cancel land
    // deterministically while the run is mid-execution.
    let (mut server, client, dir) = start(
        "cancel",
        ServeConfig {
            workers: 1,
            shard_delay_ms: 300,
            default_shard_size: 1,
            ..Default::default()
        },
    );
    let payload = serde_json::to_string(&tiny_spec("cancel", 9, 4)).unwrap();
    let (_, status) = client.submit(&payload, "t", true, 1).unwrap();
    let id = status.id;

    // Wait for the run to be mid-execution (at least one shard done).
    first_outcome(server.addr(), &id);
    let cancelled = client.cancel(&id).unwrap();
    assert_eq!(cancelled.state, "cancelled");

    // The stream tail closes instead of hanging.
    let lines = client.stream(&id, 0, |_| {}).unwrap();
    assert!(lines < 4, "cancel must stop the run before completion");

    // Cancelling a terminal run is a no-op.
    assert_eq!(client.cancel(&id).unwrap().state, "cancelled");

    // The state is terminal and sticks: once `stop` has joined the worker,
    // the durable record still says cancelled, not complete.
    server.stop();
    let meta = RunMeta::load(&dir.join("runs").join(&id)).unwrap();
    assert_eq!(meta.state, RunState::Cancelled);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn daemon_result_is_byte_identical_to_the_offline_sweep() {
    let (mut server, client, dir) = start("bytes", ServeConfig::default());
    let spec = tiny_spec("bytes", 21, 3);
    let payload = serde_json::to_string(&spec).unwrap();
    let (_, status) = client.submit(&payload, "t", true, 2).unwrap();
    assert_eq!(wait_terminal(&client, &status.id), "complete");
    let served = client.result(&status.id).unwrap();

    // The offline path: in-memory sweep of the same spec, serialized the
    // way `sweep merge --result` writes it.
    let ctx = ExperimentContext::new(true);
    let offline =
        experiments::sweep::run_with(&spec.lower().unwrap(), &ctx, &SweepOptions::default());
    let offline_bytes = serde_json::to_string(&offline).unwrap();
    assert_eq!(
        String::from_utf8_lossy(&served),
        offline_bytes,
        "daemon result must byte-match the offline sweep"
    );

    // Streamed outcome lines cover every scenario exactly once.
    let mut lines = Vec::new();
    client
        .stream(&status.id, 0, |line| lines.push(line.to_string()))
        .unwrap();
    assert_eq!(lines.len(), 3);
    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_panicking_worker_fails_its_run_and_leaves_the_daemon_serving() {
    let (mut server, client, dir) = start("panic", ServeConfig::default());

    // An impossible event budget passes admission (the spec is perfectly
    // valid) but makes the sweep engine panic deep inside the worker's
    // shard evaluation — the exact shape of bug that used to poison the
    // shared daemon state and cascade into every later request.
    let mut poisoned = tiny_spec("panic-poison", 31, 2);
    poisoned.options = Some(rma_sim::SimulationOptions {
        max_events: 1,
        provide_mlp_profiles: false,
        ..Default::default()
    });
    let payload = serde_json::to_string(&poisoned).unwrap();
    let (_, status) = client.submit(&payload, "t", true, 2).unwrap();
    assert_eq!(
        wait_terminal(&client, &status.id),
        "failed",
        "the panicked evaluation must settle as a failed run, not hang or crash"
    );
    let failed = client.status(&status.id).expect("status after the panic");
    assert!(
        failed.error.is_some(),
        "the failed run must carry an error message"
    );

    // The daemon is still fully serving: stats respond and a healthy run
    // submitted afterwards completes normally.
    let stats = client.stats().expect("stats after a panicked worker");
    assert_eq!(stats.schema, qosrm_serve::STATS_SCHEMA);
    let healthy = tiny_spec("panic-healthy", 32, 2);
    let payload = serde_json::to_string(&healthy).unwrap();
    let (_, status) = client.submit(&payload, "t", true, 2).unwrap();
    assert_eq!(wait_terminal(&client, &status.id), "complete");
    assert!(!client.result(&status.id).unwrap().is_empty());

    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn restart_recovers_runs_and_dedups_resubmissions() {
    let dir = temp_dir("restart");
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        data_dir: dir.clone(),
        workers: 1,
        shard_delay_ms: 200,
        default_shard_size: 1,
        ..Default::default()
    };
    let mut server = Server::start(config.clone()).unwrap();
    let client = Client::new(server.addr()).with_timeout(Duration::from_secs(30));
    let spec = tiny_spec("restart", 33, 3);
    let payload = serde_json::to_string(&spec).unwrap();
    let (_, status) = client.submit(&payload, "t", true, 1).unwrap();
    let id = status.id.clone();

    // Let it make partial progress, then stop the daemon (stop() finishes
    // the in-flight shard and re-queues — the durable analogue of a kill
    // with at least one shard on disk).
    first_outcome(server.addr(), &id);
    server.stop();

    // A fresh daemon on the same data dir recovers and finishes the run.
    let mut server = Server::start(ServeConfig {
        shard_delay_ms: 0,
        ..config
    })
    .unwrap();
    let client = Client::new(server.addr()).with_timeout(Duration::from_secs(30));
    // A resubmission of the same spec dedups against the recovered run.
    let (created, again) = client.submit(&payload, "t", true, 1).unwrap();
    assert!(!created, "recovered run must deduplicate the resubmission");
    assert_eq!(again.id, id);
    assert_eq!(wait_terminal(&client, &id), "complete");
    let served = client.result(&id).unwrap();

    let ctx = ExperimentContext::new(true);
    let offline =
        experiments::sweep::run_with(&spec.lower().unwrap(), &ctx, &SweepOptions::default());
    assert_eq!(
        String::from_utf8_lossy(&served),
        serde_json::to_string(&offline).unwrap(),
        "post-restart result must byte-match the offline sweep"
    );
    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn external_workers_drain_the_daemon_lease_queue_alongside_the_pool() {
    // One slow in-process worker (400 ms pause after each one-scenario
    // shard) plus an external wire worker pinned to the run: the external
    // worker must get shards of its own, and the merged result must stay
    // byte-identical to the offline sweep regardless of who ran what.
    let (mut server, client, dir) = start(
        "extworker",
        ServeConfig {
            workers: 1,
            shard_delay_ms: 400,
            default_shard_size: 1,
            ..Default::default()
        },
    );
    let spec = tiny_spec("extworker", 51, 6);
    let payload = serde_json::to_string(&spec).unwrap();
    let (_, status) = client.submit(&payload, "t", true, 1).unwrap();
    let id = status.id.clone();

    // A tail from before the external worker starts: its shards land ahead
    // of lower-numbered ones the slow in-process worker still holds.
    let tailed = tail(server.addr(), &id);
    let streamed = std::thread::spawn(move || {
        let lines = tailed.lines().map(|line| line.unwrap());
        lines.collect::<Vec<String>>()
    });

    let addr = server.addr().to_string();
    let pinned = id.clone();
    let handle = std::thread::spawn(move || {
        experiments::dist::run_worker(
            &addr,
            &experiments::dist::WorkerConfig {
                worker: "ext-1".to_string(),
                run: pinned,
                ..Default::default()
            },
        )
    });
    assert_eq!(wait_terminal(&client, &id), "complete");
    let report = handle.join().unwrap().expect("external worker run");
    assert!(
        report.shards_completed >= 1,
        "the external worker must win at least one shard against a worker \
         that pauses 400 ms per shard: {report:?}"
    );

    let served = client.result(&id).unwrap();
    let ctx = ExperimentContext::new(true);
    let offline =
        experiments::sweep::run_with(&spec.lower().unwrap(), &ctx, &SweepOptions::default());
    assert_eq!(
        String::from_utf8_lossy(&served),
        serde_json::to_string(&offline).unwrap(),
        "mixed in-process/external execution must byte-match the offline sweep"
    );

    // The tail sent every outcome exactly once, whatever order the shard
    // logs landed in.
    let lines = streamed.join().unwrap();
    let keys: HashSet<String> = lines
        .iter()
        .map(|line| {
            let outcome: ScenarioOutcome = serde_json::from_str(line).unwrap();
            outcome.key.to_string()
        })
        .collect();
    assert_eq!((lines.len(), keys.len()), (6, 6), "{lines:#?}");

    // /stats surfaces the lease telemetry: all six shards completed, the
    // external worker credited by name.
    let stats = client.stats().unwrap();
    assert_eq!(stats.leases.completed, 6);
    assert!(stats.leases.granted >= 6);
    assert_eq!(
        stats.leases.per_worker.get("ext-1"),
        Some(&report.shards_completed)
    );
    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn external_completions_are_bounded_by_the_coordination_limit_not_max_payload() {
    // The submission bound is exactly the submission's length, so any
    // shard log an external worker delivers is longer than it: the
    // coordination routes must be bounded by `MAX_COMPLETE_BYTES` instead.
    let spec = tiny_spec("bigcomplete", 61, 6);
    let payload = serde_json::to_string(&spec).unwrap();
    let (mut server, client, dir) = start(
        "bigcomplete",
        ServeConfig {
            workers: 1,
            max_payload_bytes: payload.len(),
            shard_delay_ms: 400,
            default_shard_size: 1,
            ..Default::default()
        },
    );
    let (created, status) = client.submit(&payload, "t", true, 1).unwrap();
    assert!(created, "a submission of exactly the bound is admitted");
    let id = status.id.clone();
    let addr = server.addr().to_string();
    let handle = std::thread::spawn(move || {
        experiments::dist::run_worker(
            &addr,
            &experiments::dist::WorkerConfig {
                worker: "ext-big".to_string(),
                run: id,
                ..Default::default()
            },
        )
    });
    assert_eq!(wait_terminal(&client, &status.id), "complete");
    let report = handle.join().unwrap().expect("external worker run");
    assert!(report.shards_completed >= 1, "{report:?}");
    assert_eq!(
        client.stats().unwrap().leases.per_worker.get("ext-big"),
        Some(&report.shards_completed)
    );
    // Every one-scenario shard log is longer than the submission bound.
    let run_dir = dir.join("runs").join(&status.id);
    let shortest_log = (0..6u64)
        .map(|shard| {
            let file = run_dir.join(experiments::stream::shard_file_name(shard));
            std::fs::metadata(file).expect("shard log").len() as usize
        })
        .min()
        .unwrap();
    assert!(
        shortest_log > payload.len(),
        "shard logs ({shortest_log} bytes) must exceed the {}-byte bound",
        payload.len()
    );
    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn load_generator_sustains_concurrent_clients_with_byte_identical_results() {
    let (mut server, client, dir) = start(
        "load",
        ServeConfig {
            workers: 2,
            ..Default::default()
        },
    );
    let base = tiny_spec("loadgen", 41, 2);
    let config = qosrm_serve::LoadConfig {
        clients: 16,
        per_client: 3,
        distinct: 3,
        seed: 77,
        quick: true,
        shard_size: 2,
    };
    let plan = qosrm_serve::plan(&base, &config).unwrap();
    let (report, results) =
        qosrm_serve::execute(server.addr(), &plan, &config, Duration::from_secs(180));
    assert!(report.passed(), "load run failed: {:?}", report.errors);
    assert_eq!(report.submissions, 48);
    assert_eq!(report.admitted as usize, 3, "3 distinct variants, 3 runs");
    assert_eq!(report.deduplicated, 45);
    assert_eq!(report.queue_full_rejections, 0);
    assert_eq!(results.len(), 3);

    let stats = client.stats().unwrap();
    assert_eq!(stats.counters.admitted, 3);
    assert_eq!(stats.counters.deduplicated, 45);
    assert_eq!(stats.runs.complete, 3);

    // All evaluation ran in-process, so /stats surfaces the daemon's
    // measured RMA work — and since daemon sweeps take the incremental
    // delta path, the delta counters tick whenever a core's observation
    // recurs across intervals.
    let rma = stats
        .rma
        .iter()
        .find(|r| r.mode == "quick")
        .expect("quick-mode RMA telemetry");
    assert!(rma.counters.invocations > 0, "no RMA work recorded");
    assert!(
        rma.counters.delta_invocations > 0,
        "daemon sweeps must take the incremental delta path: {:?}",
        rma.counters
    );
    assert!(
        rma.counters.chunked_conv_lanes > 0,
        "chunked convolution kernel never ran: {:?}",
        rma.counters
    );
    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

/// Leases shards of the 2-shard run `id` to an external worker, for
/// longer than any test, until the daemon's one in-process worker is held
/// behind them: the external worker holds both shards, or holds one while
/// the in-process worker landed the other. Returns the external grants.
fn hold_worker(addr: SocketAddr, id: &str) -> Vec<LeaseGrant> {
    let external = WorkerClient::new(&addr.to_string(), 3);
    let client = Client::new(addr);
    let mut grants = Vec::new();
    // A request without a grant was held until the daemon moved (the run
    // got coordinated, or the in-process worker landed its shard): ask
    // again, as `drain` does.
    loop {
        let reply = external.lease("ext", id).unwrap();
        assert!(!reply.finished, "the run ended before the external lease");
        grants.extend(reply.grant);
        let landed = client.status(id).unwrap().completed_scenarios;
        if grants.len() + landed == 2 {
            return grants;
        }
    }
}

/// Evaluates `grant` in the test process and delivers it as `ext`.
fn land(addr: SocketAddr, ctx: &ExperimentContext, grant: &LeaseGrant) -> CompleteReply {
    let spec: ScenarioSpec = serde_json::from_str(&grant.spec_json).unwrap();
    let (outcomes_jsonl, curve_hits, curve_misses) =
        evaluate_points(ctx, &spec, &grant.points, SweepOptions::default()).unwrap();
    let external = WorkerClient::new(&addr.to_string(), 3);
    let delivered = external.complete(&CompleteRequest {
        worker: "ext".to_string(),
        run: grant.run.clone(),
        shard: grant.shard,
        epoch: grant.epoch,
        outcomes_jsonl,
        curve_hits,
        curve_misses,
    });
    let delivered = delivered.unwrap();
    assert!(delivered.accepted, "shard {} is landed", grant.shard);
    delivered
}

#[test]
fn cancel_and_stop_release_an_in_process_worker_held_behind_an_external_lease() {
    let (mut server, client, dir) = start(
        "held",
        ServeConfig {
            workers: 1,
            shard_delay_ms: 300,
            default_shard_size: 1,
            lease_ms: 600_000,
            ..Default::default()
        },
    );
    let addr = server.addr();
    // Two runs over the same mixes, so the second finds its databases warm.
    let submit = |name: &str| {
        let payload = serde_json::to_string(&tiny_spec(name, 71, 2)).unwrap();
        client.submit(&payload, "t", true, 1).unwrap().1.id
    };
    let first = submit("held-a");
    hold_worker(addr, &first);
    // The second run waits in the queue for the worker held in the first.
    let next = submit("held-b");
    assert_eq!(client.cancel(&first).unwrap().state, "cancelled");
    // Only the cancel releases the worker; it goes on to the second run,
    // whose first shard lands long before the hold would have ended.
    within(LEASE_HOLD / 2, move || hold_worker(addr, &next));
    // Shutdown releases it too: `stop` joins it well inside the hold cap.
    within(LEASE_HOLD / 2, move || server.stop());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_any_run_worker_held_on_a_run_that_finishes_stays_attached_for_the_next() {
    let (mut server, client, dir) = start(
        "anyrun",
        ServeConfig {
            workers: 1,
            shard_delay_ms: 300,
            default_shard_size: 1,
            lease_ms: 600_000,
            ..Default::default()
        },
    );
    let addr = server.addr();
    let submit = |name: &str| {
        let payload = serde_json::to_string(&tiny_spec(name, 91, 2)).unwrap();
        client.submit(&payload, "t", true, 1).unwrap().1.id
    };
    let first = submit("anyrun-a");
    // The in-process worker is held behind one external lease, the first
    // run's last unlanded shard.
    let ctx = ExperimentContext::new(true);
    let mut grants = hold_worker(addr, &first);
    while grants.len() > 1 {
        land(addr, &ctx, &grants.pop().unwrap());
    }
    // An any-run lease resolves to the first run and is held there.
    let (answered, reply) = mpsc::channel();
    let asked = std::thread::spawn(move || {
        let any = WorkerClient::new(&addr.to_string(), 3);
        let _ = answered.send(any.lease("any", "").unwrap());
    });
    assert!(
        reply.recv_timeout(Duration::from_millis(200)).is_err(),
        "the any-run lease is held while the first run has nothing to lease"
    );
    // Landing the last shard finishes the first run and releases the hold:
    // an any-run worker is told to ask again, not to stop.
    assert!(land(addr, &ctx, &grants[0]).finished);
    let reply = reply
        .recv_timeout(LEASE_HOLD / 2)
        .expect("the last completion releases the any-run lease");
    asked.join().unwrap();
    assert_eq!((reply.grant, reply.finished), (None, false));
    // Asking again, it draws from the next submission.
    let second = submit("anyrun-b");
    let any = WorkerClient::new(&addr.to_string(), 3);
    let grant = loop {
        let reply = any.lease("any", "").unwrap();
        assert!(!reply.finished, "an any-run worker is never told to stop");
        if let Some(grant) = reply.grant {
            break grant;
        }
    };
    assert_eq!(grant.run, second);
    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_resumed_stream_continues_exactly_after_out_of_order_landings() {
    // The in-process worker pauses 1 s after each one-scenario shard, and
    // an external worker lands shard 1 of a 2-shard run before shard 0. A
    // tail open throughout still sends the logs in shard-index order, so a
    // connection resuming from its count continues it exactly.
    let (mut server, client, dir) = start(
        "resume",
        ServeConfig {
            workers: 1,
            shard_delay_ms: 1000,
            default_shard_size: 1,
            lease_ms: 600_000,
            ..Default::default()
        },
    );
    let addr = server.addr();
    let spec = tiny_spec("resume", 81, 2);
    // Warm databases land the external shard well inside the pause.
    let ctx = ExperimentContext::new(true);
    evaluate_points(&ctx, &spec, &[0, 1], SweepOptions::default()).unwrap();
    let payload = serde_json::to_string(&spec).unwrap();
    let id = client.submit(&payload, "t", true, 1).unwrap().1.id;
    let tailed = tail(addr, &id);
    let streamed = std::thread::spawn(move || {
        let lines = tailed.lines().map(|line| line.unwrap());
        lines.collect::<Vec<String>>()
    });

    // The external worker takes what it is granted; holding shard 0, it
    // also waits for shard 1 (taking it, or until the in-process worker
    // lands it). Each request without a grant was held until the daemon
    // moved.
    let external = WorkerClient::new(&addr.to_string(), 3);
    let mut grants: Vec<LeaseGrant> = Vec::new();
    while grants.is_empty()
        || (grants.len() == 1
            && grants[0].shard == 0
            && client.status(&id).unwrap().completed_scenarios == 0)
    {
        let reply = external.lease("ext", &id).unwrap();
        assert!(!reply.finished, "the run ended before the external lease");
        grants.extend(reply.grant);
    }
    // Higher shard first: every landing of shard 1 finds shard 0 pending.
    grants.sort_by_key(|grant| std::cmp::Reverse(grant.shard));
    for grant in &grants {
        let finished = land(addr, &ctx, grant).finished;
        assert_eq!(finished, grant.shard == 0, "shard 1 lands before shard 0");
    }
    assert_eq!(wait_terminal(&client, &id), "complete");

    let mut sequence = Vec::new();
    client
        .stream(&id, 0, |line| sequence.push(line.to_string()))
        .unwrap();
    assert_eq!(sequence.len(), 2);
    assert_eq!(
        streamed.join().unwrap(),
        sequence,
        "the live tail sent the logs in shard-index order"
    );
    let mut resumed = Vec::new();
    client
        .stream(&id, 1, |line| resumed.push(line.to_string()))
        .unwrap();
    assert_eq!(resumed, sequence[1..], "a resume from 1 continues exactly");
    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}
