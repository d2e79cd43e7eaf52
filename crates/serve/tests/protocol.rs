//! Protocol-level integration coverage of the daemon: typed rejections
//! (torn, oversized, invalid-spec, queue-full), dedup, cancellation, and
//! the byte-identity of daemon results with the offline sweep path.

use experiments::spec::{PlatformAxisSpec, PlatformSpec, WorkloadSource};
use experiments::{ExperimentContext, QosAxis, RmaVariant, ScenarioSpec, SweepOptions};
use qosrm_serve::{Client, ClientError, ServeConfig, Server};
use qosrm_types::{FreqLevel, PlatformConfig, QosSpec};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};
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

fn wait_terminal(client: &Client, id: &str) -> String {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let status = client.status(id).expect("status");
        if matches!(status.state.as_str(), "complete" | "cancelled" | "failed") {
            return status.state;
        }
        assert!(Instant::now() < deadline, "run {id} did not settle");
        std::thread::sleep(Duration::from_millis(50));
    }
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
    // Wait until the worker claims the first run so the queue is empty.
    let deadline = Instant::now() + Duration::from_secs(60);
    while client.status(&first.id).unwrap().state == "queued" {
        assert!(Instant::now() < deadline);
        std::thread::sleep(Duration::from_millis(20));
    }
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
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let status = client.status(&id).unwrap();
        if status.state == "running" && status.completed_scenarios >= 1 {
            break;
        }
        assert!(Instant::now() < deadline, "run never got going");
        std::thread::sleep(Duration::from_millis(20));
    }
    let cancelled = client.cancel(&id).unwrap();
    assert_eq!(cancelled.state, "cancelled");

    // The stream tail closes instead of hanging.
    let lines = client.stream(&id, 0, |_| {}).unwrap();
    assert!(lines < 4, "cancel must stop the run before completion");

    // The state is terminal and sticks (the worker must not overwrite it
    // with complete).
    std::thread::sleep(Duration::from_millis(700));
    assert_eq!(client.status(&id).unwrap().state, "cancelled");

    // Cancelling a terminal run is a no-op.
    assert_eq!(client.cancel(&id).unwrap().state, "cancelled");
    server.stop();
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
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let status = client.status(&id).unwrap();
        if status.completed_scenarios >= 1 {
            break;
        }
        assert!(Instant::now() < deadline);
        std::thread::sleep(Duration::from_millis(20));
    }
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
         that sleeps 400 ms per shard: {report:?}"
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
