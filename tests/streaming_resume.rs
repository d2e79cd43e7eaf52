//! Equivalence guarantees of the streaming sharded executor:
//!
//! * an existing experiment grid (E1's) run through the streaming executor
//!   merges to a `SweepResult` byte-identical to the in-memory path;
//! * a sweep interrupted after N shards and resumed merges byte-identically
//!   to an uninterrupted run of the same spec — exercised on a synthetic
//!   grid and on E10's game-theoretic manager grid;
//! * the checkpoint manifest tracks per-shard curve-cache statistics;
//! * the lease protocol behind the distributed coordinator: an expired
//!   lease reinjects its shard, duplicate completions racing across a
//!   lease epoch resolve to exactly one winning log (in either delivery
//!   order), and a coordinator killed and reopened over the directory
//!   restores unexpired leases so live workers reattach.

use experiments::spec::{PlatformAxisSpec, PlatformSpec, ScenarioSpec, WorkloadSource};
use experiments::sweep::{self, QosAxis, RmaVariant, SweepOptions};
use experiments::{
    dist, stream, ExperimentContext, LeaseCounters, ShardScheduler, StreamOptions, SweepManifest,
};
use qosrm_types::QosSpec;
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;
use workload::{MixPopulation, SynthSpec};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qosrm_streaming_it_{tag}_{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    dir
}

/// Serializes a sweep result exactly as `SweepResult::save` writes it.
fn result_bytes(result: &sweep::SweepResult) -> String {
    serde_json::to_string(result).expect("sweep results serialize")
}

#[test]
fn streaming_e1_grid_merges_byte_identically_to_the_in_memory_path() {
    let ctx = ExperimentContext::new(true);
    let spec = experiments::e1_energy_savings::spec(&ctx);
    let grid = spec.lower().expect("the E1 spec lowers");
    let in_memory = sweep::run_with(&grid, &ctx, &SweepOptions::default());

    let dir = temp_dir("e1");
    let report = stream::run(
        &spec,
        &ctx,
        &dir,
        &StreamOptions {
            shard_size: 5,
            ..Default::default()
        },
    )
    .expect("streaming run completes");
    assert!(report.finished);
    let merged = stream::merge(&dir).expect("complete run merges");

    assert_eq!(result_bytes(&merged), result_bytes(&in_memory));

    // The manifest accounts for every scenario and records the shared
    // curve cache's per-shard hit statistics.
    let manifest = SweepManifest::load(&dir).expect("manifest exists");
    assert_eq!(manifest.completed_scenarios, grid.len());
    assert_eq!(
        manifest.shards.iter().map(|s| s.scenarios).sum::<usize>(),
        grid.len()
    );
    let lookups: u64 = manifest
        .shards
        .iter()
        .map(|s| s.curve_hits + s.curve_misses)
        .sum();
    assert!(lookups > 0, "memoized run recorded no curve lookups");
    fs::remove_dir_all(&dir).ok();
}

fn synthetic_spec() -> ScenarioSpec {
    ScenarioSpec {
        name: "resume-equivalence".to_string(),
        platforms: vec![PlatformAxisSpec {
            label: "paper2-4c".to_string(),
            platform: PlatformSpec::Paper2 { num_cores: 4 },
            workloads: WorkloadSource::Synth(SynthSpec {
                seed: 1234,
                count: 8,
                num_cores: 4,
                population: MixPopulation::Mixed,
                name_prefix: "rs-".to_string(),
            }),
        }],
        qos: vec![QosAxis::uniform("strict", QosSpec::STRICT)],
        variants: vec![RmaVariant::Paper1, RmaVariant::Paper2],
        options: None,
    }
}

#[test]
fn interrupted_and_resumed_sweep_merges_byte_identically() {
    let ctx = ExperimentContext::new(true);
    let spec = synthetic_spec();

    // Reference: one uninterrupted streaming run.
    let ref_dir = temp_dir("uninterrupted");
    let report = stream::run(
        &spec,
        &ctx,
        &ref_dir,
        &StreamOptions {
            shard_size: 4,
            ..Default::default()
        },
    )
    .expect("uninterrupted run completes");
    assert!(report.finished);
    let reference = stream::merge(&ref_dir).expect("merges");

    // Interrupted: stop after 2 shards, then resume to completion.
    let dir = temp_dir("interrupted");
    let partial = stream::run(
        &spec,
        &ctx,
        &dir,
        &StreamOptions {
            shard_size: 4,
            max_shards: 2,
        },
    )
    .expect("partial run runs");
    assert!(!partial.finished);
    assert_eq!(partial.completed, 8);
    assert!(
        stream::merge(&dir).is_err(),
        "merging an incomplete run must fail"
    );

    let resumed = stream::resume(
        &ctx,
        &dir,
        &StreamOptions {
            shard_size: 4,
            ..Default::default()
        },
    )
    .expect("resume completes");
    assert!(resumed.finished);
    assert_eq!(resumed.skipped, 8);
    let merged = stream::merge(&dir).expect("resumed run merges");

    assert_eq!(result_bytes(&merged), result_bytes(&reference));

    // Saved result files are byte-identical too (the acceptance criterion
    // the CI smoke step checks with `cmp`).
    let ref_file = ref_dir.join("result.json");
    let resumed_file = dir.join("result.json");
    reference.save(&ref_file).unwrap();
    merged.save(&resumed_file).unwrap();
    assert_eq!(
        fs::read(&ref_file).unwrap(),
        fs::read(&resumed_file).unwrap()
    );

    fs::remove_dir_all(&ref_dir).ok();
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn interrupted_e10_poa_sweep_resumes_byte_identically() {
    // The quick E10 grid (4 mixes × strict × {RM2, NashBR, NashEq} = 12
    // scenarios): the game-theoretic variants must shard, resume and merge
    // byte-identically across the interruption boundary, so the PoA report
    // built from the merged result is byte-stable under kill/resume.
    let ctx = ExperimentContext::new(true);
    let spec = experiments::e10_price_of_anarchy::spec(&ctx);

    let ref_dir = temp_dir("e10_uninterrupted");
    let report = stream::run(
        &spec,
        &ctx,
        &ref_dir,
        &StreamOptions {
            shard_size: 4,
            ..Default::default()
        },
    )
    .expect("uninterrupted E10 run completes");
    assert!(report.finished);
    let reference = stream::merge(&ref_dir).expect("merges");

    let dir = temp_dir("e10_interrupted");
    let partial = stream::run(
        &spec,
        &ctx,
        &dir,
        &StreamOptions {
            shard_size: 4,
            max_shards: 2,
        },
    )
    .expect("partial E10 run runs");
    assert!(!partial.finished);
    assert_eq!(partial.completed, 8);

    let resumed = stream::resume(
        &ctx,
        &dir,
        &StreamOptions {
            shard_size: 4,
            ..Default::default()
        },
    )
    .expect("resume completes");
    assert!(resumed.finished);
    assert_eq!(resumed.skipped, 8);
    let merged = stream::merge(&dir).expect("resumed E10 run merges");

    assert_eq!(result_bytes(&merged), result_bytes(&reference));

    fs::remove_dir_all(&ref_dir).ok();
    fs::remove_dir_all(&dir).ok();
}

/// Runs the reference (uninterrupted, single-process) sweep of
/// [`synthetic_spec`] and returns its serialized merge.
fn reference_bytes(ctx: &ExperimentContext, spec: &ScenarioSpec, tag: &str) -> String {
    let ref_dir = temp_dir(tag);
    let report = stream::run(
        spec,
        ctx,
        &ref_dir,
        &StreamOptions {
            shard_size: 4,
            ..Default::default()
        },
    )
    .expect("reference run completes");
    assert!(report.finished);
    let bytes = result_bytes(&stream::merge(&ref_dir).expect("reference merges"));
    fs::remove_dir_all(&ref_dir).ok();
    bytes
}

/// Evaluates a lease's grid points exactly as a distributed worker would.
fn evaluate(ctx: &ExperimentContext, spec: &ScenarioSpec, points: &[u64]) -> (String, u64, u64) {
    dist::evaluate_points(ctx, spec, points, SweepOptions::default()).expect("points evaluate")
}

#[test]
fn expired_lease_reinjects_its_shard_and_the_merge_stays_byte_identical() {
    let ctx = ExperimentContext::new(true);
    let spec = synthetic_spec();
    let reference = reference_bytes(&ctx, &spec, "lease_ref");

    // Drive the scheduler directly with a synthetic clock: w1 takes the
    // first shard and goes silent; w2 drains the rest.
    let dir = temp_dir("lease_expiry");
    let manifest = stream::init_manifest(&spec, true, &dir, 4).expect("manifest inits");
    let counters = Arc::new(LeaseCounters::default());
    let mut scheduler =
        ShardScheduler::open(manifest, &dir, 4, 1_000, counters, false, 0).expect("opens");

    let lost = scheduler.lease("w1", 0).expect("leases").expect("a grant");
    assert_eq!(lost.epoch, 1);
    assert_eq!(lost.expires_ms, 1_000);

    let mut drained = 0;
    while let Some(lease) = scheduler.lease("w2", 100).expect("leases") {
        let (log, hits, misses) = evaluate(&ctx, &spec, &lease.points);
        let outcome = scheduler
            .complete("w2", lease.shard, lease.epoch, &log, hits, misses, 100)
            .expect("completes");
        assert!(outcome.accepted);
        drained += 1;
    }
    assert_eq!(drained, 3, "w1 still holds an unexpired lease at t=100");
    assert!(!scheduler.finished());

    // At t=2000 w1's lease has expired: the next lease call reinjects the
    // lost shard and re-grants it — same points, higher epoch.
    let regrant = scheduler
        .lease("w2", 2_000)
        .expect("leases")
        .expect("the lost shard comes back");
    assert_eq!(regrant.shard, lost.shard);
    assert_eq!(regrant.points, lost.points);
    assert_eq!(regrant.epoch, 2);
    let (log, hits, misses) = evaluate(&ctx, &spec, &regrant.points);
    assert!(
        scheduler
            .complete(
                "w2",
                regrant.shard,
                regrant.epoch,
                &log,
                hits,
                misses,
                2_100
            )
            .expect("completes")
            .accepted
    );
    assert!(scheduler.finished());

    // The presumed-dead worker finishing late is rejected as stale.
    let (late, h, m) = evaluate(&ctx, &spec, &lost.points);
    let outcome = scheduler
        .complete("w1", lost.shard, lost.epoch, &late, h, m, 3_000)
        .expect("resolves");
    assert!(outcome.stale && !outcome.accepted);

    let telemetry = scheduler.telemetry();
    assert_eq!(telemetry.granted, 5);
    assert_eq!(telemetry.expired, 1);
    assert_eq!(telemetry.reinjected, 1);
    assert_eq!(telemetry.stale_rejected, 1);
    assert_eq!(telemetry.completed, 4);
    assert_eq!(telemetry.per_worker.get("w2"), Some(&4));
    assert_eq!(telemetry.per_worker.get("w1"), None);

    let merged = stream::merge(&dir).expect("distributed run merges");
    assert_eq!(result_bytes(&merged), reference);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn duplicate_shard_completions_resolve_by_lease_epoch_in_either_order() {
    let ctx = ExperimentContext::new(true);
    let spec = synthetic_spec();
    let reference = reference_bytes(&ctx, &spec, "race_ref");

    // Two workers race the same shard across a lease epoch: w1 leases it,
    // goes quiet past expiry, and the shard is re-granted to w2. Whichever
    // order the two completions arrive in, exactly one log wins — the one
    // naming the active epoch. The loser delivers a sentinel payload so
    // the test can prove the rejected log never reaches disk.
    for stale_first in [true, false] {
        let dir = temp_dir(if stale_first { "race_sf" } else { "race_wf" });
        let manifest = stream::init_manifest(&spec, true, &dir, 8).expect("manifest inits");
        let counters = Arc::new(LeaseCounters::default());
        let mut scheduler =
            ShardScheduler::open(manifest, &dir, 8, 1_000, counters, false, 0).expect("opens");

        let contested = scheduler.lease("w1", 0).expect("leases").expect("a grant");
        let other = scheduler.lease("w2", 0).expect("leases").expect("a grant");
        let (log, hits, misses) = evaluate(&ctx, &spec, &other.points);
        assert!(
            scheduler
                .complete("w2", other.shard, other.epoch, &log, hits, misses, 10)
                .expect("completes")
                .accepted
        );

        let regrant = scheduler
            .lease("w2", 2_000)
            .expect("leases")
            .expect("the expired shard is re-granted");
        assert_eq!(regrant.shard, contested.shard);
        assert_eq!(regrant.epoch, contested.epoch + 1);

        let (winner, hits, misses) = evaluate(&ctx, &spec, &regrant.points);
        let corrupt = "{\"never\":\"written\"}\n";
        let deliveries: [(&str, u64, &str, bool); 2] = if stale_first {
            [
                ("w1", contested.epoch, corrupt, false),
                ("w2", regrant.epoch, &winner, true),
            ]
        } else {
            [
                ("w2", regrant.epoch, &winner, true),
                ("w1", contested.epoch, corrupt, false),
            ]
        };
        for (worker, epoch, log, accepted) in deliveries {
            let outcome = scheduler
                .complete(worker, regrant.shard, epoch, log, hits, misses, 2_100)
                .expect("resolves");
            assert_eq!(outcome.accepted, accepted);
            assert_eq!(outcome.stale, !accepted);
        }
        assert!(scheduler.finished());

        let on_disk = fs::read_to_string(dir.join(stream::shard_file_name(regrant.shard)))
            .expect("the winning log is on disk");
        assert_eq!(on_disk, winner, "the stale log must never reach disk");

        let telemetry = scheduler.telemetry();
        assert_eq!(telemetry.stale_rejected, 1);
        assert_eq!(telemetry.expired, 1);
        assert_eq!(telemetry.completed, 2);
        assert_eq!(telemetry.per_worker.get("w2"), Some(&2));

        let merged = stream::merge(&dir).expect("contested run merges");
        assert_eq!(result_bytes(&merged), reference);
        fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn reopened_scheduler_restores_unexpired_leases_so_live_workers_reattach() {
    let ctx = ExperimentContext::new(true);
    let spec = synthetic_spec();
    let reference = reference_bytes(&ctx, &spec, "restart_ref");

    // First coordinator: w1 holds a long lease, w2 has completed a shard.
    // Dropping the scheduler without further ceremony is a SIGKILL — all
    // scheduling state is already durable in the manifest.
    let dir = temp_dir("restart");
    let manifest = stream::init_manifest(&spec, true, &dir, 4).expect("manifest inits");
    let mut scheduler = ShardScheduler::open(
        manifest,
        &dir,
        4,
        10_000,
        Arc::new(LeaseCounters::default()),
        false,
        0,
    )
    .expect("opens");
    let held = scheduler.lease("w1", 0).expect("leases").expect("a grant");
    let done = scheduler.lease("w2", 0).expect("leases").expect("a grant");
    let (log, hits, misses) = evaluate(&ctx, &spec, &done.points);
    assert!(
        scheduler
            .complete("w2", done.shard, done.epoch, &log, hits, misses, 50)
            .expect("completes")
            .accepted
    );
    drop(scheduler);

    // Second coordinator, same directory, 5s later: w1's lease is not
    // expired, so it must be restored — not reinjected — and w1 simply
    // keeps going: heartbeats renew, and its epoch-1 completion lands.
    let manifest = SweepManifest::load(&dir).expect("manifest reloads");
    let counters = Arc::new(LeaseCounters::default());
    let mut scheduler =
        ShardScheduler::open(manifest, &dir, 4, 10_000, counters, false, 5_000).expect("reopens");
    let extra = scheduler
        .lease("w1", 5_000)
        .expect("leases")
        .expect("a never-granted shard is still pending after the restart");
    assert_ne!(
        extra.shard, held.shard,
        "the live lease must not be re-granted"
    );
    assert_eq!(
        scheduler
            .heartbeat("w1", held.shard, held.epoch, 6_000)
            .expect("beats"),
        Some(16_000),
        "the restored lease renews under its original epoch"
    );
    assert_eq!(
        scheduler
            .heartbeat("w1", held.shard, held.epoch + 1, 6_000)
            .expect("beats"),
        None,
        "a heartbeat naming a never-issued epoch is refused"
    );
    let (log, hits, misses) = evaluate(&ctx, &spec, &held.points);
    assert!(
        scheduler
            .complete("w1", held.shard, held.epoch, &log, hits, misses, 7_000)
            .expect("completes")
            .accepted,
        "the live worker's completion survives the coordinator restart"
    );

    let (log, hits, misses) = evaluate(&ctx, &spec, &extra.points);
    assert!(
        scheduler
            .complete("w1", extra.shard, extra.epoch, &log, hits, misses, 7_000)
            .expect("completes")
            .accepted
    );

    let record = scheduler
        .manifest()
        .leases
        .iter()
        .find(|record| record.shard == held.shard)
        .expect("the held shard has a record");
    assert!(record.done);
    assert_eq!(record.epoch, held.epoch, "epochs never regress on restart");
    while let Some(lease) = scheduler.lease("w1", 7_000).expect("leases") {
        let (log, hits, misses) = evaluate(&ctx, &spec, &lease.points);
        assert!(
            scheduler
                .complete("w1", lease.shard, lease.epoch, &log, hits, misses, 7_000)
                .expect("completes")
                .accepted
        );
    }
    assert!(scheduler.finished());

    let telemetry = scheduler.telemetry();
    assert_eq!(telemetry.renewed, 1);
    assert_eq!(telemetry.expired, 0);
    assert_eq!(telemetry.stale_rejected, 0);

    let merged = stream::merge(&dir).expect("restarted run merges");
    assert_eq!(result_bytes(&merged), reference);
    fs::remove_dir_all(&dir).ok();
}
