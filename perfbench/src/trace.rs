//! The traced run: a separate invocation on the same seed that attributes
//! each workload's wall time to the program's layers.
//!
//! Spans are recorded by the benchmark's own code around calls into each
//! layer's public functions; the program itself is not modified. Batch
//! pipelines are composed serially from those public calls (spec lowering,
//! database build, co-phase simulation with a timing decorator around the
//! manager, serialization, durable writes, merge), and the composed result
//! bytes are checked against the shipped binaries'. Spans live in memory and
//! are written as JSONL when the run ends.

use crate::gen;
use crate::procs;
use crate::workloads::{self, same, write_spec, Env, Requests, ServePlan, Tally};
use experiments::dist::{evaluate_points, WorkerClient};
use experiments::stream::{self, LeaseRecord, ShardRecord, StreamOptions, MANIFEST_FILE};
use experiments::sweep::{ScenarioKey, ScenarioOutcome, SweepOptions};
use experiments::{run_experiment, ExperimentContext, ScenarioSpec, ALL_EXPERIMENTS};
use qosrm_core::{CoordinatedRma, RmaWorkCounters};
use qosrm_types::{CoreId, CoreObservation, ResourceManager, SystemSetting};
use rma_sim::CophaseSimulator;
use std::collections::{BTreeMap, HashSet};
use std::fs;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span. `parent` indexes the enclosing span of the same
/// trace; `id` names the request, shard or scenario the span served.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub id: String,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }
}

/// An in-memory span recorder. A disabled tracer records nothing, which is
/// how the untraced comparison runs of the same code are made.
pub struct Tracer {
    epoch: Instant,
    on: bool,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(epoch: Instant, on: bool) -> Self {
        Tracer {
            epoch,
            on,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Opens a span under the innermost open one; returns its index.
    pub fn open(&mut self, name: &str, id: &str) -> usize {
        if !self.on {
            return 0;
        }
        let now = self.now();
        self.spans.push(Span {
            name: name.to_string(),
            start: now,
            end: now,
            parent: self.stack.last().copied(),
            id: id.to_string(),
        });
        self.stack.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if let Some(index) = self.stack.pop() {
            self.spans[index].end = self.now();
        }
    }

    /// Times `f` as one span.
    pub fn span<T>(&mut self, name: &str, id: &str, f: impl FnOnce() -> T) -> T {
        self.open(name, id);
        let value = f();
        self.close();
        value
    }

    /// Records `seconds` measured inside span `parent` (an accumulated
    /// time, not one interval) as its child.
    pub fn add_child(&mut self, parent: usize, name: &str, seconds: f64) {
        if !self.on {
            return;
        }
        let start = self.spans[parent].start;
        self.spans.push(Span {
            name: name.to_string(),
            start,
            end: start + seconds,
            parent: Some(parent),
            id: self.spans[parent].id.clone(),
        });
    }
}

/// Each span's self time: its duration minus its children's.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::seconds).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] -= span.seconds();
        }
    }
    own
}

/// Self time per span name, in first-appearance order.
pub fn self_by_name(spans: &[Span]) -> Vec<(String, f64)> {
    let own = self_times(spans);
    let mut rows: Vec<(String, f64)> = Vec::new();
    for (span, seconds) in spans.iter().zip(own) {
        match rows.iter_mut().find(|(name, _)| *name == span.name) {
            Some(row) => row.1 += seconds,
            None => rows.push((span.name.clone(), seconds)),
        }
    }
    rows
}

/// The traced run of one workload.
pub struct TraceReport {
    pub tally: Tally,
    /// The wall the layer table explains.
    pub wall: f64,
    /// Layer rows of the table (name, seconds); the remainder of `wall` is
    /// `trace.unattributed_s`.
    pub rows: Vec<(String, f64)>,
    /// Per-layer metrics by name (those the workload does not exercise are
    /// absent).
    pub metrics: BTreeMap<String, f64>,
    /// Every recorded span, tagged with its trace (`compose`, `wall`, ...).
    pub spans: Vec<(String, Span)>,
}

impl TraceReport {
    fn new() -> Self {
        TraceReport {
            tally: Tally::default(),
            wall: 0.0,
            rows: Vec::new(),
            metrics: BTreeMap::new(),
            spans: Vec::new(),
        }
    }

    fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    fn keep(&mut self, trace: &str, tracer: Tracer) {
        self.spans.extend(
            tracer
                .spans
                .into_iter()
                .map(|span| (trace.to_string(), span)),
        );
    }

    /// Folds in another traced run: its operations, its spans (tagged with
    /// `prefix`) and its metrics whose names start with `prefix`.
    pub fn absorb(&mut self, other: TraceReport, prefix: &str) {
        self.tally.absorb(other.tally);
        self.metrics.extend(
            other
                .metrics
                .into_iter()
                .filter(|(name, _)| name.starts_with(prefix)),
        );
        self.spans.extend(
            other
                .spans
                .into_iter()
                .map(|(trace, span)| (format!("{prefix}{trace}"), span)),
        );
    }

    /// `trace.unattributed_s`: the wall no layer row explains.
    pub fn unattributed(&self) -> f64 {
        self.wall - self.rows.iter().map(|(_, s)| s).sum::<f64>()
    }

    /// Fails the run if a layer claims more than the wall (self times of a
    /// correct attribution never do).
    fn check_rows(&mut self) {
        let wall = self.wall;
        let outcome = match self.rows.iter().find(|(_, s)| *s > wall) {
            Some((name, s)) => Err(format!(
                "layer {name} self time {s:.4}s exceeds the wall {wall:.4}s"
            )),
            None => Ok(()),
        };
        self.tally.record(outcome);
    }
}

/// The timing decorator: forwards every [`ResourceManager`] method to the
/// wrapped manager and accumulates the time spent in `on_interval`.
pub struct TimedManager {
    pub inner: CoordinatedRma,
    pub busy: Duration,
}

impl ResourceManager for TimedManager {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_interval(
        &mut self,
        core: CoreId,
        observation: &CoreObservation,
        current: &SystemSetting,
    ) -> SystemSetting {
        let start = Instant::now();
        let setting = self.inner.on_interval(core, observation, current);
        self.busy += start.elapsed();
        setting
    }

    fn invocation_overhead_instructions(&self, num_cores: usize) -> u64 {
        self.inner.invocation_overhead_instructions(num_cores)
    }

    fn reset(&mut self, num_cores: usize) {
        self.inner.reset(num_cores)
    }

    fn qos_at_risk_intervals(&self) -> u64 {
        self.inner.qos_at_risk_intervals()
    }
}

/// Adds `b` to `a`, counter by counter.
fn add_counters(a: &mut RmaWorkCounters, b: &RmaWorkCounters) {
    let RmaWorkCounters {
        invocations,
        curve_builds,
        local_evaluations,
        reduction_ops,
        reduction_pruned,
        qos_at_risk_intervals,
        game_rounds,
        best_response_evaluations,
        equilibria_examined,
        delta_invocations,
        curves_patched,
        warm_rows_reused,
        chunked_conv_lanes,
    } = *b;
    a.invocations += invocations;
    a.curve_builds += curve_builds;
    a.local_evaluations += local_evaluations;
    a.reduction_ops += reduction_ops;
    a.reduction_pruned += reduction_pruned;
    a.qos_at_risk_intervals += qos_at_risk_intervals;
    a.game_rounds += game_rounds;
    a.best_response_evaluations += best_response_evaluations;
    a.equilibria_examined += equilibria_examined;
    a.delta_invocations += delta_invocations;
    a.curves_patched += curves_patched;
    a.warm_rows_reused += warm_rows_reused;
    a.chunked_conv_lanes += chunked_conv_lanes;
}

fn hit_rate(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// Lease expiry the single-process executor stamps on its own leases.
const LOCAL_LEASE_EXPIRY_MS: u64 = u64::MAX / 4;

/// The serial composition of the single-process sweep pipeline
/// (`sweep run` + `sweep merge`) from public calls, with its counters.
pub struct Composer {
    pub ctx: ExperimentContext,
    pub incremental: bool,
    pub shard_size: usize,
    databases: HashSet<String>,
    pub counters: RmaWorkCounters,
    pub intervals: u64,
    pub builds: u64,
    pub shards: u64,
    pub writes: u64,
    pub manifest_bytes: u64,
}

impl Composer {
    pub fn new(shard_size: usize, incremental: bool) -> Self {
        Composer {
            ctx: ExperimentContext::new(true),
            incremental,
            shard_size,
            databases: HashSet::new(),
            counters: RmaWorkCounters::default(),
            intervals: 0,
            builds: 0,
            shards: 0,
            writes: 0,
            manifest_bytes: 0,
        }
    }

    fn save_manifest(
        &mut self,
        tracer: &mut Tracer,
        manifest: &stream::SweepManifest,
        dir: &Path,
        id: &str,
    ) -> Result<(), String> {
        let path = dir.join(MANIFEST_FILE);
        tracer
            .span("persist.manifest_save", id, || {
                simdb::persist::save_json_durable(manifest, &path)
            })
            .map_err(|e| e.to_string())?;
        self.manifest_bytes += fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        Ok(())
    }

    /// Runs the spec file at `spec_path` into the fresh run directory `dir`
    /// and returns the merged result bytes.
    pub fn run(
        &mut self,
        tracer: &mut Tracer,
        spec_path: &Path,
        dir: &Path,
    ) -> Result<Vec<u8>, String> {
        let (spec, grid) = tracer.span("spec.lower", "", || -> Result<_, String> {
            let spec = ScenarioSpec::load(spec_path).map_err(|e| e.to_string())?;
            let grid = spec.lower().map_err(|e| e.to_string())?;
            Ok((spec, grid))
        })?;
        let databases: Vec<simdb::SimDb> = grid
            .platforms
            .iter()
            .map(|axis| {
                let mut names: Vec<&str> = axis
                    .mixes
                    .iter()
                    .flat_map(|mix| mix.benchmarks.iter().map(String::as_str))
                    .collect();
                names.sort_unstable();
                names.dedup();
                let key = format!(
                    "{:?}/{}",
                    qosrm_core::memo::fingerprint(&axis.platform),
                    names.join(",")
                );
                if self.databases.insert(key) {
                    self.builds += 1;
                }
                tracer.span("simdb.build", &axis.label, || {
                    self.ctx.database(&axis.platform, &axis.mixes)
                })
            })
            .collect();

        // The manifest as `stream::run` evolves it: created, scheduled (one
        // lease record per shard), then saved on every lease and completion.
        let mut manifest = tracer
            .span("persist.manifest_save", "", || {
                stream::init_manifest(&spec, true, dir, self.shard_size)
            })
            .map_err(|e| e.to_string())?;
        let mut points = Vec::with_capacity(grid.len());
        for (a, axis) in grid.platforms.iter().enumerate() {
            for m in 0..axis.mixes.len() {
                for q in 0..grid.qos.len() {
                    for v in 0..grid.variants.len() {
                        points.push((a, m, q, v));
                    }
                }
            }
        }
        let chunks: Vec<Vec<usize>> = (0..points.len())
            .collect::<Vec<_>>()
            .chunks(self.shard_size.max(1))
            .map(<[usize]>::to_vec)
            .collect();
        manifest.leases = chunks
            .iter()
            .enumerate()
            .map(|(shard, chunk)| LeaseRecord {
                shard: shard as u64,
                worker: String::new(),
                epoch: 0,
                expires_ms: 0,
                done: false,
                indices: chunk.iter().map(|&i| i as u64).collect(),
            })
            .collect();
        self.save_manifest(tracer, &manifest, dir, "")?;

        let cache = self.ctx.curve_cache().clone();
        for (shard, chunk) in chunks.iter().enumerate() {
            let file = stream::shard_file_name(shard as u64);
            {
                let record = &mut manifest.leases[shard];
                record.worker = stream::LOCAL_WORKER.to_string();
                record.epoch += 1;
                record.expires_ms = LOCAL_LEASE_EXPIRY_MS;
            }
            self.save_manifest(tracer, &manifest, dir, &file)?;
            let (hits, misses) = (cache.hits(), cache.misses());

            let mut units: Vec<((usize, usize), CophaseSimulator, rma_sim::SimulationResult)> =
                Vec::new();
            for &index in chunk {
                let (a, m, _, _) = points[index];
                if units.iter().any(|(pair, _, _)| *pair == (a, m)) {
                    continue;
                }
                let mix = &grid.platforms[a].mixes[m];
                let (simulator, baseline) = tracer.span("rma_sim.baseline", &mix.name, || {
                    let simulator = CophaseSimulator::new(&databases[a], mix, grid.options.clone())
                        .map_err(|e| e.to_string())?;
                    let baseline = simulator.run_baseline().map_err(|e| e.to_string())?;
                    Ok::<_, String>((simulator, baseline))
                })?;
                units.push(((a, m), simulator, baseline));
            }

            let mut log = String::new();
            let mut outcomes = Vec::new();
            for &index in chunk {
                let (a, m, q, v) = points[index];
                let axis = &grid.platforms[a];
                let key = ScenarioKey {
                    platform: axis.label.clone(),
                    mix: axis.mixes[m].name.clone(),
                    qos: grid.qos[q].label.clone(),
                    variant: grid.variants[v].label().to_string(),
                };
                let qos = grid.qos[q].policy.resolve(axis.platform.num_cores);
                let mut manager = grid.variants[v]
                    .build(&axis.platform, qos.clone())
                    .with_curve_cache(cache.clone());
                if self.incremental {
                    manager = manager.with_incremental();
                }
                let (_, simulator, baseline) = units
                    .iter()
                    .find(|(pair, _, _)| *pair == (a, m))
                    .expect("unit built above");
                let id = key.to_string();
                let run = tracer.open("rma_sim.run", &id);
                let (comparison, managed, counters, busy) = if tracer.on {
                    let mut timed = TimedManager {
                        inner: manager,
                        busy: Duration::ZERO,
                    };
                    let (comparison, managed) = simulator
                        .run_comparison(&mut timed, baseline, &qos)
                        .map_err(|e| e.to_string())?;
                    (comparison, managed, timed.inner.work_counters(), timed.busy)
                } else {
                    let (comparison, managed) = simulator
                        .run_comparison(&mut manager, baseline, &qos)
                        .map_err(|e| e.to_string())?;
                    (comparison, managed, manager.work_counters(), Duration::ZERO)
                };
                tracer.close();
                tracer.add_child(run, "core.rma", busy.as_secs_f64());
                add_counters(&mut self.counters, &counters);
                self.intervals += managed.intervals.len() as u64;
                outcomes.push(ScenarioOutcome { key, comparison });
            }
            drop(units);
            tracer.span("stream.serialize", &file, || -> Result<(), String> {
                for outcome in &outcomes {
                    log.push_str(&serde_json::to_string(outcome).map_err(|e| e.to_string())?);
                    log.push('\n');
                }
                Ok(())
            })?;
            tracer
                .span("persist.write", &file, || {
                    simdb::persist::write_atomic_durable(&dir.join(&file), log.as_bytes())
                })
                .map_err(|e| e.to_string())?;
            self.writes += 1;
            self.shards += 1;
            manifest.completed_scenarios += outcomes.len();
            manifest.shards.push(ShardRecord {
                file: file.clone(),
                scenarios: outcomes.len(),
                curve_hits: cache.hits() - hits,
                curve_misses: cache.misses() - misses,
            });
            manifest.leases[shard].done = true;
            self.save_manifest(tracer, &manifest, dir, &file)?;
        }

        let result_path = dir.with_extension("result.json");
        tracer
            .span("stream.merge", "", || {
                stream::merge(dir).and_then(|result| result.save(&result_path))
            })
            .map_err(|e| e.to_string())?;
        fs::read(&result_path).map_err(|e| e.to_string())
    }

    /// Records the composition's layer metrics.
    fn report(&self, spans: &[Span], report: &mut TraceReport) {
        let rows = self_by_name(spans);
        let layer = |name: &str| {
            rows.iter()
                .find(|(n, _)| n == name)
                .map(|(_, s)| *s)
                .unwrap_or(0.0)
        };
        let rma_self = layer("rma_sim.run");
        report.set("spec.lower_s", layer("spec.lower"));
        report.set("simdb.build_s", layer("simdb.build"));
        report.set("simdb.builds", self.builds as f64);
        report.set("rma_sim.baseline_s", layer("rma_sim.baseline"));
        report.set("rma_sim.self_s", rma_self);
        report.set("rma_sim.intervals", self.intervals as f64);
        report.set(
            "rma_sim.ns_per_interval",
            if self.intervals == 0 {
                0.0
            } else {
                rma_self * 1e9 / self.intervals as f64
            },
        );
        report.set("core.rma_s", layer("core.rma"));
        set_core_counters(report, &self.counters);
        let cache = self.ctx.curve_cache();
        report.set(
            "core.curve_cache_hit_rate",
            hit_rate(cache.hits(), cache.misses()),
        );
        report.set("persist.write_s", layer("persist.write"));
        report.set("persist.writes", self.writes as f64);
        report.set("persist.manifest_bytes", self.manifest_bytes as f64);
        report.set("persist.manifest_save_s", layer("persist.manifest_save"));
        report.set("stream.shards", self.shards as f64);
        report.set("stream.merge_s", layer("stream.merge"));
    }
}

fn set_core_counters(report: &mut TraceReport, counters: &RmaWorkCounters) {
    report.set("core.invocations", counters.invocations as f64);
    report.set("core.curve_builds", counters.curve_builds as f64);
    report.set("core.local_evaluations", counters.local_evaluations as f64);
    report.set("core.reduction_ops", counters.reduction_ops as f64);
    report.set("core.reduction_pruned", counters.reduction_pruned as f64);
    report.set("core.delta_invocations", counters.delta_invocations as f64);
    report.set("core.game_rounds", counters.game_rounds as f64);
    report.set(
        "core.equilibria_examined",
        counters.equilibria_examined as f64,
    );
}

fn overhead(traced: f64, untraced: f64) -> f64 {
    if untraced > 0.0 {
        (traced - untraced) / untraced
    } else {
        0.0
    }
}

/// One composition of `spec_path` on a fresh composer; returns the bytes,
/// the wall and the composer.
fn compose_once(
    env: &Env,
    tracer: &mut Tracer,
    spec_path: &Path,
    name: &str,
    shard_size: usize,
    incremental: bool,
) -> Result<(Vec<u8>, f64, Composer), String> {
    let dir = env.work.join(name);
    let _ = fs::remove_dir_all(&dir);
    let mut composer = Composer::new(shard_size, incremental);
    let start = Instant::now();
    tracer.open("wall", name);
    let bytes = composer.run(tracer, spec_path, &dir);
    tracer.close();
    let wall = start.elapsed().as_secs_f64();
    Ok((bytes?, wall, composer))
}

/// `sweep-manycore`: the composed `sweep run` + `sweep merge`, traced once
/// and untraced twice, checked against the CLI.
pub fn sweep_manycore(env: &Env) -> TraceReport {
    let mut report = TraceReport::new();
    let spec = gen::sweep_manycore(env.seed);
    let spec_path = write_spec(env, &spec);
    let cli = workloads::sweep_run_and_merge(env, &spec_path, &env.work.join("cli"));
    let cli = match cli {
        Ok(bytes) => bytes,
        Err(e) => {
            report.tally.record(Err(e));
            return report;
        }
    };
    let epoch = Instant::now();
    let shard_size = StreamOptions::default().shard_size;
    // Untraced compositions bracket the traced one, so a drift of the
    // machine's speed during the run biases the overhead less.
    let mut untraced = Vec::new();
    let mut untraced_run = |k: usize, report: &mut TraceReport| {
        let mut off = Tracer::new(epoch, false);
        match compose_once(
            env,
            &mut off,
            &spec_path,
            &format!("untraced-{k}"),
            shard_size,
            false,
        ) {
            Ok((bytes, wall, _)) => {
                untraced.push(wall);
                report
                    .tally
                    .record(same("untraced composition vs CLI merge", &bytes, &cli));
            }
            Err(e) => report.tally.record(Err(e)),
        }
    };
    untraced_run(0, &mut report);
    let mut tracer = Tracer::new(epoch, true);
    let traced = compose_once(env, &mut tracer, &spec_path, "traced", shard_size, false);
    untraced_run(1, &mut report);
    match traced {
        Ok((bytes, wall, composer)) => {
            report
                .tally
                .record(same("traced composition vs CLI merge", &bytes, &cli));
            report.wall = wall;
            composer.report(&tracer.spans, &mut report);
            report.rows = self_by_name(&tracer.spans)
                .into_iter()
                .filter(|(name, _)| name != "wall")
                .collect();
            report.set(
                "trace.overhead_frac",
                overhead(wall, crate::stats::median(&untraced)),
            );
        }
        Err(e) => report.tally.record(Err(e)),
    }
    report.keep("compose", tracer);
    report.check_rows();
    report
}

/// `paper-quick`: `run_experiment` per experiment on a cold context, then
/// on a context whose on-disk database cache was pre-warmed; the difference
/// is the database build.
pub fn paper_quick(env: &Env) -> TraceReport {
    let mut report = TraceReport::new();
    let cli = procs::run(&env.bin("qosrm_experiments"), &["--quick"]);
    let untraced_start = Instant::now();
    let reference = workloads::paper_reference();
    let untraced = untraced_start.elapsed().as_secs_f64();
    report
        .tally
        .record(cli.and_then(|cli| same("CLI stdout vs in-process suite", &cli, &reference)));

    let epoch = Instant::now();
    let header = "qosrm-experiments: reproducing the paper's evaluation (quick mode)\n\n";
    let suite = |tracer: &mut Tracer, ctx: &ExperimentContext, prefix: &str| {
        let mut out = String::from(header);
        let mut seconds = Vec::new();
        for id in ALL_EXPERIMENTS {
            let start = Instant::now();
            let rendered = tracer.span(&format!("{prefix}{id}"), id, || {
                run_experiment(id, ctx).expect("known experiment").render()
            });
            seconds.push(start.elapsed().as_secs_f64());
            out.push_str(&rendered);
        }
        (out.into_bytes(), seconds)
    };

    let mut tracer = Tracer::new(epoch, true);
    let cold_ctx = ExperimentContext::new(true);
    let start = Instant::now();
    tracer.open("wall", "cold");
    let (cold_bytes, cold) = suite(&mut tracer, &cold_ctx, "paper.cold.");
    tracer.close();
    report.wall = start.elapsed().as_secs_f64();
    report
        .tally
        .record(same("traced cold suite", &cold_bytes, &reference));

    let cache = env.fresh_dir("simdb-cache");
    let prewarm = ExperimentContext::new(true).with_cache_dir(cache.clone());
    tracer.span("simdb.prewarm", "", || {
        suite(&mut Tracer::new(epoch, false), &prewarm, "")
    });
    let builds = fs::read_dir(&cache)
        .map(|entries| entries.filter_map(Result::ok).count())
        .unwrap_or(0);
    let warm_ctx = ExperimentContext::new(true).with_cache_dir(cache);
    tracer.open("warm", "warm");
    let (warm_bytes, warm) = suite(&mut tracer, &warm_ctx, "paper.");
    tracer.close();
    report
        .tally
        .record(same("warm-cache suite", &warm_bytes, &reference));

    let build = cold.iter().sum::<f64>() - warm.iter().sum::<f64>();
    report.rows.push(("simdb.build".to_string(), build));
    for (id, seconds) in ALL_EXPERIMENTS.iter().zip(&warm) {
        report.set(&format!("paper.{id}_s"), *seconds);
        report.rows.push((format!("paper.{id}"), *seconds));
    }
    report.set("simdb.build_s", build);
    report.set("simdb.builds", builds as f64);
    set_core_counters(&mut report, &cold_ctx.rma_telemetry().snapshot());
    let cache = cold_ctx.curve_cache();
    report.set(
        "core.curve_cache_hit_rate",
        hit_rate(cache.hits(), cache.misses()),
    );
    report.set("trace.overhead_frac", overhead(report.wall, untraced));
    report.keep("paper", tracer);
    report.check_rows();
    report
}

/// `dist-shards`: one untraced and one traced coordinated run (coordinator
/// `/status` read before and after), plus the in-process references the
/// layers are priced against.
pub fn dist_shards(env: &Env) -> TraceReport {
    let mut report = TraceReport::new();
    let spec = gen::dist_shards(env.seed);
    let spec_path = write_spec(env, &spec);
    let reference = workloads::in_memory_result(&spec, &ExperimentContext::new(true));
    let epoch = Instant::now();

    // The composed single-process pipeline at the coordinated run's shard
    // size, with the workers' incremental managers.
    let mut tracer = Tracer::new(epoch, true);
    match compose_once(env, &mut tracer, &spec_path, "compose", 1, true) {
        Ok((bytes, _, composer)) => {
            report
                .tally
                .record(same("composition vs in-memory sweep", &bytes, &reference));
            composer.report(&tracer.spans, &mut report);
        }
        Err(e) => report.tally.record(Err(e)),
    }
    report.keep("compose", tracer);

    let coordinated = |traced: bool, report: &mut TraceReport| -> Result<f64, String> {
        let out = env.work.join(if traced {
            "dist-traced"
        } else {
            "dist-untraced"
        });
        let (mut coordinator, addr) = workloads::spawn_coordinator(env, &spec_path, &out)?;
        let status = WorkerClient::new(&addr, 3);
        let before = if traced {
            Some(status.status().map_err(|e| e.to_string())?)
        } else {
            None
        };
        let mut tracer = Tracer::new(epoch, traced);
        let start = Instant::now();
        tracer.open("wall", "coordinated");
        tracer.span("dist.workers", "", || workloads::run_workers(env, &addr))?;
        let result_path = out.with_extension("result.json");
        tracer
            .span("stream.merge", "", || {
                stream::merge(&out).and_then(|r| r.save(&result_path))
            })
            .map_err(|e| e.to_string())?;
        tracer.close();
        let wall = start.elapsed().as_secs_f64();
        if let Some(before) = before {
            let after = status.status().map_err(|e| e.to_string())?;
            report.set(
                "dist.leases_granted",
                (after.leases.granted - before.leases.granted) as f64,
            );
            report.set(
                "dist.leases_renewed",
                (after.leases.renewed - before.leases.renewed) as f64,
            );
            report.set(
                "dist.stale_completions",
                (after.leases.stale_rejected - before.leases.stale_rejected) as f64,
            );
            report.set(
                "stream.merge_s",
                self_by_name(&tracer.spans)
                    .iter()
                    .find(|(n, _)| n == "stream.merge")
                    .map(|(_, s)| *s)
                    .unwrap_or(0.0),
            );
        }
        coordinator
            .wait_ok()
            .map_err(|e| format!("coordinator {e}"))?;
        let merged = fs::read(&result_path).map_err(|e| e.to_string())?;
        same("coordinated merge", &merged, &reference)?;
        report.keep(if traced { "wall" } else { "untraced" }, tracer);
        Ok(wall)
    };
    let untraced = coordinated(false, &mut report);
    let traced = coordinated(true, &mut report);
    let (untraced, traced) = match (untraced, traced) {
        (Ok(u), Ok(t)) => {
            report.tally.record(Ok(()));
            report.tally.record(Ok(()));
            (u, t)
        }
        (u, t) => {
            for outcome in [u, t] {
                report.tally.record(outcome.map(|_| ()));
            }
            return report;
        }
    };
    report.wall = traced;
    report.set("trace.overhead_frac", overhead(traced, untraced));

    // What the workers compute, priced in-process on one warm context.
    let mut tracer = Tracer::new(epoch, true);
    let ctx = ExperimentContext::new(true);
    let grid = spec.lower().expect("generated specs lower");
    let build_start = Instant::now();
    tracer.span("simdb.build", "", || {
        for axis in &grid.platforms {
            ctx.database(&axis.platform, &axis.mixes);
        }
    });
    let build = build_start.elapsed().as_secs_f64();
    let options = SweepOptions {
        parallel: true,
        memoize: true,
        incremental: true,
    };
    let mut compute = 0.0;
    for index in 0..grid.len() as u64 {
        let start = Instant::now();
        let evaluated = tracer.span("dist.compute", &index.to_string(), || {
            evaluate_points(&ctx, &spec, &[index], options)
        });
        compute += start.elapsed().as_secs_f64();
        report
            .tally
            .record(evaluated.map(|_| ()).map_err(|e| e.to_string()));
    }
    let single_dir = env.work.join("dist-single");
    let single_start = Instant::now();
    let single = tracer.span("dist.single", "", || {
        stream::run(
            &spec,
            &ExperimentContext::new(true),
            &single_dir,
            &StreamOptions {
                shard_size: 1,
                ..Default::default()
            },
        )
    });
    let single_wall = single_start.elapsed().as_secs_f64();
    report
        .tally
        .record(single.map(|_| ()).map_err(|e| e.to_string()));
    report.keep("priced", tracer);

    let workers = 2.0;
    report.set("simdb.build_s", build);
    report.set("dist.compute_s", compute);
    report.set("dist.single_wall_s", single_wall);
    report.set("dist.wait_s", traced - single_wall);
    report.rows = vec![
        ("simdb.build".to_string(), build),
        ("dist.compute_per_worker".to_string(), compute / workers),
        (
            "stream.merge".to_string(),
            report.metrics.get("stream.merge_s").copied().unwrap_or(0.0),
        ),
    ];
    report.check_rows();
    report
}

/// Streams `/runs/{id}/stream` over a raw connection so the first outcome
/// line can be timed; returns the seconds to the first line.
fn stream_timed(addr: SocketAddr, run_id: &str) -> Result<Option<f64>, String> {
    let start = Instant::now();
    let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(crate::procs::DEADLINE))
        .map_err(|e| e.to_string())?;
    let head = format!(
        "GET /runs/{run_id}/stream?from=0 HTTP/1.0\r\n{}: {}\r\nContent-Length: 0\r\n\r\n",
        qosrm_proto::http::PROTO_VERSION_HEADER,
        qosrm_proto::http::PROTO_VERSION
    );
    stream
        .write_all(head.as_bytes())
        .map_err(|e| e.to_string())?;
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut raw = Vec::new();
    let mut first = None;
    let mut body_at = None;
    let mut buf = [0u8; 16 * 1024];
    loop {
        let n = stream.read(&mut buf).map_err(|e| e.to_string())?;
        if n == 0 {
            break;
        }
        raw.extend_from_slice(&buf[..n]);
        if body_at.is_none() {
            body_at = raw.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4);
        }
        if let (None, Some(at)) = (first, body_at) {
            if raw[at..].contains(&b'\n') {
                first = Some(start.elapsed().as_secs_f64());
            }
        }
    }
    let at = body_at.ok_or("stream response has no head")?;
    if !raw.starts_with(b"HTTP/1.0 200") && !raw.starts_with(b"HTTP/1.1 200") {
        return Err(format!(
            "stream answered {:?}",
            String::from_utf8_lossy(&raw[..at.min(40)])
        ));
    }
    Ok(first)
}

/// `serve-small`: the request plan once untraced and once with client-side
/// spans, `/stats` deltas around the traced phase, plus the composed
/// pipeline and the in-process compute of the same specs.
pub fn serve_small(env: &Env) -> TraceReport {
    let mut report = TraceReport::new();
    let plan = ServePlan::new(env.seed);
    let epoch = Instant::now();

    // Composition of every distinct spec through one resident context (the
    // daemon's shape: shard size 1, incremental managers).
    let mut tracer = Tracer::new(epoch, true);
    let mut composer = Composer::new(1, true);
    let mut specs: Vec<(&String, &Vec<u8>)> = vec![(&plan.warmup.0, &plan.warmup.1)];
    specs.extend(
        plan.clients
            .iter()
            .flatten()
            .filter(|(_, _, dedup)| !dedup)
            .map(|(json, reference, _)| (json, reference)),
    );
    for (k, (json, reference)) in specs.iter().enumerate() {
        let path = env.work.join(format!("serve-spec-{k}.json"));
        let dir = env.work.join(format!("serve-compose-{k}"));
        let outcome = fs::write(&path, json)
            .map_err(|e| e.to_string())
            .and_then(|()| composer.run(&mut tracer, &path, &dir))
            .and_then(|bytes| same("composition vs in-memory sweep", &bytes, reference));
        report.tally.record(outcome);
    }
    composer.report(&tracer.spans, &mut report);
    report.keep("compose", tracer);

    let untraced = match workloads::ready_daemon(env, "serve-untraced", &plan) {
        Ok(daemon) => {
            let (wall, _, tally) = workloads::untraced_phase(&daemon, &plan);
            report.tally.absorb(tally);
            wall
        }
        Err(e) => {
            report.tally.record(Err(e));
            return report;
        }
    };
    let daemon = match workloads::ready_daemon(env, "serve-traced", &plan) {
        Ok(daemon) => daemon,
        Err(e) => {
            report.tally.record(Err(e));
            return report;
        }
    };
    let before = daemon.client.stats();
    let (client, addr) = (&daemon.client, daemon.addr);
    let (wall, results) = workloads::closed_loop(&plan, |c, requests: &Requests| {
        let who = format!("client-{c}");
        let mut tracer = Tracer::new(epoch, true);
        let mut tally = Tally::default();
        let mut first_outcome = Vec::new();
        for (k, (json, reference, dedup)) in requests.iter().enumerate() {
            let id = format!("{who}/{k}");
            tracer.open("request", &id);
            let outcome = (|| -> Result<(), String> {
                let (_, status) = tracer
                    .span("serve.submit", &id, || client.submit(json, &who, true, 1))
                    .map_err(|e| e.to_string())?;
                let first = tracer.span("serve.stream", &id, || stream_timed(addr, &status.id))?;
                if !dedup {
                    first_outcome.extend(first);
                }
                let name = if *dedup {
                    "serve.dedup_result"
                } else {
                    "serve.result"
                };
                let bytes = tracer
                    .span(name, &id, || client.result(&status.id))
                    .map_err(|e| e.to_string())?;
                same("/result", &bytes, reference)
            })();
            tracer.close();
            tally.record(outcome);
        }
        (tracer, tally, first_outcome)
    });
    let after = daemon.client.stats();
    drop(daemon);

    let mut spans = Vec::new();
    let mut first_outcome = Vec::new();
    for (tracer, tally, first) in results {
        report.tally.absorb(tally);
        first_outcome.extend(first);
        spans.extend(
            tracer
                .spans
                .iter()
                .cloned()
                .map(|s| ("wall".to_string(), s)),
        );
    }
    let traced: Vec<Span> = spans.iter().map(|(_, s)| s.clone()).collect();
    let requests = traced.iter().filter(|s| s.name == "request").count().max(1) as f64;
    let mean_of = |name: &str| {
        let matching: Vec<f64> = traced
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect();
        if matching.is_empty() {
            0.0
        } else {
            matching.iter().sum::<f64>() / matching.len() as f64
        }
    };
    let fresh_latency = {
        let fresh: Vec<f64> = traced
            .iter()
            .filter(|s| s.name == "request")
            .filter(|s| {
                traced
                    .iter()
                    .any(|c| c.name == "serve.result" && c.id == s.id)
            })
            .map(Span::seconds)
            .collect();
        fresh.iter().sum::<f64>() / fresh.len().max(1) as f64
    };

    // The compute a fresh spec needs, in-process on a warm context with the
    // daemon's sweep options.
    let ctx = ExperimentContext::new(true);
    let options = SweepOptions {
        parallel: true,
        memoize: true,
        incremental: true,
    };
    let warm: ScenarioSpec = serde_json::from_str(&plan.warmup.0).expect("plan specs parse");
    let all = |spec: &ScenarioSpec| {
        (0..spec.lower().map(|g| g.len()).unwrap_or(0) as u64).collect::<Vec<u64>>()
    };
    let _ = evaluate_points(&ctx, &warm, &all(&warm), options);
    let mut computes = Vec::new();
    for (json, _) in specs.iter().skip(1) {
        let spec: ScenarioSpec = serde_json::from_str(json).expect("plan specs parse");
        let start = Instant::now();
        let evaluated = evaluate_points(&ctx, &spec, &all(&spec), options);
        computes.push(start.elapsed().as_secs_f64());
        report
            .tally
            .record(evaluated.map(|_| ()).map_err(|e| e.to_string()));
    }
    let compute = computes.iter().sum::<f64>() / computes.len().max(1) as f64;

    report.set("serve.submit_s", mean_of("serve.submit"));
    report.set(
        "serve.first_outcome_s",
        first_outcome.iter().sum::<f64>() / first_outcome.len().max(1) as f64,
    );
    report.set("serve.stream_s", mean_of("serve.stream"));
    report.set("serve.result_s", mean_of("serve.result"));
    report.set("serve.dedup_result_s", mean_of("serve.dedup_result"));
    report.set("serve.compute_s", compute);
    report.set("serve.idle_s", fresh_latency - compute);
    match (before, after) {
        (Ok(before), Ok(after)) => {
            let http = after.counters.http_requests - before.counters.http_requests;
            // The `/stats` call that read `before` is inside the window.
            report.set(
                "serve.http_requests_per_spec",
                (http.saturating_sub(1)) as f64 / requests,
            );
            let quick = |stats: &qosrm_serve::StatsReport| {
                stats
                    .curve_cache
                    .iter()
                    .find(|c| c.mode == "quick")
                    .map(|c| (c.hits, c.misses))
                    .unwrap_or((0, 0))
            };
            let ((h0, m0), (h1, m1)) = (quick(&before), quick(&after));
            report.set("serve.curve_cache_hit_rate", hit_rate(h1 - h0, m1 - m0));
            report.tally.record(Ok(()));
        }
        (before, after) => {
            for stats in [before, after] {
                report
                    .tally
                    .record(stats.map(|_| ()).map_err(|e| e.to_string()));
            }
        }
    }
    report.set("trace.overhead_frac", overhead(wall, untraced));

    // The table explains the mean request: its layers' mean self times.
    report.wall = traced
        .iter()
        .filter(|s| s.name == "request")
        .map(Span::seconds)
        .sum::<f64>()
        / requests;
    report.rows = self_by_name(&traced)
        .into_iter()
        .filter(|(name, _)| name != "request")
        .map(|(name, total)| (name, total / requests))
        .collect();
    report.spans.extend(spans);
    report.check_rows();
    report
}

/// Writes the spans of a traced run as JSONL.
pub fn write_jsonl(path: &Path, workload: &str, spans: &[(String, Span)]) -> std::io::Result<()> {
    let mut out = String::new();
    for (trace, span) in spans {
        out.push_str(&format!(
            "{{\"workload\":{workload:?},\"trace\":{trace:?},\"name\":{:?},\"id\":{:?},\"start\":{:?},\"end\":{:?},\"parent\":{}}}\n",
            span.name,
            span.id,
            span.start,
            span.end,
            span.parent.map_or("null".to_string(), |p| p.to_string())
        ));
    }
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start,
            end,
            parent,
            id: String::new(),
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("wall", 0.0, 10.0, None),
            span("a", 1.0, 4.0, Some(0)),
            span("b", 4.0, 9.0, Some(0)),
            span("c", 5.0, 6.0, Some(2)),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![2.0, 3.0, 4.0, 1.0]);
        let rows = self_by_name(&spans);
        assert_eq!(rows.iter().map(|(_, s)| s).sum::<f64>(), 10.0);
    }

    /// Composes a tiny sweep for real: the bytes match the in-memory
    /// executor, and no layer's self time exceeds the wall.
    #[test]
    fn composed_layers_never_exceed_the_wall() {
        let base = std::env::temp_dir().join(format!("perfbench-compose-{}", std::process::id()));
        let _ = fs::remove_dir_all(&base);
        fs::create_dir_all(&base).unwrap();
        let mut spec = gen::dist_shards(9);
        if let experiments::WorkloadSource::Explicit(mixes) = &mut spec.platforms[0].workloads {
            mixes.truncate(2);
        }
        let spec_path = base.join("spec.json");
        fs::write(&spec_path, gen::to_json(&spec)).unwrap();
        let env = Env {
            bins: std::path::PathBuf::new(),
            work: base.clone(),
            seed: 9,
            seconds: 1.0,
        };
        let mut tracer = Tracer::new(Instant::now(), true);
        let (bytes, wall, composer) =
            compose_once(&env, &mut tracer, &spec_path, "c", 1, true).unwrap();
        assert_eq!(
            bytes,
            workloads::in_memory_result(&spec, &ExperimentContext::new(true))
        );
        let own = self_times(&tracer.spans);
        assert!(own.iter().all(|&s| s >= -1e-9));
        for (name, seconds) in self_by_name(&tracer.spans) {
            assert!(seconds <= wall, "{name} {seconds} > {wall}");
        }
        assert_eq!(composer.shards, 4);
        assert!(composer.counters.invocations > 0);
        let _ = fs::remove_dir_all(&base);
    }
}
