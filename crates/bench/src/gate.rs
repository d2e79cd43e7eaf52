//! The CI performance-regression gate.
//!
//! [`bench_gate`](../../bench_gate/index.html) (the `bench_gate` binary) runs
//! the nine fixed, deterministic workloads of one table and writes one flat
//! `qosrm-bench-gate/v1` report per workload, `BENCH_<name>.json`. In a
//! report every integer but `repetitions` is a deterministic work counter,
//! exact-compared against the baseline; a float is a wall time when the
//! table bands it ([`WALL_BAND`]) and a derived value (a rate, a ratio, an
//! unbanded wall) otherwise. The table also holds each workload's rules.
//!
//! In check mode (the default, what CI runs) the fresh reports are written to
//! `target/bench-gate/` and compared against the baselines committed at the
//! repository root; the process exits 1 when a check fails and 2 when a
//! metric is missing from either side. In `--update` mode the fresh reports
//! overwrite the committed baselines.
//!
//! Wall times are **calibration normalized** before comparison: every report
//! records the throughput of a fixed pure-CPU loop, and the checker rescales
//! fresh walls by the ratio of the fresh and baseline throughputs. A
//! baseline recorded on a laptop thus transfers to a CI runner half as fast,
//! and the band measures the code, not the hardware.

use experiments::dist::{self, Coordinator, CoordinatorConfig, WorkerConfig};
use experiments::spec::{PlatformAxisSpec, PlatformSpec, WorkloadSource};
use experiments::{
    stream, ExperimentContext, QosAxis, RmaVariant, ScenarioSpec, SearchConfig, StreamOptions,
};
use qosrm_core::{
    best_response, min_energy_equilibrium, optimize_partition_scalar,
    optimize_partition_with_stats, CoordinatedRma, CurveCache, CurvePoint, EnergyCurve, GameConfig,
    GameStats, IncrementalOptimizer, LocalOptimizer, LocalOptimizerConfig, ModelKind, PruneStats,
    RmaConfig,
};
use qosrm_serve::{
    execute as serve_execute, plan as serve_plan, Client, LoadConfig, ServeConfig, Server,
};
use qosrm_types::{
    CoreId, CoreSizeIdx, FreqLevel, PlatformConfig, QosSpec, ResourceManager, SystemSetting,
};
use rma_sim::{CophaseSimulator, SimulationOptions};
use serde::Value::{self, Float, UInt};
use serde::{Deserialize, Serialize};
use simdb::builder::{build_database_for_mixes, BuildOptions};
use std::fmt::Debug;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::{
    paper1_workloads, CharacterizationConfig, MixPopulation, PhaseCharacterizer, PhaseSpec,
    SynthSpec, WorkloadMix,
};

/// Schema tag embedded in every report so downstream tooling can detect
/// format changes.
pub const SCHEMA: &str = "qosrm-bench-gate/v1";

/// Relative wall-time regression tolerated before the gate fails.
pub const WALL_BAND: f64 = 0.20;

/// Minimum speedup of the staged `CurveBuilder` over the scalar reference on
/// the cold-curve workload. Both sides are timed in the same process on the
/// same machine, so the ratio needs no calibration normalization.
pub const MIN_LOCAL_OPT_SPEEDUP: f64 = 3.0;

/// Minimum speedup of the chunked min-plus convolution kernel over the
/// preserved pruned scalar path on the fixed synthetic curve sets. Both
/// sides run in the same process, so the ratio needs no calibration
/// normalization.
pub const MIN_CHUNKED_CONV_SPEEDUP: f64 = 1.3;

/// The band of the kernels workload's batched delta-manager wall. That wall
/// is a few milliseconds — an order of magnitude below the other gated
/// walls, where scheduler jitter is a visible fraction — so it gets twice
/// the band; the delta path's real regression signal is its exact counters.
const DELTA_BAND: f64 = 2.0 * WALL_BAND;

/// A banded wall: the metric, the check name of its `FAIL:` lines, and the
/// tolerated relative regression after calibration normalization.
type Band = (&'static str, &'static str, f64);

/// A check a scenario adds, evaluated on the fresh report alone.
enum Rule {
    /// `Floor(metric, min, what)`: a same-process speedup of at least `min`.
    Floor(&'static str, f64, &'static str),
    /// `Below(lower, upper, what)`: a counter strictly below another.
    Below(&'static str, &'static str, &'static str),
}

/// What a runner measured: the workload description and ordered metrics.
type Measured = (String, Vec<(&'static str, Value)>);

/// One gated workload: `name` is the report's `bench` field and names its
/// baseline `BENCH_<name>.json`; `run` measures it at the gate sizes.
struct Scenario {
    name: &'static str,
    walls: &'static [Band],
    rules: &'static [Rule],
    run: fn(usize) -> Measured,
}

/// The gate, in run order.
const SCENARIOS: [Scenario; 9] = [
    Scenario {
        name: "simulator",
        walls: &[
            ("loop_wall_seconds", "simulator loop", WALL_BAND),
            ("managed_wall_seconds", "simulator managed", WALL_BAND),
        ],
        rules: &[],
        run: |reps| run_simulator(reps, 300, 5),
    },
    Scenario {
        name: "global_opt",
        walls: &[("wall_seconds", "global_opt", WALL_BAND)],
        rules: &[],
        run: |reps| run_global_opt(reps, 200),
    },
    Scenario {
        name: "local_opt",
        walls: &[("builder_wall_seconds", "local_opt builder", WALL_BAND)],
        rules: &[Rule::Floor(
            "speedup",
            MIN_LOCAL_OPT_SPEEDUP,
            "builder speedup over the scalar reference",
        )],
        run: |reps| run_local_opt(reps, 240),
    },
    Scenario {
        name: "best_response",
        walls: &[("wall_seconds", "best_response", WALL_BAND)],
        rules: &[],
        run: |reps| run_best_response(reps, 1000, 300),
    },
    Scenario {
        name: "serve",
        walls: &[("wall_seconds", "serve", WALL_BAND)],
        rules: &[],
        run: |reps| run_serve(reps, 6, 4, 8),
    },
    Scenario {
        name: "kernels",
        walls: &[
            ("chunked_wall_seconds", "kernels chunked conv", WALL_BAND),
            ("delta_wall_seconds", "kernels delta manager", DELTA_BAND),
        ],
        rules: &[
            Rule::Floor(
                "conv_speedup",
                MIN_CHUNKED_CONV_SPEEDUP,
                "chunked convolution speedup over the pruned scalar path",
            ),
            Rule::Below(
                "delta_curve_builds",
                "cold_curve_builds",
                "the delta path no longer reduces curve builds",
            ),
        ],
        run: |reps| run_kernels(reps, 100, 24),
    },
    Scenario {
        name: "dist",
        walls: &[
            ("wall_seconds", "dist coordinated", WALL_BAND),
            ("single_wall_seconds", "dist single-process", WALL_BAND),
        ],
        rules: &[],
        run: |reps| run_dist(reps, 4, 4),
    },
    Scenario {
        name: "search",
        walls: &[("wall_seconds", "search", WALL_BAND)],
        rules: &[],
        run: |reps| {
            let config = SearchConfig {
                seed: 4242,
                generations: 3,
                population: 5,
                capacity: 5,
                max_mixes: 2,
                name: "bench".to_string(),
            };
            run_search(reps, &config)
        },
    },
    Scenario {
        name: "characterize",
        walls: &[("wall_seconds", "characterize", WALL_BAND)],
        rules: &[],
        run: |reps| run_characterize(reps, 2, usize::MAX),
    },
];

impl Scenario {
    fn file(&self) -> String {
        format!("BENCH_{}.json", self.name)
    }

    /// The report of one measurement: the header, the metrics in order,
    /// and last the calibration throughput of the measuring machine.
    fn report(&self, repetitions: usize, calibration: f64, measured: Measured) -> Report {
        let (workload, metrics) = measured;
        let header = [
            ("schema", SCHEMA.to_value()),
            ("bench", self.name.to_value()),
            ("workload", workload.to_value()),
            ("repetitions", repetitions.to_value()),
        ];
        let calibration = ("calibration_ops_per_sec", Float(calibration));
        let fields = header.into_iter().chain(metrics).chain([calibration]);
        Report(fields.map(|(k, v)| (k.to_string(), v)).collect())
    }
}

/// One flat report, an ordered JSON object.
struct Report(Vec<(String, Value)>);

impl Report {
    fn get(&self, key: &str) -> Option<&Value> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The exact-compared fields: every integer but `repetitions`.
    fn counters(&self) -> impl Iterator<Item = &(String, Value)> {
        self.0
            .iter()
            .filter(|(k, v)| matches!(v, UInt(_)) && k != "repetitions")
    }
}

impl Serialize for Report {
    fn to_value(&self) -> Value {
        Value::Object(self.0.clone())
    }
}

impl Deserialize for Report {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        match value {
            Value::Object(fields) => Ok(Report(fields.clone())),
            _ => Err(serde::Error::custom("a report is a JSON object")),
        }
    }
}

/// `count` per second of `wall`.
fn per_sec(count: u64, wall: f64) -> Value {
    Float(count as f64 / wall.max(f64::MIN_POSITIVE))
}

/// Runs `f` and returns its wall time in seconds with its result.
fn timed<T>(f: impl FnOnce() -> T) -> ([f64; 1], T) {
    let start = Instant::now();
    let out = f();
    ([start.elapsed().as_secs_f64()], out)
}

/// The gate's one timing loop. `sample` runs one repetition and returns its
/// walls and its deterministic counters. After an optional untimed warm-up
/// call (page cache, branch predictors, curve caches), each of `samples`
/// timed samples sums `batch` calls per wall, and the minimum of each wall
/// is kept. The counters of every call, warm-up included, must be
/// identical: the gate exact-compares them against the baseline, so a
/// counter that moves between repetitions in one process is a determinism
/// bug, not noise.
///
/// Walls returned by one call are sampled in interleaved pairs rather than
/// back-to-back blocks: slow drift from a noisy neighbour then inflates both
/// sides of a pair alike, and best-of picks the cleanest window for each
/// side independently — which is what a same-process ratio floor needs.
fn best_of<const W: usize, C: PartialEq + Debug>(
    warm_up: bool,
    samples: usize,
    batch: usize,
    mut sample: impl FnMut() -> ([f64; W], C),
) -> ([f64; W], C) {
    let mut reference = warm_up.then(|| sample().1);
    let mut best = [f64::INFINITY; W];
    for _ in 0..samples {
        let mut sums = [0.0; W];
        for _ in 0..batch {
            let (walls, counters) = sample();
            match &reference {
                Some(r) => assert_eq!(&counters, r, "counters must be deterministic"),
                None => reference = Some(counters),
            }
            sums = std::array::from_fn(|i| sums[i] + walls[i]);
        }
        best = std::array::from_fn(|i| best[i].min(sums[i]));
    }
    (best, reference.expect("at least one sample ran"))
}

/// Iterations of the calibration loop (sized for tens of milliseconds).
const CALIBRATION_ITERS: u64 = 40_000_000;

/// Measures a fixed pure-CPU workload (xorshift + float accumulate) and
/// returns its throughput in iterations/second. The workload is identical
/// on every machine, so the ratio of two calibration throughputs estimates
/// the single-thread speed ratio of the machines that produced them —
/// which is what [`compare`] uses to normalize wall times measured on
/// different hardware.
fn calibrate() -> f64 {
    let ([best], ()) = best_of(false, 3, 1, || {
        timed(|| {
            let mut x = 0x9e3779b97f4a7c15u64;
            let mut acc = 0.0f64;
            for _ in 0..CALIBRATION_ITERS {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                acc += (x & 0xffff) as f64;
            }
            // The accumulator must escape *before* the clock is read so the
            // compiler cannot sink the loop out of the timed region.
            std::hint::black_box(acc);
        })
    });
    CALIBRATION_ITERS as f64 / best.max(f64::MIN_POSITIVE)
}

/// The simulator loop on the fixed quick grid: two 4-core Paper I mixes.
/// `loop_*` drives the event loop under the no-op baseline manager (the
/// simulator loop in isolation — the number the 'simulator speedup'
/// headline refers to), and `managed_*` runs strict and 30%-relaxed RM2
/// with a warm shared curve cache (the production sweep configuration),
/// covering the observation and reconfiguration paths. The global event
/// counts are deterministic. `loop_rounds` baseline rounds make one loop
/// repetition (sized so it is long enough to time reliably on a shared CI
/// runner); `managed_rounds` managed rounds make one managed repetition.
fn run_simulator(reps: usize, loop_rounds: usize, managed_rounds: usize) -> Measured {
    let platform = PlatformConfig::paper1(4);
    let mixes: Vec<_> = paper1_workloads(4).into_iter().take(2).collect();
    let db = build_database_for_mixes(&platform, &mixes, &BuildOptions::quick_for_tests(&platform));
    let options = SimulationOptions {
        provide_mlp_profiles: false,
        ..Default::default()
    };
    let sims: Vec<CophaseSimulator> = mixes
        .iter()
        .map(|mix| CophaseSimulator::new(&db, mix, options.clone()).expect("fixed workload"))
        .collect();

    let ([loop_wall], loop_events) = best_of(true, reps, 1, || {
        timed(|| {
            let mut events = 0u64;
            for _ in 0..loop_rounds {
                for sim in &sims {
                    let baseline = sim.run_baseline().expect("baseline within event budget");
                    events += baseline.rma_invocations;
                }
            }
            events
        })
    });

    // Managed runs with a warm shared energy-curve cache, as the production
    // sweep engine executes them: the warm-up repetition fills the cache, so
    // the measured repetitions exercise the simulator's observation and
    // reconfiguration paths rather than the manager's model evaluations. The
    // (deterministic) baseline runs are computed once outside the timed
    // region so they cannot dilute the managed signal.
    let curve_cache = Arc::new(CurveCache::default());
    let baselines: Vec<_> = sims
        .iter()
        .map(|sim| sim.run_baseline().expect("baseline within event budget"))
        .collect();
    let ([managed_wall], managed_events) = best_of(true, reps, 1, || {
        timed(|| {
            let mut events = 0u64;
            for _ in 0..managed_rounds {
                for (sim, baseline) in sims.iter().zip(&baselines) {
                    for qos in [QosSpec::STRICT, QosSpec::relaxed_by(0.3)] {
                        let qos = vec![qos; platform.num_cores];
                        let mut manager = CoordinatedRma::paper1(&platform, qos.clone())
                            .with_curve_cache(curve_cache.clone());
                        let (_, managed) = sim
                            .run_comparison(&mut manager, baseline, &qos)
                            .expect("managed run within event budget");
                        events += managed.rma_invocations;
                    }
                }
            }
            events
        })
    });

    let workload = format!(
        "paper1-4c quick grid, 2 mixes: loop = {loop_rounds}x baseline; managed = \
         {managed_rounds}x (RM2-strict + RM2-relaxed30, warm curve cache)"
    );
    let metrics = vec![
        ("loop_wall_seconds", Float(loop_wall)),
        ("loop_events", UInt(loop_events)),
        ("loop_events_per_sec", per_sec(loop_events, loop_wall)),
        ("managed_wall_seconds", Float(managed_wall)),
        ("managed_events", UInt(managed_events)),
        (
            "managed_events_per_sec",
            per_sec(managed_events, managed_wall),
        ),
    ];
    (workload, metrics)
}

/// Deterministic synthetic curve set exercising concave, flat, bumpy
/// (non-concave) and partially infeasible shapes.
fn synthetic_curves(cores: usize, ways: usize) -> Vec<EnergyCurve> {
    (0..cores)
        .map(|c| {
            let infeasible_prefix = c % 3;
            let base = 6.0 + c as f64 * 1.3;
            let slope = 0.15 + 0.08 * (c % 4) as f64;
            EnergyCurve::new(
                (1..=ways)
                    .map(|w| {
                        if w <= infeasible_prefix {
                            return None;
                        }
                        let bump = if c % 3 == 0 {
                            ((w * (c + 2)) % 5) as f64 * 0.12
                        } else {
                            0.0
                        };
                        Some(CurvePoint {
                            energy_joules: (base - slope * w as f64 + bump).max(0.05),
                            freq: FreqLevel(w % 13),
                            core_size: CoreSizeIdx(w % 3),
                            time_seconds: 0.05,
                            ways: w,
                        })
                    })
                    .collect(),
            )
        })
        .collect()
}

/// [`synthetic_curves`] for each `(cores, ways)` shape, with its way count.
fn synthetic_cases(shapes: &[(usize, usize)]) -> Vec<(Vec<EnergyCurve>, usize)> {
    let case = |&(cores, ways): &(usize, usize)| (synthetic_curves(cores, ways), ways);
    shapes.iter().map(case).collect()
}

/// The global way-partition optimizer on the synthetic curve sets,
/// `calls_per_case` calls per set. Calls, min-plus convolution candidates
/// and the candidates skipped by lower-bound pruning are deterministic; a
/// `convolution_ops` rise without a workload change means the pruning
/// regressed.
fn run_global_opt(reps: usize, calls_per_case: usize) -> Measured {
    let cases = synthetic_cases(&[(4, 16), (8, 16), (8, 32), (16, 32)]);
    let ([wall], (calls, stats)) = best_of(true, reps, 1, || {
        timed(|| {
            let mut calls = 0u64;
            let mut stats = PruneStats::default();
            for (curves, ways) in &cases {
                for _ in 0..calls_per_case {
                    let (result, s) = optimize_partition_with_stats(curves, *ways);
                    assert!(result.is_some(), "synthetic curve set must be feasible");
                    stats.ops += s.ops;
                    stats.pruned += s.pruned;
                    calls += 1;
                }
            }
            (calls, stats)
        })
    });

    let workload = format!(
        "synthetic curves: (cores, ways) in {{(4,16),(8,16),(8,32),(16,32)}} x {calls_per_case} \
         calls"
    );
    let metrics = vec![
        ("wall_seconds", Float(wall)),
        ("calls", UInt(calls)),
        ("convolution_ops", UInt(stats.ops)),
        ("pruned_ops", UInt(stats.pruned)),
        ("ops_per_sec", per_sec(stats.ops, wall)),
    ];
    (workload, metrics)
}

/// Cold-path energy-curve construction, i.e. the cost of every cache-miss
/// RMA invocation in a sweep: the fixed observation set (first-phase
/// observations of the four quick-grid benchmarks) crossed with the RM2 and
/// RM3 optimizer configurations and strict / 30%-relaxed QoS, `rounds`
/// times, every curve built cold (no memoization cache) through the staged
/// builder and through the scalar reference on the identical inputs.
/// Curves built and the builder's model evaluations are deterministic (an
/// `evaluations` rise means the feasibility partition point stopped
/// pruning). `rounds` is sized so one builder repetition lasts several
/// milliseconds — comparable to the other gated workloads — because the
/// gated speedup *ratio* must be stable on a noisy shared CI runner, not
/// just the wall time.
fn run_local_opt(reps: usize, rounds: usize) -> Measured {
    let platform = PlatformConfig::paper2(4);
    let mix = crate::default_mix();
    let options = BuildOptions::quick_for_tests(&platform);
    let db = build_database_for_mixes(&platform, std::slice::from_ref(&mix), &options);
    // RM2: DVFS + ways with the constant-MLP model; RM3: core size + DVFS +
    // ways with the MLP-aware model.
    let rm2_rm3 = [(ModelKind::ConstantMlp, false), (ModelKind::MlpAware, true)];
    let optimizers = rm2_rm3.map(|(model, control_core_size)| {
        let config = LocalOptimizerConfig {
            control_dvfs: true,
            control_core_size,
            model,
            energy_params: power_model::EnergyParams::default(),
        };
        LocalOptimizer::new(&platform, config)
    });
    let observations = crate::observations(&db, &platform, &mix);
    let mut inputs = Vec::new();
    for optimizer in &optimizers {
        for observation in &observations {
            for qos in [QosSpec::STRICT, QosSpec::relaxed_by(0.3)] {
                inputs.push((optimizer, observation, qos));
            }
        }
    }

    let ([builder, scalar], (curves, evaluations)) = best_of(true, reps, 1, || {
        let ([builder], counters) = timed(|| {
            let (mut curves, mut evaluations) = (0u64, 0u64);
            for _ in 0..rounds {
                for &(optimizer, observation, qos) in &inputs {
                    let build = optimizer.energy_curve_counted(observation, qos);
                    evaluations += build.evaluations as u64;
                    curves += 1;
                    std::hint::black_box(&build.curve);
                }
            }
            (curves, evaluations)
        });
        let ([scalar], ()) = timed(|| {
            for _ in 0..rounds {
                for &(optimizer, observation, qos) in &inputs {
                    std::hint::black_box(optimizer.energy_curve_scalar_reference(observation, qos));
                }
            }
        });
        ([builder, scalar], counters)
    });

    let workload = format!(
        "cold energy curves: 4 quick-grid observations x (RM2 + RM3 optimizer) x \
         (strict + relaxed30) x {rounds} rounds, no curve cache"
    );
    let metrics = vec![
        ("builder_wall_seconds", Float(builder)),
        ("scalar_wall_seconds", Float(scalar)),
        ("speedup", Float(scalar / builder.max(f64::MIN_POSITIVE))),
        ("curves_built", UInt(curves)),
        ("evaluations", UInt(evaluations)),
        ("curves_per_sec", per_sec(curves, builder)),
    ];
    (workload, metrics)
}

/// The game-theoretic solvers on the global optimizer's synthetic curve
/// sets: iterated best response, `br_per_set` calls per set, and equilibrium
/// selection, `eq_per_set` calls per set. Calls, rounds (certificate rounds
/// included), evaluations and certified candidates are deterministic: a
/// drift means the solvers' orbits or the workload changed.
fn run_best_response(reps: usize, br_per_set: usize, eq_per_set: usize) -> Measured {
    let cases = synthetic_cases(&[(4, 16), (8, 16), (8, 32), (16, 32)]);
    let ([wall], (br_calls, eq_calls, stats)) = best_of(true, reps, 1, || {
        timed(|| {
            let (mut br_calls, mut eq_calls) = (0u64, 0u64);
            let mut stats = GameStats::default();
            let mut add = |s: GameStats| {
                stats.rounds += s.rounds;
                stats.evaluations += s.evaluations;
                stats.equilibria_examined += s.equilibria_examined;
            };
            for (curves, ways) in &cases {
                for _ in 0..br_per_set {
                    let (outcome, s) = best_response(curves, *ways, &GameConfig::default());
                    assert!(outcome.is_some(), "synthetic curve set must be feasible");
                    std::hint::black_box(&outcome);
                    add(s);
                    br_calls += 1;
                }
                let dirty = vec![true; curves.len()];
                for _ in 0..eq_per_set {
                    let mut arena = IncrementalOptimizer::new();
                    let (outcome, s, _, _) =
                        min_energy_equilibrium(&mut arena, curves, &dirty, *ways);
                    assert!(outcome.is_some(), "an equilibrium must exist");
                    std::hint::black_box(&outcome);
                    add(s);
                    eq_calls += 1;
                }
            }
            (br_calls, eq_calls, stats)
        })
    });

    let workload = format!(
        "synthetic curves: (cores, ways) in {{(4,16),(8,16),(8,32),(16,32)}} x \
         ({br_per_set} best-response + {eq_per_set} equilibrium-selection calls)"
    );
    let metrics = vec![
        ("wall_seconds", Float(wall)),
        ("br_calls", UInt(br_calls)),
        ("eq_calls", UInt(eq_calls)),
        ("rounds", UInt(stats.rounds)),
        ("evaluations", UInt(stats.evaluations)),
        ("equilibria_examined", UInt(stats.equilibria_examined)),
        ("ops_per_sec", per_sec(stats.evaluations, wall)),
    ];
    (workload, metrics)
}

/// A 4-core Paper I spec over `mixes` seeded synthetic mixes under strict
/// QoS: the shape of the serve and dist workloads, both sharded one
/// scenario per shard so every run exercises the manifest/shard-log
/// persistence path.
fn synth_spec(
    name: &str,
    prefix: &str,
    seed: u64,
    mixes: usize,
    variants: Vec<RmaVariant>,
) -> ScenarioSpec {
    ScenarioSpec {
        name: name.to_string(),
        platforms: vec![PlatformAxisSpec {
            label: "p4".to_string(),
            platform: PlatformSpec::Paper1 { num_cores: 4 },
            workloads: WorkloadSource::Synth(SynthSpec {
                seed,
                count: mixes,
                num_cores: 4,
                population: MixPopulation::Mixed,
                name_prefix: prefix.to_string(),
            }),
        }],
        qos: vec![QosAxis::uniform("strict", QosSpec::STRICT)],
        variants,
        options: Some(SimulationOptions {
            provide_mlp_profiles: false,
            ..Default::default()
        }),
    }
}

/// A temporary directory for one runner's files, emptied first.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qosrm-bench-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A fixed concurrent submission mix (`clients` threads of `per_client`
/// submissions cycling `distinct` variants of a 3-scenario Paper I spec)
/// against an in-process `qosrm_serve` daemon on an ephemeral port, cold per
/// repetition (fresh daemon and data directory). The daemon runs one worker
/// with serial in-run evaluation and memoization on, so every counter its
/// `/stats` endpoint reports is deterministic regardless of admission
/// interleaving: each distinct spec is admitted exactly once (the rest
/// deduplicate), each curve key misses exactly once whichever run looks it
/// up first, and every streaming tail sees its run's full outcome count.
/// The wall (submission through last merged result fetch, including the
/// quick database builds the runs trigger) is banded.
fn run_serve(reps: usize, clients: usize, per_client: usize, distinct: usize) -> Measured {
    let load = LoadConfig {
        clients,
        per_client,
        distinct,
        seed: 2024,
        quick: true,
        shard_size: 1,
    };
    let spec = synth_spec("serve-bench", "sb-", 1717, 3, vec![RmaVariant::Paper1]);
    let plan = serve_plan(&spec, &load).expect("fixed spec must lower");

    let ([wall], counters) = best_of(false, reps, 1, || {
        let dir = scratch_dir("serve");
        let mut server = Server::start(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            data_dir: dir.clone(),
            workers: 1,
            default_shard_size: 1,
            serial: true,
            ..Default::default()
        })
        .expect("in-process daemon must start on an ephemeral port");
        let addr = server.addr();
        let (wall, (report, _)) =
            timed(|| serve_execute(addr, &plan, &load, Duration::from_secs(600)));
        assert!(report.passed(), "serve load failed: {:?}", report.errors);
        assert_eq!(
            report.queue_full_rejections, 0,
            "the fixed mix must fit the admission bound"
        );

        let client = Client::new(addr);
        let stats = client.stats().expect("stats endpoint must answer");
        let runs = client.list().expect("run listing must answer");
        let quick = stats.curve_cache.iter().find(|c| c.mode == "quick");
        let cache = quick.expect("quick-mode curve cache must be active");
        assert_eq!(cache.evictions, 0, "the fixed mix must fit the curve cache");
        let counters = [
            stats.counters.submissions,
            stats.counters.runs_completed,
            runs.iter().map(|run| run.completed_scenarios as u64).sum(),
            stats.counters.outcomes_streamed,
            cache.hits,
            cache.misses,
        ];
        server.stop();
        let _ = std::fs::remove_dir_all(&dir);
        (wall, counters)
    });

    let [submitted, runs, outcomes, streamed, hits, misses] = counters;
    let workload = format!(
        "in-process daemon (1 worker, serial runs, shared quick curve cache), cold per \
         repetition: {clients} clients x {per_client} submissions cycling {distinct} variants of \
         a paper1-4c 3-mix synth spec, shard size 1"
    );
    let metrics = vec![
        ("wall_seconds", Float(wall)),
        ("specs_submitted", UInt(submitted)),
        ("runs_executed", UInt(runs)),
        ("outcomes_total", UInt(outcomes)),
        ("outcomes_streamed", UInt(streamed)),
        ("cache_hits", UInt(hits)),
        ("cache_misses", UInt(misses)),
        (
            "cache_hit_rate",
            Float(hits as f64 / ((hits + misses) as f64).max(1.0)),
        ),
        ("specs_per_sec", per_sec(submitted, wall)),
        ("outcomes_per_sec", per_sec(streamed, wall)),
    ];
    (workload, metrics)
}

/// The 4-wide-chunked min-plus convolution against the preserved pruned
/// scalar path on identical synthetic curve sets, `calls_per_case` calls per
/// set, and a cold-rebuild [`CoordinatedRma`] against an incremental one
/// over the identical `delta_rounds`-round interval schedule. The
/// convolution counters are identical for both kernels by construction (the
/// chunked kernel replays the scalar decision sequence; only it runs chunk
/// passes); the manager counters record how many curves each path built.
fn run_kernels(reps: usize, calls_per_case: usize, delta_rounds: usize) -> Measured {
    // Wide rows (up to 64 ways) and deep reductions (up to 32 cores) so
    // the 4-wide chunk arithmetic amortizes the way a production-size
    // partition call does.
    let cases = synthetic_cases(&[(16, 32), (16, 64), (32, 64)]);
    type Kernel = fn(&[EnergyCurve], usize) -> (Option<Vec<(usize, CurvePoint)>>, PruneStats);
    let convolve = |kernel: Kernel| {
        let mut stats = PruneStats::default();
        for (curves, ways) in &cases {
            for _ in 0..calls_per_case {
                let (result, s) = kernel(curves, *ways);
                assert!(result.is_some(), "synthetic curve set must be feasible");
                stats.ops += s.ops;
                stats.pruned += s.pruned;
                stats.lanes += s.lanes;
                std::hint::black_box(&result);
            }
        }
        stats
    };
    // The kernels must agree bit for bit — results and prune bookkeeping.
    for (curves, ways) in &cases {
        let (chunked, cs) = optimize_partition_with_stats(curves, *ways);
        let (scalar, ss) = optimize_partition_scalar(curves, *ways);
        assert_eq!(chunked, scalar, "kernels must be bit-identical");
        assert_eq!((cs.ops, cs.pruned), (ss.ops, ss.pruned));
    }
    // The speedup ratio is the quantity under the gate's floor, so the two
    // kernels are timed in interleaved pairs with extra (6x) repetitions.
    let ([chunked, scalar], (conv, scalar_conv)) = best_of(true, 6 * reps, 1, || {
        let ([chunked], chunked_stats) = timed(|| convolve(optimize_partition_with_stats));
        let ([scalar], scalar_stats) = timed(|| convolve(optimize_partition_scalar));
        ([chunked, scalar], (chunked_stats, scalar_stats))
    });
    // The scalar kernel replays the chunked decisions and runs no chunk
    // passes.
    assert_eq!(scalar_conv, PruneStats { lanes: 0, ..conv });

    // Two observations per core from a real quick database; every round
    // one core's observation toggles while the other three recur, which is
    // the phase-stable pattern the delta path is built for.
    let platform = PlatformConfig::paper1(4);
    let mix_b = vec!["povray_like", "mcf_like", "gamess_like", "soplex_like"];
    let mixes = [crate::default_mix(), WorkloadMix::new("bench-mix-b", mix_b)];
    let db = build_database_for_mixes(&platform, &mixes, &BuildOptions::quick_for_tests(&platform));
    let observations = mixes
        .each_ref()
        .map(|mix| crate::observations(&db, &platform, mix));
    let num_cores = platform.num_cores;
    let mut schedule = Vec::new();
    let mut use_b = vec![false; num_cores];
    for round in 0..delta_rounds {
        if round > 0 {
            use_b[round % num_cores] ^= true;
        }
        for core in 0..num_cores {
            schedule.push((CoreId(core), &observations[use_b[core] as usize][core]));
        }
    }
    let new_manager = |incremental| {
        let paper1 = RmaConfig::paper1(vec![QosSpec::STRICT; num_cores]);
        CoordinatedRma::new(
            &platform,
            RmaConfig {
                incremental,
                ..paper1
            },
        )
    };

    // Bit-identity of the two paths over the schedule, checked in lockstep.
    let (mut cold_rma, mut delta_rma) = (new_manager(false), new_manager(true));
    let mut cold_setting = SystemSetting::baseline(&platform);
    let mut delta_setting = cold_setting.clone();
    for (step, &(core, obs)) in schedule.iter().enumerate() {
        cold_setting = cold_rma.on_interval(core, obs, &cold_setting);
        delta_setting = delta_rma.on_interval(core, obs, &delta_setting);
        assert_eq!(
            delta_setting,
            cold_setting,
            "delta path diverged at round {}, core {}",
            step / num_cores,
            core.0
        );
    }

    let run_manager = |incremental: bool| {
        let mut manager = new_manager(incremental);
        let mut setting = SystemSetting::baseline(&platform);
        let ([wall], ()) = timed(|| {
            for &(core, obs) in &schedule {
                setting = manager.on_interval(core, obs, &setting);
            }
        });
        std::hint::black_box(&setting);
        (wall, manager.work_counters())
    };
    // A single schedule pass is a few hundred microseconds — far too close
    // to scheduler jitter for a banded gate — so each timing sample is a
    // batch of 25 passes, interleaved cold/delta like the convolution pairs.
    let ([cold_wall, delta_wall], (cold, delta)) = best_of(true, 2 * reps, 25, || {
        let (cold_wall, cold) = run_manager(false);
        let (delta_wall, delta) = run_manager(true);
        ([cold_wall, delta_wall], (cold, delta))
    });
    let (cold_builds, delta_builds) = (cold.curve_builds, delta.curve_builds);
    assert!(
        delta_builds < cold_builds,
        "the delta path must cut curve builds ({delta_builds} vs {cold_builds})"
    );
    assert!(delta.delta_invocations > 0);
    assert!(delta.warm_rows_reused > 0);

    let workload = format!(
        "chunked vs pruned-scalar convolution: synthetic curves (cores, ways) in \
         {{(16,32),(16,64),(32,64)}} x {calls_per_case} calls; cold vs incremental \
         CoordinatedRma: paper1-4c, {delta_rounds} rounds, one toggled core per round"
    );
    let metrics = vec![
        ("chunked_wall_seconds", Float(chunked)),
        ("scalar_wall_seconds", Float(scalar)),
        (
            "conv_speedup",
            Float(scalar / chunked.max(f64::MIN_POSITIVE)),
        ),
        ("convolution_ops", UInt(conv.ops)),
        ("pruned_ops", UInt(conv.pruned)),
        ("chunked_lanes", UInt(conv.lanes)),
        ("cold_wall_seconds", Float(cold_wall)),
        ("delta_wall_seconds", Float(delta_wall)),
        ("cold_curve_builds", UInt(cold_builds)),
        ("delta_curve_builds", UInt(delta_builds)),
        ("delta_invocations", UInt(delta.delta_invocations)),
        ("warm_rows_reused", UInt(delta.warm_rows_reused)),
    ];
    (workload, metrics)
}

/// A fixed spec (both manager variants, `2 * mixes` scenarios, one per
/// shard so the lease protocol round-trips once per scenario) drained by an
/// in-process lease [`Coordinator`] serving `workers` wire workers on an
/// ephemeral port, against the same spec through the single-process
/// streaming executor. Both sides share one warm quick-mode context, so the
/// walls measure coordination overhead plus evaluation, not database
/// construction. The lease counters are deterministic — the lease is far
/// longer than the run, so every shard is granted exactly once and nothing
/// expires, is reinjected, renewed or rejected — and the merged distributed
/// result is asserted byte-identical to the single-process merge on every
/// repetition.
fn run_dist(reps: usize, workers: usize, mixes: usize) -> Measured {
    let variants = vec![RmaVariant::Paper1, RmaVariant::Paper2];
    let spec = synth_spec("dist-bench", "db-", 4242, mixes, variants);
    let ctx = Arc::new(ExperimentContext::new(true));
    let base = scratch_dir("dist");
    let options = StreamOptions {
        shard_size: 1,
        ..Default::default()
    };
    // Untimed warm-up: builds the quick databases (disk + in-context
    // caches) so the timed walls on both sides measure evaluation and
    // coordination, not database construction.
    stream::run(&spec, &ctx, &base.join("warm"), &options).expect("warm-up run completes");

    let mut repetition = 0;
    let ([dist_wall, single_wall], counters) = best_of(false, reps, 1, || {
        repetition += 1;
        // Single-process side: the streaming executor, run through merge.
        let single_dir = base.join(format!("single-{repetition}"));
        let ([single], (report, single_result)) = timed(|| {
            let report =
                stream::run(&spec, &ctx, &single_dir, &options).expect("single-process run");
            let merged = stream::merge(&single_dir).expect("single-process run merges");
            (report, merged)
        });
        assert!(report.finished);

        // Distributed side: timed from coordinator open through the last
        // worker's exit.
        let dist_dir = base.join(format!("dist-{repetition}"));
        let config = CoordinatorConfig {
            shard_size: 1,
            // Far longer than the run: no expiry, reinjection or renewal,
            // so the lease counters are exactly comparable.
            lease_ms: 600_000,
            ..Default::default()
        };
        let ([dist], (coordinator, server, reports)) = timed(|| {
            let hub = Arc::default();
            let coordinator = Coordinator::open("dist-bench", &spec, true, &dist_dir, &config, hub);
            let coordinator = Arc::new(coordinator.expect("coordinator opens"));
            let server = dist::serve_coordinator("127.0.0.1:0", coordinator.clone())
                .expect("coordinator listener binds");
            let addr = server.addr().to_string();
            let worker = |i| {
                let config = WorkerConfig {
                    worker: format!("bench-w{i}"),
                    ..Default::default()
                };
                dist::run_worker_with(&addr, &config, &mut |_| ctx.clone())
                    .expect("worker drains the coordinator")
            };
            let reports: Vec<dist::WorkerReport> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|i| scope.spawn(move || worker(i)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("worker joins"))
                    .collect()
            });
            (coordinator, server, reports)
        });
        server.stop();
        assert!(coordinator.finished());
        let merged = stream::merge(&dist_dir).expect("distributed run merges");
        assert_eq!(
            serde_json::to_string(&merged).expect("results serialize"),
            serde_json::to_string(&single_result).expect("results serialize"),
            "the distributed merge must be byte-identical to the single-process run"
        );

        let telemetry = coordinator.telemetry();
        let (completed, total) = coordinator.progress();
        assert_eq!(completed, total, "every scenario must complete");
        let counters = [
            reports.iter().map(|r| r.shards_completed).sum(),
            total as u64,
            telemetry.granted,
            telemetry.renewed,
            telemetry.expired,
            telemetry.reinjected,
            telemetry.stale_rejected,
            telemetry.completed,
        ];
        ([dist, single], counters)
    });
    let _ = std::fs::remove_dir_all(&base);

    let [shards, scenarios, granted, renewed, expired, reinjected, stale, completed] = counters;
    let workload = format!(
        "in-process coordinator + {workers} wire workers on an ephemeral port (shared warm quick \
         context, lease 600s) vs the single-process streaming executor: paper1-4c {mixes}-mix \
         synth spec x {{Paper1, Paper2}}, shard size 1"
    );
    let metrics = vec![
        ("wall_seconds", Float(dist_wall)),
        ("single_wall_seconds", Float(single_wall)),
        ("workers", workers.to_value()),
        ("shards", UInt(shards)),
        ("scenarios_total", UInt(scenarios)),
        ("leases_granted", UInt(granted)),
        ("leases_renewed", UInt(renewed)),
        ("leases_expired", UInt(expired)),
        ("shards_reinjected", UInt(reinjected)),
        ("stale_completions", UInt(stale)),
        ("shards_completed", UInt(completed)),
        ("scenarios_per_sec", per_sec(scenarios, dist_wall)),
    ];
    (workload, metrics)
}

/// A fixed-seed [`experiments::search`] run — the full evolutionary loop of
/// genome proposal, sweep evaluation, Pareto Strength selection and archive
/// persistence — against a warm quick-mode context, each repetition into a
/// fresh archive directory. The search is deterministic per seed, so its
/// loop counters are exact, and every repetition (warm-up included) must
/// persist a byte-identical archive manifest: seed determinism, enforced on
/// every gate run.
fn run_search(reps: usize, config: &SearchConfig) -> Measured {
    let ctx = ExperimentContext::new(true);
    let base = scratch_dir(&format!("search-{}", config.seed));
    // The untimed warm-up touches exactly the databases the timed
    // repetitions need (the search is deterministic), so the walls measure
    // the search loop and sweep evaluation, not database construction.
    let mut repetition = 0;
    let ([wall], (report, _manifest)) = best_of(true, reps, 1, || {
        repetition += 1;
        let dir = base.join(format!("rep-{repetition}"));
        let (wall, report) = timed(|| experiments::search::run(config, &ctx, &dir));
        let manifest = std::fs::read(dir.join(experiments::search::MANIFEST_FILE));
        let manifest = manifest.expect("archive manifest exists");
        (wall, (report.expect("search runs"), manifest))
    });
    let _ = std::fs::remove_dir_all(&base);

    let workload = format!(
        "seeded Pareto-front scenario search (seed {}, {} generations x {} candidates, \
         capacity {}, warm quick context): genome proposal, sweep evaluation, Pareto \
         Strength selection, archive persistence",
        config.seed, config.generations, config.population, config.capacity
    );
    let metrics = vec![
        ("wall_seconds", Float(wall)),
        ("generations", report.generations.to_value()),
        ("candidates", UInt(report.candidates)),
        ("evaluations", UInt(report.evaluations)),
        ("scenarios_evaluated", UInt(report.scenarios)),
        ("archive_size", report.archive_size.to_value()),
        ("scenarios_per_sec", per_sec(report.scenarios, wall)),
    ];
    (workload, metrics)
}

/// The database build's inner loop: every phase of the first `benchmarks`
/// suite benchmarks characterized serially on the 4-core Paper I and
/// Paper II platforms in quick mode, `rounds` times per repetition (sized
/// so a sample runs for about 200 ms). The phase count, the main-slice
/// accesses and a checksum over every characterization's exact and ATD
/// miss curves and leading-miss matrix are exact-compared, so a change
/// that moves one characterized count fails the gate.
fn run_characterize(reps: usize, rounds: usize, benchmarks: usize) -> Measured {
    let platforms = [PlatformConfig::paper1(4), PlatformConfig::paper2(4)];
    let characterizers =
        platforms.map(|p| PhaseCharacterizer::new(&p, CharacterizationConfig::quick_for_tests(&p)));
    let names = workload::benchmark_names().into_iter().take(benchmarks);
    let mut phases: Vec<(PhaseSpec, u64)> = Vec::new();
    for profile in names.filter_map(workload::benchmark) {
        for (i, spec) in profile.phases.iter().enumerate() {
            phases.push((spec.clone(), profile.phase_seed(i)));
        }
    }

    let ([wall], counters) = best_of(true, reps, 1, || {
        timed(|| {
            let [mut characterized, mut accesses, mut checksum] = [0u64; 3];
            for _ in 0..rounds {
                for characterizer in &characterizers {
                    for (spec, seed) in &phases {
                        let phase = characterizer.characterize(spec, *seed);
                        characterized += 1;
                        accesses += phase.llc_accesses / characterizer.config().scale;
                        let curves = phase.misses_per_way.iter().chain(&phase.atd_misses_per_way);
                        checksum += curves
                            .chain(phase.leading_misses.iter().flatten())
                            .sum::<u64>();
                    }
                }
            }
            [characterized, accesses, checksum]
        })
    });

    let [characterized, accesses, checksum] = counters;
    let workload = format!(
        "{} suite phases x {{paper1-4c, paper2-4c}} quick-mode characterization, serial, \
         {rounds} rounds",
        phases.len()
    );
    let metrics = vec![
        ("wall_seconds", Float(wall)),
        ("phases", UInt(characterized)),
        ("main_accesses", UInt(accesses)),
        ("curve_checksum", UInt(checksum)),
        ("phases_per_sec", per_sec(characterized, wall)),
    ];
    (workload, metrics)
}

/// Compares a fresh report against its committed baseline under the
/// scenario's checks and returns the failed ones (empty when it passes).
/// Walls are banded after re-expressing the fresh measurement in
/// baseline-machine seconds (`new * new_calib / old_calib`); counters are
/// exact-compared. A field missing from either side, or a counter on one
/// side only, is an error rather than a skipped check.
fn compare(scenario: &Scenario, new: &Report, old: &Report) -> Result<Vec<String>, String> {
    let bench = scenario.name;
    let counter = |report: &Report, key: &str| report.counters().any(|(k, _)| k == key);
    for (a, b, side) in [(new, old, "baseline"), (old, new, "fresh report")] {
        for (key, _) in &a.0 {
            if b.get(key).is_none() {
                return Err(format!("{bench}: `{key}` missing from the {side}"));
            }
            if counter(a, key) != counter(b, key) {
                return Err(format!("{bench}: `{key}` is a counter in one report only"));
            }
        }
    }
    let number = |report: &Report, key: &str| match report.get(key) {
        Some(&Float(x)) => Ok(x),
        Some(&UInt(n)) => Ok(n as f64),
        _ => Err(format!("{bench}: `{key}` is not a number")),
    };

    let mut failures = Vec::new();
    for (key, now) in new.counters() {
        if old.get(key) != Some(now) {
            let (before, now) = (number(old, key)?, number(new, key)?);
            failures.push(format!(
                "{bench}: {key} changed from {before} to {now}; if intentional, refresh the \
                 baseline with `cargo run --release -p qosrm-bench --bin bench_gate -- --update`"
            ));
        }
    }
    let calibration = |report| number(report, "calibration_ops_per_sec");
    let (new_calib, old_calib) = (calibration(new)?, calibration(old)?);
    let scale = if new_calib > 0.0 && old_calib > 0.0 {
        new_calib / old_calib
    } else {
        1.0
    };
    for &(metric, check, band) in scenario.walls {
        let (raw, before) = (number(new, metric)?, number(old, metric)?);
        let normalized = raw * scale;
        if normalized > before * (1.0 + band) {
            failures.push(format!(
                "{check}: wall time regressed {:.1}% (baseline {before:.4}s, now \
                 {normalized:.4}s normalized ({raw:.4}s raw, machine-speed ratio {scale:.2}), \
                 tolerance {:.0}%)",
                (normalized / before - 1.0) * 100.0,
                band * 100.0
            ));
        }
    }
    for rule in scenario.rules {
        match *rule {
            Rule::Floor(metric, min, what) => {
                let ratio = number(new, metric)?;
                if ratio < min {
                    failures.push(format!(
                        "{bench}: {what} dropped to {ratio:.2}x (required ≥ {min:.1}x)"
                    ));
                }
            }
            Rule::Below(lower, upper, what) => {
                let (low, up) = (number(new, lower)?, number(new, upper)?);
                if low >= up {
                    failures.push(format!("{bench}: {what} ({lower} {low} vs {upper} {up})"));
                }
            }
        }
    }
    Ok(failures)
}

/// The repository root (the bench crate lives at `crates/bench`).
fn repo_root() -> PathBuf {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    root.canonicalize().unwrap_or(root)
}

/// The report as written to disk: pretty JSON plus a trailing newline.
fn render(report: &Report) -> String {
    serde_json::to_string_pretty(report).expect("reports serialize") + "\n"
}

fn read_report(path: &Path) -> Result<Report, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read baseline {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))
}

/// Entry point of the `bench_gate` binary. Returns the process exit code.
pub fn gate_main(args: &[String]) -> i32 {
    let mut update = false;
    let mut repetitions = 3usize;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--update" => update = true,
            "--check" => update = false,
            "--repetitions" => match iter.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(r) if r >= 1 => repetitions = r,
                _ => {
                    eprintln!("--repetitions requires a positive integer");
                    return 2;
                }
            },
            "--help" | "-h" => {
                eprintln!("usage: bench_gate [--check|--update] [--repetitions N]");
                return 0;
            }
            other => {
                eprintln!("unknown argument {other}");
                return 2;
            }
        }
    }

    let root = repo_root();
    let out = if update {
        root.clone()
    } else {
        root.join("target/bench-gate")
    };
    let calibration = calibrate();
    println!("calibration: {calibration:.0} ops/s");
    let mut reports = Vec::new();
    for scenario in &SCENARIOS {
        let report = scenario.report(repetitions, calibration, (scenario.run)(repetitions));
        // The summary line: the metrics between header and calibration.
        let metrics = Report(report.0[4..report.0.len() - 1].to_vec());
        let summary = serde_json::to_string(&metrics).expect("reports serialize");
        println!("{} (best of {repetitions}): {summary}", scenario.name);
        let path = out.join(scenario.file());
        let written =
            std::fs::create_dir_all(&out).and_then(|()| std::fs::write(&path, render(&report)));
        if let Err(e) = written {
            eprintln!("cannot write {}: {e}", path.display());
            return 2;
        }
        println!("wrote {}", path.display());
        reports.push(report);
    }
    if update {
        println!("baselines refreshed");
        return 0;
    }

    let mut failures = Vec::new();
    for (scenario, report) in SCENARIOS.iter().zip(&reports) {
        let checked = read_report(&root.join(scenario.file()))
            .map_err(|e| format!("{e}\nno committed baseline; run with --update to create one"))
            .and_then(|baseline| compare(scenario, report, &baseline));
        match checked {
            Ok(failed) => failures.extend(failed),
            Err(e) => {
                eprintln!("{e}");
                return 2;
            }
        }
    }
    for failure in &failures {
        eprintln!("FAIL: {failure}");
    }
    if failures.is_empty() {
        println!("perf gate passed (tolerance {:.0}%)", WALL_BAND * 100.0);
        0
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every scenario at a size small enough for a debug build, in
    /// `SCENARIOS` order.
    const SMALL: [fn(usize) -> Measured; 9] = [
        |reps| run_simulator(reps, 2, 1),
        |reps| run_global_opt(reps, 2),
        |reps| run_local_opt(reps, 2),
        |reps| run_best_response(reps, 3, 2),
        |reps| run_serve(reps, 2, 2, 2),
        |reps| run_kernels(reps, 2, 6),
        |reps| run_dist(reps, 2, 1),
        |reps| {
            let config = SearchConfig {
                seed: 99,
                generations: 2,
                population: 3,
                capacity: 2,
                max_mixes: 1,
                ..Default::default()
            };
            run_search(reps, &config)
        },
        |reps| run_characterize(reps, 1, 1),
    ];

    #[test]
    fn every_scenario_is_deterministic_and_round_trips_its_baseline() {
        let counters = |r: &Report| r.counters().cloned().collect::<Vec<_>>();
        let keys = |r: &Report| r.0.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>();
        let mut reports = Vec::new();
        for (scenario, run) in SCENARIOS.iter().zip(SMALL) {
            // The gate exact-compares the counters, so two runs of the real
            // runner must agree; each run also asserts that its own
            // repetitions agree and that its in-bench safety checks hold.
            let report = scenario.report(1, 1.0, run(1));
            let again = scenario.report(1, 1.0, run(1));
            assert_eq!(counters(&report), counters(&again), "{}", scenario.name);
            // The committed baseline re-serializes byte for byte, and the
            // fresh report carries its keys in the same order.
            let path = repo_root().join(scenario.file());
            let baseline = read_report(&path).unwrap();
            assert_eq!(render(&baseline), std::fs::read_to_string(&path).unwrap());
            assert_eq!(keys(&report), keys(&baseline), "{}", scenario.name);
            reports.push((scenario.name, report));
        }

        // The check list: 12 banded walls (only the delta manager's band
        // doubled), 42 exact counters and 3 rules.
        let walls = SCENARIOS.iter().flat_map(|s| s.walls);
        let checks: Vec<_> = walls
            .map(|w| format!("{} x{}", w.1, w.2 / WALL_BAND))
            .collect();
        assert_eq!(
            checks.join(", "),
            "simulator loop x1, simulator managed x1, global_opt x1, local_opt builder x1, \
             best_response x1, serve x1, kernels chunked conv x1, kernels delta manager x2, \
             dist coordinated x1, dist single-process x1, search x1, characterize x1"
        );
        let counted: usize = reports.iter().map(|(_, r)| r.counters().count()).sum();
        let rules: usize = SCENARIOS.iter().map(|s| s.rules.len()).sum();
        assert_eq!((counted, rules), (42, 3));

        // Every counter measures real work except the dist lease faults:
        // every shard is granted exactly once, and nothing expires, is
        // renewed, reinjected or stale.
        let faults = [
            "leases_renewed",
            "leases_expired",
            "shards_reinjected",
            "stale_completions",
        ];
        for (bench, report) in &reports {
            for (key, value) in report.counters() {
                let fault = faults.contains(&key.as_str());
                assert_eq!(*value == UInt(0), fault, "{bench} {key}");
            }
        }
        let count = |bench: &str, key: &str| {
            let report = reports.iter().find(|(b, _)| *b == bench);
            match report.and_then(|(_, r)| r.get(key)) {
                Some(&UInt(n)) => n,
                other => panic!("{bench} {key}: {other:?}"),
            }
        };
        // Serve: 4 submissions of 2 distinct specs dedup to 2 runs. Dist:
        // 2 scenarios, each granted and completed once. Search: the
        // configured generations and an archive within its capacity.
        for (bench, key, expected) in [
            ("serve", "specs_submitted", 4),
            ("serve", "runs_executed", 2),
            ("dist", "scenarios_total", 2),
            ("dist", "leases_granted", 2),
            ("dist", "shards_completed", 2),
            ("search", "generations", 2),
        ] {
            assert_eq!(count(bench, key), expected, "{bench} {key}");
        }
        assert!(count("search", "archive_size") <= 2);
        assert!(count("kernels", "delta_curve_builds") < count("kernels", "cold_curve_builds"));
    }

    /// A kernels report: calibration, the two banded walls, the convolution
    /// speedup and the delta path's curve builds (the cold path's are 96).
    fn kernels(calibration: f64, chunked: f64, delta: f64, speedup: f64, builds: u64) -> Report {
        let metrics = vec![
            ("chunked_wall_seconds", Float(chunked)),
            ("delta_wall_seconds", Float(delta)),
            ("conv_speedup", Float(speedup)),
            ("cold_curve_builds", UInt(96)),
            ("delta_curve_builds", UInt(builds)),
        ];
        SCENARIOS[5].report(1, calibration, (String::new(), metrics))
    }

    #[test]
    fn walls_counters_and_rules_fail_exactly_the_broken_checks() {
        let baseline = kernels(1e6, 1.0, 1.0, 1.6, 27);
        let check = |calibration, chunked, delta, speedup, builds, expected: &[&str]| {
            let fresh = kernels(calibration, chunked, delta, speedup, builds);
            let failed = compare(&SCENARIOS[5], &fresh, &baseline).unwrap();
            assert_eq!(failed.len(), expected.len(), "{failed:?}");
            for (failure, prefix) in failed.iter().zip(expected) {
                assert!(failure.starts_with(prefix), "{failure}");
            }
        };
        // Inside both bands, at the floor, fewer delta builds: passes.
        check(1e6, 1.15, 1.35, 1.3, 27, &[]);
        // Beyond the 20% band, and beyond the doubled one.
        check(1e6, 1.25, 1.0, 1.6, 27, &["kernels chunked conv: wall"]);
        check(1e6, 1.0, 1.45, 1.6, 27, &["kernels delta manager: wall"]);
        // The same code on a machine half as fast: raw walls double but so
        // does the gap in calibration throughput — normalization cancels
        // it, while a genuine 2x regression still fails.
        check(0.5e6, 2.0, 2.0, 1.6, 27, &[]);
        let both = ["kernels chunked conv: wall", "kernels delta manager: wall"];
        check(1e6, 2.0, 2.0, 1.6, 27, &both);
        // Counter drift fails even when the run is faster.
        let drift = "kernels: delta_curve_builds changed from 27 to";
        check(1e6, 0.5, 0.5, 1.6, 26, &[drift]);
        // The speedup floor judges the fresh report alone, and the delta
        // path must build strictly fewer curves than the cold one.
        let floor = "kernels: chunked convolution speedup over the pruned scalar path \
                     dropped to 1.20x (required ≥ 1.3x)";
        check(1e6, 1.0, 1.0, 1.2, 27, &[floor]);
        let below = "kernels: the delta path no longer reduces curve builds \
                     (delta_curve_builds 96 vs cold_curve_builds 96)";
        check(1e6, 1.0, 1.0, 1.6, 96, &[drift, below]);

        // The builder floor, and a newly compared global_opt counter.
        let local = |speedup| {
            let metrics = vec![("builder_wall_seconds", Float(1.0)), ("speedup", speedup)];
            SCENARIOS[2].report(1, 1e6, (String::new(), metrics))
        };
        let failed = compare(&SCENARIOS[2], &local(Float(2.9)), &local(Float(4.5)));
        let floor = "local_opt: builder speedup over the scalar reference dropped to 2.90x \
                     (required ≥ 3.0x)";
        assert_eq!(failed, Ok(vec![floor.to_string()]));
        let global = |calls| {
            let metrics = vec![("wall_seconds", Float(1.0)), ("calls", calls)];
            SCENARIOS[1].report(1, 1e6, (String::new(), metrics))
        };
        let failed = compare(&SCENARIOS[1], &global(UInt(801)), &global(UInt(800)));
        assert!(failed.unwrap()[0].starts_with("global_opt: calls changed from 800 to 801"));

        // A field missing from either side is an error, not a skipped
        // check; so is a counter on one side only, and a banded wall or a
        // rule metric the reports lack.
        let (counted, floated) = (global(UInt(800)), global(Float(800.0)));
        for (new, old) in [(&counted, &floated), (&floated, &counted)] {
            let error = compare(&SCENARIOS[1], new, old).unwrap_err();
            assert!(error.contains("`calls`"), "{error}");
        }
        let other = local(Float(4.5));
        assert!(compare(&SCENARIOS[1], &counted, &other).is_err());
        assert!(compare(&SCENARIOS[1], &other, &counted).is_err());
        assert!(compare(&SCENARIOS[1], &other, &other).is_err());
        assert!(compare(&SCENARIOS[5], &other, &other).is_err());
    }

    #[test]
    fn only_the_documented_flags_are_accepted() {
        let main =
            |args: &[&str]| gate_main(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>());
        assert_eq!(main(&["--help"]), 0);
        assert_eq!(main(&["--tolerance", "0.3"]), 2);
        assert_eq!(main(&["--repetitions", "0"]), 2);
        assert_eq!(main(&["--bogus"]), 2);
    }

    #[test]
    fn synthetic_curves_are_deterministic_and_feasible() {
        let a = synthetic_curves(8, 16);
        let b = synthetic_curves(8, 16);
        assert_eq!(a, b);
        assert!(a.iter().all(|c| c.any_feasible()));
    }
}
