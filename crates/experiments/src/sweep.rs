//! The parallel scenario-sweep engine.
//!
//! Every evaluation in the paper has the same shape: run a set of workload
//! mixes on a platform, under one or more QoS specifications, with one or
//! more resource-manager variants, and compare each managed run against the
//! baseline run of the same workload. The experiment modules used to spell
//! that shape out as bespoke nested loops; this module turns it into data:
//!
//! * a [`ScenarioGrid`] declares the axes — [`PlatformAxis`] (platform +
//!   its workload mixes), [`QosAxis`] (named QoS assignment) and
//!   [`RmaVariant`] (which manager to build) — plus the shared
//!   [`SimulationOptions`];
//! * [`run_with`] enumerates the cross product, builds the per-platform
//!   simulation databases once, computes each workload's baseline run once
//!   (it is manager- and QoS-independent), and fans the scenarios out over
//!   worker threads;
//! * results land in a [`SweepResult`] — a typed table of
//!   ([`ScenarioKey`], [`rma_sim::Comparison`]) cells, in deterministic
//!   axis order regardless of execution order, which `report.rs` renders
//!   and `simdb::persist` can save/load as JSON.
//!
//! Two switches in [`SweepOptions`] control execution without affecting
//! results:
//!
//! * `parallel` — scenarios run on all available cores (the sweep is
//!   embarrassingly parallel once the databases exist);
//! * `memoize` — all managers share one [`qosrm_core::CurveCache`], so the
//!   energy-versus-ways curves that dominate an RMA invocation are computed
//!   once per distinct `(configuration, QoS, observation)` across the whole
//!   sweep (phase traces wrap around within a run and recur across runs,
//!   so hit rates are high).
//!
//! Serial, parallel and memoized execution produce bit-identical
//! [`SweepResult`]s; `tests/sweep_equivalence.rs` locks that in.
//!
//! # Example
//!
//! ```no_run
//! use experiments::sweep::{self, PlatformAxis, QosAxis, RmaVariant, ScenarioGrid};
//! use experiments::ExperimentContext;
//! use qosrm_types::{PlatformConfig, QosSpec};
//! use rma_sim::SimulationOptions;
//!
//! let platform = PlatformConfig::paper2(4);
//! let grid = ScenarioGrid {
//!     platforms: vec![PlatformAxis::new(
//!         "paper2-4c",
//!         platform,
//!         workload::paper2_scenario_workloads(4).into_iter().map(|(_, m)| m).take(2).collect(),
//!     )],
//!     qos: vec![QosAxis::uniform("strict", QosSpec::STRICT)],
//!     variants: vec![RmaVariant::Paper1, RmaVariant::Paper2],
//!     options: SimulationOptions::default(),
//! };
//! let ctx = ExperimentContext::new(true);
//! let result = sweep::run(&grid, &ctx);
//! for outcome in &result.scenarios {
//!     println!("{}: {:.1}%", outcome.key, outcome.comparison.energy_savings * 100.0);
//! }
//! ```

use crate::context::ExperimentContext;
use qosrm_core::{CoordinatedRma, ModelKind};
use qosrm_types::{PlatformConfig, QosSpec, QosrmError};
use rayon::prelude::*;
use rma_sim::{Comparison, CophaseSimulator, SimulationOptions, SimulationResult};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::path::Path;
use workload::WorkloadMix;

/// One platform point of a sweep: the platform configuration together with
/// the workload mixes evaluated on it (mix width must match the platform's
/// core count, so mixes are per-platform rather than a global axis).
#[derive(Debug, Clone)]
pub struct PlatformAxis {
    /// Label used in scenario keys (e.g. `"paper1-4c"`, `"baseline 1.6 GHz"`).
    pub label: String,
    /// The platform configuration managers optimize against.
    pub platform: PlatformConfig,
    /// Workload mixes evaluated on this platform (unique names).
    pub mixes: Vec<WorkloadMix>,
}

impl PlatformAxis {
    /// Creates a platform axis.
    pub fn new(
        label: impl Into<String>,
        platform: PlatformConfig,
        mixes: Vec<WorkloadMix>,
    ) -> Self {
        PlatformAxis {
            label: label.into(),
            platform,
            mixes,
        }
    }
}

/// How a QoS axis point assigns per-application QoS specifications.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum QosPolicy {
    /// Every application gets the same specification.
    Uniform(QosSpec),
    /// Application `i` gets `specs[i]`; applications beyond the vector get
    /// the strict default (matching [`qosrm_core::RmaConfig::qos`]).
    PerCore(Vec<QosSpec>),
}

impl QosPolicy {
    /// Resolves the per-core QoS vector for a platform with `num_cores`
    /// cores.
    pub fn resolve(&self, num_cores: usize) -> Vec<QosSpec> {
        match self {
            QosPolicy::Uniform(spec) => vec![*spec; num_cores],
            QosPolicy::PerCore(specs) => (0..num_cores)
                .map(|i| specs.get(i).copied().unwrap_or_default())
                .collect(),
        }
    }
}

/// One named QoS point of a sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QosAxis {
    /// Label used in scenario keys (e.g. `"strict"`, `"relaxation 40%"`).
    pub label: String,
    /// The QoS assignment.
    pub policy: QosPolicy,
}

impl QosAxis {
    /// A uniform QoS axis point.
    pub fn uniform(label: impl Into<String>, spec: QosSpec) -> Self {
        QosAxis {
            label: label.into(),
            policy: QosPolicy::Uniform(spec),
        }
    }

    /// A per-core QoS axis point.
    pub fn per_core(label: impl Into<String>, specs: Vec<QosSpec>) -> Self {
        QosAxis {
            label: label.into(),
            policy: QosPolicy::PerCore(specs),
        }
    }
}

/// Which resource manager a scenario runs.
///
/// Serializable so a scenario spec file (`crate::spec`) can name variants
/// directly; labels (not the serialized form) key the sweep results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RmaVariant {
    /// RM1: LLC partitioning only.
    PartitioningOnly,
    /// RM2: the Paper I Combined RMA (DVFS + partitioning, Model 2).
    Paper1,
    /// RM3: the Paper II manager (core size + DVFS + partitioning, Model 3).
    Paper2,
    /// DVFS only, no repartitioning.
    DvfsOnly,
    /// Selfish iterated best response over the shared LLC on the RM2 knobs
    /// (label `"NashBR"`); E10 reports its price of anarchy.
    NashBestResponse,
    /// Minimum-total-energy pure Nash equilibrium on the RM2 knobs (label
    /// `"NashEq"`): the cooperative arena's slack-allowed optimum, certified
    /// by best response.
    NashEquilibrium,
    /// DVFS + partitioning with an explicit model choice (used by the
    /// perfect-model and model-comparison studies).
    WithModel {
        /// The analytical model driving the manager.
        model: ModelKind,
        /// Whether the core size knob is controlled.
        control_core_size: bool,
        /// Display name (also the scenario-key label).
        name: String,
    },
}

impl RmaVariant {
    /// Label used in scenario keys (`"RM1"`, `"RM2"`, `"RM3"`, `"DVFS"`, or
    /// the custom name).
    pub fn label(&self) -> &str {
        match self {
            RmaVariant::PartitioningOnly => "RM1",
            RmaVariant::Paper1 => "RM2",
            RmaVariant::Paper2 => "RM3",
            RmaVariant::DvfsOnly => "DVFS",
            RmaVariant::NashBestResponse => "NashBR",
            RmaVariant::NashEquilibrium => "NashEq",
            RmaVariant::WithModel { name, .. } => name,
        }
    }

    /// Builds the manager for one scenario.
    pub fn build(&self, platform: &PlatformConfig, qos: Vec<QosSpec>) -> CoordinatedRma {
        match self {
            RmaVariant::PartitioningOnly => CoordinatedRma::partitioning_only(platform, qos),
            RmaVariant::Paper1 => CoordinatedRma::paper1(platform, qos),
            RmaVariant::Paper2 => CoordinatedRma::paper2(platform, qos),
            RmaVariant::DvfsOnly => CoordinatedRma::dvfs_only(platform, qos),
            RmaVariant::NashBestResponse => CoordinatedRma::nash_best_response(platform, qos),
            RmaVariant::NashEquilibrium => CoordinatedRma::nash_equilibrium(platform, qos),
            RmaVariant::WithModel {
                model,
                control_core_size,
                name,
            } => CoordinatedRma::with_model(platform, qos, *model, *control_core_size)
                .with_name(name.clone()),
        }
    }
}

/// A declarative scenario sweep: the cross product of platform axes (each
/// with its mixes), QoS axes and manager variants, under shared simulation
/// options.
///
/// # Example
///
/// ```
/// use experiments::sweep::{PlatformAxis, QosAxis, RmaVariant, ScenarioGrid};
/// use qosrm_types::{PlatformConfig, QosSpec};
/// use rma_sim::SimulationOptions;
/// use workload::paper1_workloads;
///
/// let grid = ScenarioGrid {
///     platforms: vec![PlatformAxis::new(
///         "paper1-4c",
///         PlatformConfig::paper1(4),
///         paper1_workloads(4).into_iter().take(3).collect(),
///     )],
///     qos: vec![
///         QosAxis::uniform("strict", QosSpec::STRICT),
///         QosAxis::uniform("relaxed 40%", QosSpec::relaxed_by(0.4)),
///     ],
///     variants: vec![RmaVariant::Paper1, RmaVariant::PartitioningOnly],
///     options: SimulationOptions::default(),
/// };
/// assert!(grid.validate().is_ok());
/// assert_eq!(grid.len(), 3 * 2 * 2);
/// ```
#[derive(Debug, Clone)]
pub struct ScenarioGrid {
    /// Platform points, each carrying its workload mixes.
    pub platforms: Vec<PlatformAxis>,
    /// QoS points.
    pub qos: Vec<QosAxis>,
    /// Manager variants.
    pub variants: Vec<RmaVariant>,
    /// Simulation options shared by every scenario (and by the baselines).
    pub options: SimulationOptions,
}

impl ScenarioGrid {
    /// Number of scenarios the grid expands to.
    pub fn len(&self) -> usize {
        let mixes: usize = self.platforms.iter().map(|a| a.mixes.len()).sum();
        mixes * self.qos.len() * self.variants.len()
    }

    /// Whether the grid expands to no scenarios.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Validates the grid: non-empty axes, mixes valid/unique per axis and
    /// matching their platform's core count, unique axis labels.
    pub fn validate(&self) -> Result<(), QosrmError> {
        if self.platforms.is_empty() || self.qos.is_empty() || self.variants.is_empty() {
            return Err(QosrmError::InvalidWorkload(
                "scenario grid has an empty axis".into(),
            ));
        }
        let mut platform_labels = std::collections::HashSet::new();
        for axis in &self.platforms {
            axis.platform
                .validate()
                .map_err(|e| QosrmError::InvalidPlatform(format!("axis {}: {e}", axis.label)))?;
            workload::validate_mix_axis(&axis.mixes)?;
            if let Some(mix) = axis.mixes.first() {
                if mix.num_cores() != axis.platform.num_cores {
                    return Err(QosrmError::InvalidWorkload(format!(
                        "axis {}: mixes have {} applications, platform has {} cores",
                        axis.label,
                        mix.num_cores(),
                        axis.platform.num_cores
                    )));
                }
            }
            if !platform_labels.insert(axis.label.as_str()) {
                return Err(QosrmError::InvalidWorkload(format!(
                    "duplicate platform axis label {}",
                    axis.label
                )));
            }
        }
        let mut labels = std::collections::HashSet::new();
        for axis in &self.qos {
            if !labels.insert(axis.label.as_str()) {
                return Err(QosrmError::InvalidWorkload(format!(
                    "duplicate QoS axis label {}",
                    axis.label
                )));
            }
            // A per-core spec list longer than a platform's core count would
            // silently drop the excess specs in resolve(); reject it so the
            // declared assignment always matches the executed one.
            if let QosPolicy::PerCore(specs) = &axis.policy {
                for platform_axis in &self.platforms {
                    if specs.len() > platform_axis.platform.num_cores {
                        return Err(QosrmError::InvalidWorkload(format!(
                            "QoS axis {} specifies {} per-core specs but platform axis {} has only {} cores",
                            axis.label,
                            specs.len(),
                            platform_axis.label,
                            platform_axis.platform.num_cores
                        )));
                    }
                }
            }
        }
        let mut labels = std::collections::HashSet::new();
        for variant in &self.variants {
            if !labels.insert(variant.label()) {
                return Err(QosrmError::InvalidWorkload(format!(
                    "duplicate variant label {}",
                    variant.label()
                )));
            }
        }
        Ok(())
    }
}

/// Identifies one scenario of a sweep by its axis labels.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ScenarioKey {
    /// Platform-axis label.
    pub platform: String,
    /// Workload-mix name.
    pub mix: String,
    /// QoS-axis label.
    pub qos: String,
    /// Variant label.
    pub variant: String,
}

impl fmt::Display for ScenarioKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{}/{}/{}",
            self.platform, self.mix, self.qos, self.variant
        )
    }
}

/// One evaluated scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioOutcome {
    /// Which scenario this is.
    pub key: ScenarioKey,
    /// Comparison of the managed run against the workload's baseline run.
    pub comparison: Comparison,
}

/// The typed result table of one sweep, in deterministic axis order
/// (platform → mix → QoS → variant) regardless of execution order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepResult {
    /// All evaluated scenarios.
    pub scenarios: Vec<ScenarioOutcome>,
}

impl SweepResult {
    /// Looks up one scenario's comparison by its axis labels.
    pub fn comparison(
        &self,
        platform: &str,
        mix: &str,
        qos: &str,
        variant: &str,
    ) -> Option<&Comparison> {
        self.scenarios
            .iter()
            .find(|o| {
                o.key.platform == platform
                    && o.key.mix == mix
                    && o.key.qos == qos
                    && o.key.variant == variant
            })
            .map(|o| &o.comparison)
    }

    /// Like [`SweepResult::comparison`] but panics with the missing key —
    /// for experiment code where every cell is known to exist.
    pub fn expect_comparison(
        &self,
        platform: &str,
        mix: &str,
        qos: &str,
        variant: &str,
    ) -> &Comparison {
        self.comparison(platform, mix, qos, variant)
            .unwrap_or_else(|| panic!("sweep result has no cell {platform}/{mix}/{qos}/{variant}"))
    }

    /// Saves the result table as JSON via `simdb`'s persistence layer.
    pub fn save(&self, path: &Path) -> Result<(), QosrmError> {
        simdb::persist::save_json(self, path)
    }

    /// Loads a result table saved with [`SweepResult::save`].
    pub fn load(path: &Path) -> Result<Self, QosrmError> {
        simdb::persist::load_json(path)
    }
}

/// Execution switches of a sweep. No switch affects results, only how fast
/// they are produced.
#[derive(Debug, Clone, Copy)]
pub struct SweepOptions {
    /// Fan scenarios out over worker threads.
    pub parallel: bool,
    /// Share one energy-curve memoization cache across all managers.
    pub memoize: bool,
    /// Run every manager on its incremental delta path
    /// ([`CoordinatedRma::with_incremental`]): recurring per-core
    /// observations skip curve construction entirely, the cooperative and
    /// NashEq global steps reuse the retained reduction arena, and an
    /// invocation that changed nothing skips the global step. Settings — and
    /// therefore sweep results — are bit-identical either way
    /// (`tests/sweep_equivalence.rs` locks that in), so the default turns
    /// it on. The switch stays because it is what makes
    /// [`SweepOptions::serial`] the cold reference path, and because the
    /// end-to-end benchmark (`perfbench/`) names it.
    pub incremental: bool,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            parallel: true,
            memoize: true,
            incremental: true,
        }
    }
}

impl SweepOptions {
    /// Fully serial, uncached, cold execution: every manager rebuilds every
    /// curve and runs every global step (the reference path benchmarks and
    /// equivalence tests compare against).
    pub fn serial() -> Self {
        SweepOptions {
            parallel: false,
            memoize: false,
            incremental: false,
        }
    }
}

/// Runs the grid with the context's sweep options (parallel, memoized and
/// on the delta path by default).
pub fn run(grid: &ScenarioGrid, ctx: &ExperimentContext) -> SweepResult {
    run_with(grid, ctx, &ctx.sweep)
}

/// Runs the grid with explicit execution options.
///
/// Builds (or fetches from the context cache) one simulation database per
/// platform axis, computes each workload's baseline run once, then
/// evaluates every scenario. Scenario order in the result is the axis
/// order platform → mix → QoS → variant.
///
/// # Panics
///
/// Panics if the grid fails [`ScenarioGrid::validate`] or a workload does
/// not match its platform's database.
pub fn run_with(
    grid: &ScenarioGrid,
    ctx: &ExperimentContext,
    options: &SweepOptions,
) -> SweepResult {
    grid.validate().expect("scenario grid must be valid");
    let engine = SweepEngine::new(grid, ctx, *options);
    let points = grid_points(grid);
    let pairs: Vec<(usize, usize)> = mix_pairs(&points);
    let units = engine.build_units(&pairs);
    let scenarios = engine.evaluate_all(&units, &points);
    SweepResult { scenarios }
}

/// One scenario of a grid as `(platform, mix, qos, variant)` axis indices.
pub(crate) type GridPoint = (usize, usize, usize, usize);

/// Enumerates a grid's scenarios in the canonical axis order
/// (platform → mix → QoS → variant) — the order of [`SweepResult`] rows.
pub(crate) fn grid_points(grid: &ScenarioGrid) -> Vec<GridPoint> {
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
    points
}

/// The [`ScenarioKey`] of one grid point.
pub(crate) fn scenario_key(grid: &ScenarioGrid, (a, m, q, v): GridPoint) -> ScenarioKey {
    ScenarioKey {
        platform: grid.platforms[a].label.clone(),
        mix: grid.platforms[a].mixes[m].name.clone(),
        qos: grid.qos[q].label.clone(),
        variant: grid.variants[v].label().to_string(),
    }
}

/// The distinct `(platform, mix)` pairs of a point list, in first-seen
/// order (points are enumerated in axis order, so this is axis order too).
pub(crate) fn mix_pairs(points: &[GridPoint]) -> Vec<(usize, usize)> {
    let mut seen = std::collections::HashSet::new();
    let mut pairs = Vec::new();
    for &(a, m, _, _) in points {
        if seen.insert((a, m)) {
            pairs.push((a, m));
        }
    }
    pairs
}

/// The per-`(platform, mix)` state a scenario evaluation needs: the
/// simulator and the manager-independent baseline run (reused across all
/// QoS points and variants of the mix).
pub(crate) struct MixUnit {
    simulator: CophaseSimulator,
    baseline: SimulationResult,
}

/// Shared evaluation machinery of the in-memory ([`run_with`]) and
/// streaming (`crate::stream`) executors: the per-platform databases plus
/// the single-scenario evaluation path. [`MixUnit`]s are built explicitly
/// (and can be dropped between shards), so the caller controls how much
/// simulation state is resident at once.
pub(crate) struct SweepEngine<'g> {
    grid: &'g ScenarioGrid,
    options: SweepOptions,
    curve_cache: std::sync::Arc<qosrm_core::CurveCache>,
    rma_telemetry: std::sync::Arc<crate::context::RmaTelemetry>,
    databases: Vec<simdb::SimDb>,
}

impl<'g> SweepEngine<'g> {
    /// Builds the engine: one simulation database per platform axis
    /// (cached in the context and internally parallel already).
    pub fn new(grid: &'g ScenarioGrid, ctx: &ExperimentContext, options: SweepOptions) -> Self {
        let databases = grid
            .platforms
            .iter()
            .map(|axis| ctx.database(&axis.platform, &axis.mixes))
            .collect();
        SweepEngine {
            grid,
            options,
            curve_cache: ctx.curve_cache().clone(),
            rma_telemetry: ctx.rma_telemetry().clone(),
            databases,
        }
    }

    /// Builds the simulator and baseline run of every listed
    /// `(platform, mix)` pair — baselines are manager- and QoS-independent,
    /// so a sweep with Q QoS points and V variants reuses each one Q·V
    /// times. Runs in parallel when the sweep options say so.
    pub fn build_units(&self, pairs: &[(usize, usize)]) -> HashMap<(usize, usize), MixUnit> {
        let build = |&(a, m): &(usize, usize)| -> ((usize, usize), MixUnit) {
            let axis = &self.grid.platforms[a];
            let simulator = CophaseSimulator::new(
                &self.databases[a],
                &axis.mixes[m],
                self.grid.options.clone(),
            )
            .expect("mix validated against its platform");
            let baseline = simulator
                .run_baseline()
                .expect("baseline run must finish within the event budget");
            (
                (a, m),
                MixUnit {
                    simulator,
                    baseline,
                },
            )
        };
        if self.options.parallel {
            pairs.par_iter().map(build).collect::<Vec<_>>()
        } else {
            pairs.iter().map(build).collect::<Vec<_>>()
        }
        .into_iter()
        .collect()
    }

    /// Evaluates one scenario against its prebuilt [`MixUnit`].
    pub fn evaluate(
        &self,
        units: &HashMap<(usize, usize), MixUnit>,
        (a, m, q, v): GridPoint,
    ) -> ScenarioOutcome {
        let axis = &self.grid.platforms[a];
        let qos_axis = &self.grid.qos[q];
        let variant = &self.grid.variants[v];
        let unit = units
            .get(&(a, m))
            .expect("mix unit built before evaluation");
        let qos = qos_axis.policy.resolve(axis.platform.num_cores);
        let mut manager = variant.build(&axis.platform, qos.clone());
        if self.options.memoize {
            manager = manager.with_curve_cache(self.curve_cache.clone());
        }
        if self.options.incremental {
            manager = manager.with_incremental();
        }
        let (comparison, _managed) = unit
            .simulator
            .run_comparison(&mut manager, &unit.baseline, &qos)
            .unwrap_or_else(|e| panic!("scenario simulation failed: {e}"));
        // Fold the manager's measured work into the session telemetry (the
        // serving daemon exposes the aggregate via `/stats`).
        self.rma_telemetry.absorb(&manager.work_counters());
        ScenarioOutcome {
            key: scenario_key(self.grid, (a, m, q, v)),
            comparison,
        }
    }

    /// Evaluates the listed scenarios (in parallel when enabled), returning
    /// outcomes in the order of `points` regardless of execution order.
    pub fn evaluate_all(
        &self,
        units: &HashMap<(usize, usize), MixUnit>,
        points: &[GridPoint],
    ) -> Vec<ScenarioOutcome> {
        if self.options.parallel {
            points
                .par_iter()
                .map(|&point| self.evaluate(units, point))
                .collect()
        } else {
            points
                .iter()
                .map(|&point| self.evaluate(units, point))
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_grid() -> ScenarioGrid {
        ScenarioGrid {
            platforms: vec![PlatformAxis::new(
                "p4",
                PlatformConfig::paper1(4),
                vec![WorkloadMix::new(
                    "t0",
                    vec!["mcf_like", "gamess_like", "povray_like", "soplex_like"],
                )],
            )],
            qos: vec![
                QosAxis::uniform("strict", QosSpec::STRICT),
                QosAxis::uniform("relaxed 40%", QosSpec::relaxed_by(0.4)),
            ],
            variants: vec![RmaVariant::Paper1, RmaVariant::PartitioningOnly],
            options: SimulationOptions {
                provide_mlp_profiles: false,
                ..Default::default()
            },
        }
    }

    #[test]
    fn grid_size_and_validation() {
        let grid = tiny_grid();
        assert_eq!(grid.len(), 4); // 1 mix x 2 QoS x 2 variants
        assert!(!grid.is_empty());
        assert!(grid.validate().is_ok());

        let mut empty = tiny_grid();
        empty.variants.clear();
        assert!(empty.validate().is_err());
        assert!(empty.is_empty());

        let mut dup = tiny_grid();
        dup.qos.push(QosAxis::uniform("strict", QosSpec::STRICT));
        assert!(dup.validate().is_err());

        let mut wrong_width = tiny_grid();
        wrong_width.platforms[0].mixes =
            vec![WorkloadMix::new("w2", vec!["mcf_like", "gamess_like"])];
        assert!(wrong_width.validate().is_err());

        // Per-core QoS lists longer than a platform's core count are
        // rejected rather than silently truncated.
        let mut oversized = tiny_grid();
        oversized.qos.push(QosAxis::per_core(
            "oversized",
            vec![QosSpec::relaxed_by(0.4); 8],
        ));
        assert!(oversized.validate().is_err());
    }

    #[test]
    fn qos_policy_resolution() {
        let uniform = QosPolicy::Uniform(QosSpec::relaxed_by(0.2));
        assert_eq!(uniform.resolve(3), vec![QosSpec::relaxed_by(0.2); 3]);

        let per_core = QosPolicy::PerCore(vec![QosSpec::relaxed_by(0.4)]);
        let resolved = per_core.resolve(3);
        assert_eq!(resolved[0], QosSpec::relaxed_by(0.4));
        assert_eq!(resolved[1], QosSpec::STRICT);
        assert_eq!(resolved[2], QosSpec::STRICT);
    }

    #[test]
    fn variant_labels_and_managers() {
        let p = PlatformConfig::paper2(4);
        assert_eq!(RmaVariant::PartitioningOnly.label(), "RM1");
        assert_eq!(RmaVariant::Paper1.label(), "RM2");
        assert_eq!(RmaVariant::Paper2.label(), "RM3");
        assert_eq!(RmaVariant::DvfsOnly.label(), "DVFS");
        assert_eq!(RmaVariant::NashBestResponse.label(), "NashBR");
        assert_eq!(RmaVariant::NashEquilibrium.label(), "NashEq");
        let custom = RmaVariant::WithModel {
            model: ModelKind::Perfect,
            control_core_size: false,
            name: "CombinedRMA-Perfect".into(),
        };
        assert_eq!(custom.label(), "CombinedRMA-Perfect");
        use qosrm_types::ResourceManager;
        assert_eq!(
            custom.build(&p, vec![QosSpec::STRICT; 4]).name(),
            "CombinedRMA-Perfect"
        );
        assert_eq!(
            RmaVariant::Paper2
                .build(&p, vec![QosSpec::STRICT; 4])
                .name(),
            "CoordCoreRMA-Model3"
        );
        assert_eq!(
            RmaVariant::NashBestResponse
                .build(&p, vec![QosSpec::STRICT; 4])
                .name(),
            "NashBR-Model2"
        );
        assert_eq!(
            RmaVariant::NashEquilibrium
                .build(&p, vec![QosSpec::STRICT; 4])
                .name(),
            "NashEq-Model2"
        );
    }

    #[test]
    fn sweep_produces_every_cell_in_axis_order() {
        let grid = tiny_grid();
        let ctx = ExperimentContext::new(true);
        let result = run(&grid, &ctx);
        assert_eq!(result.scenarios.len(), grid.len());
        // Axis order: mix → qos → variant.
        let labels: Vec<String> = result
            .scenarios
            .iter()
            .map(|o| format!("{}/{}", o.key.qos, o.key.variant))
            .collect();
        assert_eq!(
            labels,
            vec![
                "strict/RM2",
                "strict/RM1",
                "relaxed 40%/RM2",
                "relaxed 40%/RM1",
            ]
        );
        assert!(result.comparison("p4", "t0", "strict", "RM2").is_some());
        assert!(result.comparison("p4", "t0", "strict", "RM9").is_none());
        // Relaxing QoS cannot reduce RM2 savings.
        let strict = result.expect_comparison("p4", "t0", "strict", "RM2");
        let relaxed = result.expect_comparison("p4", "t0", "relaxed 40%", "RM2");
        assert!(relaxed.energy_savings >= strict.energy_savings - 1e-12);
    }

    #[test]
    fn save_load_roundtrip() {
        let grid = tiny_grid();
        let ctx = ExperimentContext::new(true);
        let result = run(&grid, &ctx);
        let path = std::env::temp_dir().join("qosrm_sweep_roundtrip.json");
        result.save(&path).unwrap();
        let loaded = SweepResult::load(&path).unwrap();
        assert_eq!(loaded, result);
        std::fs::remove_file(&path).ok();
    }
}
