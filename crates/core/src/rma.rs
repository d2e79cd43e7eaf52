//! The coordinated resource manager.

use crate::curve::{CurvePoint, EnergyCurve};
use crate::game::{self, GameConfig, PartitionAlgo};
use crate::global::{Budget, IncrementalOptimizer};
use crate::local::{LocalOptimizer, LocalOptimizerConfig};
use crate::memo::{self, CurveCache, CurveKey};
use crate::model::ModelKind;
use crate::overhead::OverheadModel;
use power_model::EnergyParams;
use qosrm_types::{
    CoreId, CoreObservation, CoreSetting, PlatformConfig, QosSpec, ResourceManager, SystemSetting,
};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Configuration of a [`CoordinatedRma`].
#[derive(Debug, Clone)]
pub struct RmaConfig {
    /// Whether the manager may repartition the LLC.
    pub control_partitioning: bool,
    /// Whether the manager may change per-core VF levels.
    pub control_dvfs: bool,
    /// Whether the manager may change the core micro-architecture size
    /// (Paper II).
    pub control_core_size: bool,
    /// Which analytical performance model to use.
    pub model: ModelKind,
    /// Per-application QoS specifications (indexed by core; applications
    /// beyond the vector length get the strict default).
    pub qos: Vec<QosSpec>,
    /// Energy calibration shared with the platform.
    pub energy_params: EnergyParams,
    /// Minimum relative predicted-energy improvement required before the LLC
    /// partition is changed. Repartitioning has a real cost (lines must be
    /// refilled), so ties and negligible gains keep the current partition.
    pub switch_threshold: f64,
    /// Which algorithm the global step uses to distribute LLC ways: the
    /// paper's cooperative arbiter or one of the game-theoretic solvers of
    /// [`crate::game`]. Only consulted when `control_partitioning` is set.
    ///
    /// Deliberately absent from the curve-cache configuration fingerprint:
    /// energy curves do not depend on how the global step distributes ways,
    /// so cooperative and game-theoretic managers share cache entries.
    pub partition_algo: PartitionAlgo,
    /// Whether the manager takes the incremental delta path: each core's
    /// observation is compared bit for bit with its previous one, an
    /// unchanged core keeps its retained curve without rebuilding, the
    /// global step (cooperative or NashEq) keeps its min-plus arena between
    /// steps and recombines only the dirty cores' root paths, and an
    /// invocation that changed nothing skips the global step. Off the
    /// delta path the arena is cleared before each step, so every step
    /// builds it cold. Results are bit-identical either way; only the
    /// *measured work* differs, which is why the paper's constructors leave
    /// it off — the overhead experiments (E5/E9) report the cold
    /// per-invocation cost. Like `partition_algo`, deliberately absent from
    /// the configuration fingerprint.
    pub incremental: bool,
}

impl RmaConfig {
    /// Paper I's Combined RMA (RM2): per-core DVFS + LLC partitioning with
    /// the constant-MLP model.
    pub fn paper1(qos: Vec<QosSpec>) -> Self {
        RmaConfig {
            control_partitioning: true,
            control_dvfs: true,
            control_core_size: false,
            model: ModelKind::ConstantMlp,
            qos,
            energy_params: EnergyParams::default(),
            switch_threshold: 0.005,
            partition_algo: PartitionAlgo::Cooperative,
            incremental: false,
        }
    }

    /// Paper II's RM3: core size + DVFS + LLC partitioning with the
    /// MLP-aware model.
    pub fn paper2(qos: Vec<QosSpec>) -> Self {
        RmaConfig {
            control_partitioning: true,
            control_dvfs: true,
            control_core_size: true,
            model: ModelKind::MlpAware,
            qos,
            energy_params: EnergyParams::default(),
            switch_threshold: 0.005,
            partition_algo: PartitionAlgo::Cooperative,
            incremental: false,
        }
    }
}

/// Cumulative measured work counters of a [`CoordinatedRma`], reset by
/// [`ResourceManager::reset`].
///
/// Unlike [`LocalOptimizer::evaluations_per_invocation`] — a worst-case
/// bound — these count the work the manager *actually* performed, which is
/// what the overhead experiments (E5/E9) report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RmaWorkCounters {
    /// RMA invocations handled (`on_interval` calls).
    pub invocations: u64,
    /// Energy curves actually constructed (cache hits build nothing).
    pub curve_builds: u64,
    /// Analytical model evaluations performed across all curve builds
    /// (the builder's exact per-candidate count, including the one baseline
    /// prediction per build that defines the QoS target).
    pub local_evaluations: u64,
    /// Min-plus convolution cell updates evaluated by the global step.
    pub reduction_ops: u64,
    /// Convolution candidates skipped by the global step's lower-bound
    /// pruning.
    pub reduction_pruned: u64,
    /// Intervals where the manager could not certify the QoS target at the
    /// setting it had to keep: the curve had no feasible point at all
    /// (extreme modeling error), or — without partitioning control — the
    /// core's *current* way allocation was infeasible and the old setting
    /// was silently retained. Surfaced per run via
    /// [`rma-sim`](../../rma_sim/index.html)'s `SimulationResult`.
    pub qos_at_risk_intervals: u64,
    /// Best-response rounds executed by the game-theoretic partition
    /// algorithms, NashEq's certificate rounds included (zero under the
    /// cooperative arbiter).
    pub game_rounds: u64,
    /// Single-core energy lookups performed while computing best responses.
    pub best_response_evaluations: u64,
    /// Candidates certified by equilibrium selection: one per NashEq solve
    /// that found a feasible slack optimum.
    pub equilibria_examined: u64,
    /// Invocations whose observation equalled the invoking core's previous
    /// one bit for bit, so the retained curve was reused with no model
    /// evaluation at all (only ticks in incremental mode; see
    /// [`CoordinatedRma::with_incremental`]).
    pub delta_invocations: u64,
    /// Curves (re)built by the incremental path because the invoking core's
    /// observation changed — or no curve was retained — since the previous
    /// interval (only ticks in incremental mode).
    pub curves_patched: u64,
    /// Arena rows the global step — cooperative or NashEq — reused verbatim
    /// instead of recomputing (only ticks in incremental mode). A skipped
    /// global step counts the whole retained arena, as a warm step with
    /// nothing dirty would.
    pub warm_rows_reused: u64,
    /// Full 4-wide chunk passes executed by the chunked min-plus kernel
    /// across all cooperative and equilibrium-selection global steps.
    pub chunked_conv_lanes: u64,
}

impl std::fmt::Display for RmaWorkCounters {
    /// Renders every counter as one `key=value` line.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Exhaustive destructuring (no `..`): adding a field to
        // RmaWorkCounters fails compilation here until the display covers
        // it, mirroring `digest_observation` in memo.rs.
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
        } = *self;
        write!(
            f,
            "invocations={invocations} curve_builds={curve_builds} \
             local_evaluations={local_evaluations} reduction_ops={reduction_ops} \
             reduction_pruned={reduction_pruned} \
             qos_at_risk_intervals={qos_at_risk_intervals} \
             game_rounds={game_rounds} \
             best_response_evaluations={best_response_evaluations} \
             equilibria_examined={equilibria_examined} \
             delta_invocations={delta_invocations} \
             curves_patched={curves_patched} \
             warm_rows_reused={warm_rows_reused} \
             chunked_conv_lanes={chunked_conv_lanes}"
        )
    }
}

/// The coordinated QoS-driven resource manager.
///
/// One instance manages the whole system: it keeps the most recent energy
/// curve of every core and, at each invocation, recomputes the invoking
/// core's curve and re-runs the global optimization over all cores.
///
/// # Example
///
/// Build the paper's managers and inspect their cost (the co-phase
/// simulator drives them through [`qosrm_types::ResourceManager`]):
///
/// ```
/// use qosrm_core::CoordinatedRma;
/// use qosrm_types::{PlatformConfig, QosSpec, ResourceManager};
///
/// let platform = PlatformConfig::paper2(4);
/// let qos = vec![QosSpec::STRICT; 4];
///
/// let rm2 = CoordinatedRma::paper1(&platform, qos.clone());
/// let rm3 = CoordinatedRma::paper2(&platform, qos);
/// assert_eq!(rm2.name(), "CombinedRMA-Model2");
/// assert_eq!(rm3.name(), "CoordCoreRMA-Model3");
///
/// // Paper I reports < 40K instructions per 4-core invocation; RM3 pays
/// // more because it also explores the core-size dimension.
/// assert!(rm2.invocation_overhead_instructions(4) < 40_000);
/// assert!(rm3.invocation_overhead_instructions(4) > rm2.invocation_overhead_instructions(4));
/// ```
#[derive(Debug, Clone)]
pub struct CoordinatedRma {
    platform: PlatformConfig,
    config: RmaConfig,
    optimizer: LocalOptimizer,
    overhead: OverheadModel,
    /// Latest energy curve of every core, borrowed as one slice by the
    /// global step. An empty curve (`max_ways() == 0`) marks a core without
    /// a feasible curve since the last reset.
    curves: Vec<EnergyCurve>,
    name: String,
    /// Optional shared memoization cache for energy curves; see
    /// [`CoordinatedRma::with_curve_cache`].
    curve_cache: Option<Arc<CurveCache>>,
    /// Digest of everything besides `(qos, observation)` that determines a
    /// curve: platform, control knobs, model kind and energy calibration.
    config_key: CurveKey,
    /// Measured work counters (see [`RmaWorkCounters`]).
    counters: RmaWorkCounters,
    /// Per-core observation of the previous interval (delta path), compared
    /// bit for bit with the next one by [`memo::same_observation`].
    observations: Vec<Option<CoreObservation>>,
    /// Cores whose curve changed since the last global step (delta path);
    /// sized like `curves`. Every global step consumes the mask.
    pending_dirty: Vec<bool>,
    /// The min-plus arena of every cooperative and NashEq global step:
    /// retained between steps on the delta path, cleared before each step
    /// off it.
    arena: IncrementalOptimizer,
    /// The setting the previous invocation returned, when that setting was
    /// a global-step result the step would return again (delta path); see
    /// the skip in [`ResourceManager::on_interval`].
    last_setting: Option<SystemSetting>,
}

impl CoordinatedRma {
    /// Creates a manager with an explicit configuration.
    pub fn new(platform: &PlatformConfig, config: RmaConfig) -> Self {
        let optimizer = LocalOptimizer::new(
            platform,
            LocalOptimizerConfig {
                control_dvfs: config.control_dvfs,
                control_core_size: config.control_core_size,
                model: config.model,
                energy_params: config.energy_params,
            },
        );
        let name = Self::default_name(&config);
        let config_key = memo::fingerprint(&(
            platform.clone(),
            config.control_dvfs,
            config.control_core_size,
            config.model,
            config.energy_params,
        ));
        CoordinatedRma {
            platform: platform.clone(),
            curves: vec![EnergyCurve::default(); platform.num_cores],
            optimizer,
            overhead: OverheadModel::default(),
            config,
            name,
            curve_cache: None,
            config_key,
            counters: RmaWorkCounters::default(),
            observations: vec![None; platform.num_cores],
            pending_dirty: vec![false; platform.num_cores],
            arena: IncrementalOptimizer::new(),
            last_setting: None,
        }
    }

    fn default_name(config: &RmaConfig) -> String {
        let model = match config.model {
            ModelKind::SimpleLatency => "Model1",
            ModelKind::ConstantMlp => "Model2",
            ModelKind::MlpAware => "Model3",
            ModelKind::Perfect => "Perfect",
        };
        let scheme = match config.partition_algo {
            PartitionAlgo::NashBestResponse => return format!("NashBR-{model}"),
            PartitionAlgo::NashMinEnergyEquilibrium => return format!("NashEq-{model}"),
            PartitionAlgo::Cooperative => match (
                config.control_partitioning,
                config.control_dvfs,
                config.control_core_size,
            ) {
                (true, false, false) => "PartitioningRMA",
                (false, true, false) => "DvfsRMA",
                (true, true, false) => "CombinedRMA",
                (true, true, true) => "CoordCoreRMA",
                _ => "CustomRMA",
            },
        };
        format!("{scheme}-{model}")
    }

    /// RM1: LLC partitioning only (baseline VF and core size).
    pub fn partitioning_only(platform: &PlatformConfig, qos: Vec<QosSpec>) -> Self {
        CoordinatedRma::new(
            platform,
            RmaConfig {
                control_partitioning: true,
                control_dvfs: false,
                control_core_size: false,
                model: ModelKind::ConstantMlp,
                qos,
                energy_params: EnergyParams::default(),
                switch_threshold: 0.005,
                partition_algo: PartitionAlgo::Cooperative,
                incremental: false,
            },
        )
    }

    /// DVFS-only manager (no repartitioning). Under strict QoS it cannot
    /// lower any frequency, which is exactly the paper's argument for
    /// coordinated management.
    pub fn dvfs_only(platform: &PlatformConfig, qos: Vec<QosSpec>) -> Self {
        CoordinatedRma::new(
            platform,
            RmaConfig {
                control_partitioning: false,
                control_dvfs: true,
                control_core_size: false,
                model: ModelKind::ConstantMlp,
                qos,
                energy_params: EnergyParams::default(),
                switch_threshold: 0.005,
                partition_algo: PartitionAlgo::Cooperative,
                incremental: false,
            },
        )
    }

    /// RM2: the Paper I Combined RMA (DVFS + partitioning, Model 2).
    pub fn paper1(platform: &PlatformConfig, qos: Vec<QosSpec>) -> Self {
        CoordinatedRma::new(platform, RmaConfig::paper1(qos))
    }

    /// A selfish manager on the RM2 knobs (DVFS + partitioning, Model 2)
    /// whose global step runs iterated best response
    /// ([`crate::game::best_response`]) instead of the cooperative arbiter.
    /// Shares RM2's energy curves bit-for-bit, so E10 measures exactly the
    /// cost of selfishness.
    pub fn nash_best_response(platform: &PlatformConfig, qos: Vec<QosSpec>) -> Self {
        let mut config = RmaConfig::paper1(qos);
        config.partition_algo = PartitionAlgo::NashBestResponse;
        CoordinatedRma::new(platform, config)
    }

    /// A manager on the RM2 knobs whose global step applies the
    /// minimum-total-energy pure Nash equilibrium
    /// ([`crate::game::min_energy_equilibrium`]): the slack-allowed optimum
    /// of the cooperative arena, certified by best response, at any core
    /// count.
    pub fn nash_equilibrium(platform: &PlatformConfig, qos: Vec<QosSpec>) -> Self {
        let mut config = RmaConfig::paper1(qos);
        config.partition_algo = PartitionAlgo::NashMinEnergyEquilibrium;
        CoordinatedRma::new(platform, config)
    }

    /// RM3: the Paper II manager (core size + DVFS + partitioning, Model 3).
    pub fn paper2(platform: &PlatformConfig, qos: Vec<QosSpec>) -> Self {
        CoordinatedRma::new(platform, RmaConfig::paper2(qos))
    }

    /// A manager with an explicit model choice (used by the model-accuracy
    /// experiments, e.g. RM3 driven by Model 1 / 2 / 3 or the perfect
    /// oracle).
    pub fn with_model(
        platform: &PlatformConfig,
        qos: Vec<QosSpec>,
        model: ModelKind,
        control_core_size: bool,
    ) -> Self {
        CoordinatedRma::new(
            platform,
            RmaConfig {
                control_partitioning: true,
                control_dvfs: true,
                control_core_size,
                model,
                qos,
                energy_params: EnergyParams::default(),
                switch_threshold: 0.005,
                partition_algo: PartitionAlgo::Cooperative,
                incremental: false,
            },
        )
    }

    /// Overrides the display name (used when tables compare several variants
    /// of the same scheme).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Attaches a shared energy-curve memoization cache.
    ///
    /// Curves are pure functions of `(configuration, QoS, observation)`, so
    /// a cache shared between managers — across the scenarios of a sweep and
    /// across threads — returns bit-identical curves while skipping the
    /// per-invocation model evaluations whenever an observation recurs. See
    /// [`CurveCache`] for the key derivation.
    pub fn with_curve_cache(mut self, cache: Arc<CurveCache>) -> Self {
        self.curve_cache = Some(cache);
        self
    }

    /// Enables the incremental delta path (see [`RmaConfig::incremental`]):
    /// a core whose observation equals its previous one bit for bit keeps
    /// its retained curve, the global step recombines only the dirty root
    /// paths of the retained reduction arena, and an invocation that
    /// changed nothing returns the current setting without a global step.
    /// Every setting the manager emits is bit-identical to the cold
    /// path — only the measured work counters differ (`delta_invocations`,
    /// `curves_patched`, `warm_rows_reused` tick; `curve_builds`,
    /// `reduction_ops` and the game counters shrink).
    pub fn with_incremental(mut self) -> Self {
        self.config.incremental = true;
        self
    }

    /// Drops all delta-path state: the next invocation compares against
    /// nothing and the next global step rebuilds the arena cold.
    fn clear_delta_state(&mut self, num_cores: usize) {
        self.observations = vec![None; num_cores];
        self.pending_dirty = vec![false; num_cores];
        self.arena.clear();
        self.last_setting = None;
    }

    /// The QoS specification of `core`.
    fn qos_of(&self, core: CoreId) -> QosSpec {
        self.config
            .qos
            .get(core.index())
            .copied()
            .unwrap_or_default()
    }

    /// The manager's configuration.
    pub fn config(&self) -> &RmaConfig {
        &self.config
    }

    /// Upper bound on the analytical model evaluations one invocation
    /// performs (the full candidate space). For the work actually done, see
    /// [`CoordinatedRma::work_counters`].
    pub fn evaluations_per_invocation(&self) -> usize {
        self.optimizer.evaluations_per_invocation()
    }

    /// The measured work counters accumulated since the last
    /// [`ResourceManager::reset`].
    pub fn work_counters(&self) -> RmaWorkCounters {
        self.counters
    }
}

impl ResourceManager for CoordinatedRma {
    fn name(&self) -> &str {
        &self.name
    }

    fn reset(&mut self, num_cores: usize) {
        self.curves = vec![EnergyCurve::default(); num_cores];
        self.counters = RmaWorkCounters::default();
        self.clear_delta_state(num_cores);
    }

    /// # Skipping the global step
    ///
    /// On the delta path, an invocation where no core's curve changed since
    /// the last global step, and whose `current` equals the setting `S`
    /// that step returned, returns `current` without running the step.
    /// This is exact for every [`PartitionAlgo`]. The step is a
    /// deterministic function of the curves, so a re-run would compute the
    /// same allocation `A` and then apply the hysteresis to `A` and `S`.
    /// The manager remembers `S` only when that yields `S` again, which it
    /// checks when the step returns `S`:
    ///
    /// - A cooperative allocation pairs each way count with the curve's own
    ///   point there, so `S` is always remembered. If the step moved to
    ///   `A`, the re-run compares `A`'s energy with itself (the same values
    ///   summed in the same order), and either branch emits `A`'s points.
    ///   If it kept the previous ways `C`, re-tuning VF and core size on
    ///   them, the re-run makes the same comparison on `C`'s ways and emits
    ///   the same points.
    /// - A game outcome tops its strategies up to an exact-sum partition
    ///   but keeps each strategy's own point. After a move, the re-run may
    ///   keep the topped-up ways and re-tune VF and core size on them; such
    ///   an `S` is not remembered, and the next invocation runs the step.
    ///
    /// `S` passed validation when the step returned it. Every counter
    /// ticks as the re-run would: an arena step (cooperative or NashEq)
    /// with nothing dirty recomputes no row and reuses the whole retained
    /// arena, which the skip adds to `warm_rows_reused` (best response keeps
    /// no arena, so it adds nothing); game steps are skipped with their
    /// rounds.
    fn on_interval(
        &mut self,
        core: CoreId,
        observation: &CoreObservation,
        current: &SystemSetting,
    ) -> SystemSetting {
        if self.curves.len() != current.num_cores() {
            self.curves = vec![EnergyCurve::default(); current.num_cores()];
            self.clear_delta_state(current.num_cores());
        }
        // Only a return that is a global-step result remembers its setting.
        let last_setting = self.last_setting.take();
        let i = core.index();

        // Step 1-3: models + local optimization produce this core's curve
        // (answered from the shared cache when the observation recurs).
        // Cache misses run the staged builder, whose exact evaluation count
        // feeds the measured overhead accounting.
        self.counters.invocations += 1;
        // The delta path compares the observation with the core's previous
        // one bit for bit: an unchanged observation means a bit-identical
        // curve, so the retained curve stays in place with no model
        // evaluation and the core stays clean for the global step below.
        let reuse = self.config.incremental
            && self.curves[i].max_ways() > 0
            && self.observations[i]
                .as_ref()
                .is_some_and(|previous| memo::same_observation(previous, observation));
        if reuse {
            self.counters.delta_invocations += 1;
        } else {
            if self.config.incremental {
                self.counters.curves_patched += 1;
                self.pending_dirty[i] = true;
                self.observations[i] = Some(observation.clone());
            }
            let qos = self.qos_of(core);
            let optimizer = &self.optimizer;
            let counters = &mut self.counters;
            let mut build_counted = || {
                let build = optimizer.energy_curve_counted(observation, qos);
                counters.curve_builds += 1;
                counters.local_evaluations += build.evaluations as u64;
                build.curve
            };
            let curve = match &self.curve_cache {
                Some(cache) => cache.get_or_compute(
                    memo::curve_key(self.config_key, qos, observation),
                    build_counted,
                ),
                None => build_counted(),
            };
            if !curve.any_feasible() {
                // Defensive: even the baseline allocation appears infeasible
                // (can only happen through extreme modeling error); keep the
                // current setting for this interval and record that its QoS
                // cannot be certified.
                self.counters.qos_at_risk_intervals += 1;
                self.curves[i] = EnergyCurve::default();
                return current.clone();
            }
            self.curves[i] = curve;
        }

        if !self.config.control_partitioning {
            // No coordination over the cache: apply this core's best setting
            // at its current allocation and leave the others untouched.
            let ways = current.core(core).ways;
            let mut next = current.clone();
            if let Some(point) = self.curves[i].point(ways) {
                *next.core_mut(core) = CoreSetting {
                    core_size: point.core_size,
                    freq: point.freq,
                    ways,
                };
            } else {
                // The current allocation is infeasible and the manager has
                // no partitioning authority to fix it: the old setting is
                // kept, but the interval is tallied instead of dropping the
                // signal.
                self.counters.qos_at_risk_intervals += 1;
            }
            return next;
        }

        // The paper's first-invocation rule: until every core has reported
        // one interval of statistics, keep the baseline setting.
        if self.curves.iter().any(|curve| curve.max_ways() == 0) {
            return current.clone();
        }

        // Delta path: nothing changed since the last global step, whose
        // result is still applied, so the step would return it again (see
        // the method docs).
        if last_setting.as_ref() == Some(current) && !self.pending_dirty.contains(&true) {
            self.counters.warm_rows_reused += self.arena.retained_rows();
            self.last_setting = last_setting;
            return current.clone();
        }

        // Step 4: global allocation over all cores' latest curves — the
        // cooperative arbiter or, for the game-theoretic variants, a Nash
        // solver whose slack-allowed outcome is topped up to an exact-sum
        // allocation. Both paths feed the same hysteresis and validation
        // below.
        let curves = &self.curves;
        let total_ways = self.platform.llc.associativity;
        let allocation = match self.config.partition_algo {
            PartitionAlgo::NashBestResponse => {
                let (outcome, stats) =
                    game::best_response(curves, total_ways, &GameConfig::default());
                self.counters.game_rounds += stats.rounds;
                self.counters.best_response_evaluations += stats.evaluations;
                outcome.map(|o| o.exact_sum_allocation(total_ways))
            }
            algo => {
                // One arena serves the cooperative step and equilibrium
                // selection. Off the delta path it keeps nothing between
                // steps, so each step builds every row cold. On it,
                // unchanged cores' rows are reused verbatim and only dirty
                // root paths are recombined. The allocation is
                // bit-identical either way.
                if !self.config.incremental {
                    self.arena.clear();
                }
                let dirty = &self.pending_dirty;
                let (allocation, reduction, warm) = if algo == PartitionAlgo::Cooperative {
                    self.arena
                        .optimize(curves, dirty, total_ways, Budget::Exact)
                } else {
                    let (outcome, stats, reduction, warm) =
                        game::min_energy_equilibrium(&mut self.arena, curves, dirty, total_ways);
                    self.counters.game_rounds += stats.rounds;
                    self.counters.best_response_evaluations += stats.evaluations;
                    self.counters.equilibria_examined += stats.equilibria_examined;
                    let allocation = outcome.map(|o| o.exact_sum_allocation(total_ways));
                    (allocation, reduction, warm)
                };
                self.counters.reduction_ops += reduction.ops;
                self.counters.reduction_pruned += reduction.pruned;
                self.counters.chunked_conv_lanes += reduction.lanes;
                self.counters.warm_rows_reused += warm.rows_reused;
                allocation
            }
        };
        self.pending_dirty.fill(false);
        let Some(allocation) = allocation else {
            return current.clone();
        };

        let threshold = self.config.switch_threshold;
        let next = SystemSetting::new(hysteresis(curves, &allocation, current, threshold));
        if next.validate(&self.platform).is_err() {
            return current.clone();
        }
        // The skip may return `next` only if this step, re-run on `next`,
        // would return it again (see the method docs).
        if self.config.incremental
            && hysteresis(curves, &allocation, &next, threshold) == next.cores()
        {
            self.last_setting = Some(next.clone());
        }
        next
    }

    fn invocation_overhead_instructions(&self, num_cores: usize) -> u64 {
        self.overhead.invocation_instructions(
            num_cores,
            self.platform.llc.associativity,
            self.optimizer.evaluations_per_invocation(),
        )
    }

    fn qos_at_risk_intervals(&self) -> u64 {
        self.counters.qos_at_risk_intervals
    }
}

/// Repartitioning hysteresis: moves to `allocation` only when its predicted
/// gain over re-tuning VF/core-size on the *current* partition exceeds
/// `switch_threshold` (repartitioning costs cache refills). Returns the
/// per-core settings to apply.
fn hysteresis(
    curves: &[EnergyCurve],
    allocation: &[(usize, CurvePoint)],
    current: &SystemSetting,
    switch_threshold: f64,
) -> Vec<CoreSetting> {
    let new_energy: f64 = allocation.iter().map(|(_, p)| p.energy_joules).sum();
    let current_partition_energy: Option<f64> = (0..curves.len())
        .map(|i| {
            curves[i]
                .point(current.core(CoreId(i)).ways)
                .map(|p| p.energy_joules)
        })
        .sum();
    let keep_partition = match current_partition_energy {
        Some(current_energy) => new_energy > current_energy * (1.0 - switch_threshold),
        None => false,
    };
    if keep_partition {
        (0..curves.len())
            .map(|i| {
                let ways = current.core(CoreId(i)).ways;
                let point = curves[i].point(ways).expect("checked feasible above");
                CoreSetting {
                    core_size: point.core_size,
                    freq: point.freq,
                    ways,
                }
            })
            .collect()
    } else {
        allocation
            .iter()
            .map(|&(ways, point)| CoreSetting {
                core_size: point.core_size,
                freq: point.freq,
                ways,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qosrm_types::{
        AppId, CoreScalingProfile, CoreSizeIdx, FreqLevel, IntervalStats, MissProfile, MlpProfile,
    };

    fn platform() -> PlatformConfig {
        PlatformConfig::paper2(4)
    }

    /// A cache-sensitive observation (steep miss curve, dependent misses).
    fn cache_sensitive_observation(app: usize) -> CoreObservation {
        let p = platform();
        let baseline_ways = p.baseline_ways_per_core();
        let misses: Vec<u64> = (0..16)
            .map(|w| (1_500_000.0 * (0.85f64).powi(w)) as u64)
            .collect();
        let leading = vec![
            misses
                .iter()
                .map(|&m| (m as f64 * 0.97) as u64)
                .collect::<Vec<_>>(),
            misses
                .iter()
                .map(|&m| (m as f64 * 0.92) as u64)
                .collect::<Vec<_>>(),
            misses
                .iter()
                .map(|&m| (m as f64 * 0.88) as u64)
                .collect::<Vec<_>>(),
        ];
        observation_from(app, misses, leading, baseline_ways, vec![1.45, 1.2, 1.1])
    }

    /// A streaming observation (flat miss curve, bursty misses).
    fn streaming_observation(app: usize) -> CoreObservation {
        let p = platform();
        let baseline_ways = p.baseline_ways_per_core();
        let misses: Vec<u64> = (0..16).map(|_| 900_000u64).collect();
        let leading = vec![
            misses
                .iter()
                .map(|&m| (m as f64 * 0.70) as u64)
                .collect::<Vec<_>>(),
            misses
                .iter()
                .map(|&m| (m as f64 * 0.40) as u64)
                .collect::<Vec<_>>(),
            misses
                .iter()
                .map(|&m| (m as f64 * 0.20) as u64)
                .collect::<Vec<_>>(),
        ];
        observation_from(app, misses, leading, baseline_ways, vec![1.2, 0.9, 0.7])
    }

    /// A compute-bound observation (almost no misses).
    fn compute_observation(app: usize) -> CoreObservation {
        let p = platform();
        let baseline_ways = p.baseline_ways_per_core();
        let misses: Vec<u64> = (0..16).map(|_| 5_000u64).collect();
        let leading = vec![misses.clone(), misses.clone(), misses.clone()];
        observation_from(app, misses, leading, baseline_ways, vec![0.9, 0.6, 0.45])
    }

    fn observation_from(
        app: usize,
        misses: Vec<u64>,
        leading: Vec<Vec<u64>>,
        baseline_ways: usize,
        exec_cpi: Vec<f64>,
    ) -> CoreObservation {
        let p = platform();
        let freq = p.baseline_freq();
        let freq_hz = p.vf.point(freq).freq_hz();
        let instructions = 100_000_000u64;
        let exec_cycles = (instructions as f64 * exec_cpi[1]) as u64;
        let current_misses = misses[baseline_ways - 1];
        let current_leading = leading[1][baseline_ways - 1];
        let stall_seconds = current_leading as f64 * 70e-9;
        let elapsed = exec_cycles as f64 / freq_hz + stall_seconds;
        CoreObservation {
            app: AppId(app),
            stats: IntervalStats {
                instructions,
                cycles: (elapsed * freq_hz) as u64,
                exec_cycles,
                llc_accesses: 2_000_000,
                llc_misses: current_misses,
                leading_misses: current_leading,
                elapsed_seconds: elapsed,
                freq,
                core_size: p.baseline_core_size,
                ways: baseline_ways,
            },
            miss_profile: MissProfile::new(misses),
            mlp_profile: Some(MlpProfile::new(leading)),
            scaling_profile: Some(CoreScalingProfile::new(exec_cpi)),
            perfect: None,
        }
    }

    /// Feeds one observation per core and returns the setting decided at the
    /// last invocation.
    fn run_all_cores(
        manager: &mut CoordinatedRma,
        observations: Vec<CoreObservation>,
    ) -> SystemSetting {
        let p = platform();
        let mut setting = SystemSetting::baseline(&p);
        manager.reset(p.num_cores);
        for (i, obs) in observations.iter().enumerate() {
            setting = manager.on_interval(CoreId(i), obs, &setting);
        }
        setting
    }

    #[test]
    fn keeps_baseline_until_all_cores_reported() {
        let p = platform();
        let mut rma = CoordinatedRma::paper1(&p, vec![QosSpec::STRICT; 4]);
        rma.reset(4);
        let baseline = SystemSetting::baseline(&p);
        let s1 = rma.on_interval(CoreId(0), &cache_sensitive_observation(0), &baseline);
        assert_eq!(s1, baseline, "first invocation must keep the baseline");
        let s2 = rma.on_interval(CoreId(1), &compute_observation(1), &s1);
        assert_eq!(s2, baseline);
    }

    #[test]
    fn combined_rma_moves_cache_to_sensitive_apps() {
        let p = platform();
        let mut rma = CoordinatedRma::paper1(&p, vec![QosSpec::STRICT; 4]);
        let setting = run_all_cores(
            &mut rma,
            vec![
                cache_sensitive_observation(0),
                compute_observation(1),
                streaming_observation(2),
                compute_observation(3),
            ],
        );
        assert!(setting.validate(&p).is_ok());
        let ways0 = setting.core(CoreId(0)).ways;
        assert!(
            ways0 > p.baseline_ways_per_core(),
            "cache-sensitive app should gain ways, got {ways0}"
        );
        // The cache-sensitive app can then afford a lower frequency.
        assert!(setting.core(CoreId(0)).freq <= p.baseline_freq());
        // Total ways preserved.
        assert_eq!(
            setting.cores().iter().map(|c| c.ways).sum::<usize>(),
            p.llc.associativity
        );
    }

    #[test]
    fn compute_apps_keep_qos_by_staying_fast_enough() {
        let p = platform();
        let mut rma = CoordinatedRma::paper1(&p, vec![QosSpec::STRICT; 4]);
        let setting = run_all_cores(
            &mut rma,
            vec![
                cache_sensitive_observation(0),
                compute_observation(1),
                compute_observation(2),
                compute_observation(3),
            ],
        );
        // A compute-bound app is insensitive to the cache, so it may lose
        // ways, but its frequency must not drop below the baseline (its
        // execution time is frequency-bound and the QoS target is strict).
        for i in 1..4 {
            assert!(setting.core(CoreId(i)).freq >= p.baseline_freq());
        }
    }

    #[test]
    fn rm3_uses_smaller_or_equal_cores_for_compute_apps() {
        let p = platform();
        let mut rma = CoordinatedRma::paper2(&p, vec![QosSpec::STRICT; 4]);
        let setting = run_all_cores(
            &mut rma,
            vec![
                streaming_observation(0),
                streaming_observation(1),
                cache_sensitive_observation(2),
                compute_observation(3),
            ],
        );
        assert!(setting.validate(&p).is_ok());
        // RM3 must produce a setting at least as good as keeping the
        // baseline; in particular it exploits core sizing somewhere.
        let sizes: Vec<CoreSizeIdx> = setting.cores().iter().map(|c| c.core_size).collect();
        assert!(
            sizes.iter().any(|&s| s != p.baseline_core_size),
            "RM3 should exercise the core-size knob, got {sizes:?}"
        );
    }

    #[test]
    fn dvfs_only_cannot_slow_down_under_strict_qos() {
        let p = platform();
        let mut rma = CoordinatedRma::dvfs_only(&p, vec![QosSpec::STRICT; 4]);
        let setting = run_all_cores(
            &mut rma,
            vec![
                cache_sensitive_observation(0),
                streaming_observation(1),
                compute_observation(2),
                compute_observation(3),
            ],
        );
        // Without cache coordination there is no slack to exploit: every core
        // keeps (at least) the baseline frequency and the baseline partition.
        for i in 0..4 {
            assert!(setting.core(CoreId(i)).freq >= p.baseline_freq());
            assert_eq!(setting.core(CoreId(i)).ways, p.baseline_ways_per_core());
        }
    }

    #[test]
    fn relaxed_qos_lets_everything_slow_down() {
        let p = platform();
        let mut rma = CoordinatedRma::paper1(&p, vec![QosSpec::relaxed_by(0.4); 4]);
        let setting = run_all_cores(
            &mut rma,
            vec![
                cache_sensitive_observation(0),
                streaming_observation(1),
                compute_observation(2),
                compute_observation(3),
            ],
        );
        let below_baseline = setting
            .cores()
            .iter()
            .filter(|c| c.freq < p.baseline_freq())
            .count();
        assert!(
            below_baseline >= 2,
            "with 40% slack most cores should clock down, got {below_baseline}"
        );
    }

    #[test]
    fn names_reflect_scheme_and_model() {
        let p = platform();
        assert_eq!(
            CoordinatedRma::paper1(&p, vec![]).name(),
            "CombinedRMA-Model2"
        );
        assert_eq!(
            CoordinatedRma::paper2(&p, vec![]).name(),
            "CoordCoreRMA-Model3"
        );
        assert_eq!(
            CoordinatedRma::partitioning_only(&p, vec![]).name(),
            "PartitioningRMA-Model2"
        );
        assert_eq!(
            CoordinatedRma::dvfs_only(&p, vec![]).name(),
            "DvfsRMA-Model2"
        );
        assert_eq!(
            CoordinatedRma::with_model(&p, vec![], ModelKind::Perfect, true)
                .with_name("RM3-Oracle")
                .name(),
            "RM3-Oracle"
        );
        assert_eq!(
            CoordinatedRma::nash_best_response(&p, vec![]).name(),
            "NashBR-Model2"
        );
        assert_eq!(
            CoordinatedRma::nash_equilibrium(&p, vec![]).name(),
            "NashEq-Model2"
        );
    }

    #[test]
    fn nash_managers_produce_valid_settings_and_tick_game_counters() {
        let p = platform();
        let observations = || {
            vec![
                cache_sensitive_observation(0),
                compute_observation(1),
                streaming_observation(2),
                compute_observation(3),
            ]
        };

        let mut br = CoordinatedRma::nash_best_response(&p, vec![QosSpec::STRICT; 4]);
        let setting = run_all_cores(&mut br, observations());
        assert!(setting.validate(&p).is_ok());
        assert_eq!(
            setting.cores().iter().map(|c| c.ways).sum::<usize>(),
            p.llc.associativity,
            "slack must be redistributed into an exact-sum partition"
        );
        let counters = br.work_counters();
        assert!(counters.game_rounds > 0, "best response never iterated");
        assert!(counters.best_response_evaluations > 0);
        assert_eq!(counters.equilibria_examined, 0);
        assert_eq!(
            counters.reduction_ops, 0,
            "the cooperative arbiter must not run under a game algorithm"
        );

        let mut eq = CoordinatedRma::nash_equilibrium(&p, vec![QosSpec::STRICT; 4]);
        let setting = run_all_cores(&mut eq, observations());
        assert!(setting.validate(&p).is_ok());
        let counters = eq.work_counters();
        assert!(counters.equilibria_examined > 0, "no candidates certified");
        // Every certificate settles in one round that moves nothing.
        assert_eq!(counters.game_rounds, counters.equilibria_examined);
        assert!(
            counters.reduction_ops > 0,
            "equilibrium selection reads the cooperative arena"
        );

        // The cooperative manager never touches the game counters.
        let mut rm2 = CoordinatedRma::paper1(&p, vec![QosSpec::STRICT; 4]);
        run_all_cores(&mut rm2, observations());
        let counters = rm2.work_counters();
        assert_eq!(counters.game_rounds, 0);
        assert_eq!(counters.best_response_evaluations, 0);
        assert_eq!(counters.equilibria_examined, 0);
    }

    #[test]
    fn work_counter_display_covers_every_field() {
        let counters = RmaWorkCounters {
            invocations: 1,
            curve_builds: 2,
            local_evaluations: 3,
            reduction_ops: 4,
            reduction_pruned: 5,
            qos_at_risk_intervals: 6,
            game_rounds: 7,
            best_response_evaluations: 8,
            equilibria_examined: 9,
            delta_invocations: 10,
            curves_patched: 11,
            warm_rows_reused: 12,
            chunked_conv_lanes: 13,
        };
        let line = counters.to_string();
        for field in [
            "invocations=1",
            "curve_builds=2",
            "local_evaluations=3",
            "reduction_ops=4",
            "reduction_pruned=5",
            "qos_at_risk_intervals=6",
            "game_rounds=7",
            "best_response_evaluations=8",
            "equilibria_examined=9",
            "delta_invocations=10",
            "curves_patched=11",
            "warm_rows_reused=12",
            "chunked_conv_lanes=13",
        ] {
            assert!(line.contains(field), "{field} missing from {line:?}");
        }
    }

    #[test]
    fn incremental_manager_is_bit_identical_and_cheaper() {
        let p = platform();
        // RM2 and NashEq both take their global step on the manager's arena.
        let constructors: [fn(&PlatformConfig, Vec<QosSpec>) -> CoordinatedRma; 2] =
            [CoordinatedRma::paper1, CoordinatedRma::nash_equilibrium];
        for new_manager in constructors {
            let mut cold = new_manager(&p, vec![QosSpec::STRICT; 4]);
            let mut delta = new_manager(&p, vec![QosSpec::STRICT; 4]).with_incremental();
            cold.reset(4);
            delta.reset(4);
            let name = cold.name().to_string();

            // Three rounds over all cores: a cold round, a fully-recurring
            // round (every observation matches), and a round where only core
            // 2's observation changed.
            let rounds = [
                vec![
                    cache_sensitive_observation(0),
                    compute_observation(1),
                    streaming_observation(2),
                    compute_observation(3),
                ],
                vec![
                    cache_sensitive_observation(0),
                    compute_observation(1),
                    streaming_observation(2),
                    compute_observation(3),
                ],
                vec![
                    cache_sensitive_observation(0),
                    compute_observation(1),
                    cache_sensitive_observation(2),
                    compute_observation(3),
                ],
            ];
            let mut cold_setting = SystemSetting::baseline(&p);
            let mut delta_setting = SystemSetting::baseline(&p);
            let mut after_round = Vec::new();
            for (round, observations) in rounds.iter().enumerate() {
                for (i, obs) in observations.iter().enumerate() {
                    cold_setting = cold.on_interval(CoreId(i), obs, &cold_setting);
                    delta_setting = delta.on_interval(CoreId(i), obs, &delta_setting);
                    assert_eq!(
                        delta_setting, cold_setting,
                        "{name}: delta path diverged at round {round}, core {i}"
                    );
                }
                after_round.push(delta.work_counters());
            }
            // The recurring round scans nothing: each invocation either
            // skips its global step or runs it with nothing dirty, and
            // either way counts the whole retained arena (2 * 4 - 1 rows).
            assert_eq!(after_round[1].reduction_ops, after_round[0].reduction_ops);
            assert_eq!(
                after_round[1].warm_rows_reused - after_round[0].warm_rows_reused,
                4 * 7,
                "{name}"
            );

            let cold_counters = cold.work_counters();
            let delta_counters = delta.work_counters();
            assert_eq!(cold_counters.invocations, delta_counters.invocations);
            // Round 2 recurs entirely and round 3 recurs on three cores:
            // seven invocations reuse their curve, five rebuild.
            assert_eq!(delta_counters.delta_invocations, 7);
            assert_eq!(delta_counters.curves_patched, 5);
            assert_eq!(delta_counters.curve_builds, 5);
            assert_eq!(cold_counters.curve_builds, 12, "cold path always builds");
            assert!(
                delta_counters.reduction_ops < cold_counters.reduction_ops,
                "{name}: reused warm rows must cut convolution work ({} vs {})",
                delta_counters.reduction_ops,
                cold_counters.reduction_ops
            );
            assert!(delta_counters.warm_rows_reused > 0, "{name}");
            assert_eq!(cold_counters.warm_rows_reused, 0);
            assert_eq!(cold_counters.delta_invocations, 0);
            assert!(delta_counters.chunked_conv_lanes > 0);
            assert!(cold_counters.chunked_conv_lanes > 0);

            // reset() drops the delta state: the next invocation is cold
            // again.
            delta.reset(4);
            let baseline = SystemSetting::baseline(&p);
            delta.on_interval(CoreId(0), &rounds[0][0], &baseline);
            let counters = delta.work_counters();
            assert_eq!(counters.delta_invocations, 0);
            assert_eq!(counters.curves_patched, 1);
        }
    }

    #[test]
    fn delta_path_reuses_a_curve_only_for_a_recurring_observation() {
        let p = platform();
        let mut rma = CoordinatedRma::paper1(&p, vec![QosSpec::STRICT; 4]).with_incremental();
        rma.reset(4);
        let baseline = SystemSetting::baseline(&p);
        // (curves rebuilt, curves reused) so far.
        let work = |rma: &CoordinatedRma| {
            let counters = rma.work_counters();
            (counters.curves_patched, counters.delta_invocations)
        };
        // First interval: nothing retained, every core rebuilds.
        rma.on_interval(CoreId(0), &cache_sensitive_observation(0), &baseline);
        rma.on_interval(CoreId(1), &compute_observation(1), &baseline);
        assert_eq!(work(&rma), (2, 0));
        // Second interval: core 0 recurs, core 1 changed.
        rma.on_interval(CoreId(0), &cache_sensitive_observation(0), &baseline);
        rma.on_interval(CoreId(1), &streaming_observation(1), &baseline);
        assert_eq!(work(&rma), (3, 1));
        // A core seen for the first time rebuilds.
        rma.on_interval(CoreId(3), &compute_observation(3), &baseline);
        assert_eq!(work(&rma), (4, 1));
        // reset() forgets every observation: the next interval is cold.
        rma.reset(4);
        rma.on_interval(CoreId(0), &cache_sensitive_observation(0), &baseline);
        assert_eq!(work(&rma), (1, 0));
    }

    #[test]
    fn only_a_hysteresis_fixed_point_can_be_skipped_to() {
        let point = |energy_joules, freq, ways| CurvePoint {
            energy_joules,
            freq: FreqLevel(freq),
            core_size: CoreSizeIdx(1),
            time_seconds: 0.1,
            ways,
        };
        // Core 0 is cheaper at 2 ways than at 1; core 1 is infeasible at 1.
        let curves = vec![
            EnergyCurve::new(vec![Some(point(2.0, 5, 1)), Some(point(1.5, 4, 2))]),
            EnergyCurve::new(vec![None, Some(point(1.0, 3, 2))]),
        ];
        let setting = |cores: &[(usize, usize)]| {
            SystemSetting::new(
                cores
                    .iter()
                    .map(|&(freq, ways)| CoreSetting {
                        core_size: CoreSizeIdx(1),
                        freq: FreqLevel(freq),
                        ways,
                    })
                    .collect(),
            )
        };
        // From an infeasible partition the manager always moves.
        let start = setting(&[(6, 3), (6, 1)]);
        let is_fixed_point = |allocation: &[(usize, CurvePoint)]| {
            let moved = SystemSetting::new(hysteresis(&curves, allocation, &start, 0.005));
            hysteresis(&curves, allocation, &moved, 0.005) == moved.cores()
        };
        // A cooperative allocation pairs each way count with its own point.
        let cooperative = [(2, point(1.5, 4, 2)), (2, point(1.0, 3, 2))];
        assert!(is_fixed_point(&cooperative));
        // A game outcome topped up from strategies (1, 2) keeps core 0's
        // 1-way point at 2 ways; re-running the hysteresis re-tunes it.
        let game = [(2, point(2.0, 5, 1)), (2, point(1.0, 3, 2))];
        assert!(!is_fixed_point(&game));
    }

    #[test]
    fn non_partitioned_infeasible_allocation_is_tallied() {
        let p = platform();
        let mut rma = CoordinatedRma::dvfs_only(&p, vec![QosSpec::STRICT; 4]);
        rma.reset(4);
        let mut current = SystemSetting::baseline(&p);
        // Starve core 0 to one way (the ways it loses go to core 1, so the
        // partition stays valid): a cache-sensitive application cannot meet
        // a strict target there at any frequency.
        let taken = current.core(CoreId(0)).ways - 1;
        current.core_mut(CoreId(0)).ways = 1;
        current.core_mut(CoreId(1)).ways += taken;
        let next = rma.on_interval(CoreId(0), &cache_sensitive_observation(0), &current);
        assert_eq!(
            next, current,
            "without partitioning authority the old setting is kept"
        );
        assert_eq!(
            rma.qos_at_risk_intervals(),
            1,
            "the kept-at-risk interval is tallied"
        );
        // A feasible invocation adds nothing to the tally.
        rma.on_interval(CoreId(1), &compute_observation(1), &next);
        assert_eq!(rma.qos_at_risk_intervals(), 1);
        // reset() starts a fresh tally.
        rma.reset(4);
        assert_eq!(rma.qos_at_risk_intervals(), 0);
    }

    #[test]
    fn work_counters_track_measured_work() {
        use std::sync::Arc;
        let p = platform();
        let mut rma = CoordinatedRma::paper2(&p, vec![QosSpec::STRICT; 4]);
        run_all_cores(
            &mut rma,
            vec![
                cache_sensitive_observation(0),
                compute_observation(1),
                streaming_observation(2),
                compute_observation(3),
            ],
        );
        let counters = rma.work_counters();
        assert_eq!(counters.invocations, 4);
        assert_eq!(
            counters.curve_builds, 4,
            "no cache: every invocation builds"
        );
        // Measured evaluations are positive and bounded by the worst case.
        assert!(counters.local_evaluations > 0);
        assert!(
            counters.local_evaluations <= 4 * rma.evaluations_per_invocation() as u64,
            "measured work cannot exceed the dense bound"
        );
        // The global step ran at least once (all cores reported by the 4th
        // invocation) and its pruning was active.
        assert!(counters.reduction_ops > 0);

        // With a shared curve cache, a recurring observation skips the build
        // but still counts as an invocation.
        let cache = Arc::new(crate::memo::CurveCache::new());
        let mut cached =
            CoordinatedRma::paper1(&p, vec![QosSpec::STRICT; 4]).with_curve_cache(cache);
        cached.reset(4);
        let baseline = SystemSetting::baseline(&p);
        let obs = cache_sensitive_observation(0);
        cached.on_interval(CoreId(0), &obs, &baseline);
        cached.on_interval(CoreId(0), &obs, &baseline);
        let counters = cached.work_counters();
        assert_eq!(counters.invocations, 2);
        assert_eq!(counters.curve_builds, 1, "second lookup is a cache hit");
    }

    #[test]
    fn overhead_estimate_matches_paper_scale() {
        let p = platform();
        let rm2 = CoordinatedRma::paper1(&p, vec![QosSpec::STRICT; 4]);
        let rm3 = CoordinatedRma::paper2(&p, vec![QosSpec::STRICT; 4]);
        let rm2_cost = rm2.invocation_overhead_instructions(4);
        let rm3_cost = rm3.invocation_overhead_instructions(4);
        assert!(
            rm2_cost < 40_000,
            "Paper I reports < 40K instructions, got {rm2_cost}"
        );
        assert!(rm3_cost < 100_000);
        assert!(rm3_cost > rm2_cost);
        assert!(rm3.invocation_overhead_instructions(8) > rm3_cost);
        assert!(rm3.invocation_overhead_instructions(2) < rm2_cost * 2);
    }
}
