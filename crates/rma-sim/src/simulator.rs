//! The co-phase event-driven simulator.
//!
//! # Hot-loop design
//!
//! The event loop is the inner loop of every experiment, so it avoids
//! re-deriving state that cannot have changed between events:
//!
//! * **Dirty-core tracking** — a core's interval time, full-interval energy
//!   breakdown and observable statistics are pure functions of its current
//!   `(phase, setting)`. They are cached per core and recomputed only
//!   when the core finishes an interval (its phase advances) or a
//!   reconfiguration actually touches it, instead of once per core per
//!   global event.
//! * **Preallocated buffers** — the per-interval record log is allocated
//!   once at its exact final size, the reconfiguration delta buffer is
//!   reused across setting changes, and each core owns a reusable
//!   [`CoreObservation`] whose ATD/MLP/ILP profiles are materialized from a
//!   per-phase cache only when the finished phase changes (perfect-model
//!   configuration tables are likewise built once per phase and cloned).
//!
//! All cached values are produced by the same pure model calls the naive
//! loop would make, so results are bit-identical to a cache-free run (the
//! determinism and sweep-equivalence integration tests lock this in).

use crate::baseline::BaselineManager;
use crate::result::{AppResult, IntervalRecord, SimulationResult};
use core_model::{TransitionCosts, TransitionModel};
use power_model::EnergyBreakdown;
use qosrm_types::{
    AppId, ConfigTable, CoreId, CoreObservation, CoreScalingProfile, CoreSetting, CoreSizeIdx,
    FreqLevel, IntervalStats, MissProfile, MlpProfile, PhaseId, PlatformConfig, QosrmError,
    ResourceManager, SettingDelta, SystemSetting,
};
use serde::{Deserialize, Serialize};
use simdb::{BenchmarkRecord, GroundTruth, SimDb};
use workload::WorkloadMix;

/// Options of a simulation run.
///
/// Serializable so a scenario spec file (`experiments::spec`) can pin the
/// exact simulation configuration of a sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimulationOptions {
    /// Give the manager the ground-truth configuration table of the upcoming
    /// interval (perfect-model experiments).
    pub provide_perfect_tables: bool,
    /// Give the manager the MLP-ATD and ILP-monitor observations (the
    /// Paper II hardware support). Without it only the plain ATD miss profile
    /// is available, as in Paper I.
    pub provide_mlp_profiles: bool,
    /// Safety cap on the number of global events. Hitting the cap fails the
    /// run with [`QosrmError::EventLimitExceeded`] naming the manager — a
    /// manager that keeps the system livelocked must not silently produce a
    /// truncated result.
    pub max_events: usize,
    /// Transition-cost constants.
    pub transition_costs: TransitionCosts,
}

impl Default for SimulationOptions {
    fn default() -> Self {
        SimulationOptions {
            provide_perfect_tables: false,
            provide_mlp_profiles: true,
            max_events: 2_000_000,
            transition_costs: TransitionCosts::default(),
        }
    }
}

/// Per-core run-time state.
struct CoreState {
    record: BenchmarkRecord,
    /// Index of the interval currently executing (counts from 0 over the
    /// whole run; the phase trace wraps around after the first round).
    interval_idx: usize,
    /// Instructions completed in the current interval.
    progress: f64,
    /// Stall time (seconds) still to be served before the interval resumes
    /// (reconfiguration and RMA software overheads).
    pending_overhead: f64,
    /// Global time at which the current interval started.
    interval_start: f64,
    /// Whether the application has completed its first full round.
    done: bool,
    /// Execution time of the first round.
    round_time: f64,
    /// Energy of the first round.
    round_energy: EnergyBreakdown,
    /// Intervals completed in the first round.
    round_intervals: usize,
    /// Whether the cached `(phase, setting)` state below is stale: set when
    /// the core's phase advances or a reconfiguration touches the core.
    dirty: bool,
    /// The `(phase, setting)` the cached state below was computed for; a
    /// dirty core whose key is unchanged (same phase again, untouched
    /// setting) skips the model calls entirely.
    cached_key: Option<(PhaseId, CoreSetting)>,
    /// Cached interval execution time at the current `(phase, setting)`.
    interval_time: f64,
    /// Cached full-interval energy breakdown at the current
    /// `(phase, setting)`.
    interval_energy: EnergyBreakdown,
}

impl CoreState {
    /// Recomputes the cached `(phase, setting)` derived state. A dirty mark
    /// is conservative — when the key turns out unchanged (the phase trace
    /// repeated a phase, or a reconfiguration left this core alone), the
    /// cached values are already exact and the model calls are skipped.
    fn refresh(&mut self, ground_truth: &GroundTruth, setting: CoreSetting) {
        let phase_id = self.record.trace.phase_at(self.interval_idx);
        self.dirty = false;
        if self.cached_key == Some((phase_id, setting)) {
            return;
        }
        let (time, energy) = {
            let phase = self.record.phase(phase_id);
            let outcome = ground_truth.timing(phase, setting.core_size, setting.freq, setting.ways);
            let energy = ground_truth.energy(
                phase,
                setting.core_size,
                setting.freq,
                setting.ways,
                &outcome,
            );
            (outcome.time_seconds, energy)
        };
        self.interval_time = time;
        self.interval_energy = energy;
        self.cached_key = Some((phase_id, setting));
    }
}

/// Profiles a core exposes for one phase; they do not depend on the setting,
/// so they are built once per phase and reused for every interval of it.
struct CachedProfiles {
    miss: MissProfile,
    mlp: Option<MlpProfile>,
    scaling: Option<CoreScalingProfile>,
}

/// Reusable per-core observation buffer: the [`CoreObservation`] handed to
/// the manager is updated in place instead of being rebuilt per event.
struct ObsBuffer {
    obs: CoreObservation,
    /// The `(phase, setting)` the buffered `stats` were computed for.
    stats_key: Option<(PhaseId, CoreSetting)>,
    /// Phase whose profiles are currently materialized in `obs`.
    materialized: Option<PhaseId>,
    /// Lazily built per-phase profile cache.
    profiles: Vec<Option<CachedProfiles>>,
    /// Lazily built per-phase perfect-model tables (empty unless the run
    /// provides perfect tables).
    perfect: Vec<Option<ConfigTable>>,
}

impl ObsBuffer {
    fn new(app: usize, num_phases: usize) -> Self {
        ObsBuffer {
            obs: CoreObservation {
                app: AppId(app),
                // Placeholder overwritten before the first manager call.
                stats: IntervalStats {
                    instructions: 0,
                    cycles: 0,
                    exec_cycles: 0,
                    llc_accesses: 0,
                    llc_misses: 0,
                    leading_misses: 0,
                    elapsed_seconds: 0.0,
                    freq: FreqLevel(0),
                    core_size: CoreSizeIdx(0),
                    ways: 1,
                },
                miss_profile: MissProfile::new(vec![0]),
                mlp_profile: None,
                scaling_profile: None,
                perfect: None,
            },
            stats_key: None,
            materialized: None,
            profiles: (0..num_phases).map(|_| None).collect(),
            perfect: (0..num_phases).map(|_| None).collect(),
        }
    }

    /// Updates the buffered observation for the just-finished interval and
    /// returns it.
    #[allow(clippy::too_many_arguments)]
    fn prepare(
        &mut self,
        ground_truth: &GroundTruth,
        record: &BenchmarkRecord,
        finished_phase: PhaseId,
        finished_setting: CoreSetting,
        next_phase: PhaseId,
        options: &SimulationOptions,
    ) -> &CoreObservation {
        let phase = record.phase(finished_phase);
        if self.stats_key != Some((finished_phase, finished_setting)) {
            self.obs.stats = ground_truth.interval_stats(phase, finished_setting);
            self.stats_key = Some((finished_phase, finished_setting));
        }
        if self.materialized != Some(finished_phase) {
            let cached =
                self.profiles[finished_phase.index()].get_or_insert_with(|| CachedProfiles {
                    miss: MissProfile::new(phase.atd_misses_per_way.clone()),
                    mlp: options
                        .provide_mlp_profiles
                        .then(|| MlpProfile::new(phase.leading_misses.clone())),
                    scaling: options
                        .provide_mlp_profiles
                        .then(|| CoreScalingProfile::new(phase.exec_cpi.clone())),
                });
            self.obs.miss_profile = cached.miss.clone();
            self.obs.mlp_profile = cached.mlp.clone();
            self.obs.scaling_profile = cached.scaling.clone();
            self.materialized = Some(finished_phase);
        }
        self.obs.perfect = if options.provide_perfect_tables {
            // Perfect foresight of the upcoming interval's phase; the table
            // covers the whole configuration space, so build it once per
            // phase and clone it per event.
            let table = self.perfect[next_phase.index()]
                .get_or_insert_with(|| ground_truth.config_table(record.phase(next_phase)));
            Some(table.clone())
        } else {
            None
        };
        &self.obs
    }
}

/// The co-phase simulator for one workload on one platform.
///
/// # Example
///
/// Simulate a 2-application workload under RM2 and compare against the
/// baseline run (quick characterization keeps the doctest fast):
///
/// ```
/// use qosrm_core::CoordinatedRma;
/// use qosrm_types::{PlatformConfig, QosSpec};
/// use rma_sim::{CophaseSimulator, SimulationOptions};
/// use simdb::builder::{build_database_for_mixes, BuildOptions};
/// use workload::WorkloadMix;
///
/// let platform = PlatformConfig::small_for_tests(2);
/// let mix = WorkloadMix::new("demo", vec!["mcf_like", "gamess_like"]);
/// let db = build_database_for_mixes(
///     &platform,
///     std::slice::from_ref(&mix),
///     &BuildOptions::quick_for_tests(&platform),
/// );
///
/// let simulator = CophaseSimulator::new(&db, &mix, SimulationOptions::default()).unwrap();
/// let baseline = simulator.run_baseline().unwrap();
/// let qos = vec![QosSpec::STRICT; 2];
/// let mut manager = CoordinatedRma::paper1(&platform, qos.clone());
/// let (comparison, managed) = simulator
///     .run_comparison(&mut manager, &baseline, &qos)
///     .unwrap();
///
/// assert_eq!(managed.per_app.len(), 2);
/// assert!(comparison.energy_savings.is_finite());
/// ```
pub struct CophaseSimulator {
    db: SimDb,
    ground_truth: GroundTruth,
    mix: WorkloadMix,
    options: SimulationOptions,
}

impl CophaseSimulator {
    /// Creates a simulator for `mix`, taking the platform from the database.
    pub fn new(
        db: &SimDb,
        mix: &WorkloadMix,
        options: SimulationOptions,
    ) -> Result<Self, QosrmError> {
        let platform = db.platform().clone();
        if mix.num_cores() != platform.num_cores {
            return Err(QosrmError::InvalidWorkload(format!(
                "workload {} has {} applications, platform has {} cores",
                mix.name,
                mix.num_cores(),
                platform.num_cores
            )));
        }
        for b in &mix.benchmarks {
            db.require(b)?;
        }
        Ok(CophaseSimulator {
            db: db.clone(),
            ground_truth: GroundTruth::new(&platform),
            mix: mix.clone(),
            options,
        })
    }

    /// The platform being simulated.
    pub fn platform(&self) -> &PlatformConfig {
        self.db.platform()
    }

    /// Runs the workload under the baseline (no-op) manager.
    pub fn run_baseline(&self) -> Result<SimulationResult, QosrmError> {
        let mut manager = BaselineManager;
        self.run(&mut manager)
    }

    /// Runs the workload under `manager` and compares it against an already
    /// computed `baseline` run of the same workload.
    ///
    /// The baseline run depends only on the database, the workload and the
    /// simulation options — not on the manager or the QoS targets — so sweep
    /// loops that evaluate many managers over one workload compute it once
    /// and reuse it here instead of re-simulating it per comparison (see
    /// `experiments::sweep`).
    pub fn run_comparison(
        &self,
        manager: &mut dyn ResourceManager,
        baseline: &SimulationResult,
        qos: &[qosrm_types::QosSpec],
    ) -> Result<(crate::result::Comparison, SimulationResult), QosrmError> {
        let managed = self.run(manager)?;
        let comparison = crate::result::compare(baseline, &managed, qos);
        Ok((comparison, managed))
    }

    /// Runs the workload under `manager` until every application has
    /// completed one full round.
    ///
    /// Fails with [`QosrmError::EventLimitExceeded`] when the manager keeps
    /// the system from finishing within
    /// [`SimulationOptions::max_events`] global events.
    pub fn run(&self, manager: &mut dyn ResourceManager) -> Result<SimulationResult, QosrmError> {
        let platform = self.db.platform().clone();
        let num_cores = platform.num_cores;
        manager.reset(num_cores);

        let transition_model =
            TransitionModel::new(self.options.transition_costs, platform.llc, platform.memory);

        let mut cores: Vec<CoreState> = self
            .mix
            .benchmarks
            .iter()
            .map(|name| CoreState {
                record: self.db.require(name).expect("validated in new()").clone(),
                interval_idx: 0,
                progress: 0.0,
                pending_overhead: 0.0,
                interval_start: 0.0,
                done: false,
                round_time: 0.0,
                round_energy: EnergyBreakdown::default(),
                round_intervals: 0,
                dirty: true,
                cached_key: None,
                interval_time: 0.0,
                interval_energy: EnergyBreakdown::default(),
            })
            .collect();
        let mut observations: Vec<ObsBuffer> = cores
            .iter()
            .enumerate()
            .map(|(i, c)| ObsBuffer::new(i, c.record.phases.len()))
            .collect();

        let mut setting = SystemSetting::baseline(&platform);
        let mut time = 0.0f64;
        // The record log reaches exactly one entry per first-round interval;
        // allocating it up front keeps emission free of reallocation.
        let expected_intervals: usize = cores.iter().map(|c| c.record.trace_intervals()).sum();
        let mut intervals = Vec::with_capacity(expected_intervals);
        let mut deltas: Vec<SettingDelta> = Vec::with_capacity(num_cores);
        let mut rma_invocations = 0u64;
        let mut rma_overhead_instructions = 0u64;
        let mut setting_changes = 0u64;
        let interval_instructions = platform.interval_instructions as f64;

        let mut events = 0usize;
        while !cores.iter().all(|c| c.done) {
            if events == self.options.max_events {
                return Err(QosrmError::EventLimitExceeded {
                    manager: manager.name().to_string(),
                    max_events: self.options.max_events,
                    unfinished_cores: cores.iter().filter(|c| !c.done).count(),
                });
            }
            events += 1;

            // Refresh the cores whose (phase, setting) changed since the
            // last event, and find the next global event: the earliest
            // interval completion (first core wins ties, as before).
            let mut next_core = 0usize;
            let mut dt = f64::INFINITY;
            for (i, core) in cores.iter_mut().enumerate() {
                if core.dirty {
                    core.refresh(&self.ground_truth, setting.core(CoreId(i)));
                }
                let remaining_fraction =
                    (interval_instructions - core.progress) / interval_instructions;
                let remaining = core.pending_overhead + remaining_fraction * core.interval_time;
                if remaining < dt {
                    dt = remaining;
                    next_core = i;
                }
            }

            // Advance every core by dt, accounting progress and energy.
            time += dt;
            for core in cores.iter_mut() {
                let mut exec_dt = dt;
                if core.pending_overhead > 0.0 {
                    let served = core.pending_overhead.min(exec_dt);
                    core.pending_overhead -= served;
                    exec_dt -= served;
                }
                let executed =
                    (exec_dt / core.interval_time.max(f64::MIN_POSITIVE)) * interval_instructions;
                core.progress += executed;
                if !core.done {
                    core.round_time += dt;
                    // Charge energy proportionally to executed instructions.
                    let fraction = (executed / interval_instructions).min(1.0);
                    let energy = &core.interval_energy;
                    let scaled = EnergyBreakdown {
                        core_dynamic: energy.core_dynamic * fraction,
                        core_static: energy.core_static * fraction,
                        llc_dynamic: energy.llc_dynamic * fraction,
                        llc_static: energy.llc_static * fraction,
                        dram_dynamic: energy.dram_dynamic * fraction,
                        dram_background: energy.dram_background * fraction,
                        ..Default::default()
                    };
                    core.round_energy.accumulate(&scaled);
                }
            }

            // The finishing core completes its interval.
            let finished_phase_id;
            let finished_setting = setting.core(CoreId(next_core));
            {
                let core = &mut cores[next_core];
                finished_phase_id = core.record.trace.phase_at(core.interval_idx);
                if !core.done {
                    intervals.push(IntervalRecord {
                        app: AppId(next_core),
                        interval_index: core.interval_idx,
                        phase: finished_phase_id,
                        time_seconds: time - core.interval_start,
                        setting: finished_setting,
                    });
                    core.round_intervals += 1;
                }
                core.interval_idx += 1;
                core.progress = 0.0;
                core.interval_start = time;
                // The phase advanced, so the cached interval state is stale.
                core.dirty = true;
                if !core.done && core.interval_idx >= core.record.trace_intervals() {
                    core.done = true;
                }
            }

            // Invoke the resource manager on the finishing core.
            let observation = observations[next_core].prepare(
                &self.ground_truth,
                &cores[next_core].record,
                finished_phase_id,
                finished_setting,
                cores[next_core]
                    .record
                    .trace
                    .phase_at(cores[next_core].interval_idx),
                &self.options,
            );
            let new_setting = manager.on_interval(CoreId(next_core), observation, &setting);
            rma_invocations += 1;
            let overhead_instr = manager.invocation_overhead_instructions(num_cores);
            rma_overhead_instructions += overhead_instr;
            // RMA software overhead runs on the invoking core.
            let freq_hz = platform
                .vf
                .point(setting.core(CoreId(next_core)).freq)
                .freq_hz();
            cores[next_core].pending_overhead += overhead_instr as f64 / freq_hz;

            // Apply the new setting if it is valid and different.
            if new_setting != setting && new_setting.validate(&platform).is_ok() {
                setting.diff_into(&new_setting, &mut deltas);
                for (i, delta) in deltas.iter().enumerate() {
                    if !delta.any() {
                        continue;
                    }
                    let overhead = transition_model.overhead(delta);
                    cores[i].pending_overhead += overhead.time_seconds;
                    cores[i].dirty = true;
                    if !cores[i].done {
                        let mut transition_energy = 0.0;
                        transition_energy += self
                            .ground_truth
                            .energy_model()
                            .dvfs_transition_energy(overhead.dvfs_transitions);
                        transition_energy += self
                            .ground_truth
                            .energy_model()
                            .reconfig_transition_energy(overhead.core_reconfigs);
                        transition_energy += self
                            .ground_truth
                            .energy_model()
                            .repartition_refill_energy(overhead.extra_misses);
                        cores[i].round_energy.transition += transition_energy;
                    }
                }
                setting_changes += 1;
                setting = new_setting;
            }
        }

        let mut breakdown = EnergyBreakdown::default();
        for c in &cores {
            breakdown.accumulate(&c.round_energy);
        }
        let per_app: Vec<AppResult> = cores
            .iter()
            .enumerate()
            .map(|(i, c)| AppResult {
                app: AppId(i),
                benchmark: c.record.name.clone(),
                execution_seconds: c.round_time,
                energy_joules: c.round_energy.total(),
                intervals: c.round_intervals,
            })
            .collect();
        let system_energy_joules = per_app.iter().map(|a| a.energy_joules).sum();

        Ok(SimulationResult {
            workload: self.mix.name.clone(),
            manager: manager.name().to_string(),
            per_app,
            system_energy_joules,
            energy_breakdown: breakdown,
            rma_invocations,
            rma_overhead_instructions,
            setting_changes,
            qos_at_risk_intervals: manager.qos_at_risk_intervals(),
            intervals,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::StaticSettingManager;
    use simdb::{build_database, BuildOptions};
    use workload::benchmark;

    fn test_db(num_cores: usize) -> SimDb {
        let platform = PlatformConfig::paper2(num_cores);
        let options = BuildOptions::quick_for_tests(&platform);
        let benchmarks = vec![
            benchmark("mcf_like").unwrap(),
            benchmark("libquantum_like").unwrap(),
            benchmark("gamess_like").unwrap(),
            benchmark("soplex_like").unwrap(),
        ];
        build_database(&platform, &benchmarks, &options)
    }

    fn mix() -> WorkloadMix {
        WorkloadMix::new(
            "test-mix",
            vec!["mcf_like", "libquantum_like", "gamess_like", "soplex_like"],
        )
    }

    #[test]
    fn baseline_run_completes_every_application() {
        let db = test_db(4);
        let sim = CophaseSimulator::new(&db, &mix(), SimulationOptions::default()).unwrap();
        let result = sim.run_baseline().unwrap();
        assert_eq!(result.per_app.len(), 4);
        for (i, app) in result.per_app.iter().enumerate() {
            let record = db.benchmark(&mix().benchmarks[i]).unwrap();
            assert_eq!(app.intervals, record.trace_intervals(), "{}", app.benchmark);
            assert!(app.execution_seconds > 0.0);
            assert!(app.energy_joules > 0.0);
        }
        assert!(result.system_energy_joules > 0.0);
        assert_eq!(result.setting_changes, 0);
        // The baseline manager always certifies (it never deviates from the
        // QoS-defining setting), so the surfaced tally is zero.
        assert_eq!(result.qos_at_risk_intervals, 0);
        assert!(result.rma_invocations > 0);
        // Per-interval records cover every first-round interval.
        let expected: usize = result.per_app.iter().map(|a| a.intervals).sum();
        assert_eq!(result.intervals.len(), expected);
    }

    #[test]
    fn mismatched_core_count_is_rejected() {
        let db = test_db(4);
        let bad = WorkloadMix::new("bad", vec!["mcf_like", "gamess_like"]);
        assert!(CophaseSimulator::new(&db, &bad, SimulationOptions::default()).is_err());
        let unknown = WorkloadMix::new("bad2", vec!["a", "b", "c", "d"]);
        assert!(CophaseSimulator::new(&db, &unknown, SimulationOptions::default()).is_err());
    }

    #[test]
    fn lower_frequency_saves_energy_but_slows_down() {
        let db = test_db(4);
        let sim = CophaseSimulator::new(&db, &mix(), SimulationOptions::default()).unwrap();
        let baseline = sim.run_baseline().unwrap();

        let platform = db.platform().clone();
        let mut slow_setting = SystemSetting::baseline(&platform);
        for i in 0..4 {
            slow_setting.core_mut(CoreId(i)).freq = FreqLevel(0);
        }
        let mut slow_manager = StaticSettingManager::new(slow_setting);
        let slow = sim.run(&mut slow_manager).unwrap();

        assert!(slow.system_energy_joules < baseline.system_energy_joules);
        for i in 0..4 {
            assert!(
                slow.per_app[i].execution_seconds > baseline.per_app[i].execution_seconds,
                "app {i} should slow down at the lowest frequency"
            );
        }
        assert!(slow.setting_changes >= 1);
    }

    #[test]
    fn results_are_deterministic() {
        let db = test_db(4);
        let sim = CophaseSimulator::new(&db, &mix(), SimulationOptions::default()).unwrap();
        let a = sim.run_baseline().unwrap();
        let b = sim.run_baseline().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn hitting_the_event_cap_is_a_typed_error() {
        let db = test_db(4);
        let options = SimulationOptions {
            max_events: 7,
            ..Default::default()
        };
        let sim = CophaseSimulator::new(&db, &mix(), options).unwrap();
        let err = sim.run_baseline().unwrap_err();
        match err {
            QosrmError::EventLimitExceeded {
                manager,
                max_events,
                unfinished_cores,
            } => {
                assert_eq!(manager, "Baseline");
                assert_eq!(max_events, 7);
                assert!(unfinished_cores >= 1);
            }
            other => panic!("expected EventLimitExceeded, got {other}"),
        }
    }

    #[test]
    fn perfect_tables_are_provided_when_requested() {
        struct Probe {
            saw_perfect: bool,
            saw_mlp: bool,
        }
        impl ResourceManager for Probe {
            fn name(&self) -> &str {
                "probe"
            }
            fn on_interval(
                &mut self,
                _core: CoreId,
                obs: &CoreObservation,
                current: &SystemSetting,
            ) -> SystemSetting {
                self.saw_perfect |= obs.perfect.is_some();
                self.saw_mlp |= obs.mlp_profile.is_some();
                current.clone()
            }
        }
        let db = test_db(4);
        let options = SimulationOptions {
            provide_perfect_tables: true,
            provide_mlp_profiles: false,
            ..Default::default()
        };
        let sim = CophaseSimulator::new(&db, &mix(), options).unwrap();
        let mut probe = Probe {
            saw_perfect: false,
            saw_mlp: false,
        };
        sim.run(&mut probe).unwrap();
        assert!(probe.saw_perfect);
        assert!(!probe.saw_mlp);
    }
}
