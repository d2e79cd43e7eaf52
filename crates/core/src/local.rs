//! Local (per-core) optimization: QoS-driven pruning of the configuration
//! space into an energy-versus-ways curve.
//!
//! Curve construction is the dominant cost of a cache-miss RMA invocation
//! (the paper's overhead section counts it as hundreds of model evaluations
//! per call). The production path therefore goes through the staged
//! [`CurveBuilder`]: per-axis factors
//! (execution CPI per size, voltage ratio per level, misses per way count,
//! stall time per `(size, ways)`) are computed once, and the QoS test is
//! resolved per `(size, ways)` column by a feasibility partition point
//! instead of a per-level scan. The scalar triple loop is kept as
//! [`LocalOptimizer::energy_curve_scalar_reference`]; both paths produce
//! bit-identical curves (see `tests/properties.rs`).

use crate::curve::{CurvePoint, EnergyCurve};
use crate::curve_builder::{CurveBuild, CurveBuilder};
use crate::model::{ModelKind, PredictionModel};
use power_model::EnergyParams;
use qosrm_types::{CoreObservation, CoreSizeIdx, FreqLevel, PlatformConfig, QosSpec};

/// Configuration of the local optimizer.
#[derive(Debug, Clone)]
pub struct LocalOptimizerConfig {
    /// Whether the VF level may deviate from the baseline.
    pub control_dvfs: bool,
    /// Whether the core size may deviate from the baseline.
    pub control_core_size: bool,
    /// Which performance model to use.
    pub model: ModelKind,
    /// Energy calibration shared with the platform.
    pub energy_params: EnergyParams,
}

/// The per-core local optimizer.
#[derive(Debug, Clone)]
pub struct LocalOptimizer {
    platform: PlatformConfig,
    model: PredictionModel,
    /// Candidate core sizes under the configuration policy, fixed at
    /// construction (curve builds are on the cache-miss hot path and must
    /// not re-collect them).
    sizes: Vec<CoreSizeIdx>,
    /// Candidate VF levels, slowest to fastest, fixed at construction.
    freqs: Vec<FreqLevel>,
}

impl LocalOptimizer {
    /// Creates the optimizer.
    pub fn new(platform: &PlatformConfig, config: LocalOptimizerConfig) -> Self {
        let model = PredictionModel::new(config.model, platform, config.energy_params);
        let sizes = if config.control_core_size {
            platform.core_size_indices().collect()
        } else {
            vec![platform.baseline_core_size]
        };
        let freqs = if config.control_dvfs {
            platform.vf.levels().collect()
        } else {
            vec![platform.baseline_freq()]
        };
        LocalOptimizer {
            platform: platform.clone(),
            model,
            sizes,
            freqs,
        }
    }

    /// The prediction model in use.
    pub fn model(&self) -> &PredictionModel {
        &self.model
    }

    /// Predicted QoS target time for one interval: the predicted time at the
    /// baseline configuration, scaled by the application's allowed slowdown.
    ///
    /// Using the *predicted* baseline (rather than a measured one) keeps the
    /// target and the candidate predictions consistent under the same model,
    /// which is how the paper's RMA bounds the impact of modeling error.
    pub fn target_time(&self, observation: &CoreObservation, qos: QosSpec) -> f64 {
        let baseline_time = self.model.predict(
            observation,
            &self.platform,
            self.platform.baseline_core_size,
            self.platform.baseline_freq(),
            self.platform.baseline_ways_per_core(),
        );
        qos.target_time(baseline_time.time_seconds)
    }

    /// Candidate core sizes under the current configuration policy.
    fn candidate_sizes(&self) -> &[CoreSizeIdx] {
        &self.sizes
    }

    /// Candidate VF levels under the current configuration policy.
    fn candidate_freqs(&self) -> &[FreqLevel] {
        &self.freqs
    }

    /// Builds the energy-versus-ways curve of one core: for every way count,
    /// the cheapest `(core size, VF)` pair whose predicted time meets the
    /// target.
    ///
    /// The paper's heuristic only evaluates the *slowest* feasible VF level
    /// per `(size, ways)` pair, which is optimal when dynamic energy strictly
    /// dominates. Our energy model also charges leakage and background power
    /// over the (longer) predicted time, so the energy-optimal level can sit
    /// slightly above the slowest feasible one — the optimizer therefore
    /// evaluates every feasible level (the QoS target still prunes the
    /// infeasible ones) and keeps the cheapest, at the same asymptotic cost.
    ///
    /// This is the batched path (see [`crate::curve_builder`]); the result is
    /// bit-identical to [`LocalOptimizer::energy_curve_scalar_reference`].
    pub fn energy_curve(&self, observation: &CoreObservation, qos: QosSpec) -> EnergyCurve {
        self.energy_curve_counted(observation, qos).curve
    }

    /// Like [`LocalOptimizer::energy_curve`], additionally reporting the
    /// number of model evaluations actually performed (the target baseline
    /// prediction plus one per candidate whose energy was computed), which
    /// the overhead accounting (E5/E9) uses instead of the worst-case bound.
    pub fn energy_curve_counted(&self, observation: &CoreObservation, qos: QosSpec) -> CurveBuild {
        let target = self.target_time(observation, qos);
        let builder = CurveBuilder::new(&self.model, &self.platform, &self.sizes, &self.freqs);
        let mut build = builder.build(observation, target);
        // The target itself costs one baseline prediction.
        build.evaluations += 1;
        build
    }

    /// Scalar reference implementation of [`LocalOptimizer::energy_curve`]:
    /// one [`PredictionModel::predict`] call per `(size, VF, ways)`
    /// candidate.
    ///
    /// Kept as the behavioural oracle for the staged
    /// [`CurveBuilder`] — the property
    /// tests assert bit-identical output, and the `local_opt` workload of
    /// `bench_gate` compares the two paths' cost. Not used in production.
    pub fn energy_curve_scalar_reference(
        &self,
        observation: &CoreObservation,
        qos: QosSpec,
    ) -> EnergyCurve {
        let target = self.target_time(observation, qos);
        let max_ways = self.platform.llc.associativity;
        let sizes = self.candidate_sizes();
        let freqs = self.candidate_freqs();

        let mut points: Vec<Option<CurvePoint>> = Vec::with_capacity(max_ways);
        for ways in 1..=max_ways {
            let mut best: Option<CurvePoint> = None;
            for &size in sizes {
                for &freq in freqs {
                    let prediction =
                        self.model
                            .predict(observation, &self.platform, size, freq, ways);
                    if prediction.time_seconds > target {
                        // Frequencies are ordered slowest to fastest: faster
                        // levels can only become feasible, so keep scanning.
                        continue;
                    }
                    let candidate = CurvePoint {
                        energy_joules: prediction.energy_joules,
                        freq,
                        core_size: size,
                        time_seconds: prediction.time_seconds,
                        ways,
                    };
                    if best
                        .map(|b| candidate.energy_joules < b.energy_joules)
                        .unwrap_or(true)
                    {
                        best = Some(candidate);
                    }
                }
            }
            points.push(best);
        }
        let mut curve = EnergyCurve::new(points);
        curve.smooth_monotone();
        curve
    }

    /// Upper bound on the model evaluations one curve construction performs:
    /// every `(ways, size)` pair scanning all VF levels, plus one baseline
    /// prediction for the target.
    ///
    /// This is a *worst-case bound*, not a measurement — the builder skips
    /// QoS-infeasible candidates entirely. Overhead accounting that claims
    /// measured numbers must use the count returned by
    /// [`LocalOptimizer::energy_curve_counted`] (see
    /// [`crate::CoordinatedRma::work_counters`]).
    pub fn evaluations_per_invocation(&self) -> usize {
        self.platform.llc.associativity
            * self.candidate_sizes().len()
            * self.candidate_freqs().len()
            + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qosrm_types::{
        AppId, CoreId, CoreScalingProfile, IntervalStats, MissProfile, MlpProfile, SystemSetting,
    };

    fn platform() -> PlatformConfig {
        PlatformConfig::paper2(4)
    }

    /// A cache-sensitive, memory-intensive observation at the baseline
    /// setting.
    fn observation() -> CoreObservation {
        let p = platform();
        let baseline = SystemSetting::baseline(&p).core(CoreId(0));
        let misses: Vec<u64> = (0..16)
            .map(|w| (1_200_000.0 * (0.92f64).powi(w)) as u64)
            .collect();
        let leading = vec![
            misses
                .iter()
                .map(|&m| (m as f64 * 0.95) as u64)
                .collect::<Vec<_>>(),
            misses
                .iter()
                .map(|&m| (m as f64 * 0.60) as u64)
                .collect::<Vec<_>>(),
            misses
                .iter()
                .map(|&m| (m as f64 * 0.35) as u64)
                .collect::<Vec<_>>(),
        ];
        CoreObservation {
            app: AppId(0),
            stats: IntervalStats {
                instructions: 100_000_000,
                cycles: 230_000_000,
                exec_cycles: 110_000_000,
                llc_accesses: 2_500_000,
                llc_misses: misses[baseline.ways - 1],
                leading_misses: leading[1][baseline.ways - 1],
                elapsed_seconds: 0.115,
                freq: baseline.freq,
                core_size: baseline.core_size,
                ways: baseline.ways,
            },
            miss_profile: MissProfile::new(misses),
            mlp_profile: Some(MlpProfile::new(leading)),
            scaling_profile: Some(CoreScalingProfile::new(vec![1.5, 1.1, 0.85])),
            perfect: None,
        }
    }

    fn optimizer(control_dvfs: bool, control_core: bool, model: ModelKind) -> LocalOptimizer {
        LocalOptimizer::new(
            &platform(),
            LocalOptimizerConfig {
                control_dvfs,
                control_core_size: control_core,
                model,
                energy_params: EnergyParams::default(),
            },
        )
    }

    #[test]
    fn baseline_allocation_is_always_feasible() {
        let opt = optimizer(true, true, ModelKind::MlpAware);
        let curve = opt.energy_curve(&observation(), QosSpec::STRICT);
        let baseline_ways = platform().baseline_ways_per_core();
        assert!(curve.point(baseline_ways).is_some());
        assert!(curve.validate().is_ok());
    }

    #[test]
    fn more_ways_allow_lower_frequency() {
        let opt = optimizer(true, false, ModelKind::ConstantMlp);
        let curve = opt.energy_curve(&observation(), QosSpec::STRICT);
        let baseline_ways = platform().baseline_ways_per_core();
        let at_baseline = curve.point(baseline_ways).unwrap();
        let at_max = curve.point(16).unwrap();
        assert!(at_max.freq <= at_baseline.freq);
        assert!(at_max.energy_joules <= at_baseline.energy_joules);
    }

    #[test]
    fn fewer_ways_require_higher_frequency_or_become_infeasible() {
        let opt = optimizer(true, false, ModelKind::ConstantMlp);
        let curve = opt.energy_curve(&observation(), QosSpec::STRICT);
        let baseline_ways = platform().baseline_ways_per_core();
        let at_baseline = curve.point(baseline_ways).unwrap();
        // An infeasible point at one way is also acceptable.
        if let Some(p) = curve.point(1) {
            assert!(
                p.freq >= at_baseline.freq,
                "a starved cache-sensitive app must clock up"
            );
        }
    }

    #[test]
    fn without_dvfs_control_curve_uses_baseline_frequency() {
        let opt = optimizer(false, false, ModelKind::ConstantMlp);
        let curve = opt.energy_curve(&observation(), QosSpec::STRICT);
        for w in 1..=16usize {
            if let Some(p) = curve.point(w) {
                assert_eq!(p.freq, platform().baseline_freq());
                assert_eq!(p.core_size, platform().baseline_core_size);
            }
        }
        // Allocations below the baseline are infeasible at a fixed frequency
        // for this cache-sensitive application.
        assert!(curve.min_feasible_ways().unwrap() >= 2);
    }

    #[test]
    fn relaxed_qos_lowers_energy() {
        let opt = optimizer(true, true, ModelKind::MlpAware);
        let strict = opt.energy_curve(&observation(), QosSpec::STRICT);
        let relaxed = opt.energy_curve(&observation(), QosSpec::relaxed_by(0.4));
        let w = platform().baseline_ways_per_core();
        assert!(relaxed.energy(w) <= strict.energy(w));
        // With 40 % slack the application can run strictly slower.
        assert!(relaxed.point(w).unwrap().freq <= strict.point(w).unwrap().freq);
    }

    #[test]
    fn core_size_control_never_hurts() {
        let without = optimizer(true, false, ModelKind::MlpAware);
        let with = optimizer(true, true, ModelKind::MlpAware);
        let obs = observation();
        let c_without = without.energy_curve(&obs, QosSpec::STRICT);
        let c_with = with.energy_curve(&obs, QosSpec::STRICT);
        for w in 1..=16usize {
            assert!(
                c_with.energy(w) <= c_without.energy(w) + 1e-12,
                "adding a control knob cannot increase the optimum at w={w}"
            );
        }
    }

    #[test]
    fn target_time_scales_with_relaxation() {
        let opt = optimizer(true, true, ModelKind::ConstantMlp);
        let obs = observation();
        let strict = opt.target_time(&obs, QosSpec::STRICT);
        let relaxed = opt.target_time(&obs, QosSpec::relaxed_by(0.5));
        assert!((relaxed / strict - 1.5).abs() < 1e-9);
    }

    #[test]
    fn evaluation_bound_matches_space_size() {
        let opt = optimizer(true, true, ModelKind::MlpAware);
        assert_eq!(opt.evaluations_per_invocation(), 16 * 3 * 13 + 1);
        let rm1 = optimizer(false, false, ModelKind::ConstantMlp);
        assert_eq!(rm1.evaluations_per_invocation(), 16 + 1);
    }

    #[test]
    fn batched_curve_is_bit_identical_to_scalar_reference() {
        let obs = observation();
        for (dvfs, core) in [(true, true), (true, false), (false, false)] {
            for model in [
                ModelKind::SimpleLatency,
                ModelKind::ConstantMlp,
                ModelKind::MlpAware,
            ] {
                let opt = optimizer(dvfs, core, model);
                for qos in [QosSpec::STRICT, QosSpec::relaxed_by(0.3)] {
                    assert_eq!(
                        opt.energy_curve(&obs, qos),
                        opt.energy_curve_scalar_reference(&obs, qos),
                        "builder and scalar reference diverged \
                         (dvfs={dvfs}, core={core}, model={model:?})"
                    );
                }
            }
        }
    }

    /// Hand-counted evaluation tally on a one-dimensional case: with DVFS
    /// and core-size control off, the builder evaluates exactly one
    /// candidate per QoS-feasible way count, plus the baseline target
    /// prediction.
    #[test]
    fn evaluation_count_matches_hand_count() {
        let opt = optimizer(false, false, ModelKind::ConstantMlp);
        let obs = observation();
        let qos = QosSpec::STRICT;
        // Hand count: walk the candidate space with the public model.
        let p = platform();
        let target = opt.target_time(&obs, qos);
        let mut feasible = 0usize;
        for ways in 1..=16usize {
            let pred = opt
                .model()
                .predict(&obs, &p, p.baseline_core_size, p.baseline_freq(), ways);
            if pred.time_seconds <= target {
                feasible += 1;
            }
        }
        assert!(feasible > 0 && feasible < 16, "case must be non-trivial");
        let build = opt.energy_curve_counted(&obs, qos);
        assert_eq!(build.evaluations, feasible + 1);

        // Full space: the measured count is bounded by the worst case and
        // strictly below it here (the strict target prunes small ways).
        let full = optimizer(true, true, ModelKind::MlpAware);
        let build = full.energy_curve_counted(&obs, qos);
        assert!(build.evaluations <= full.evaluations_per_invocation());
        assert!(build.evaluations < full.evaluations_per_invocation());
        assert!(build.evaluations > 1);
    }

    /// The Perfect-table path reads every cell, so its measured count equals
    /// the worst-case bound.
    #[test]
    fn perfect_table_count_matches_full_space() {
        use qosrm_types::{ConfigMetrics, ConfigTable};
        let mut obs = observation();
        obs.perfect = Some(ConfigTable::from_fn(3, 13, 16, |s, f, w| ConfigMetrics {
            time_seconds: 0.2 / ((s.index() + 1) as f64 * (f.index() + 1) as f64)
                + 0.001 * (16 - w) as f64,
            energy_joules: 1.0 + w as f64 * 0.1,
            llc_misses: 10,
            leading_misses: 5,
        }));
        let opt = optimizer(true, true, ModelKind::Perfect);
        let build = opt.energy_curve_counted(&obs, QosSpec::STRICT);
        assert_eq!(build.evaluations, 16 * 3 * 13 + 1);
        assert_eq!(
            build.curve,
            opt.energy_curve_scalar_reference(&obs, QosSpec::STRICT)
        );
    }
}
