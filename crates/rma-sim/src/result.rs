//! Simulation results and baseline comparison.

use power_model::EnergyBreakdown;
use qosrm_types::{AppId, CoreSetting, PhaseId, QosSpec, QosViolation};
use serde::{Deserialize, Serialize};

/// Per-application outcome of one simulated execution (statistics cover the
/// application's first complete round, as in the paper).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppResult {
    /// Application identifier (= core it is pinned to).
    pub app: AppId,
    /// Benchmark name.
    pub benchmark: String,
    /// Execution time of the first full round, in seconds.
    pub execution_seconds: f64,
    /// Energy attributed to this application over its first round, in joules.
    pub energy_joules: f64,
    /// Number of intervals in the first round.
    pub intervals: usize,
}

/// One completed execution interval (used by the per-interval QoS-violation
/// analysis of Paper II).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IntervalRecord {
    /// Application that completed the interval.
    pub app: AppId,
    /// Index of the interval within the application's execution.
    pub interval_index: usize,
    /// Phase the interval belonged to.
    pub phase: PhaseId,
    /// Wall-clock duration of the interval, in seconds.
    pub time_seconds: f64,
    /// The resource setting of the core when the interval completed.
    pub setting: CoreSetting,
}

/// Result of one simulated execution of a workload under one manager.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimulationResult {
    /// Workload name.
    pub workload: String,
    /// Manager name.
    pub manager: String,
    /// Per-application results (index = core index).
    pub per_app: Vec<AppResult>,
    /// Total system energy (sum of per-application first-round energies).
    pub system_energy_joules: f64,
    /// Component breakdown of the system energy.
    pub energy_breakdown: EnergyBreakdown,
    /// Number of RMA invocations performed.
    pub rma_invocations: u64,
    /// Total RMA software overhead charged, in instructions.
    pub rma_overhead_instructions: u64,
    /// Number of invocations that changed at least one core's setting.
    pub setting_changes: u64,
    /// Intervals where the manager kept a setting whose QoS target it could
    /// not certify (see
    /// [`qosrm_types::ResourceManager::qos_at_risk_intervals`]): without
    /// partitioning authority an infeasible current allocation is silently
    /// retained, and this tally surfaces that signal instead of dropping it.
    pub qos_at_risk_intervals: u64,
    /// Per-interval records of the first round of every application.
    pub intervals: Vec<IntervalRecord>,
}

impl SimulationResult {
    /// Execution time of application `app`'s first round.
    pub fn execution_seconds(&self, app: AppId) -> f64 {
        self.per_app[app.index()].execution_seconds
    }
}

/// Statistics of per-interval QoS violations (Paper II model-accuracy
/// analysis): an interval is violated when it ran longer than its target
/// (the baseline duration of the same interval scaled by the allowed
/// slowdown).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IntervalViolationStats {
    /// Number of intervals compared.
    pub total_intervals: usize,
    /// Number of violated intervals (beyond the 1 % significance threshold).
    pub violations: usize,
    /// Mean violation magnitude over the *violated* intervals.
    pub mean_magnitude: f64,
    /// Standard deviation of the violation magnitude over violated intervals.
    pub std_magnitude: f64,
    /// Largest violation magnitude.
    pub max_magnitude: f64,
}

impl IntervalViolationStats {
    /// Probability that an interval violates its target.
    pub fn probability(&self) -> f64 {
        if self.total_intervals == 0 {
            0.0
        } else {
            self.violations as f64 / self.total_intervals as f64
        }
    }

    /// Expected violation magnitude over *all* intervals (zero for intervals
    /// that met their target), the metric Paper II reports as the expected
    /// value of violations.
    pub fn expected_magnitude(&self) -> f64 {
        self.probability() * self.mean_magnitude
    }
}

/// Comparison of a managed run against the baseline run of the same workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Comparison {
    /// Workload name.
    pub workload: String,
    /// Manager name.
    pub manager: String,
    /// System energy savings relative to baseline (`1 - E_managed / E_base`).
    pub energy_savings: f64,
    /// Per-application slowdown of the full execution relative to baseline
    /// (`t_managed / t_base - 1`).
    pub per_app_slowdown: Vec<f64>,
    /// Applications whose full-execution QoS constraint was violated beyond
    /// the 1 % significance threshold.
    pub violations: Vec<QosViolation>,
    /// Per-interval violation statistics.
    pub interval_stats: IntervalViolationStats,
    /// Intervals the managed run's resource manager flagged as QoS-at-risk
    /// (current allocation infeasible for some core, or no feasible curve
    /// point at all). Mirrors
    /// [`SimulationResult::qos_at_risk_intervals`] so per-scenario sweep
    /// outcomes carry the manager-side risk tally, which downstream search
    /// uses as a fitness objective.
    pub qos_at_risk_intervals: u64,
}

impl Comparison {
    /// Number of significant QoS violations.
    pub fn num_violations(&self) -> usize {
        self.violations.len()
    }

    /// Largest violation magnitude (0 when there are none).
    pub fn max_violation(&self) -> f64 {
        self.violations
            .iter()
            .map(|v| v.magnitude())
            .fold(0.0, f64::max)
    }
}

/// Compares a managed run against its baseline run.
///
/// Both runs must cover the same workload (same applications, same phase
/// traces); `qos` gives the per-application allowed slowdown.
pub fn compare(
    baseline: &SimulationResult,
    managed: &SimulationResult,
    qos: &[QosSpec],
) -> Comparison {
    assert_eq!(
        baseline.per_app.len(),
        managed.per_app.len(),
        "baseline and managed runs must cover the same applications"
    );

    let energy_savings = if baseline.system_energy_joules > 0.0 {
        1.0 - managed.system_energy_joules / baseline.system_energy_joules
    } else {
        0.0
    };

    let mut per_app_slowdown = Vec::with_capacity(baseline.per_app.len());
    let mut violations = Vec::new();
    for (base, run) in baseline.per_app.iter().zip(managed.per_app.iter()) {
        let slowdown = run.execution_seconds / base.execution_seconds.max(f64::MIN_POSITIVE) - 1.0;
        per_app_slowdown.push(slowdown);
        let spec = qos.get(base.app.index()).copied().unwrap_or_default();
        let target = spec.target_time(base.execution_seconds);
        let violation = QosViolation {
            app: base.app,
            measured_seconds: run.execution_seconds,
            target_seconds: target,
        };
        if violation.is_significant() {
            violations.push(violation);
        }
    }

    let interval_stats = interval_violations(baseline, managed, qos);

    Comparison {
        workload: managed.workload.clone(),
        manager: managed.manager.clone(),
        energy_savings,
        per_app_slowdown,
        violations,
        interval_stats,
        qos_at_risk_intervals: managed.qos_at_risk_intervals,
    }
}

/// Computes the per-interval violation statistics by matching intervals of
/// the managed run with the same `(app, interval index)` in the baseline run.
fn interval_violations(
    baseline: &SimulationResult,
    managed: &SimulationResult,
    qos: &[QosSpec],
) -> IntervalViolationStats {
    use std::collections::HashMap;
    let baseline_times: HashMap<(usize, usize), f64> = baseline
        .intervals
        .iter()
        .map(|r| ((r.app.index(), r.interval_index), r.time_seconds))
        .collect();

    let mut magnitudes = Vec::new();
    let mut total = 0usize;
    for r in &managed.intervals {
        let Some(&base_time) = baseline_times.get(&(r.app.index(), r.interval_index)) else {
            continue;
        };
        total += 1;
        let spec = qos.get(r.app.index()).copied().unwrap_or_default();
        let target = spec.target_time(base_time);
        let magnitude = r.time_seconds / target.max(f64::MIN_POSITIVE) - 1.0;
        if magnitude > qosrm_types::qos::VIOLATION_SIGNIFICANCE_THRESHOLD {
            magnitudes.push(magnitude);
        }
    }

    let violations = magnitudes.len();
    let mean = if violations > 0 {
        magnitudes.iter().sum::<f64>() / violations as f64
    } else {
        0.0
    };
    let std = if violations > 1 {
        (magnitudes
            .iter()
            .map(|m| (m - mean) * (m - mean))
            .sum::<f64>()
            / violations as f64)
            .sqrt()
    } else {
        0.0
    };
    let max = magnitudes.iter().copied().fold(0.0, f64::max);

    IntervalViolationStats {
        total_intervals: total,
        violations,
        mean_magnitude: mean,
        std_magnitude: std,
        max_magnitude: max,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qosrm_types::{CoreSizeIdx, FreqLevel};

    fn app_result(app: usize, time: f64, energy: f64) -> AppResult {
        AppResult {
            app: AppId(app),
            benchmark: format!("bench{app}"),
            execution_seconds: time,
            energy_joules: energy,
            intervals: 10,
        }
    }

    fn interval(app: usize, idx: usize, time: f64) -> IntervalRecord {
        IntervalRecord {
            app: AppId(app),
            interval_index: idx,
            phase: PhaseId(0),
            time_seconds: time,
            setting: CoreSetting {
                core_size: CoreSizeIdx(0),
                freq: FreqLevel(0),
                ways: 4,
            },
        }
    }

    fn result(
        manager: &str,
        apps: Vec<AppResult>,
        intervals: Vec<IntervalRecord>,
    ) -> SimulationResult {
        let system_energy_joules = apps.iter().map(|a| a.energy_joules).sum();
        SimulationResult {
            workload: "w".into(),
            manager: manager.into(),
            per_app: apps,
            system_energy_joules,
            energy_breakdown: EnergyBreakdown::default(),
            rma_invocations: 0,
            rma_overhead_instructions: 0,
            setting_changes: 0,
            qos_at_risk_intervals: 0,
            intervals,
        }
    }

    #[test]
    fn savings_and_violations() {
        let baseline = result(
            "Baseline",
            vec![app_result(0, 10.0, 100.0), app_result(1, 12.0, 80.0)],
            vec![interval(0, 0, 1.0), interval(1, 0, 1.2)],
        );
        let managed = result(
            "RMA",
            vec![app_result(0, 10.05, 80.0), app_result(1, 12.8, 70.0)],
            vec![interval(0, 0, 1.05), interval(1, 0, 1.3)],
        );
        let qos = vec![QosSpec::STRICT; 2];
        let cmp = compare(&baseline, &managed, &qos);
        assert!((cmp.energy_savings - (1.0 - 150.0 / 180.0)).abs() < 1e-12);
        // App 0 slowed by 0.5 % -> not significant; app 1 by 6.7 % -> violation.
        assert_eq!(cmp.num_violations(), 1);
        assert_eq!(cmp.violations[0].app, AppId(1));
        assert!(cmp.max_violation() > 0.05);
        // Interval stats: app0 interval +5 % violated, app1 +8.3 % violated.
        assert_eq!(cmp.interval_stats.total_intervals, 2);
        assert_eq!(cmp.interval_stats.violations, 2);
        assert!(cmp.interval_stats.probability() > 0.99);
    }

    #[test]
    fn relaxed_qos_removes_violations() {
        let baseline = result("Baseline", vec![app_result(0, 10.0, 100.0)], vec![]);
        let managed = result("RMA", vec![app_result(0, 13.0, 60.0)], vec![]);
        let strict = compare(&baseline, &managed, &[QosSpec::STRICT]);
        assert_eq!(strict.num_violations(), 1);
        let relaxed = compare(&baseline, &managed, &[QosSpec::relaxed_by(0.4)]);
        assert_eq!(relaxed.num_violations(), 0);
        assert!((relaxed.per_app_slowdown[0] - 0.3).abs() < 1e-9);
    }

    #[test]
    fn execution_seconds_reads_the_app() {
        let r = result(
            "Baseline",
            vec![app_result(0, 10.0, 1.0), app_result(1, 14.0, 1.0)],
            vec![],
        );
        assert!((r.execution_seconds(AppId(0)) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn interval_stats_probability_handles_empty() {
        let stats = IntervalViolationStats {
            total_intervals: 0,
            violations: 0,
            mean_magnitude: 0.0,
            std_magnitude: 0.0,
            max_magnitude: 0.0,
        };
        assert_eq!(stats.probability(), 0.0);
        assert_eq!(stats.expected_magnitude(), 0.0);
    }
}
