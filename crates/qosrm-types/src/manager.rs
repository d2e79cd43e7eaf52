//! The [`ResourceManager`] trait: the interface between the co-phase
//! simulator (or a real system's interrupt handler) and the resource
//! management algorithms.

use crate::freq::FreqLevel;
use crate::ids::{AppId, CoreId, CoreSizeIdx};
use crate::setting::SystemSetting;
use crate::stats::{CoreScalingProfile, IntervalStats, MissProfile, MlpProfile};
use serde::{Deserialize, Serialize};

/// Ground-truth performance and energy of one core for a single
/// (core size, VF level, ways) configuration point.
///
/// Used in *perfect-model* mode, where the resource manager is given the exact
/// behaviour of the upcoming interval instead of relying on its analytical
/// models (the paper uses this mode to isolate the effect of modeling error).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConfigMetrics {
    /// Interval execution time in seconds.
    pub time_seconds: f64,
    /// Interval energy (core + LLC + DRAM share) in joules.
    pub energy_joules: f64,
    /// LLC misses during the interval.
    pub llc_misses: u64,
    /// Leading (non-overlapped) LLC misses during the interval.
    pub leading_misses: u64,
}

/// Ground-truth metrics for every configuration in the per-core configuration
/// space, indexed by `(core size, VF level, ways)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConfigTable {
    num_core_sizes: usize,
    num_freqs: usize,
    num_ways: usize,
    metrics: Vec<ConfigMetrics>,
}

impl ConfigTable {
    /// Builds a table by evaluating `f` on every configuration point.
    pub fn from_fn(
        num_core_sizes: usize,
        num_freqs: usize,
        num_ways: usize,
        mut f: impl FnMut(CoreSizeIdx, FreqLevel, usize) -> ConfigMetrics,
    ) -> Self {
        let mut metrics = Vec::with_capacity(num_core_sizes * num_freqs * num_ways);
        for s in 0..num_core_sizes {
            for fl in 0..num_freqs {
                for w in 1..=num_ways {
                    metrics.push(f(CoreSizeIdx(s), FreqLevel(fl), w));
                }
            }
        }
        ConfigTable {
            num_core_sizes,
            num_freqs,
            num_ways,
            metrics,
        }
    }

    #[inline]
    fn index(&self, size: CoreSizeIdx, freq: FreqLevel, ways: usize) -> usize {
        debug_assert!(ways >= 1 && ways <= self.num_ways);
        (size.index() * self.num_freqs + freq.index()) * self.num_ways + (ways - 1)
    }

    /// Metrics of the configuration `(size, freq, ways)`.
    #[inline]
    pub fn get(&self, size: CoreSizeIdx, freq: FreqLevel, ways: usize) -> ConfigMetrics {
        self.metrics[self.index(size, freq, ways)]
    }

    /// Number of core sizes covered.
    pub fn num_core_sizes(&self) -> usize {
        self.num_core_sizes
    }

    /// Number of VF levels covered.
    pub fn num_freqs(&self) -> usize {
        self.num_freqs
    }

    /// Maximum way count covered.
    pub fn num_ways(&self) -> usize {
        self.num_ways
    }

    /// Every configuration's metrics, in `(size, freq, ways)` row-major
    /// order.
    pub fn as_slice(&self) -> &[ConfigMetrics] {
        &self.metrics
    }
}

/// Everything a core exposes to the resource manager when it finishes an
/// execution interval.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoreObservation {
    /// The application currently running on the core.
    pub app: AppId,
    /// Performance-counter statistics of the finished interval.
    pub stats: IntervalStats,
    /// ATD cache-miss profile (misses as a function of allocated ways).
    pub miss_profile: MissProfile,
    /// MLP-aware ATD profile (Paper II hardware); `None` on a Paper I
    /// platform without the extension.
    pub mlp_profile: Option<MlpProfile>,
    /// Execution-CPI estimates per core size (Paper II ILP monitor); `None`
    /// on a Paper I platform.
    pub scaling_profile: Option<CoreScalingProfile>,
    /// Ground truth for the upcoming interval, present only in perfect-model
    /// experiments.
    pub perfect: Option<ConfigTable>,
}

/// A resource management algorithm (RMA).
///
/// The co-phase simulator invokes [`ResourceManager::on_interval`] every time
/// a core finishes an execution interval (a fixed number of instructions).
/// The manager receives the core's observation of the past interval and the
/// currently applied system setting and returns the setting to apply for the
/// next interval. Managers are stateful: they remember the most recent energy
/// curves of the other cores so the global optimization can trade resources
/// between applications.
pub trait ResourceManager {
    /// Short human-readable name used in result tables (e.g. `"CombinedRMA"`).
    fn name(&self) -> &str;

    /// Called when `core` finishes an interval. Returns the new system-wide
    /// resource setting.
    fn on_interval(
        &mut self,
        core: CoreId,
        observation: &CoreObservation,
        current: &SystemSetting,
    ) -> SystemSetting;

    /// Estimated software cost of one invocation, in executed instructions,
    /// for a system with `num_cores` cores. The default mirrors the paper's
    /// measured cost of the C implementation (about 10 K instructions per
    /// core minus reuse across shared steps).
    fn invocation_overhead_instructions(&self, num_cores: usize) -> u64 {
        8_000 + 8_000 * num_cores as u64
    }

    /// Called once before the first interval so the manager can initialize
    /// per-core state. The default does nothing.
    fn reset(&mut self, _num_cores: usize) {}

    /// Number of intervals (since the last [`ResourceManager::reset`]) where
    /// the manager had to keep a setting whose QoS target it could not
    /// certify — e.g. a manager without partitioning authority observing
    /// that a core's current way allocation is infeasible. The simulator
    /// surfaces this tally in its `SimulationResult` so the signal is not
    /// silently dropped. Defaults to 0 for managers that always certify.
    fn qos_at_risk_intervals(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::CoreSizeIdx;

    #[test]
    fn config_table_indexing_roundtrip() {
        let t = ConfigTable::from_fn(2, 3, 4, |s, f, w| ConfigMetrics {
            time_seconds: (s.index() * 100 + f.index() * 10 + w) as f64,
            energy_joules: 1.0,
            llc_misses: 0,
            leading_misses: 0,
        });
        assert_eq!(t.num_core_sizes(), 2);
        assert_eq!(t.num_freqs(), 3);
        assert_eq!(t.num_ways(), 4);
        for s in 0..2 {
            for f in 0..3 {
                for w in 1..=4 {
                    let m = t.get(CoreSizeIdx(s), FreqLevel(f), w);
                    assert_eq!(m.time_seconds, (s * 100 + f * 10 + w) as f64);
                }
            }
        }
    }

    struct Noop;
    impl ResourceManager for Noop {
        fn name(&self) -> &str {
            "noop"
        }
        fn on_interval(
            &mut self,
            _core: CoreId,
            _obs: &CoreObservation,
            current: &SystemSetting,
        ) -> SystemSetting {
            current.clone()
        }
    }

    #[test]
    fn default_overhead_scales_with_cores() {
        let m = Noop;
        assert!(m.invocation_overhead_instructions(8) > m.invocation_overhead_instructions(2));
    }
}
