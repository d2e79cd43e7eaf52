//! Reconfiguration overheads charged when the resource manager changes a
//! core's setting.
//!
//! Three kinds of overhead are modelled, matching the overhead analysis of
//! the paper:
//!
//! * **DVFS transitions** — voltage ramp and PLL relock stall the core for a
//!   few microseconds.
//! * **Core re-configuration** (Paper II) — activating or deactivating
//!   micro-architectural resources requires draining the pipeline.
//! * **LLC repartitioning** — a core that loses ways gradually loses the
//!   lines cached in them and pays extra misses to refill its new partition;
//!   a core that gains ways must fill them with cold misses.

use qosrm_types::setting::SettingDelta;
use qosrm_types::{LlcGeometry, MemoryParams};
use serde::{Deserialize, Serialize};

/// Latency constants of the transition model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TransitionCosts {
    /// Time the core is stalled by one DVFS transition, in seconds.
    pub dvfs_latency_s: f64,
    /// Time the core is stalled by one re-configuration, in seconds.
    pub reconfig_latency_s: f64,
    /// Fraction of the lines in a gained/lost way that actually need to be
    /// refetched (not all ways are fully live).
    pub refill_occupancy: f64,
}

impl Default for TransitionCosts {
    fn default() -> Self {
        TransitionCosts {
            dvfs_latency_s: 10e-6,
            reconfig_latency_s: 20e-6,
            refill_occupancy: 0.5,
        }
    }
}

/// Overhead charged to one core for one setting change.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TransitionOverhead {
    /// Extra execution time in seconds.
    pub time_seconds: f64,
    /// Extra off-chip accesses caused by refilling repartitioned ways.
    pub extra_misses: u64,
    /// Number of DVFS transitions performed.
    pub dvfs_transitions: u64,
    /// Number of core re-configurations performed.
    pub core_reconfigs: u64,
}

/// Computes transition overheads from setting deltas.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TransitionModel {
    costs: TransitionCosts,
    llc: LlcGeometry,
    memory: MemoryParams,
}

impl TransitionModel {
    /// Creates the model.
    pub fn new(costs: TransitionCosts, llc: LlcGeometry, memory: MemoryParams) -> Self {
        TransitionModel { costs, llc, memory }
    }

    /// The latency constants.
    pub fn costs(&self) -> &TransitionCosts {
        &self.costs
    }

    /// Overhead charged to one core for applying `delta`.
    ///
    /// Way gains/losses are charged as `|Δways| · num_sets · occupancy` extra
    /// misses plus the time to serve them (they trickle in over the next
    /// interval, largely overlapped, so only the unloaded latency of the
    /// *non-overlapped* fraction is charged as time).
    pub fn overhead(&self, delta: &SettingDelta) -> TransitionOverhead {
        let mut overhead = TransitionOverhead::default();
        if delta.freq_changed {
            overhead.dvfs_transitions = 1;
            overhead.time_seconds += self.costs.dvfs_latency_s;
        }
        if delta.core_size_changed {
            overhead.core_reconfigs = 1;
            overhead.time_seconds += self.costs.reconfig_latency_s;
        }
        if delta.ways_changed {
            let changed_ways = delta.ways_delta.unsigned_abs();
            let lines =
                (changed_ways as f64 * self.llc.num_sets as f64 * self.costs.refill_occupancy)
                    .round() as u64;
            overhead.extra_misses = lines;
            // Refills are heavily overlapped; charge 10 % of their raw latency.
            overhead.time_seconds += lines as f64 * self.memory.latency_ns * 1e-9 * 0.1;
        }
        overhead
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> TransitionModel {
        TransitionModel::new(
            TransitionCosts::default(),
            LlcGeometry::default_4mib_16way(),
            MemoryParams::default_ddr4(),
        )
    }

    fn delta(freq: bool, ways: isize, size: bool) -> SettingDelta {
        SettingDelta {
            freq_changed: freq,
            ways_changed: ways != 0,
            core_size_changed: size,
            ways_delta: ways,
        }
    }

    #[test]
    fn no_change_no_overhead() {
        let o = model().overhead(&delta(false, 0, false));
        assert_eq!(o, TransitionOverhead::default());
    }

    #[test]
    fn dvfs_and_reconfig_cost_time() {
        let o = model().overhead(&delta(true, 0, true));
        assert_eq!(o.dvfs_transitions, 1);
        assert_eq!(o.core_reconfigs, 1);
        assert!((o.time_seconds - 30e-6).abs() < 1e-12);
        assert_eq!(o.extra_misses, 0);
    }

    #[test]
    fn way_changes_cost_refills() {
        let gain2 = model().overhead(&delta(false, 2, false));
        let lose2 = model().overhead(&delta(false, -2, false));
        assert_eq!(gain2.extra_misses, lose2.extra_misses);
        assert_eq!(gain2.extra_misses, 4096); // 2 ways * 4096 sets * 0.5
        assert!(gain2.time_seconds > 0.0);

        let gain4 = model().overhead(&delta(false, 4, false));
        assert!(gain4.extra_misses > gain2.extra_misses);
    }

    #[test]
    fn overheads_are_small_relative_to_interval() {
        // The paper argues the reconfiguration overheads are negligible
        // compared to a 100 M instruction interval (tens of milliseconds).
        let o = model().overhead(&delta(true, 4, true));
        assert!(o.time_seconds < 1e-3);
    }
}
