//! MLP-aware Auxiliary Tag Directory extension (Paper II).
//!
//! The original ATD counts the *total* number of cache misses for every way
//! allocation. For DVFS and core-size decisions, however, what matters is the
//! memory stall time, which is governed by the *leading* (non-overlapped)
//! misses: a miss that is issued while another miss is already outstanding is
//! (partially) hidden and does not extend execution time. Paper II proposes a
//! small hardware extension (< 300 bytes per core) that uses a heuristic to
//! detect such overlapping misses for every combination of core size and way
//! allocation, enabling the resource manager to predict MLP when it changes
//! the core configuration.
//!
//! The counting itself is [`crate::ReplayProfile::leading_miss_matrix`]: one
//! branch-free kernel that runs the overlap-group state machine of every way
//! count of a core size together, from the compact records of one replay.
//! The characterization calls it on its one exact replay of each slice
//! ([`crate::SliceReplay`]); [`MlpAtd`] calls it on the replay of its own
//! shadow directory.

use crate::access::AccessTrace;
use crate::profile::StackDistanceProfiler;
use qosrm_types::{CoreSizeParams, LlcGeometry, MissProfile};
use serde::{Deserialize, Serialize};

/// Parameters that bound how aggressively misses can overlap on a given core
/// configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OverlapParams {
    /// Re-order-buffer window in instructions: two misses further apart than
    /// this cannot be in flight together.
    pub rob_entries: usize,
    /// Miss-status holding registers: at most this many misses can overlap in
    /// one group.
    pub mshrs: usize,
}

impl From<&CoreSizeParams> for OverlapParams {
    fn from(p: &CoreSizeParams) -> Self {
        OverlapParams {
            rob_entries: p.rob_entries,
            mshrs: p.mshrs,
        }
    }
}

/// Leading-miss counts for every (core size, way allocation) combination of
/// one interval.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LeadingMissMatrix {
    /// `leading[s][w-1]` = leading misses with core size `s` and `w` ways.
    pub leading: Vec<Vec<u64>>,
}

/// Configuration of the MLP-aware ATD extension.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MlpAtdConfig {
    /// Dynamic set sampling factor shared with the base ATD.
    pub set_sampling: usize,
    /// Overlap parameters of every core-size configuration, ordered small to
    /// large (one row of leading-miss counters is maintained per size).
    pub core_sizes: Vec<OverlapParams>,
}

/// Per-core MLP-aware ATD: tracks, for every core size and way allocation,
/// how many leading misses the application would have had.
#[derive(Debug, Clone)]
pub struct MlpAtd {
    config: MlpAtdConfig,
    geometry: LlcGeometry,
    profiler: StackDistanceProfiler,
}

impl MlpAtd {
    /// Creates the extension for the given LLC geometry.
    pub fn new(geometry: LlcGeometry, config: MlpAtdConfig) -> Self {
        let profiler = if config.set_sampling <= 1 {
            StackDistanceProfiler::new(&geometry)
        } else {
            StackDistanceProfiler::sampled(&geometry, config.set_sampling, 0)
        };
        MlpAtd {
            config,
            geometry,
            profiler,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &MlpAtdConfig {
        &self.config
    }

    /// Replays one interval and returns both the total-miss profile and the
    /// leading-miss matrix (all counts scaled to the full cache).
    pub fn observe_interval(&mut self, trace: &AccessTrace) -> (MissProfile, LeadingMissMatrix) {
        let profile = self.profiler.replay(trace);
        let matrix = profile.leading_miss_matrix(&self.config.core_sizes);
        (profile.miss_curve(), matrix)
    }

    /// Warms the shadow directory without recording.
    pub fn warm_up(&mut self, trace: &AccessTrace) {
        self.profiler.warm_up(trace);
    }

    /// Clears the recency state.
    pub fn reset(&mut self) {
        self.profiler.reset();
    }

    /// Estimated hardware cost in bytes of the *extension* (the leading-miss
    /// counters and the per-group state), excluding the base ATD it builds
    /// on. The paper reports less than 300 bytes per core.
    pub fn hardware_cost_bytes(&self) -> usize {
        // One 32-bit counter per (core size, way) plus a small amount of
        // per-size group-tracking state (last leading-miss index and an
        // outstanding-count register).
        let counters = self.config.core_sizes.len() * self.geometry.associativity * 32;
        let tracking = self.config.core_sizes.len() * (32 + 8);
        (counters + tracking).div_ceil(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::Access;
    use qosrm_types::{CoreSizeIdx, MlpProfile};

    fn geometry() -> LlcGeometry {
        LlcGeometry {
            num_sets: 64,
            associativity: 16,
            line_bytes: 64,
        }
    }

    fn sizes() -> Vec<OverlapParams> {
        vec![
            OverlapParams {
                rob_entries: 64,
                mshrs: 4,
            },
            OverlapParams {
                rob_entries: 128,
                mshrs: 8,
            },
            OverlapParams {
                rob_entries: 256,
                mshrs: 16,
            },
        ]
    }

    /// Bursty streaming trace: groups of `burst` distinct new lines issued
    /// close together, far apart from the next group.
    fn bursty_trace(groups: u64, burst: u64) -> AccessTrace {
        let mut accesses = Vec::new();
        let mut inst = 0u64;
        let mut line = 0u64;
        for _ in 0..groups {
            for i in 0..burst {
                accesses.push(Access::new(line, inst + i * 10));
                line += 1;
            }
            inst += 10_000;
        }
        AccessTrace::new(accesses, inst.max(1))
    }

    #[test]
    fn larger_cores_expose_more_mlp() {
        let config = MlpAtdConfig {
            set_sampling: 1,
            core_sizes: sizes(),
        };
        let mut atd = MlpAtd::new(geometry(), config);
        let (misses, matrix) = atd.observe_interval(&bursty_trace(50, 12));
        // Streaming: every access misses regardless of ways.
        assert_eq!(misses.misses_at(16), 600);
        let profile = MlpProfile::new(matrix.leading);
        let mlp_small = profile.mlp_at(CoreSizeIdx(0), 16, &misses);
        let mlp_medium = profile.mlp_at(CoreSizeIdx(1), 16, &misses);
        let mlp_large = profile.mlp_at(CoreSizeIdx(2), 16, &misses);
        assert!(mlp_small < mlp_medium && mlp_medium < mlp_large);
        assert!((mlp_small - 4.0).abs() < 0.5); // limited by 4 MSHRs
        assert!(mlp_large >= 10.0); // whole 12-miss burst overlaps on the large core
    }

    #[test]
    fn leading_never_exceeds_total() {
        let config = MlpAtdConfig {
            set_sampling: 1,
            core_sizes: sizes(),
        };
        let mut atd = MlpAtd::new(geometry(), config);
        let (misses, matrix) = atd.observe_interval(&bursty_trace(30, 5));
        let profile = MlpProfile::new(matrix.leading.clone());
        assert!(profile.validate(&misses).is_ok());
        for s in 0..3 {
            for w in 1..=16usize {
                assert!(matrix.leading[s][w - 1] <= misses.misses_at(w));
            }
        }
    }

    #[test]
    fn dependent_misses_have_unit_mlp() {
        // Misses spaced far apart (pointer chasing): MLP stays 1 on any core.
        let accesses: Vec<Access> = (0..200u64).map(|i| Access::new(i, i * 1_000)).collect();
        let trace = AccessTrace::new(accesses, 200_000);
        let config = MlpAtdConfig {
            set_sampling: 1,
            core_sizes: sizes(),
        };
        let mut atd = MlpAtd::new(geometry(), config);
        let (misses, matrix) = atd.observe_interval(&trace);
        let profile = MlpProfile::new(matrix.leading);
        for s in 0..3usize {
            let mlp = profile.mlp_at(CoreSizeIdx(s), 16, &misses);
            assert!((mlp - 1.0).abs() < 1e-9, "size {s} should have MLP 1");
        }
    }

    #[test]
    fn hardware_cost_is_small() {
        let config = MlpAtdConfig {
            set_sampling: 32,
            core_sizes: sizes(),
        };
        let atd = MlpAtd::new(LlcGeometry::default_4mib_16way(), config);
        // The paper budget: below 300 bytes per core.
        assert!(atd.hardware_cost_bytes() < 300);
    }
}
