//! Auxiliary Tag Directory (ATD) hardware model.
//!
//! The ATD (Qureshi & Patt, MICRO 2006) is a shadow tag directory that
//! emulates how the LLC would behave if the core owned the *entire* cache.
//! With per-way (UMON-LRU) hit counters it yields, at the end of every
//! interval, the number of misses the application would have had for every
//! possible way allocation. To keep the hardware cost negligible only a
//! sampled subset of the sets is shadowed (dynamic set sampling); the counts
//! are scaled by the sampling factor.

use crate::access::AccessTrace;
use crate::profile::StackDistanceProfiler;
use qosrm_types::{LlcGeometry, MissProfile};
use serde::{Deserialize, Serialize};

/// Configuration of the ATD hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AtdConfig {
    /// Dynamic set sampling factor: 1 out of `set_sampling` sets is shadowed.
    /// The paper-typical value is 32.
    pub set_sampling: usize,
    /// Bits per shadow tag entry (tag + valid + LRU state), used only for the
    /// hardware cost estimate.
    pub bits_per_entry: usize,
}

impl Default for AtdConfig {
    fn default() -> Self {
        AtdConfig {
            set_sampling: 32,
            bits_per_entry: 28,
        }
    }
}

impl AtdConfig {
    /// An ATD that shadows every set (no sampling error); useful in tests and
    /// for generating ground-truth profiles.
    pub fn exact() -> Self {
        AtdConfig {
            set_sampling: 1,
            bits_per_entry: 28,
        }
    }
}

/// Per-core Auxiliary Tag Directory.
///
/// The directory keeps its recency state across intervals, mirroring the real
/// hardware structure; [`Atd::observe_interval`] replays the accesses of one
/// interval and returns the miss profile of that interval, while
/// [`Atd::reset`] clears the whole directory (interval counters are reset
/// implicitly: `observe_interval` starts a fresh recording each call).
#[derive(Debug, Clone)]
pub struct Atd {
    config: AtdConfig,
    geometry: LlcGeometry,
    profiler: StackDistanceProfiler,
}

impl Atd {
    /// Creates an ATD for the given LLC geometry.
    pub fn new(geometry: LlcGeometry, config: AtdConfig) -> Self {
        let profiler = if config.set_sampling <= 1 {
            StackDistanceProfiler::new(&geometry)
        } else {
            StackDistanceProfiler::sampled(&geometry, config.set_sampling, 0)
        };
        Atd {
            config,
            geometry,
            profiler,
        }
    }

    /// The ATD configuration.
    pub fn config(&self) -> AtdConfig {
        self.config
    }

    /// Replays one interval worth of LLC accesses through the shadow
    /// directory and returns the miss profile (misses as a function of the
    /// way allocation, scaled to the full cache).
    pub fn observe_interval(&mut self, trace: &AccessTrace) -> MissProfile {
        self.profiler.replay(trace).miss_curve()
    }

    /// Warms the directory without recording an interval profile.
    pub fn warm_up(&mut self, trace: &AccessTrace) {
        self.profiler.warm_up(trace);
    }

    /// Clears the recency state (e.g. on a context switch).
    pub fn reset(&mut self) {
        self.profiler.reset();
    }

    /// Number of sets shadowed by the directory.
    pub fn shadowed_sets(&self) -> usize {
        if self.config.set_sampling <= 1 {
            self.geometry.num_sets
        } else {
            self.geometry.num_sets.div_ceil(self.config.set_sampling)
        }
    }

    /// Estimated hardware cost of the directory in bytes: shadow tags for the
    /// sampled sets plus one hit counter per way.
    pub fn hardware_cost_bytes(&self) -> usize {
        let tag_bits =
            self.shadowed_sets() * self.geometry.associativity * self.config.bits_per_entry;
        let counter_bits = self.geometry.associativity * 32;
        (tag_bits + counter_bits).div_ceil(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::Access;

    fn geometry() -> LlcGeometry {
        LlcGeometry {
            num_sets: 64,
            associativity: 16,
            line_bytes: 64,
        }
    }

    /// A trace touching `lines` distinct lines uniformly over all sets,
    /// repeated `repeats` times.
    fn uniform_loop(lines: u64, repeats: u64) -> AccessTrace {
        let mut accesses = Vec::new();
        let mut inst = 0;
        for _ in 0..repeats {
            for l in 0..lines {
                accesses.push(Access::new(l, inst));
                inst += 25;
            }
        }
        AccessTrace::new(accesses, inst.max(1))
    }

    #[test]
    fn exact_atd_reproduces_working_set_knee() {
        let geom = geometry();
        let mut atd = Atd::new(geom, AtdConfig::exact());
        // Working set of 8 lines per set (8 ways needed).
        let trace = uniform_loop(64 * 8, 5);
        let profile = atd.observe_interval(&trace);
        assert!(profile.validate().is_ok());
        // With >= 8 ways, only the cold misses of this interval remain.
        assert_eq!(profile.misses_at(8), 64 * 8);
        assert_eq!(profile.misses_at(16), 64 * 8);
        // With fewer ways the loop thrashes.
        assert!(profile.misses_at(4) > 4 * profile.misses_at(8));
    }

    #[test]
    fn sampled_atd_approximates_exact_profile() {
        let geom = geometry();
        let trace = uniform_loop(64 * 6, 4);
        let mut exact = Atd::new(geom, AtdConfig::exact());
        let mut sampled = Atd::new(
            geom,
            AtdConfig {
                set_sampling: 8,
                bits_per_entry: 28,
            },
        );
        let e = exact.observe_interval(&trace);
        let s = sampled.observe_interval(&trace);
        for w in [1usize, 4, 8, 16] {
            let exact_m = e.misses_at(w) as f64;
            let sampled_m = s.misses_at(w) as f64;
            if exact_m > 0.0 {
                let rel_err = (sampled_m - exact_m).abs() / exact_m;
                assert!(rel_err < 0.25, "w={w}: exact={exact_m} sampled={sampled_m}");
            }
        }
    }

    #[test]
    fn warm_up_carries_state_across_intervals() {
        let geom = geometry();
        let mut atd = Atd::new(geom, AtdConfig::exact());
        let trace = uniform_loop(64 * 4, 1);
        atd.warm_up(&trace);
        let profile = atd.observe_interval(&trace);
        // Everything fits in 4 ways and the directory is warm: no misses at 4+.
        assert_eq!(profile.misses_at(16), 0);
        assert_eq!(profile.misses_at(4), 0);
        atd.reset();
        let cold = atd.observe_interval(&trace);
        assert_eq!(cold.misses_at(16), 64 * 4);
    }

    #[test]
    fn hardware_cost_scales_with_sampling() {
        let geom = geometry();
        let exact = Atd::new(geom, AtdConfig::exact());
        let sampled = Atd::new(geom, AtdConfig::default());
        assert!(sampled.hardware_cost_bytes() < exact.hardware_cost_bytes());
        assert_eq!(sampled.shadowed_sets(), 2);
        assert_eq!(exact.shadowed_sets(), 64);
        // The default sampled ATD for this small LLC stays under 1 KiB.
        assert!(sampled.hardware_cost_bytes() < 1024);
    }
}
