//! Per-interval hardware statistics observed by the resource manager.
//!
//! These types model what the paper's hardware support exposes to the RMA
//! software at the end of every execution interval:
//!
//! * ordinary performance counters ([`IntervalStats`]),
//! * the Auxiliary Tag Directory miss profile ([`MissProfile`], Paper I), and
//! * the MLP-aware ATD extension ([`MlpProfile`], Paper II) together with the
//!   ILP-scaling monitor ([`CoreScalingProfile`]).

use crate::error::QosrmError;
use crate::freq::FreqLevel;
use crate::ids::CoreSizeIdx;
use serde::{Deserialize, Serialize};

/// Hardware performance-counter statistics of one finished execution interval
/// on one core.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IntervalStats {
    /// Instructions retired during the interval (equal to the platform
    /// interval length except in truncated final intervals).
    pub instructions: u64,
    /// Total core cycles spent in the interval.
    pub cycles: u64,
    /// Core cycles not stalled on LLC misses (the "execution" component of
    /// the interval CPI stack).
    pub exec_cycles: u64,
    /// Accesses to the shared LLC.
    pub llc_accesses: u64,
    /// LLC misses (off-chip memory accesses).
    pub llc_misses: u64,
    /// Leading (non-overlapped) LLC misses: misses that started while no other
    /// miss was outstanding. `llc_misses / leading_misses` is the measured
    /// average MLP of the interval.
    pub leading_misses: u64,
    /// Wall-clock duration of the interval in seconds.
    pub elapsed_seconds: f64,
    /// VF level the core ran at during the interval.
    pub freq: FreqLevel,
    /// Core-size configuration during the interval.
    pub core_size: CoreSizeIdx,
    /// LLC ways allocated to the core during the interval.
    pub ways: usize,
}

impl IntervalStats {
    /// Average cycles per instruction over the interval.
    pub fn cpi(&self) -> f64 {
        self.cycles as f64 / self.instructions.max(1) as f64
    }

    /// Average non-stall (execution) cycles per instruction.
    pub fn exec_cpi(&self) -> f64 {
        self.exec_cycles as f64 / self.instructions.max(1) as f64
    }

    /// Misses per kilo-instruction at the interval's cache allocation.
    pub fn mpki(&self) -> f64 {
        self.llc_misses as f64 / (self.instructions.max(1) as f64 / 1000.0)
    }

    /// LLC accesses per kilo-instruction.
    pub fn apki(&self) -> f64 {
        self.llc_accesses as f64 / (self.instructions.max(1) as f64 / 1000.0)
    }

    /// Measured average memory-level parallelism: misses per leading miss.
    /// Returns 1.0 when there were no misses.
    pub fn measured_mlp(&self) -> f64 {
        if self.llc_misses == 0 || self.leading_misses == 0 {
            1.0
        } else {
            (self.llc_misses as f64 / self.leading_misses as f64).max(1.0)
        }
    }

    /// Average instructions per second achieved in the interval.
    pub fn ips(&self) -> f64 {
        self.instructions as f64 / self.elapsed_seconds.max(f64::MIN_POSITIVE)
    }

    /// Average time per instruction (the metric used by the co-phase
    /// simulator to find the next global event).
    pub fn tpi(&self) -> f64 {
        self.elapsed_seconds / self.instructions.max(1) as f64
    }
}

/// Cache-miss profile produced by the Auxiliary Tag Directory: the number of
/// LLC misses the core *would have had* during the past interval for every
/// possible way allocation `w = 1..=associativity`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MissProfile {
    misses: Vec<u64>,
}

impl MissProfile {
    /// Creates a profile from `misses[w-1]` = misses with `w` ways.
    pub fn new(misses: Vec<u64>) -> Self {
        MissProfile { misses }
    }

    /// Maximum way count covered by the profile (the LLC associativity).
    pub fn max_ways(&self) -> usize {
        self.misses.len()
    }

    /// Misses with `ways` allocated ways. `ways` must be in
    /// `1..=max_ways()`.
    pub fn misses_at(&self, ways: usize) -> u64 {
        self.misses[ways - 1]
    }

    /// Misses per kilo-instruction with `ways` allocated ways.
    pub fn mpki_at(&self, ways: usize, instructions: u64) -> f64 {
        self.misses_at(ways) as f64 / (instructions.max(1) as f64 / 1000.0)
    }

    /// The underlying per-way miss counts.
    pub fn as_slice(&self) -> &[u64] {
        &self.misses
    }

    /// Validates that the profile is non-empty and non-increasing in the way
    /// count (adding ways can never add misses under LRU — the stack
    /// property).
    pub fn validate(&self) -> Result<(), QosrmError> {
        if self.misses.is_empty() {
            return Err(QosrmError::InvalidSetting("empty miss profile".into()));
        }
        for pair in self.misses.windows(2) {
            if pair[1] > pair[0] {
                return Err(QosrmError::InvalidSetting(
                    "miss profile must be non-increasing in ways".into(),
                ));
            }
        }
        Ok(())
    }

    /// Variation of MPKI across the profile relative to the value at
    /// `baseline_ways`, used by the paper to classify applications as cache
    /// sensitive or insensitive.
    pub fn sensitivity_around(&self, baseline_ways: usize, instructions: u64) -> f64 {
        let base = self.mpki_at(baseline_ways, instructions).max(1e-9);
        let lo = self.mpki_at(1, instructions);
        let hi = self.mpki_at(self.max_ways(), instructions);
        (lo - hi).abs() / base
    }
}

/// MLP-aware miss profile produced by the Paper II ATD extension: for each
/// core-size configuration and each way allocation, the number of *leading*
/// (non-overlapped) misses during the past interval.
///
/// Leading misses determine the memory stall time: misses that overlap with a
/// leading miss are hidden behind it and do not lengthen execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MlpProfile {
    /// `leading[s][w-1]` = leading misses with core size `s` and `w` ways.
    leading: Vec<Vec<u64>>,
}

impl MlpProfile {
    /// Creates a profile from `leading[s][w-1]`.
    pub fn new(leading: Vec<Vec<u64>>) -> Self {
        MlpProfile { leading }
    }

    /// Number of core sizes covered.
    pub fn num_core_sizes(&self) -> usize {
        self.leading.len()
    }

    /// Maximum way count covered.
    pub fn max_ways(&self) -> usize {
        self.leading.first().map(|v| v.len()).unwrap_or(0)
    }

    /// The underlying rows: `as_rows()[s][w - 1]` = leading misses with
    /// core size `s` and `w` ways.
    pub fn as_rows(&self) -> &[Vec<u64>] {
        &self.leading
    }

    /// Leading misses with core size `size` and `ways` ways.
    pub fn leading_at(&self, size: CoreSizeIdx, ways: usize) -> u64 {
        self.leading[size.index()][ways - 1]
    }

    /// Estimated MLP with core size `size` and `ways` ways, given the total
    /// miss profile.
    pub fn mlp_at(&self, size: CoreSizeIdx, ways: usize, misses: &MissProfile) -> f64 {
        let total = misses.misses_at(ways);
        let leading = self.leading_at(size, ways);
        if total == 0 || leading == 0 {
            1.0
        } else {
            (total as f64 / leading as f64).max(1.0)
        }
    }

    /// Validates consistency with a miss profile: leading misses can never
    /// exceed total misses and must be non-increasing in the way count.
    pub fn validate(&self, misses: &MissProfile) -> Result<(), QosrmError> {
        if self.leading.is_empty() {
            return Err(QosrmError::InvalidSetting("empty MLP profile".into()));
        }
        for per_size in &self.leading {
            if per_size.len() != misses.max_ways() {
                return Err(QosrmError::InvalidSetting(
                    "MLP profile way range differs from miss profile".into(),
                ));
            }
            for (w, &leading) in per_size.iter().enumerate() {
                if leading > misses.misses_at(w + 1) {
                    return Err(QosrmError::InvalidSetting(format!(
                        "leading misses exceed total misses at {} ways",
                        w + 1
                    )));
                }
            }
        }
        Ok(())
    }

    /// Variation in MLP when moving between the smallest and the largest core
    /// size at the given way allocation; used by Paper II to classify
    /// applications as parallelism sensitive or insensitive.
    pub fn parallelism_sensitivity(&self, ways: usize, misses: &MissProfile) -> f64 {
        if self.leading.len() < 2 {
            return 0.0;
        }
        let small = self.mlp_at(CoreSizeIdx(0), ways, misses);
        let large = self.mlp_at(CoreSizeIdx(self.leading.len() - 1), ways, misses);
        if small <= 0.0 {
            0.0
        } else {
            (large - small) / small
        }
    }
}

/// Estimate of the non-stall (execution) CPI of the running application for
/// every available core-size configuration, produced by the ILP monitor that
/// accompanies the Paper II re-configurable core.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoreScalingProfile {
    exec_cpi: Vec<f64>,
}

impl CoreScalingProfile {
    /// Creates a profile from `exec_cpi[s]` = execution CPI with core size `s`.
    pub fn new(exec_cpi: Vec<f64>) -> Self {
        CoreScalingProfile { exec_cpi }
    }

    /// Execution CPI estimate for core size `size`.
    pub fn exec_cpi(&self, size: CoreSizeIdx) -> f64 {
        self.exec_cpi[size.index()]
    }

    /// Number of core sizes covered.
    pub fn num_core_sizes(&self) -> usize {
        self.exec_cpi.len()
    }

    /// The underlying estimates.
    pub fn as_slice(&self) -> &[f64] {
        &self.exec_cpi
    }

    /// Validates that CPI estimates are positive and non-increasing with core
    /// size (a bigger core can never have a larger execution CPI in our
    /// model).
    pub fn validate(&self) -> Result<(), QosrmError> {
        if self.exec_cpi.is_empty() {
            return Err(QosrmError::InvalidSetting("empty scaling profile".into()));
        }
        if self.exec_cpi.iter().any(|&c| c <= 0.0 || !c.is_finite()) {
            return Err(QosrmError::InvalidSetting(
                "execution CPI estimates must be positive and finite".into(),
            ));
        }
        for pair in self.exec_cpi.windows(2) {
            if pair[1] > pair[0] * (1.0 + 1e-9) {
                return Err(QosrmError::InvalidSetting(
                    "execution CPI must be non-increasing with core size".into(),
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> IntervalStats {
        IntervalStats {
            instructions: 100_000_000,
            cycles: 150_000_000,
            exec_cycles: 100_000_000,
            llc_accesses: 2_000_000,
            llc_misses: 500_000,
            leading_misses: 250_000,
            elapsed_seconds: 0.075,
            freq: FreqLevel(6),
            core_size: CoreSizeIdx(1),
            ways: 4,
        }
    }

    #[test]
    fn derived_metrics() {
        let s = stats();
        assert!((s.cpi() - 1.5).abs() < 1e-12);
        assert!((s.exec_cpi() - 1.0).abs() < 1e-12);
        assert!((s.mpki() - 5.0).abs() < 1e-12);
        assert!((s.apki() - 20.0).abs() < 1e-12);
        assert!((s.measured_mlp() - 2.0).abs() < 1e-12);
        assert!((s.ips() - 100_000_000.0 / 0.075).abs() < 1.0);
        assert!((s.tpi() - 0.075 / 1e8).abs() < 1e-15);
    }

    #[test]
    fn mlp_defaults_to_one_without_misses() {
        let mut s = stats();
        s.llc_misses = 0;
        s.leading_misses = 0;
        assert!((s.measured_mlp() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn miss_profile_accessors_and_validation() {
        let p = MissProfile::new(vec![1000, 800, 600, 500]);
        assert_eq!(p.max_ways(), 4);
        assert_eq!(p.misses_at(1), 1000);
        assert_eq!(p.misses_at(4), 500);
        assert!((p.mpki_at(2, 1_000_000) - 0.8).abs() < 1e-12);
        assert!(p.validate().is_ok());

        let bad = MissProfile::new(vec![100, 200]);
        assert!(bad.validate().is_err());
        let empty = MissProfile::new(vec![]);
        assert!(empty.validate().is_err());
    }

    #[test]
    fn miss_profile_sensitivity() {
        let sensitive = MissProfile::new(vec![10_000, 6_000, 3_000, 500]);
        let insensitive = MissProfile::new(vec![1_000, 1_000, 1_000, 1_000]);
        let n = 1_000_000u64;
        assert!(sensitive.sensitivity_around(2, n) > insensitive.sensitivity_around(2, n));
        assert!(insensitive.sensitivity_around(2, n) < 1e-9);
    }

    #[test]
    fn mlp_profile_consistency() {
        let misses = MissProfile::new(vec![1000, 800, 600, 500]);
        let mlp = MlpProfile::new(vec![
            vec![900, 750, 580, 490], // small core: little overlap
            vec![500, 400, 300, 250], // large core: MLP 2
        ]);
        assert!(mlp.validate(&misses).is_ok());
        assert!((mlp.mlp_at(CoreSizeIdx(1), 1, &misses) - 2.0).abs() < 1e-12);
        assert!(mlp.mlp_at(CoreSizeIdx(0), 1, &misses) < 1.2);
        assert!(mlp.parallelism_sensitivity(1, &misses) > 0.5);

        let bad = MlpProfile::new(vec![vec![2000, 800, 600, 500]]);
        assert!(bad.validate(&misses).is_err());
        let wrong_len = MlpProfile::new(vec![vec![100, 80]]);
        assert!(wrong_len.validate(&misses).is_err());
    }

    #[test]
    fn scaling_profile_validation() {
        let ok = CoreScalingProfile::new(vec![1.2, 0.9, 0.7]);
        assert!(ok.validate().is_ok());
        assert!((ok.exec_cpi(CoreSizeIdx(0)) - 1.2).abs() < 1e-12);
        assert_eq!(ok.num_core_sizes(), 3);

        let bad = CoreScalingProfile::new(vec![0.7, 0.9]);
        assert!(bad.validate().is_err());
        let nonpos = CoreScalingProfile::new(vec![0.0]);
        assert!(nonpos.validate().is_err());
    }
}
