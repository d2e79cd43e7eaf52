//! Platform description: cores, core-size configurations, DVFS table, LLC and
//! memory parameters.
//!
//! A [`PlatformConfig`] fully describes the configuration space the resource
//! manager optimizes over. The default platform mirrors the evaluation setup
//! of the paper: 4 or 8 out-of-order cores with per-core DVFS (13 levels,
//! 0.8–3.2 GHz), a 16-way shared LLC partitioned at way granularity and a
//! memory controller that partitions bandwidth equally among the cores.

use crate::cache::LlcGeometry;
use crate::error::QosrmError;
use crate::freq::{FreqLevel, VfTable};
use crate::ids::CoreSizeIdx;
use serde::{Deserialize, Serialize};

/// Number of instructions in one execution interval between invocations of
/// the resource manager (100 M in the paper).
pub const DEFAULT_INTERVAL_INSTRUCTIONS: u64 = 100_000_000;

/// Largest `rob_entries` of a valid core size. The leading-miss kernel
/// keeps each overlap group's age (instructions since its leading miss) in
/// an `i16` lane that saturates at `i16::MAX`, which must lie past the ROB
/// window for the window test to stay exact.
pub const MAX_ROB_ENTRIES: usize = i16::MAX as usize - 1;

/// Largest `mshrs` of a valid core size: the leading-miss kernel keeps each
/// overlap group's size in an `i16` lane.
pub const MAX_MSHRS: usize = i16::MAX as usize;

/// Micro-architectural parameters of one core-size configuration.
///
/// Paper II considers a re-configurable core in which sections of the
/// micro-architecture (ROB segments, issue queue entries, MSHRs, functional
/// units) can be deactivated to save energy. We model each configuration with
/// the parameters that drive the analytical performance model: the width and
/// window that bound ILP, and the MSHR count that bounds MLP.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoreSizeParams {
    /// Human-readable name (`"small"`, `"medium"`, `"large"`).
    pub name: String,
    /// Maximum dispatch/issue width in instructions per cycle.
    pub issue_width: usize,
    /// Re-order buffer capacity in instructions; bounds the window over which
    /// independent long-latency misses can overlap.
    pub rob_entries: usize,
    /// Miss-status holding registers; bounds memory-level parallelism.
    pub mshrs: usize,
    /// Relative dynamic energy per instruction of this configuration compared
    /// to the medium (baseline) configuration at nominal voltage.
    pub dynamic_epi_scale: f64,
    /// Relative static (leakage) power of this configuration compared to the
    /// medium configuration.
    pub static_power_scale: f64,
}

impl CoreSizeParams {
    /// The three-point small / medium / large configuration set used in the
    /// evaluation. The medium configuration is the baseline.
    pub fn default_three_sizes() -> Vec<CoreSizeParams> {
        vec![
            CoreSizeParams {
                name: "small".to_string(),
                issue_width: 2,
                rob_entries: 48,
                mshrs: 3,
                dynamic_epi_scale: 0.88,
                static_power_scale: 0.75,
            },
            CoreSizeParams {
                name: "medium".to_string(),
                issue_width: 4,
                rob_entries: 128,
                mshrs: 6,
                dynamic_epi_scale: 1.0,
                static_power_scale: 1.0,
            },
            // The large configuration re-activates the gated halves of the
            // ROB, issue queue and MSHR file: the pipeline width is unchanged
            // (the gain is mostly memory-level parallelism), and the energy
            // cost of the extra storage structures is moderate.
            CoreSizeParams {
                name: "large".to_string(),
                issue_width: 4,
                rob_entries: 256,
                mshrs: 16,
                dynamic_epi_scale: 1.08,
                static_power_scale: 1.25,
            },
        ]
    }

    /// A single-configuration list (medium only), used for Paper I
    /// experiments where the core size is fixed.
    pub fn medium_only() -> Vec<CoreSizeParams> {
        vec![CoreSizeParams::default_three_sizes().swap_remove(1)]
    }
}

/// Main-memory parameters.
///
/// The paper assumes a memory controller that partitions the available
/// bandwidth equally among the cores (the simulation framework cannot model a
/// bandwidth partition shared by several cores), so the queueing term is
/// evaluated against a per-core bandwidth share.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemoryParams {
    /// Unloaded (idle) latency of one memory access, in nanoseconds.
    pub latency_ns: f64,
    /// Total DRAM bandwidth in GB/s.
    pub total_bandwidth_gbs: f64,
    /// Cache line size in bytes (for converting miss rates to bandwidth).
    pub line_bytes: usize,
}

impl MemoryParams {
    /// Default DDR4-like parameters.
    pub fn default_ddr4() -> Self {
        MemoryParams {
            latency_ns: 70.0,
            total_bandwidth_gbs: 25.6,
            line_bytes: 64,
        }
    }

    /// Bandwidth share of one core (equal partition), in GB/s.
    pub fn per_core_bandwidth_gbs(&self, num_cores: usize) -> f64 {
        self.total_bandwidth_gbs / num_cores.max(1) as f64
    }
}

/// Full description of the simulated multi-core platform and its configuration
/// space.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlatformConfig {
    /// Number of cores (= number of applications in the workload).
    pub num_cores: usize,
    /// Shared LLC geometry.
    pub llc: LlcGeometry,
    /// Per-core DVFS table.
    pub vf: VfTable,
    /// Available core-size configurations, ordered small to large.
    pub core_sizes: Vec<CoreSizeParams>,
    /// Index of the baseline core size within `core_sizes`.
    pub baseline_core_size: CoreSizeIdx,
    /// Main-memory parameters.
    pub memory: MemoryParams,
    /// Instructions per execution interval between RMA invocations.
    pub interval_instructions: u64,
}

impl PlatformConfig {
    /// The Paper I evaluation platform: `num_cores` medium cores with
    /// per-core DVFS and a 16-way shared LLC (core size is not
    /// re-configurable).
    pub fn paper1(num_cores: usize) -> Self {
        PlatformConfig {
            num_cores,
            llc: LlcGeometry::default_4mib_16way(),
            vf: VfTable::default_13_levels(),
            core_sizes: CoreSizeParams::medium_only(),
            baseline_core_size: CoreSizeIdx(0),
            memory: MemoryParams::default_ddr4(),
            interval_instructions: DEFAULT_INTERVAL_INSTRUCTIONS,
        }
    }

    /// The Paper II evaluation platform: `num_cores` re-configurable cores
    /// (small / medium / large) with per-core DVFS and a 16-way shared LLC.
    pub fn paper2(num_cores: usize) -> Self {
        PlatformConfig {
            num_cores,
            llc: LlcGeometry::default_4mib_16way(),
            vf: VfTable::default_13_levels(),
            core_sizes: CoreSizeParams::default_three_sizes(),
            baseline_core_size: CoreSizeIdx(1),
            memory: MemoryParams::default_ddr4(),
            interval_instructions: DEFAULT_INTERVAL_INSTRUCTIONS,
        }
    }

    /// A small platform for fast unit tests (fewer sets, shorter intervals).
    pub fn small_for_tests(num_cores: usize) -> Self {
        let mut p = PlatformConfig::paper2(num_cores);
        p.llc = LlcGeometry::small_for_tests();
        p.interval_instructions = 1_000_000;
        p
    }

    /// Parameters of the core size `idx`.
    pub fn core_size(&self, idx: CoreSizeIdx) -> &CoreSizeParams {
        &self.core_sizes[idx.index()]
    }

    /// Number of available core-size configurations.
    pub fn num_core_sizes(&self) -> usize {
        self.core_sizes.len()
    }

    /// Iterator over the available core-size indices.
    pub fn core_size_indices(&self) -> impl Iterator<Item = CoreSizeIdx> {
        (0..self.core_sizes.len()).map(CoreSizeIdx)
    }

    /// Baseline number of LLC ways per core (equal partition).
    pub fn baseline_ways_per_core(&self) -> usize {
        self.llc.associativity / self.num_cores
    }

    /// Baseline VF level.
    pub fn baseline_freq(&self) -> FreqLevel {
        self.vf.baseline()
    }

    /// Validates internal consistency of the platform description.
    pub fn validate(&self) -> Result<(), QosrmError> {
        if self.num_cores == 0 {
            return Err(QosrmError::InvalidPlatform("num_cores must be > 0".into()));
        }
        self.llc.validate()?;
        if !self.llc.associativity.is_multiple_of(self.num_cores) {
            return Err(QosrmError::InvalidPlatform(format!(
                "LLC associativity {} is not divisible by {} cores (baseline equal partition impossible)",
                self.llc.associativity, self.num_cores
            )));
        }
        if self.core_sizes.is_empty() {
            return Err(QosrmError::InvalidPlatform(
                "at least one core size configuration is required".into(),
            ));
        }
        if self.baseline_core_size.index() >= self.core_sizes.len() {
            return Err(QosrmError::InvalidPlatform(
                "baseline core size index out of range".into(),
            ));
        }
        for (i, cs) in self.core_sizes.iter().enumerate() {
            if cs.issue_width == 0 || cs.rob_entries == 0 || cs.mshrs == 0 {
                return Err(QosrmError::InvalidPlatform(format!(
                    "core size {i} has zero-sized resources"
                )));
            }
            if cs.rob_entries > MAX_ROB_ENTRIES || cs.mshrs > MAX_MSHRS {
                return Err(QosrmError::InvalidPlatform(format!(
                    "core size {i} has {} ROB entries and {} MSHRs; the leading-miss model \
                     supports at most {MAX_ROB_ENTRIES} and {MAX_MSHRS}",
                    cs.rob_entries, cs.mshrs
                )));
            }
            if cs.dynamic_epi_scale <= 0.0 || cs.static_power_scale <= 0.0 {
                return Err(QosrmError::InvalidPlatform(format!(
                    "core size {i} has non-positive energy scales"
                )));
            }
        }
        for pair in self.core_sizes.windows(2) {
            if pair[1].rob_entries < pair[0].rob_entries || pair[1].mshrs < pair[0].mshrs {
                return Err(QosrmError::InvalidPlatform(
                    "core sizes must be ordered from small to large".into(),
                ));
            }
        }
        if self.memory.latency_ns <= 0.0 || self.memory.total_bandwidth_gbs <= 0.0 {
            return Err(QosrmError::InvalidPlatform(
                "memory parameters must be positive".into(),
            ));
        }
        if self.interval_instructions == 0 {
            return Err(QosrmError::InvalidPlatform(
                "interval_instructions must be > 0".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_platforms_are_valid() {
        assert!(PlatformConfig::paper1(4).validate().is_ok());
        assert!(PlatformConfig::paper1(8).validate().is_ok());
        assert!(PlatformConfig::paper2(4).validate().is_ok());
        assert!(PlatformConfig::paper2(8).validate().is_ok());
        assert!(PlatformConfig::small_for_tests(2).validate().is_ok());
    }

    #[test]
    fn paper1_has_single_core_size() {
        let p = PlatformConfig::paper1(4);
        assert_eq!(p.num_core_sizes(), 1);
        assert_eq!(p.core_size(p.baseline_core_size).name, "medium");
        assert_eq!(p.baseline_ways_per_core(), 4);
    }

    #[test]
    fn paper2_has_three_core_sizes() {
        let p = PlatformConfig::paper2(8);
        assert_eq!(p.num_core_sizes(), 3);
        assert_eq!(p.core_size(p.baseline_core_size).name, "medium");
        assert_eq!(p.baseline_ways_per_core(), 2);
    }

    #[test]
    fn validation_rejects_inconsistencies() {
        let mut p = PlatformConfig::paper1(4);
        p.num_cores = 0;
        assert!(p.validate().is_err());

        let mut p = PlatformConfig::paper1(4);
        p.num_cores = 5; // 16 ways not divisible by 5
        assert!(p.validate().is_err());

        let mut p = PlatformConfig::paper2(4);
        p.baseline_core_size = CoreSizeIdx(9);
        assert!(p.validate().is_err());

        let mut p = PlatformConfig::paper2(4);
        p.core_sizes.reverse(); // large before small
        assert!(p.validate().is_err());

        let mut p = PlatformConfig::paper1(4);
        p.interval_instructions = 0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn validation_bounds_the_overlap_resources() {
        let with = |rob_entries, mshrs| {
            let mut p = PlatformConfig::paper1(4);
            p.core_sizes[0].rob_entries = rob_entries;
            p.core_sizes[0].mshrs = mshrs;
            p.validate()
        };
        assert!(with(MAX_ROB_ENTRIES, MAX_MSHRS).is_ok());
        for (rob_entries, mshrs) in [(MAX_ROB_ENTRIES + 1, 6), (128, MAX_MSHRS + 1)] {
            let error = with(rob_entries, mshrs).unwrap_err();
            assert!(matches!(error, QosrmError::InvalidPlatform(_)), "{error}");
        }
    }

    #[test]
    fn memory_bandwidth_share() {
        let m = MemoryParams::default_ddr4();
        assert!((m.per_core_bandwidth_gbs(4) - 6.4).abs() < 1e-9);
        assert!((m.per_core_bandwidth_gbs(0) - 25.6).abs() < 1e-9);
    }

    #[test]
    fn core_size_ordering() {
        let sizes = CoreSizeParams::default_three_sizes();
        assert!(sizes[0].mshrs < sizes[1].mshrs && sizes[1].mshrs < sizes[2].mshrs);
        assert!(sizes[0].dynamic_epi_scale < 1.0 && sizes[2].dynamic_epi_scale > 1.0);
    }
}
