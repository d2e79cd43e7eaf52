//! Ground-truth evaluation of any configuration point.
//!
//! Combines the interval timing model (`core-model`) and the energy model
//! (`power-model`) to answer the query the RMA simulator issues for every
//! interval: *how long does this phase take and how much energy does it use
//! at configuration `(core size, VF level, ways)`?* — the role played by the
//! Sniper + McPAT results database in the paper.

use crate::record::SimDb;
use core_model::{IntervalModel, IntervalOutcome, PhaseCharacterization};
use power_model::{EnergyBreakdown, EnergyModel, IntervalUsage};
use qosrm_types::{
    ConfigMetrics, ConfigTable, CoreSetting, CoreSizeIdx, FreqLevel, IntervalStats, PhaseId,
    PlatformConfig, QosrmError,
};

/// Ground-truth evaluator bound to a platform.
#[derive(Debug, Clone)]
pub struct GroundTruth {
    platform: PlatformConfig,
    interval_model: IntervalModel,
    energy_model: EnergyModel,
}

impl GroundTruth {
    /// Creates an evaluator with the default energy calibration.
    pub fn new(platform: &PlatformConfig) -> Self {
        GroundTruth {
            platform: platform.clone(),
            interval_model: IntervalModel::new(platform),
            energy_model: EnergyModel::default(),
        }
    }

    /// The platform.
    pub fn platform(&self) -> &PlatformConfig {
        &self.platform
    }

    /// The energy model.
    pub fn energy_model(&self) -> &EnergyModel {
        &self.energy_model
    }

    /// The interval timing model.
    pub fn interval_model(&self) -> &IntervalModel {
        &self.interval_model
    }

    /// Timing of one interval of `phase` at `(size, freq, ways)`.
    pub fn timing(
        &self,
        phase: &PhaseCharacterization,
        size: CoreSizeIdx,
        freq: FreqLevel,
        ways: usize,
    ) -> IntervalOutcome {
        self.interval_model
            .evaluate(phase, size, self.platform.vf.point(freq), ways)
    }

    /// Energy of one interval of `phase` at `(size, freq, ways)`, given its
    /// timing outcome.
    pub fn energy(
        &self,
        phase: &PhaseCharacterization,
        size: CoreSizeIdx,
        freq: FreqLevel,
        ways: usize,
        outcome: &IntervalOutcome,
    ) -> EnergyBreakdown {
        let core = self.platform.core_size(size);
        let usage = IntervalUsage {
            instructions: phase.instructions,
            time_seconds: outcome.time_seconds,
            voltage: self.platform.vf.point(freq).voltage,
            dynamic_epi_scale: core.dynamic_epi_scale,
            static_power_scale: core.static_power_scale,
            llc_accesses: phase.llc_accesses,
            llc_ways: ways,
            llc_misses: outcome.llc_misses,
            dram_background_share: 1.0 / self.platform.num_cores as f64,
        };
        self.energy_model.interval_energy(&usage)
    }

    /// Combined timing + energy metrics of one interval.
    pub fn metrics(
        &self,
        phase: &PhaseCharacterization,
        size: CoreSizeIdx,
        freq: FreqLevel,
        ways: usize,
    ) -> ConfigMetrics {
        let outcome = self.timing(phase, size, freq, ways);
        let energy = self.energy(phase, size, freq, ways, &outcome);
        ConfigMetrics {
            time_seconds: outcome.time_seconds,
            energy_joules: energy.total(),
            llc_misses: outcome.llc_misses,
            leading_misses: outcome.leading_misses,
        }
    }

    /// Metrics of one interval at a [`CoreSetting`].
    pub fn metrics_at(&self, phase: &PhaseCharacterization, setting: CoreSetting) -> ConfigMetrics {
        self.metrics(phase, setting.core_size, setting.freq, setting.ways)
    }

    /// The hardware performance-counter view of one interval at a setting
    /// (what the resource manager observes).
    pub fn interval_stats(
        &self,
        phase: &PhaseCharacterization,
        setting: CoreSetting,
    ) -> IntervalStats {
        self.interval_model.interval_stats(
            phase,
            setting.core_size,
            setting.freq,
            self.platform.vf.point(setting.freq),
            setting.ways,
        )
    }

    /// The full ground-truth configuration table of one phase (used by the
    /// perfect-model experiments).
    pub fn config_table(&self, phase: &PhaseCharacterization) -> ConfigTable {
        ConfigTable::from_fn(
            self.platform.num_core_sizes(),
            self.platform.vf.num_levels(),
            self.platform.llc.associativity,
            |size, freq, ways| self.metrics(phase, size, freq, ways),
        )
    }

    /// Convenience query against a database: metrics of `(benchmark, phase)`
    /// at `(size, freq, ways)`.
    pub fn query(
        &self,
        db: &SimDb,
        benchmark: &str,
        phase: PhaseId,
        size: CoreSizeIdx,
        freq: FreqLevel,
        ways: usize,
    ) -> Result<ConfigMetrics, QosrmError> {
        let record = db.require(benchmark)?;
        if phase.index() >= record.phases.len() {
            return Err(QosrmError::MissingRecord(format!(
                "{benchmark} has no phase {}",
                phase.index()
            )));
        }
        Ok(self.metrics(record.phase(phase), size, freq, ways))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase() -> PhaseCharacterization {
        PhaseCharacterization {
            instructions: 100_000_000,
            llc_accesses: 2_000_000,
            exec_cpi: vec![1.3, 1.0, 0.8],
            misses_per_way: (0..16).map(|w| 900_000 - 40_000 * w as u64).collect(),
            leading_misses: vec![
                (0..16)
                    .map(|w| ((900_000 - 40_000 * w as u64) as f64 * 0.9) as u64)
                    .collect(),
                (0..16)
                    .map(|w| ((900_000 - 40_000 * w as u64) as f64 * 0.6) as u64)
                    .collect(),
                (0..16)
                    .map(|w| ((900_000 - 40_000 * w as u64) as f64 * 0.4) as u64)
                    .collect(),
            ],
            atd_misses_per_way: (0..16).map(|w| 900_000 - 40_000 * w as u64).collect(),
        }
    }

    fn ground_truth() -> GroundTruth {
        GroundTruth::new(&PlatformConfig::paper2(4))
    }

    #[test]
    fn lower_frequency_saves_energy_but_costs_time() {
        let gt = ground_truth();
        let ph = phase();
        let slow = gt.metrics(&ph, CoreSizeIdx(1), FreqLevel(0), 4);
        let base = gt.metrics(&ph, CoreSizeIdx(1), gt.platform().baseline_freq(), 4);
        assert!(slow.time_seconds > base.time_seconds);
        assert!(slow.energy_joules < base.energy_joules);
    }

    #[test]
    fn more_cache_reduces_misses_and_dram_energy() {
        let gt = ground_truth();
        let ph = phase();
        let few = gt.metrics(&ph, CoreSizeIdx(1), gt.platform().baseline_freq(), 2);
        let many = gt.metrics(&ph, CoreSizeIdx(1), gt.platform().baseline_freq(), 12);
        assert!(many.llc_misses < few.llc_misses);
        assert!(many.time_seconds < few.time_seconds);
    }

    #[test]
    fn config_table_covers_whole_space() {
        let gt = ground_truth();
        let table = gt.config_table(&phase());
        assert_eq!(table.num_core_sizes(), 3);
        assert_eq!(table.num_freqs(), 13);
        assert_eq!(table.num_ways(), 16);
        // Spot-check consistency with direct evaluation.
        let direct = gt.metrics(&phase(), CoreSizeIdx(2), FreqLevel(5), 7);
        let from_table = table.get(CoreSizeIdx(2), FreqLevel(5), 7);
        assert!((direct.time_seconds - from_table.time_seconds).abs() < 1e-15);
        assert!((direct.energy_joules - from_table.energy_joules).abs() < 1e-15);
    }

    #[test]
    fn interval_stats_match_setting() {
        let gt = ground_truth();
        let setting = CoreSetting {
            core_size: CoreSizeIdx(2),
            freq: FreqLevel(3),
            ways: 6,
        };
        let stats = gt.interval_stats(&phase(), setting);
        assert_eq!(stats.ways, 6);
        assert_eq!(stats.core_size, CoreSizeIdx(2));
        assert_eq!(stats.freq, FreqLevel(3));
        assert!(stats.elapsed_seconds > 0.0);
    }

    #[test]
    fn query_reports_missing_records() {
        let gt = ground_truth();
        let db = SimDb::new(PlatformConfig::paper2(4), vec![]);
        let err = gt.query(&db, "nope", PhaseId(0), CoreSizeIdx(0), FreqLevel(0), 1);
        assert!(err.is_err());
    }
}
