//! Interval energy accounting.

use crate::params::EnergyParams;
use serde::{Deserialize, Serialize};

/// Activity and configuration of one core over one execution interval, as
/// needed to compute its energy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IntervalUsage {
    /// Instructions retired during the interval.
    pub instructions: u64,
    /// Duration of the interval in seconds.
    pub time_seconds: f64,
    /// Supply voltage of the core during the interval, in volts.
    pub voltage: f64,
    /// Relative dynamic energy per instruction of the core configuration
    /// (1.0 for the baseline/medium core).
    pub dynamic_epi_scale: f64,
    /// Relative static power of the core configuration (1.0 for medium).
    pub static_power_scale: f64,
    /// LLC accesses issued by the core.
    pub llc_accesses: u64,
    /// LLC ways allocated to the core (for the static LLC share).
    pub llc_ways: usize,
    /// Off-chip (DRAM) accesses caused by the core.
    pub llc_misses: u64,
    /// Fraction of the DRAM background power charged to this core
    /// (typically `1 / num_cores`).
    pub dram_background_share: f64,
}

/// Energy of one interval broken down by component, in joules.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct EnergyBreakdown {
    /// Core dynamic (switching) energy.
    pub core_dynamic: f64,
    /// Core static (leakage) energy.
    pub core_static: f64,
    /// LLC dynamic energy (lookups and fills).
    pub llc_dynamic: f64,
    /// Static energy of the LLC ways allocated to the core.
    pub llc_static: f64,
    /// DRAM access energy.
    pub dram_dynamic: f64,
    /// Share of the DRAM background energy.
    pub dram_background: f64,
    /// Transition energy (DVFS switches, core re-configuration, cache
    /// refills after repartitioning) charged to this interval.
    pub transition: f64,
}

impl EnergyBreakdown {
    /// Total energy of the interval.
    pub fn total(&self) -> f64 {
        self.core_dynamic
            + self.core_static
            + self.llc_dynamic
            + self.llc_static
            + self.dram_dynamic
            + self.dram_background
            + self.transition
    }

    /// Adds another breakdown component-wise (for accumulating over intervals
    /// or over cores).
    pub fn accumulate(&mut self, other: &EnergyBreakdown) {
        self.core_dynamic += other.core_dynamic;
        self.core_static += other.core_static;
        self.llc_dynamic += other.llc_dynamic;
        self.llc_static += other.llc_static;
        self.dram_dynamic += other.dram_dynamic;
        self.dram_background += other.dram_background;
        self.transition += other.transition;
    }

    /// Average energy per instruction given the instruction count.
    pub fn epi(&self, instructions: u64) -> f64 {
        self.total() / instructions.max(1) as f64
    }
}

/// The McPAT-substitute energy model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyModel {
    params: EnergyParams,
}

impl EnergyModel {
    /// Creates a model from calibration constants.
    pub fn new(params: EnergyParams) -> Self {
        EnergyModel { params }
    }

    /// The calibration constants.
    pub fn params(&self) -> &EnergyParams {
        &self.params
    }

    /// Voltage-scaling factor applied to dynamic energies: `(V / V_nom)²`.
    #[inline]
    pub fn dynamic_voltage_factor(&self, voltage: f64) -> f64 {
        let r = voltage / self.params.nominal_voltage;
        r * r
    }

    /// Voltage-scaling factor applied to static power. Leakage grows slightly
    /// super-linearly with voltage; a quadratic dependence is a common
    /// first-order approximation.
    #[inline]
    pub fn static_voltage_factor(&self, voltage: f64) -> f64 {
        let r = voltage / self.params.nominal_voltage;
        r * r
    }

    /// Energy of one interval with the given activity and configuration.
    pub fn interval_energy(&self, usage: &IntervalUsage) -> EnergyBreakdown {
        let p = &self.params;
        let dyn_v = self.dynamic_voltage_factor(usage.voltage);
        let stat_v = self.static_voltage_factor(usage.voltage);

        let core_dynamic =
            usage.instructions as f64 * p.core_epi_nominal * usage.dynamic_epi_scale * dyn_v;
        let core_static =
            p.core_static_power_nominal * usage.static_power_scale * stat_v * usage.time_seconds;
        let llc_dynamic = usage.llc_accesses as f64 * p.llc_access_energy;
        let llc_static = p.llc_static_power_per_way * usage.llc_ways as f64 * usage.time_seconds;
        let dram_dynamic = usage.llc_misses as f64 * p.dram_access_energy;
        let dram_background =
            p.dram_background_power * usage.dram_background_share * usage.time_seconds;

        EnergyBreakdown {
            core_dynamic,
            core_static,
            llc_dynamic,
            llc_static,
            dram_dynamic,
            dram_background,
            transition: 0.0,
        }
    }

    /// Energy of `n` DVFS transitions.
    pub fn dvfs_transition_energy(&self, transitions: u64) -> f64 {
        self.params.dvfs_transition_energy * transitions as f64
    }

    /// Energy of `n` core re-configurations.
    pub fn reconfig_transition_energy(&self, transitions: u64) -> f64 {
        self.params.reconfig_transition_energy * transitions as f64
    }

    /// Energy to refill `lines` cache lines after a repartitioning shrank a
    /// core's allocation (each refill is one extra DRAM access).
    pub fn repartition_refill_energy(&self, lines: u64) -> f64 {
        self.params.dram_access_energy * lines as f64
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel::new(EnergyParams::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn usage() -> IntervalUsage {
        IntervalUsage {
            instructions: 100_000_000,
            time_seconds: 0.07,
            voltage: 1.0,
            dynamic_epi_scale: 1.0,
            static_power_scale: 1.0,
            llc_accesses: 2_000_000,
            llc_ways: 4,
            llc_misses: 400_000,
            dram_background_share: 0.25,
        }
    }

    #[test]
    fn breakdown_sums_to_total() {
        let model = EnergyModel::default();
        let b = model.interval_energy(&usage());
        let manual = b.core_dynamic
            + b.core_static
            + b.llc_dynamic
            + b.llc_static
            + b.dram_dynamic
            + b.dram_background
            + b.transition;
        assert!((b.total() - manual).abs() < 1e-15);
        assert!(b.total() > 0.0);
        // Sanity of magnitude: tens of millijoules for a 100M-instruction interval.
        assert!(b.total() > 1e-3 && b.total() < 1.0);
    }

    #[test]
    fn voltage_scaling_is_quadratic() {
        let model = EnergyModel::default();
        let mut low = usage();
        low.voltage = 0.7;
        let mut high = usage();
        high.voltage = 1.2;
        let e_low = model.interval_energy(&low);
        let e_high = model.interval_energy(&high);
        let ratio = e_high.core_dynamic / e_low.core_dynamic;
        assert!((ratio - (1.2f64 / 0.7).powi(2)).abs() < 1e-9);
        // Memory-side energy does not depend on the core voltage.
        assert!((e_low.dram_dynamic - e_high.dram_dynamic).abs() < 1e-15);
    }

    #[test]
    fn smaller_core_uses_less_energy() {
        let model = EnergyModel::default();
        let mut small = usage();
        small.dynamic_epi_scale = 0.7;
        small.static_power_scale = 0.6;
        let e_small = model.interval_energy(&small);
        let e_medium = model.interval_energy(&usage());
        assert!(e_small.core_dynamic < e_medium.core_dynamic);
        assert!(e_small.core_static < e_medium.core_static);
    }

    #[test]
    fn fewer_misses_save_dram_energy() {
        let model = EnergyModel::default();
        let mut few = usage();
        few.llc_misses = 100_000;
        assert!(
            model.interval_energy(&few).dram_dynamic < model.interval_energy(&usage()).dram_dynamic
        );
    }

    #[test]
    fn accumulate_adds_componentwise() {
        let model = EnergyModel::default();
        let b = model.interval_energy(&usage());
        let mut acc = EnergyBreakdown::default();
        acc.accumulate(&b);
        acc.accumulate(&b);
        assert!((acc.total() - 2.0 * b.total()).abs() < 1e-12);
        assert!((acc.epi(200_000_000) - b.epi(100_000_000)).abs() < 1e-18);
    }

    #[test]
    fn transition_energies() {
        let model = EnergyModel::default();
        assert!(model.dvfs_transition_energy(2) > model.dvfs_transition_energy(1));
        assert!(model.reconfig_transition_energy(1) > 0.0);
        assert!(model.repartition_refill_energy(1000) > 0.0);
        assert_eq!(model.dvfs_transition_energy(0), 0.0);
    }

    #[test]
    fn longer_intervals_cost_more_static_energy() {
        let model = EnergyModel::default();
        let mut slow = usage();
        slow.time_seconds = 0.14;
        let e_slow = model.interval_energy(&slow);
        let e_fast = model.interval_energy(&usage());
        assert!(e_slow.core_static > e_fast.core_static);
        assert!((e_slow.core_static / e_fast.core_static - 2.0).abs() < 1e-9);
        assert!(e_slow.llc_static > e_fast.llc_static);
        assert!(e_slow.dram_background > e_fast.dram_background);
    }
}
