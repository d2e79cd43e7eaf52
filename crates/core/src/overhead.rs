//! Software-overhead accounting of the resource management algorithm.
//!
//! The paper reports the cost of one RMA invocation of its C implementation
//! as executed instructions: below 40 K for a 4-core system (Paper I) and
//! 18 K / 40 K / 67 K for 2 / 4 / 8 cores with the richer Paper II algorithm
//! — in both cases well under 0.1 % of a 100 M-instruction interval. This
//! module provides the equivalent estimate for our implementation by counting
//! the dominant operations (model evaluations in the local step, cell updates
//! in the pairwise reduction) and multiplying by a per-operation instruction
//! cost; `bench_gate` measures the actual wall-clock cost.

use qosrm_types::PlatformConfig;
use serde::{Deserialize, Serialize};

/// Instruction-cost model of one RMA invocation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OverheadModel {
    /// Instructions per analytical model evaluation (one candidate
    /// configuration: a handful of multiplies, a divide and comparisons).
    pub instructions_per_evaluation: u64,
    /// Instructions per cell update of the min-plus convolution.
    pub instructions_per_reduction_cell: u64,
    /// Fixed cost of collecting counters and applying the setting.
    pub fixed_instructions: u64,
}

impl Default for OverheadModel {
    fn default() -> Self {
        OverheadModel {
            instructions_per_evaluation: 25,
            instructions_per_reduction_cell: 12,
            fixed_instructions: 2_000,
        }
    }
}

impl OverheadModel {
    /// Estimated instructions of one invocation on `num_cores` cores sharing
    /// an `associativity`-way LLC when the local step evaluates
    /// `local_evaluations` candidate configurations.
    ///
    /// The global step combines one curve per core over `associativity` ways:
    /// `(cores - 1)` pairwise reductions of at most `associativity²` cells.
    pub fn invocation_instructions(
        &self,
        num_cores: usize,
        associativity: usize,
        local_evaluations: usize,
    ) -> u64 {
        let ways = associativity as u64;
        let reductions = num_cores.saturating_sub(1) as u64;
        self.fixed_instructions
            + self.instructions_per_evaluation * local_evaluations as u64
            + self.instructions_per_reduction_cell * reductions * ways * ways
    }

    /// The invocation cost on `platform` as a fraction of an execution
    /// interval.
    pub fn fraction_of_interval(&self, platform: &PlatformConfig, local_evaluations: usize) -> f64 {
        self.invocation_instructions(
            platform.num_cores,
            platform.llc.associativity,
            local_evaluations,
        ) as f64
            / platform.interval_instructions as f64
    }

    /// Estimated instructions of one invocation from *measured* work
    /// counters: the builder's exact model-evaluation count and the global
    /// step's actually-updated convolution cells
    /// (`qosrm_core::PruneStats::ops`), instead of the dense
    /// `associativity²`-per-reduction worst case that
    /// [`OverheadModel::invocation_instructions`] charges.
    pub fn invocation_instructions_measured(
        &self,
        local_evaluations: u64,
        reduction_cells: u64,
    ) -> u64 {
        self.fixed_instructions
            + self.instructions_per_evaluation * local_evaluations
            + self.instructions_per_reduction_cell * reduction_cells
    }

    /// The measured invocation cost as a fraction of an execution interval.
    pub fn fraction_of_interval_measured(
        &self,
        platform: &PlatformConfig,
        local_evaluations: u64,
        reduction_cells: u64,
    ) -> f64 {
        self.invocation_instructions_measured(local_evaluations, reduction_cells) as f64
            / platform.interval_instructions as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_scales_with_core_count() {
        let model = OverheadModel::default();
        let evals = 16 * 3 * 13 + 1;
        let two = model.invocation_instructions(2, 16, evals);
        let four = model.invocation_instructions(4, 16, evals);
        let eight = model.invocation_instructions(8, 16, evals);
        assert!(two < four && four < eight);
        // Same order of magnitude as the paper's 18K/40K/67K measurements.
        assert!(two > 5_000 && two < 40_000, "two-core estimate {two}");
        assert!(four > 15_000 && four < 80_000, "four-core estimate {four}");
        assert!(
            eight > 25_000 && eight < 140_000,
            "eight-core estimate {eight}"
        );
    }

    #[test]
    fn overhead_is_negligible_fraction_of_interval() {
        let model = OverheadModel::default();
        let platform = PlatformConfig::paper2(8);
        let evals = 16 * 3 * 13 + 1;
        assert!(model.fraction_of_interval(&platform, evals) < 0.001);
    }

    #[test]
    fn measured_cost_is_bounded_by_worst_case() {
        let model = OverheadModel::default();
        let p = PlatformConfig::paper2(4);
        let worst_evals = 16 * 3 * 13 + 1;
        let worst = model.invocation_instructions(p.num_cores, p.llc.associativity, worst_evals);
        // Measured counters can only be smaller: fewer evaluations (QoS
        // pruning) and fewer cells (lower-bound pruning).
        let measured = model.invocation_instructions_measured(300, 500);
        assert!(measured < worst);
        assert!(
            model.fraction_of_interval_measured(&p, 300, 500)
                < model.fraction_of_interval(&p, worst_evals)
        );
    }

    #[test]
    fn paper1_configuration_is_cheaper() {
        let model = OverheadModel::default();
        let paper1_evals = 16 * 13 + 1;
        let paper2_evals = 16 * 3 * 13 + 1;
        let p = PlatformConfig::paper2(4);
        assert!(
            model.invocation_instructions(p.num_cores, p.llc.associativity, paper1_evals)
                < model.invocation_instructions(p.num_cores, p.llc.associativity, paper2_evals)
        );
    }
}
