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
    /// Estimated instructions of one invocation on `platform` when the local
    /// step evaluates `local_evaluations` candidate configurations.
    ///
    /// The global step combines one curve per core over `associativity` ways:
    /// `(cores - 1)` pairwise reductions of at most `associativity²` cells.
    pub fn invocation_instructions(
        &self,
        platform: &PlatformConfig,
        local_evaluations: usize,
    ) -> u64 {
        let ways = platform.llc.associativity as u64;
        let reductions = platform.num_cores.saturating_sub(1) as u64;
        self.fixed_instructions
            + self.instructions_per_evaluation * local_evaluations as u64
            + self.instructions_per_reduction_cell * reductions * ways * ways
    }

    /// The invocation cost as a fraction of an execution interval.
    pub fn fraction_of_interval(&self, platform: &PlatformConfig, local_evaluations: usize) -> f64 {
        self.invocation_instructions(platform, local_evaluations) as f64
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

    /// Estimated *average* instructions of one invocation on the
    /// incremental delta path, from a manager's cumulative measured
    /// counters (`qosrm_core::RmaWorkCounters`): the model evaluations and
    /// convolution cells already reflect the work the digest diff and the
    /// warm-row arena skipped, so the only addition is one digest
    /// derivation per invocation — charged at one instruction per digested
    /// byte-equivalent unit via `digest_units` (the observation's field
    /// count, a few dozen). Returns 0 for a manager that was never invoked.
    pub fn delta_invocation_instructions_measured(
        &self,
        invocations: u64,
        local_evaluations: u64,
        reduction_cells: u64,
        digest_units: u64,
    ) -> u64 {
        if invocations == 0 {
            return 0;
        }
        let total = invocations * (self.fixed_instructions + digest_units)
            + self.instructions_per_evaluation * local_evaluations
            + self.instructions_per_reduction_cell * reduction_cells;
        total.div_ceil(invocations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_scales_with_core_count() {
        let model = OverheadModel::default();
        let evals = 16 * 3 * 13 + 1;
        let two = model.invocation_instructions(&PlatformConfig::paper2(2), evals);
        let four = model.invocation_instructions(&PlatformConfig::paper2(4), evals);
        let eight = model.invocation_instructions(&PlatformConfig::paper2(8), evals);
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
        let worst = model.invocation_instructions(&p, worst_evals);
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
    fn delta_path_average_reflects_skipped_work() {
        let model = OverheadModel::default();
        // Ten invocations, but the delta path only built two curves and
        // recombined a fraction of the reduction cells: the per-invocation
        // average must undercut the cold measured cost of a full build.
        let cold = model.invocation_instructions_measured(300, 500);
        let delta = model.delta_invocation_instructions_measured(10, 2 * 300, 2 * 500, 64);
        assert!(delta < cold, "delta average {delta} vs cold {cold}");
        // The digest derivation is charged on every invocation.
        assert!(delta > model.delta_invocation_instructions_measured(10, 2 * 300, 2 * 500, 0));
        assert_eq!(model.delta_invocation_instructions_measured(0, 0, 0, 64), 0);
    }

    #[test]
    fn paper1_configuration_is_cheaper() {
        let model = OverheadModel::default();
        let paper1_evals = 16 * 13 + 1;
        let paper2_evals = 16 * 3 * 13 + 1;
        let p = PlatformConfig::paper2(4);
        assert!(
            model.invocation_instructions(&p, paper1_evals)
                < model.invocation_instructions(&p, paper2_evals)
        );
    }
}
