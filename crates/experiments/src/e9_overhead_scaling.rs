//! E9 — Paper II RM3 overhead scaling with the core count.
//!
//! Paper claim: one RM3 invocation executes roughly 18 K / 40 K / 67 K
//! instructions on 2- / 4- / 8-core systems, below 0.1 % of a
//! 100 M-instruction interval in every case.
//!
//! Like E5, the reported cost is measured: the curve builder's exact
//! evaluation count and the pruned global reduction's cell updates from a
//! short cache-less co-phase run, with the dense worst-case bound shown for
//! comparison.

use crate::context::ExperimentContext;
use crate::e5_overhead::{measured_counters, per_invocation};
use crate::report::{ExperimentReport, ReportRow};
use qosrm_core::{CoordinatedRma, OverheadModel};
use qosrm_types::{PlatformConfig, QosSpec};

/// Paper-reported instruction counts per core count.
pub const PAPER_REPORTED: &[(usize, u64)] = &[(2, 18_000), (4, 40_000), (8, 67_000)];

/// Runs the experiment.
pub fn run(ctx: &ExperimentContext) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "e9",
        "Paper II: RM3 software overhead versus core count \
         (measured evaluation and reduction-cell counts; see the `local_opt` and \
         `global_opt` workloads of `bench_gate` for measured time)",
    );

    let overhead = OverheadModel::default();
    for &(num_cores, paper_value) in PAPER_REPORTED {
        let platform = PlatformConfig::paper2(num_cores);
        let manager = CoordinatedRma::paper2(&platform, vec![QosSpec::STRICT; num_cores]);
        let bound = overhead.invocation_instructions(
            num_cores,
            platform.llc.associativity,
            manager.evaluations_per_invocation(),
        );
        let (evals, cells) = per_invocation(measured_counters(ctx, &platform, manager));
        let instructions = overhead.invocation_instructions_measured(evals, cells);
        let fraction = overhead.fraction_of_interval_measured(&platform, evals, cells);
        report.push_row(
            ReportRow::new(format!("{num_cores}-core"))
                .with("Instructions / invocation (measured)", instructions as f64)
                .with("Worst-case bound", bound as f64)
                .with("Paper reported", paper_value as f64)
                .with("% of 100M interval", fraction * 100.0),
        );
    }

    report.push_summary(
        "Measured overhead grows with the core count (the global reduction performs more \
         pairwise combines) and stays below 0.1% of an interval, matching the paper's \
         18K / 40K / 67K scale; QoS pruning and lower-bound pruning keep the measured \
         cost below the dense worst-case bound."
            .to_string(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_scales_and_stays_negligible() {
        let ctx = ExperimentContext::new(true);
        let report = run(&ctx);
        assert_eq!(report.rows.len(), 3);
        let values: Vec<f64> = report
            .rows
            .iter()
            .map(|r| r.get("Instructions / invocation (measured)").unwrap())
            .collect();
        assert!(values[0] < values[1] && values[1] < values[2]);
        for row in &report.rows {
            assert!(row.get("% of 100M interval").unwrap() < 0.1);
            // Paper-bound sanity: measured cost stays below the dense bound.
            let measured = row.get("Instructions / invocation (measured)").unwrap();
            assert!(measured <= row.get("Worst-case bound").unwrap());
        }
    }
}
