//! E2 — Paper I modeling-error study: perfect vs. analytical models and the
//! resulting QoS violations.
//!
//! Paper claim: with perfect (oracle) models the Combined RMA saves 8 % of
//! system energy on average, close to the 6 % achieved with the analytical
//! models. With analytical models, 13 of the 80 applications in the 4-core
//! workloads violate their QoS constraint (average violation 3 %, maximum
//! 9 %); for the 8-core workloads 15 of 80 violate (average 3 %, maximum 7 %).
//!
//! Per platform, the database is built first on the calling thread; then
//! the mixes fan out over the rayon pool, each simulating its baseline once
//! and both managers against it, and the rows are assembled in mix order.
//! No database is built inside the fan-out (see the crate docs).

use crate::context::{max, mean, ExperimentContext};
use crate::report::{ExperimentReport, ReportRow};
use qosrm_core::{CoordinatedRma, ModelKind};
use qosrm_types::{PlatformConfig, QosSpec};
use rayon::prelude::*;
use rma_sim::{CophaseSimulator, SimulationOptions};
use workload::paper1_workloads;

/// Runs the experiment.
pub fn run(ctx: &ExperimentContext) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "e2",
        "Paper I: effect of modeling error — Combined RMA with analytical (Model 2) vs. \
         perfect models, and the QoS violations caused by modeling error",
    );

    for &num_cores in &[4usize, 8] {
        let platform = PlatformConfig::paper1(num_cores);
        let mixes = ctx.limit_workloads(paper1_workloads(num_cores));
        let db = ctx.database(&platform, &mixes);
        let qos = vec![QosSpec::STRICT; num_cores];

        let analytic_options = SimulationOptions {
            provide_mlp_profiles: false,
            ..Default::default()
        };
        let perfect_options = SimulationOptions {
            provide_mlp_profiles: false,
            provide_perfect_tables: true,
            ..Default::default()
        };

        let mut analytic_savings = Vec::new();
        let mut perfect_savings = Vec::new();
        let mut violation_magnitudes = Vec::new();
        let mut total_apps = 0usize;

        let runs: Vec<_> = mixes
            .par_iter()
            .map(|mix| {
                let simulator = |options: &SimulationOptions| {
                    CophaseSimulator::new(&db, mix, options.clone())
                        .expect("workload matches database platform")
                };
                let analytic_sim = simulator(&analytic_options);
                // `BaselineManager` ignores observations, so the perfect tables
                // cannot change the baseline: one baseline serves both option
                // sets.
                let baseline = analytic_sim
                    .run_baseline()
                    .expect("baseline run must finish within the event budget");
                let mut analytic =
                    CoordinatedRma::paper1(&platform, qos.clone()).with_incremental();
                let (analytic_cmp, _) = analytic_sim
                    .run_comparison(&mut analytic, &baseline, &qos)
                    .unwrap_or_else(|e| panic!("managed run failed: {e}"));

                let mut perfect =
                    CoordinatedRma::with_model(&platform, qos.clone(), ModelKind::Perfect, false)
                        .with_name("CombinedRMA-Perfect")
                        .with_incremental();
                let (perfect_cmp, _) = simulator(&perfect_options)
                    .run_comparison(&mut perfect, &baseline, &qos)
                    .unwrap_or_else(|e| panic!("managed run failed: {e}"));
                (analytic_cmp, perfect_cmp)
            })
            .collect();

        for (mix, (analytic_cmp, perfect_cmp)) in mixes.iter().zip(runs) {
            analytic_savings.push(analytic_cmp.energy_savings);
            perfect_savings.push(perfect_cmp.energy_savings);
            total_apps += num_cores;
            for v in &analytic_cmp.violations {
                violation_magnitudes.push(v.magnitude());
            }

            report.push_row(
                ReportRow::new(format!("{} ({}c)", mix.name, num_cores))
                    .with("Analytical savings %", analytic_cmp.energy_savings * 100.0)
                    .with("Perfect savings %", perfect_cmp.energy_savings * 100.0)
                    .with("Violations", analytic_cmp.num_violations() as f64)
                    .with("Max violation %", analytic_cmp.max_violation() * 100.0),
            );
        }

        report.push_summary(format!(
            "{num_cores}-core: analytical avg {:.1}% vs perfect avg {:.1}% savings \
             (paper: 6% vs 8%); {} of {} applications violate QoS \
             (paper: {}/80), avg violation {:.1}% / max {:.1}% (paper: 3% / {}%)",
            mean(&analytic_savings) * 100.0,
            mean(&perfect_savings) * 100.0,
            violation_magnitudes.len(),
            total_apps,
            if num_cores == 4 { 13 } else { 15 },
            mean(&violation_magnitudes) * 100.0,
            max(&violation_magnitudes) * 100.0,
            if num_cores == 4 { 9 } else { 7 },
        ));
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_reports_both_model_variants() {
        let ctx = ExperimentContext::new(true);
        let report = run(&ctx);
        assert!(!report.rows.is_empty());
        for row in &report.rows {
            assert!(row.get("Analytical savings %").is_some());
            assert!(row.get("Perfect savings %").is_some());
        }
        assert_eq!(report.summary.len(), 2);
    }
}
