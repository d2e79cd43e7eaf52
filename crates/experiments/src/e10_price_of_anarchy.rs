//! E10 — price of anarchy of game-theoretic LLC allocation (beyond the
//! paper).
//!
//! The paper's RM2 is cooperative: one arbiter minimizes *total* energy over
//! joint (ways, VF) allocations. The ZERO-Regrets / integer-programming-games
//! line of work models the same setting with selfish tenants choosing integer
//! strategies over the shared cache. E10 quantifies the cost of selfishness
//! on the reproduced platform: it sweeps the Paper I 4-core scenario grid
//! under three managers sharing bit-identical energy curves —
//!
//! * `RM2` — the cooperative optimum ([`RmaVariant::Paper1`]);
//! * `NashBR` — iterated best response ([`RmaVariant::NashBestResponse`]),
//!   where the first responder hoards the free way pool; its fixed point is
//!   a local minimum of the total energy under unilateral moves;
//! * `NashEq` — minimum-total-energy pure Nash equilibrium
//!   ([`RmaVariant::NashEquilibrium`]): total energy is the game's exact
//!   potential, so this is its global minimum, the slack-allowed social
//!   optimum —
//!
//! and reports each game variant's **price of anarchy**: the ratio of its
//! managed energy to the cooperative optimum's,
//! `PoA = (1 − savings_game) / (1 − savings_RM2)`, where `savings` is the
//! simulator's energy saving against the unmanaged baseline. `PoA = 1`
//! means selfishness cost nothing; values above 1 measure the anarchy gap.
//! QoS is tracked alongside as full-run violation counts (all variants
//! honor the same per-core QoS constraints in their curves, so violations
//! stay comparable).
//!
//! The grid is 4-core because it is Paper I's 4-core workload grid, not
//! because of solver cost: NashEq reads the cooperative arena and runs at
//! any core count (see [`qosrm_core::game`]), and the committed
//! `examples/specs/nash_8core.json` runs all three managers on 8 cores.

use crate::context::{mean, ExperimentContext};
use crate::report::{ExperimentReport, ReportRow};
use crate::spec::{PlatformAxisSpec, PlatformSpec, ScenarioSpec, WorkloadSource};
use crate::sweep::{self, QosAxis, RmaVariant};
use qosrm_types::QosSpec;
use rma_sim::SimulationOptions;

/// The declarative spec of the experiment's sweep. Its quick-mode form is
/// committed at `examples/specs/e10_quick.json` and exercised by the CI
/// sweep-smoke kill/resume/merge cycle.
pub fn spec(ctx: &ExperimentContext) -> ScenarioSpec {
    ScenarioSpec {
        name: "e10-price-of-anarchy".to_string(),
        platforms: vec![PlatformAxisSpec {
            label: "paper1-4c".to_string(),
            platform: PlatformSpec::Paper1 { num_cores: 4 },
            workloads: WorkloadSource::Paper1(ctx.quick_mix_selection()),
        }],
        qos: vec![QosAxis::uniform("strict", QosSpec::STRICT)],
        variants: vec![
            RmaVariant::Paper1,
            RmaVariant::NashBestResponse,
            RmaVariant::NashEquilibrium,
        ],
        // Paper I platform: no core re-configuration, no MLP-ATD hardware.
        options: Some(SimulationOptions {
            provide_mlp_profiles: false,
            ..Default::default()
        }),
    }
}

/// Price of anarchy of a game variant against the cooperative manager:
/// the ratio of managed-energy fractions (`1 − savings`) relative to the
/// shared unmanaged baseline.
fn price_of_anarchy(game_savings: f64, coop_savings: f64) -> f64 {
    (1.0 - game_savings) / (1.0 - coop_savings)
}

/// Runs the experiment.
pub fn run(ctx: &ExperimentContext) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "e10",
        "Beyond the paper: price of anarchy of selfish LLC allocation — iterated best \
         response (NashBR) and best pure Nash equilibrium (NashEq) vs. the cooperative \
         RM2 (Paper I 4-core workloads, strict QoS)",
    );

    let grid = spec(ctx).lower().expect("the E10 spec lowers");
    let result = sweep::run(&grid, ctx);

    for axis in &grid.platforms {
        let mut br_poa = Vec::new();
        let mut eq_poa = Vec::new();
        let mut coop_violations = 0usize;
        let mut br_violations = 0usize;
        let mut eq_violations = 0usize;

        for mix in &axis.mixes {
            let coop = result.expect_comparison(&axis.label, &mix.name, "strict", "RM2");
            let br = result.expect_comparison(&axis.label, &mix.name, "strict", "NashBR");
            let eq = result.expect_comparison(&axis.label, &mix.name, "strict", "NashEq");

            let poa_br = price_of_anarchy(br.energy_savings, coop.energy_savings);
            let poa_eq = price_of_anarchy(eq.energy_savings, coop.energy_savings);
            br_poa.push(poa_br);
            eq_poa.push(poa_eq);
            coop_violations += coop.num_violations();
            br_violations += br.num_violations();
            eq_violations += eq.num_violations();

            report.push_row(
                ReportRow::new(mix.name.clone())
                    .with("RM2 savings %", coop.energy_savings * 100.0)
                    .with("NashBR savings %", br.energy_savings * 100.0)
                    .with("NashEq savings %", eq.energy_savings * 100.0)
                    .with("NashBR PoA", poa_br)
                    .with("NashEq PoA", poa_eq)
                    .with("NashBR QoS violations", br.num_violations() as f64),
            );
        }

        report.push_summary(format!(
            "{}: NashBR PoA avg {:.3} (anarchy gap {:+.1}% energy), NashEq PoA avg {:.3}; \
             QoS violations RM2 {} / NashBR {} / NashEq {}",
            axis.label,
            mean(&br_poa),
            (mean(&br_poa) - 1.0) * 100.0,
            mean(&eq_poa),
            coop_violations,
            br_violations,
            eq_violations,
        ));
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    #[test]
    fn quick_run_reports_poa_at_least_one_up_to_noise() {
        let ctx = ExperimentContext::new(true);
        let report = run(&ctx);
        assert!(!report.rows.is_empty());
        assert_eq!(report.summary.len(), 1);
        // Selfishness cannot beat the cooperative optimum by more than
        // simulation noise: PoA ≥ 1 − ε on every mix.
        for row in &report.rows {
            for col in ["NashBR PoA", "NashEq PoA"] {
                let poa = row.get(col).expect("PoA column present");
                assert!(poa >= 0.98, "{col} of {} is {poa:.4} < 1 - ε", row.label);
            }
        }
        // The selected equilibrium tracks the cooperative optimum much more
        // closely than unconstrained best response on average.
        let br: Vec<f64> = report
            .rows
            .iter()
            .filter_map(|r| r.get("NashBR PoA"))
            .collect();
        let eq: Vec<f64> = report
            .rows
            .iter()
            .filter_map(|r| r.get("NashEq PoA"))
            .collect();
        assert!(mean(&eq) <= mean(&br) + 1e-9);
        let rendered = report.render();
        assert!(rendered.contains("NashBR PoA"));
        assert!(rendered.contains("NashEq PoA"));
    }

    #[test]
    fn report_renders_byte_identically_across_runs() {
        // The golden-lock contract E1–E8 follow: two cold contexts must
        // produce byte-identical rendered reports.
        let first = run(&ExperimentContext::new(true)).render();
        let second = run(&ExperimentContext::new(true)).render();
        assert_eq!(first, second);
    }

    #[test]
    fn committed_quick_spec_is_in_sync() {
        let expected = spec(&ExperimentContext::new(true));
        let path =
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/specs/e10_quick.json");
        if std::env::var("QOSRM_UPDATE_SPECS").is_ok() {
            expected.save(&path).expect("spec saves");
        }
        let committed = ScenarioSpec::load(&path).expect("committed E10 quick spec loads");
        assert_eq!(
            committed, expected,
            "examples/specs/e10_quick.json is stale; rerun this test with \
             QOSRM_UPDATE_SPECS=1 to refresh it"
        );
    }
}
