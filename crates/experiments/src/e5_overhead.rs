//! E5 — Paper I RMA overhead.
//!
//! Paper claim: one invocation of the Combined RMA executes fewer than 40 K
//! instructions on a 4-core system, about 0.04 % of a 100 M-instruction
//! interval, so the algorithm itself is negligible.
//!
//! The reported cost is **measured**, not bounded: a short co-phase
//! simulation drives the manager (without a curve cache, so every invocation
//! builds its curve), and the instruction estimate is derived from the
//! builder's exact model-evaluation count and the global step's actually
//! updated convolution cells (`PruneStats::ops`). The dense
//! `ways × sizes × levels` and `associativity²`-per-reduction worst cases
//! are reported alongside as the paper-style bound.
//!
//! `measure`, which E9 shares, builds every core count's database first,
//! on the calling thread and in core-count order, and then fans the
//! cache-less runs, one per core count, out over the rayon pool.

use crate::context::ExperimentContext;
use crate::report::{ExperimentReport, ReportRow};
use qosrm_core::{CoordinatedRma, OverheadModel, RmaWorkCounters};
use qosrm_types::{PlatformConfig, QosSpec};
use rayon::prelude::*;
use rma_sim::{CophaseSimulator, SimulationOptions};
use simdb::SimDb;
use workload::WorkloadMix;

/// The fixed mix the overhead measurement drives the manager with: a
/// rotation of cache-sensitive, streaming and compute applications so the
/// local optimizer sees representative feasibility patterns.
fn measurement_mix(num_cores: usize) -> WorkloadMix {
    const POOL: [&str; 4] = ["mcf_like", "soplex_like", "libquantum_like", "gamess_like"];
    WorkloadMix::new(
        format!("overhead-{num_cores}c"),
        (0..num_cores).map(|i| POOL[i % POOL.len()]).collect(),
    )
}

/// Runs `manager` over the fixed measurement mix in `db` and returns its
/// cumulative measured work counters. No curve cache is attached, so every
/// invocation pays its full local-optimization cost — exactly what a
/// per-invocation overhead figure must charge.
fn measured_counters(
    db: &SimDb,
    mix: &WorkloadMix,
    mut manager: CoordinatedRma,
) -> RmaWorkCounters {
    let sim = CophaseSimulator::new(db, mix, SimulationOptions::default())
        .expect("measurement mix matches platform");
    sim.run(&mut manager)
        .expect("overhead measurement run must finish within the event budget");
    let counters = manager.work_counters();
    assert!(counters.invocations > 0, "measurement run invoked the RMA");
    counters
}

/// One platform's measured invocation overhead.
pub(crate) struct Measurement {
    /// The platform's core count.
    pub num_cores: usize,
    /// Measured instructions per invocation.
    pub instructions: u64,
    /// The dense worst-case instructions per invocation (the paper-style
    /// bound).
    pub bound: u64,
    /// Measured model evaluations per invocation.
    pub evals: u64,
    /// Measured reduction-cell updates per invocation.
    pub cells: u64,
    /// The measured cost's share of one interval.
    pub fraction: f64,
}

/// Measures the manager `build` makes (strict QoS on every core) on each
/// platform, returning the measurements in platform order. The measurement
/// databases are built first, on the calling thread and in platform order;
/// only the simulations fan out.
pub(crate) fn measure(
    ctx: &ExperimentContext,
    platforms: &[PlatformConfig],
    build: fn(&PlatformConfig, Vec<QosSpec>) -> CoordinatedRma,
) -> Vec<Measurement> {
    let units: Vec<(&PlatformConfig, WorkloadMix, SimDb)> = platforms
        .iter()
        .map(|platform| {
            let mix = measurement_mix(platform.num_cores);
            let db = ctx.database(platform, std::slice::from_ref(&mix));
            (platform, mix, db)
        })
        .collect();
    let overhead = OverheadModel::default();
    units
        .par_iter()
        .map(|(platform, mix, db)| {
            let num_cores = platform.num_cores;
            let manager = build(platform, vec![QosSpec::STRICT; num_cores]);
            let bound = overhead.invocation_instructions(
                num_cores,
                platform.llc.associativity,
                manager.evaluations_per_invocation(),
            );
            let (evals, cells) = per_invocation(measured_counters(db, mix, manager));
            Measurement {
                num_cores,
                instructions: overhead.invocation_instructions_measured(evals, cells),
                bound,
                evals,
                cells,
                fraction: overhead.fraction_of_interval_measured(platform, evals, cells),
            }
        })
        .collect()
}

/// Average measured work per invocation, rounded to whole operations.
fn per_invocation(counters: RmaWorkCounters) -> (u64, u64) {
    let inv = counters.invocations.max(1);
    (
        (counters.local_evaluations as f64 / inv as f64).round() as u64,
        (counters.reduction_ops as f64 / inv as f64).round() as u64,
    )
}

/// Runs the experiment.
pub fn run(ctx: &ExperimentContext) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "e5",
        "Paper I: software overhead of one Combined RMA invocation \
         (measured evaluation and reduction-cell counts; see the `kernels` cold \
         `CoordinatedRma::paper1` schedule of `bench_gate` for measured time)",
    );

    let platforms = [2, 4, 8].map(PlatformConfig::paper1);
    let mut four_core_measured = 0u64;
    for m in measure(ctx, &platforms, CoordinatedRma::paper1) {
        if m.num_cores == 4 {
            four_core_measured = m.instructions;
        }
        report.push_row(
            ReportRow::new(format!("{}-core", m.num_cores))
                .with(
                    "Instructions / invocation (measured)",
                    m.instructions as f64,
                )
                .with("Worst-case bound", m.bound as f64)
                .with("Model evaluations / invocation", m.evals as f64)
                .with("Reduction cells / invocation", m.cells as f64)
                .with("% of 100M interval", m.fraction * 100.0),
        );
    }

    report.push_summary(format!(
        "4-core Combined RMA: {four_core_measured} instructions per invocation, measured from \
         the curve builder's evaluation count and the pruned reduction's cell updates \
         (paper: < 40K, about 0.04% of an interval)"
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_is_below_paper_bound() {
        let ctx = ExperimentContext::new(true);
        let report = run(&ctx);
        let four_core = report.rows.iter().find(|r| r.label == "4-core").unwrap();
        let measured = four_core
            .get("Instructions / invocation (measured)")
            .unwrap();
        // The paper-bound assertion: one invocation stays under 40K
        // instructions.
        assert!(measured < 40_000.0);
        assert!(four_core.get("% of 100M interval").unwrap() < 0.1);
        // Truthful accounting: the measured cost never exceeds the dense
        // worst-case bound.
        for row in &report.rows {
            let measured = row.get("Instructions / invocation (measured)").unwrap();
            assert!(measured <= row.get("Worst-case bound").unwrap());
            assert!(measured > 0.0);
        }
        assert!(report.summary.iter().any(|s| s.contains("measured")));
    }
}
