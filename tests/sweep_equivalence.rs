//! Execution-mode equivalence of the scenario-sweep engine.
//!
//! The sweep options (`parallel`, `memoize`) are pure execution switches:
//! serial, parallel and parallel+memoized runs of the same grid must produce
//! bit-identical result tables, and the experiments built on the engine must
//! render byte-identical reports in every mode.

use experiments::sweep::{self, PlatformAxis, QosAxis, RmaVariant, ScenarioGrid, SweepOptions};
use experiments::{run_experiment, ExperimentContext};
use qosrm_types::{PlatformConfig, QosSpec};
use rma_sim::SimulationOptions;
use workload::paper1_workloads;

fn grid(ctx: &ExperimentContext) -> ScenarioGrid {
    ScenarioGrid {
        platforms: vec![PlatformAxis::new(
            "paper1-4c",
            PlatformConfig::paper1(4),
            ctx.limit_workloads(paper1_workloads(4))
                .into_iter()
                .take(2)
                .collect(),
        )],
        qos: vec![
            QosAxis::uniform("strict", QosSpec::STRICT),
            QosAxis::uniform("relaxed 40%", QosSpec::relaxed_by(0.4)),
        ],
        variants: vec![
            RmaVariant::Paper1,
            RmaVariant::PartitioningOnly,
            RmaVariant::NashBestResponse,
            RmaVariant::NashEquilibrium,
        ],
        options: SimulationOptions {
            provide_mlp_profiles: false,
            ..Default::default()
        },
    }
}

#[test]
fn serial_parallel_and_memoized_sweeps_are_bit_identical() {
    // Separate contexts so each mode starts from a cold curve cache.
    let serial_ctx = ExperimentContext::new(true).with_sweep_options(SweepOptions::serial());
    let parallel_ctx = ExperimentContext::new(true).with_sweep_options(SweepOptions {
        parallel: true,
        memoize: false,
        incremental: false,
    });
    let memoized_ctx = ExperimentContext::new(true).with_sweep_options(SweepOptions {
        parallel: true,
        memoize: true,
        incremental: false,
    });
    let incremental_ctx = ExperimentContext::new(true).with_sweep_options(SweepOptions {
        parallel: true,
        memoize: true,
        incremental: true,
    });

    let serial = sweep::run(&grid(&serial_ctx), &serial_ctx);
    let parallel = sweep::run(&grid(&parallel_ctx), &parallel_ctx);
    let memoized = sweep::run(&grid(&memoized_ctx), &memoized_ctx);
    let incremental = sweep::run(&grid(&incremental_ctx), &incremental_ctx);

    assert_eq!(serial, parallel, "parallel execution changed sweep results");
    assert_eq!(serial, memoized, "curve memoization changed sweep results");
    assert_eq!(
        serial, incremental,
        "the incremental delta path changed sweep results"
    );

    // The incremental run actually took the delta path, and skipped work.
    // Both contexts share a curve cache, so a key's *first* occurrence is
    // built either way (an observation can only recur after its first
    // sighting):
    // builds stay equal, and the savings show up as skipped cache lookups
    // and skipped convolution work instead.
    let cold = memoized_ctx.rma_telemetry().snapshot();
    let delta = incremental_ctx.rma_telemetry().snapshot();
    assert_eq!(cold.invocations, delta.invocations);
    assert_eq!(cold.delta_invocations, 0);
    assert!(delta.delta_invocations > 0, "delta path never taken");
    assert!(delta.warm_rows_reused > 0, "warm arena never reused a row");
    assert_eq!(delta.curve_builds, cold.curve_builds);
    let cold_lookups = memoized_ctx.curve_cache().hits() + memoized_ctx.curve_cache().misses();
    let delta_lookups =
        incremental_ctx.curve_cache().hits() + incremental_ctx.curve_cache().misses();
    assert!(
        delta_lookups < cold_lookups,
        "the delta path must short-circuit cache lookups ({delta_lookups} vs {cold_lookups})"
    );
    assert!(
        delta.reduction_ops < cold.reduction_ops,
        "reused warm rows must cut convolution work ({} vs {})",
        delta.reduction_ops,
        cold.reduction_ops
    );

    // The memoized run actually exercised the cache.
    assert_eq!(
        serial_ctx.curve_cache().hits() + serial_ctx.curve_cache().misses(),
        0
    );
    assert!(memoized_ctx.curve_cache().hits() > 0, "cache never hit");
    assert!(
        memoized_ctx.curve_cache().misses() > 0,
        "cache never filled"
    );
}

#[test]
fn experiment_reports_render_identically_in_every_mode() {
    let serial_ctx = ExperimentContext::new(true).with_sweep_options(SweepOptions::serial());
    let default_ctx = ExperimentContext::new(true);
    // e3 exercises the perfect-table digest branch of the curve-cache key;
    // e10 the game-theoretic manager variants.
    for id in ["e1", "e3", "e7", "e10"] {
        let serial = run_experiment(id, &serial_ctx).unwrap().render();
        let fast = run_experiment(id, &default_ctx).unwrap().render();
        assert_eq!(serial, fast, "{id} rendered differently across sweep modes");
    }
}

#[test]
fn memoization_pays_off_within_one_sweep() {
    let ctx = ExperimentContext::new(true);
    let result = sweep::run(&grid(&ctx), &ctx);
    assert_eq!(result.scenarios.len(), 16);
    let cache = ctx.curve_cache();
    let total = cache.hits() + cache.misses();
    assert!(
        cache.hit_rate() > 0.2,
        "expected recurring observations across scenarios, hit rate {:.3} of {total}",
        cache.hit_rate()
    );
}
