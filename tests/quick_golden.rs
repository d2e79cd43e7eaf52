//! Golden locks of the paper suite: E1–E10 rendered on a cold context must
//! equal, byte for byte, the committed stdout of `qosrm_experiments --quick`
//! (`tests/golden/quick_suite.txt`) and of `qosrm_experiments` in full mode
//! (`tests/golden/full_suite.txt`).
//!
//! Every optimization of the pipeline (database build, simulator, RMA
//! kernels) runs under this contract. Regenerate the goldens only for a
//! deliberate, justified output change:
//!
//! ```sh
//! QOSRM_UPDATE_GOLDEN=1 cargo test --test quick_golden
//! ```

use experiments::{run_experiment, ExperimentContext, ALL_EXPERIMENTS};
use std::path::PathBuf;

/// The stdout of `qosrm_experiments [--quick]`, rendered in-process.
fn render_suite(ctx: &ExperimentContext, mode: &str) -> String {
    let mut out =
        format!("qosrm-experiments: reproducing the paper's evaluation ({mode} mode)\n\n");
    for id in ALL_EXPERIMENTS {
        out.push_str(
            &run_experiment(id, ctx)
                .expect("registered experiment")
                .render(),
        );
    }
    out
}

/// Compares `rendered` with `tests/golden/<name>`, rewriting the golden
/// first when `QOSRM_UPDATE_GOLDEN` is set.
fn assert_matches_golden(rendered: &str, name: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var("QOSRM_UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, rendered).expect("golden writes");
    }
    let golden = std::fs::read_to_string(&path).expect("committed golden reads");
    if rendered != golden {
        let line = rendered
            .lines()
            .zip(golden.lines())
            .position(|(a, b)| a != b)
            .map_or_else(
                || "a length difference".to_string(),
                |i| format!("line {}", i + 1),
            );
        panic!(
            "suite output drifted from tests/golden/{name} (first difference at \
             {line}); rerun with QOSRM_UPDATE_GOLDEN=1 only for a deliberate \
             output change"
        );
    }
}

#[test]
fn quick_suite_matches_the_committed_golden() {
    let ctx = ExperimentContext::new(true);
    assert_matches_golden(&render_suite(&ctx, "quick"), "quick_suite.txt");
}

#[test]
fn full_suite_matches_the_committed_golden() {
    let ctx = ExperimentContext::new(false);
    assert_matches_golden(&render_suite(&ctx, "full"), "full_suite.txt");
}

#[test]
fn cold_quick_suite_characterizes_each_record_once() {
    let ctx = ExperimentContext::new(true);
    render_suite(&ctx, "quick");
    // The suite's 13 databases hold 97 benchmark records (269 phases); only
    // 30 records (81 phases) are distinct under the characterizer's inputs.
    assert_eq!(
        ctx.record_store().counters(),
        simdb::StoreCounters {
            records_built: 30,
            phases_built: 81,
            records_reused: 67,
        }
    );
}
