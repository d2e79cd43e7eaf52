//! Authoring scenario spec files in Rust.
//!
//! A [`experiments::ScenarioSpec`] is plain data: build it with the types
//! of `experiments::spec`, save it as JSON, and feed it to the streaming
//! CLI (`qosrm-experiments sweep run --spec FILE --out DIR`). This example
//! regenerates three spec files committed under `examples/specs/`:
//!
//! * `synth_smoke.json` — a small synthetic sweep the CI smoke step runs,
//!   kills partway, resumes and merges;
//! * `synth_sweep.json` — a 200-mix sweep drawing from three populations
//!   (streaming-heavy, cache-sensitive, mixed) on 4-, 8- and 16-core
//!   platforms: far beyond what the paper's hand-built mix tables cover,
//!   and the scale the streaming executor exists for;
//! * `nash_8core.json` — RM2, NashBR and NashEq on an 8-core platform, the
//!   game variants beyond E10's 4-core grid, which the CI smoke step also
//!   runs through kill/resume/merge and the cold reference.
//!
//! (The fourth committed spec, `e10_quick.json`, is owned by the E10
//! experiment module: regenerate it with `QOSRM_UPDATE_SPECS=1 cargo test
//! -p experiments --lib committed_quick_spec_is_in_sync`.)
//!
//! Run with `cargo run --example scenario_spec_files [OUT_DIR]`.

use experiments::spec::{PlatformAxisSpec, PlatformSpec, ScenarioSpec, WorkloadSource};
use experiments::sweep::{QosAxis, RmaVariant};
use qosrm_types::QosSpec;
use rma_sim::SimulationOptions;
use workload::{MixPopulation, SynthSpec};

fn synth_axis(
    num_cores: usize,
    count: usize,
    population: MixPopulation,
    tag: &str,
) -> PlatformAxisSpec {
    PlatformAxisSpec {
        label: format!("{tag}-{num_cores}c"),
        platform: PlatformSpec::Paper2 { num_cores },
        workloads: WorkloadSource::Synth(SynthSpec {
            seed: 2024,
            count,
            num_cores,
            population,
            name_prefix: format!("{tag}{num_cores}-"),
        }),
    }
}

/// The CI smoke spec: 12 mixes × 1 QoS point × 2 variants = 24 scenarios.
fn smoke_spec() -> ScenarioSpec {
    ScenarioSpec {
        name: "synth-smoke".to_string(),
        platforms: vec![synth_axis(4, 12, MixPopulation::Mixed, "smoke")],
        qos: vec![QosAxis::uniform("strict", QosSpec::STRICT)],
        variants: vec![RmaVariant::Paper1, RmaVariant::Paper2],
        options: None,
    }
}

/// The 200-mix scenario-space sweep: three populations over three platform
/// widths, 200 scenarios with the single RM3 variant.
fn sweep_spec() -> ScenarioSpec {
    ScenarioSpec {
        name: "synth-200".to_string(),
        platforms: vec![
            synth_axis(4, 80, MixPopulation::StreamingHeavy, "streaming"),
            synth_axis(8, 80, MixPopulation::CacheSensitive, "cachesens"),
            synth_axis(16, 40, MixPopulation::Mixed, "mixed"),
        ],
        qos: vec![QosAxis::uniform("strict", QosSpec::STRICT)],
        variants: vec![RmaVariant::Paper2],
        options: None,
    }
}

/// The 8-core game spec: 4 seeded Paper I mixes × strict QoS × RM2, NashBR
/// and NashEq = 12 scenarios, on E10's simulation options (no MLP-ATD
/// hardware on a Paper I platform).
fn nash_8core_spec() -> ScenarioSpec {
    ScenarioSpec {
        name: "nash-8core".to_string(),
        platforms: vec![PlatformAxisSpec {
            label: "paper1-8c".to_string(),
            platform: PlatformSpec::Paper1 { num_cores: 8 },
            workloads: WorkloadSource::Synth(SynthSpec {
                seed: 2024,
                count: 4,
                num_cores: 8,
                population: MixPopulation::Mixed,
                name_prefix: "nash8-".to_string(),
            }),
        }],
        qos: vec![QosAxis::uniform("strict", QosSpec::STRICT)],
        variants: vec![
            RmaVariant::Paper1,
            RmaVariant::NashBestResponse,
            RmaVariant::NashEquilibrium,
        ],
        options: Some(SimulationOptions {
            provide_mlp_profiles: false,
            ..Default::default()
        }),
    }
}

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "examples/specs".to_string());
    let out = std::path::Path::new(&out);
    for (file, spec) in [
        ("synth_smoke.json", smoke_spec()),
        ("synth_sweep.json", sweep_spec()),
        ("nash_8core.json", nash_8core_spec()),
    ] {
        let path = out.join(file);
        spec.lower().expect("example specs must lower");
        spec.save(&path).expect("spec file saves");
        println!(
            "wrote {} ({} scenarios)",
            path.display(),
            spec.lower().unwrap().len()
        );
    }
}
