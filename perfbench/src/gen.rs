//! Seeded input generators. The benchmark takes the seed; the program only
//! ever sees the generated specs.
//!
//! The seed changes *which* inputs run but should not change *how much*
//! work they are, or run-to-run spread would measure the inputs instead of
//! the program. So every generator starts from fixed benchmark
//! compositions and lets the seed permute the core each application runs
//! on (and, for the serving workload, pick the spec sequence): distinct
//! inputs with a near-constant amount of work.

use experiments::spec::{PlatformAxisSpec, PlatformSpec, ScenarioSpec, WorkloadSource};
use experiments::sweep::{QosAxis, RmaVariant};
use qosrm_types::QosSpec;
use workload::{MixPopulation, SynthSpec, WorkloadMix};

/// Seed of the fixed benchmark compositions the run seed permutes.
const BASE_SEED: u64 = 2024;

/// SplitMix64: a tiny deterministic generator, so inputs depend on the
/// seed alone and on no library's sampling order.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5eed_5eed_5eed_5eed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A platform axis of `count` fixed `num_cores`-wide compositions, each with
/// its applications permuted over the cores by `rng`.
fn permuted_axis(
    label: &str,
    num_cores: usize,
    count: usize,
    population: MixPopulation,
    rng: &mut Rng,
) -> PlatformAxisSpec {
    let base = SynthSpec {
        seed: BASE_SEED,
        count,
        num_cores,
        population,
        name_prefix: format!("{label}-"),
    };
    let mixes = base
        .mixes()
        .expect("fixed synthetic compositions are valid")
        .into_iter()
        .map(|mut mix| {
            rng.shuffle(&mut mix.benchmarks);
            mix
        })
        .collect();
    PlatformAxisSpec {
        label: label.to_string(),
        platform: PlatformSpec::Paper2 { num_cores },
        workloads: WorkloadSource::Explicit(mixes),
    }
}

/// `sweep-manycore`: 8- and 16-core axes x {strict, relaxed} x {RM2, RM3}.
pub fn sweep_manycore(seed: u64) -> ScenarioSpec {
    let mut rng = Rng::new(seed);
    ScenarioSpec {
        name: format!("perfbench-manycore-{seed}"),
        platforms: vec![
            permuted_axis("mc8", 8, 8, MixPopulation::Mixed, &mut rng),
            permuted_axis("mc16", 16, 6, MixPopulation::Mixed, &mut rng),
        ],
        qos: vec![
            QosAxis::uniform("strict", QosSpec::STRICT),
            QosAxis::uniform("relaxed", QosSpec::relaxed_by(0.2)),
        ],
        variants: vec![RmaVariant::Paper1, RmaVariant::Paper2],
        options: None,
    }
}

/// `dist-shards`: one 4-core axis whose 16 scenarios become 16
/// one-scenario shards.
pub fn dist_shards(seed: u64) -> ScenarioSpec {
    let mut rng = Rng::new(seed);
    ScenarioSpec {
        name: format!("perfbench-dist-{seed}"),
        platforms: vec![permuted_axis("d4", 4, 8, MixPopulation::Mixed, &mut rng)],
        qos: vec![QosAxis::uniform("strict", QosSpec::STRICT)],
        variants: vec![RmaVariant::Paper1, RmaVariant::Paper2],
        options: None,
    }
}

/// The inputs of `serve-small`: a warm-up spec plus `count` distinct small
/// specs. All are 2 mixes x strict x {RM2, RM3} over the same four
/// benchmarks (one per behaviour class: cache-sensitive dependent,
/// cache-sensitive bursty, streaming, compute-bound), so the warm-up builds
/// the only simulation database the timed phase needs.
pub struct ServeInputs {
    pub warmup: ScenarioSpec,
    pub specs: Vec<ScenarioSpec>,
}

const SERVE_APPS: [&str; 4] = ["mcf_like", "soplex_like", "libquantum_like", "povray_like"];

pub fn serve_small(seed: u64, count: usize) -> ServeInputs {
    let mut rng = Rng::new(seed);
    let mut apps: Vec<&str> = SERVE_APPS.to_vec();
    rng.shuffle(&mut apps);
    let spec = |name: String, mixes: Vec<WorkloadMix>| ScenarioSpec {
        name,
        platforms: vec![PlatformAxisSpec {
            label: "s4".to_string(),
            platform: PlatformSpec::Paper2 { num_cores: 4 },
            workloads: WorkloadSource::Explicit(mixes),
        }],
        qos: vec![QosAxis::uniform("strict", QosSpec::STRICT)],
        variants: vec![RmaVariant::Paper1, RmaVariant::Paper2],
        options: None,
    };
    let reversed: Vec<&str> = apps.iter().rev().copied().collect();
    let warmup = spec(
        format!("perfbench-serve-{seed}-warmup"),
        vec![
            WorkloadMix::new("a", apps.clone()),
            WorkloadMix::new("b", reversed),
        ],
    );
    let specs = (0..count)
        .map(|i| {
            let mixes = ["a", "b"]
                .iter()
                .map(|name| {
                    let mut order = apps.clone();
                    rng.shuffle(&mut order);
                    WorkloadMix::new(*name, order)
                })
                .collect();
            spec(format!("perfbench-serve-{seed}-{i:04}"), mixes)
        })
        .collect();
    ServeInputs { warmup, specs }
}

/// Serializes a spec the way spec files and submissions carry it.
pub fn to_json(spec: &ScenarioSpec) -> String {
    serde_json::to_string(spec).expect("specs serialize")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_specs(seed: u64) -> Vec<ScenarioSpec> {
        let serve = serve_small(seed, 8);
        let mut specs = vec![sweep_manycore(seed), dist_shards(seed), serve.warmup];
        specs.extend(serve.specs);
        specs
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        for seed in [0, 1, 7, 12345] {
            let a: Vec<String> = all_specs(seed).iter().map(to_json).collect();
            let b: Vec<String> = all_specs(seed).iter().map(to_json).collect();
            assert_eq!(a, b, "seed {seed}");
        }
        assert_ne!(to_json(&sweep_manycore(1)), to_json(&sweep_manycore(2)));
        assert_ne!(to_json(&dist_shards(1)), to_json(&dist_shards(2)));
    }

    #[test]
    fn every_generated_spec_lowers() {
        for seed in 0..20 {
            for spec in all_specs(seed) {
                let grid = spec
                    .lower()
                    .unwrap_or_else(|e| panic!("{} does not lower: {e}", spec.name));
                assert!(!grid.is_empty());
            }
        }
    }

    #[test]
    fn serve_specs_are_distinct_and_share_one_database() {
        let inputs = serve_small(3, 40);
        let ids: std::collections::HashSet<String> = inputs
            .specs
            .iter()
            .map(|spec| qosrm_serve::run_id(spec, true))
            .collect();
        assert_eq!(ids.len(), inputs.specs.len());
        let names = |spec: &ScenarioSpec| {
            let grid = spec.lower().unwrap();
            let mut names: Vec<String> = grid.platforms[0]
                .mixes
                .iter()
                .flat_map(|mix| mix.benchmarks.clone())
                .collect();
            names.sort();
            names.dedup();
            names
        };
        let warm = names(&inputs.warmup);
        assert_eq!(warm.len(), 4);
        for spec in &inputs.specs {
            assert_eq!(names(spec), warm);
        }
    }

    #[test]
    fn dist_spec_has_sixteen_scenarios() {
        assert_eq!(dist_shards(5).lower().unwrap().len(), 16);
    }
}
