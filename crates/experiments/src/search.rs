//! Pareto-front adversarial scenario search over spec space.
//!
//! The streaming pipeline can execute any [`ScenarioSpec`], and
//! `workload::synth` can expand unlimited seeded mix families — but until
//! now the specs themselves were authored by hand. This module closes the
//! loop: a deterministic, ChaCha-seeded multi-objective evolutionary search
//! mutates and recombines spec parameters (platform core count, synthetic
//! population, mix-family seed and size, QoS tightness, game-theoretic
//! manager variant), evaluates every candidate through the existing
//! [`SweepEngine`](crate::sweep) path, and maintains a dominance-correct,
//! capacity-bounded **Pareto archive** of the most interesting scenarios
//! found.
//!
//! # Fitness vector
//!
//! Each candidate spec carries two manager variants — RM2
//! ([`RmaVariant::Paper1`]) and a Nash variant — so one sweep of the
//! candidate yields a four-objective fitness vector, every objective
//! *maximized* (the search is adversarial: it hunts scenarios where the
//! managers behave interestingly, not well):
//!
//! * **energy savings** — mean RM2 savings over the candidate's mixes;
//! * **QoS at risk** — total intervals the managers flagged as infeasible
//!   ([`rma_sim::Comparison::qos_at_risk_intervals`]), summed over cells;
//! * **model error** — mean per-interval expected violation magnitude
//!   ([`rma_sim::IntervalViolationStats::expected_magnitude`]);
//! * **manager disagreement** — mean absolute energy-savings delta between
//!   RM2 and the Nash variant on the same mix (where selfish and
//!   cooperative management diverge).
//!
//! # Pareto Strength scalarization
//!
//! Selection and archive truncation scalarize the fitness vectors with the
//! SPEA-style Pareto Strength procedure (the NEAT-PS exemplar): a
//! candidate's *strength* is how many pool members it dominates, its *raw
//! fitness* is the summed strength of everything dominating it (0 ⇔
//! nondominated). Candidates order by raw fitness ascending, then strength
//! descending, then fitness vector lexicographically descending, then pool
//! index — a total, deterministic order.
//!
//! # Archive format and replay contract
//!
//! The archive directory holds ordinary artefacts of the existing pipeline:
//!
//! ```text
//! archive/
//!   manifest.json        seed, generations, fitness vectors, member order
//!   spec-g1c03.json      an archived candidate (ScenarioSpec::save bytes)
//!   result-g1c03.json    its evaluation     (SweepResult::save bytes)
//! ```
//!
//! Every archived spec replays through `sweep run` + `sweep merge` (or the
//! serve daemon) to a result file **byte-identical** to the stored
//! `result-*.json`, because the search evaluates through the same
//! `SweepEngine` the streaming executor uses and the serial / parallel /
//! memoized / streamed paths are locked byte-identical by the equivalence
//! tests. No wall clock and no RNG outside the seeded generator touches the
//! loop, so a fixed seed reproduces the archive byte-for-byte across runs
//! and machines.

use crate::spec::{PlatformAxisSpec, PlatformSpec, ScenarioSpec, WorkloadSource};
use crate::sweep::{self, QosAxis, RmaVariant, SweepResult};
use crate::ExperimentContext;
use qosrm_types::{QosSpec, QosrmError};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::path::Path;
use workload::{MixPopulation, SynthSpec};

/// Schema tag of the archive manifest.
pub const MANIFEST_SCHEMA: &str = "qosrm-search/v1";

/// File name of the archive manifest within the archive directory.
pub const MANIFEST_FILE: &str = "manifest.json";

/// The QoS-tightness ladder the search explores: label and relaxation
/// fraction. Part of the deterministic-archive contract (a reorder changes
/// what a seed explores), like [`MixPopulation::ALL`].
pub const QOS_LADDER: [(&str, f64); 4] = [
    ("strict", 0.0),
    ("relax05", 0.05),
    ("relax10", 0.10),
    ("relax30", 0.30),
];

/// Platform core counts the search explores (Paper I platforms).
pub const CORE_CHOICES: [usize; 2] = [4, 8];

/// Which game-theoretic variant rides next to RM2 in a candidate spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NashSide {
    /// Iterated best response ([`RmaVariant::NashBestResponse`]).
    BestResponse,
    /// Minimum-energy pure equilibrium ([`RmaVariant::NashEquilibrium`]).
    Equilibrium,
}

impl NashSide {
    fn variant(self) -> RmaVariant {
        match self {
            NashSide::BestResponse => RmaVariant::NashBestResponse,
            NashSide::Equilibrium => RmaVariant::NashEquilibrium,
        }
    }
}

/// Knobs of one search run. Everything that shapes the archive is here, so
/// `(SearchConfig, quick)` fully determines the archive bytes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchConfig {
    /// Root seed of the whole run; the only entropy source.
    pub seed: u64,
    /// Evolutionary generations to run (generation 0 is the seeded random
    /// initial population).
    pub generations: usize,
    /// Candidates per generation.
    pub population: usize,
    /// Maximum archive members retained (Pareto Strength truncation).
    pub capacity: usize,
    /// Upper bound on a candidate's synthetic mix-family size (`count`).
    pub max_mixes: usize,
    /// Prefix of candidate spec names (`"{name}-g{gen}c{slot}"`).
    pub name: String,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            seed: 7,
            generations: 3,
            population: 6,
            capacity: 8,
            max_mixes: 3,
            name: "search".to_string(),
        }
    }
}

/// The heritable parameters of one candidate scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Genome {
    /// Core count of the Paper I platform axis.
    pub cores: usize,
    /// Synthetic mix family (its `num_cores` always equals `cores`).
    pub synth: SynthSpec,
    /// Index into [`QOS_LADDER`].
    pub qos_level: usize,
    /// The Nash variant evaluated next to RM2.
    pub nash: NashSide,
}

impl Genome {
    /// Draws a random genome from the seeded generator.
    pub fn random(rng: &mut ChaCha8Rng, config: &SearchConfig) -> Genome {
        let cores = CORE_CHOICES[rng.gen_range(0..CORE_CHOICES.len())];
        let synth = SynthSpec {
            seed: rng.gen(),
            count: 1 + rng.gen_range(0..config.max_mixes.max(1) as u64) as usize,
            num_cores: cores,
            population: MixPopulation::ALL[rng.gen_range(0..MixPopulation::ALL.len())],
            name_prefix: "sx-".to_string(),
        };
        let qos_level = rng.gen_range(0..QOS_LADDER.len());
        let nash = Genome::pick_nash(rng);
        Genome {
            cores,
            synth,
            qos_level,
            nash,
        }
    }

    /// Draws a Nash side, each with probability one half.
    fn pick_nash(rng: &mut ChaCha8Rng) -> NashSide {
        if rng.gen_range(0..2u64) == 0 {
            NashSide::BestResponse
        } else {
            NashSide::Equilibrium
        }
    }

    /// Returns a mutated copy: one gene (platform, synth family, QoS level
    /// or Nash side) changes.
    pub fn mutated(&self, rng: &mut ChaCha8Rng, config: &SearchConfig) -> Genome {
        let mut next = self.clone();
        match rng.gen_range(0..4u64) {
            0 => {
                // Move to the next platform choice; the synth family is
                // structurally tied to the core count.
                let at = CORE_CHOICES
                    .iter()
                    .position(|c| *c == self.cores)
                    .unwrap_or(0);
                next.cores = CORE_CHOICES[(at + 1) % CORE_CHOICES.len()];
                next.synth.num_cores = next.cores;
            }
            1 => next.synth = self.synth.mutated(rng, config.max_mixes.max(1)),
            2 => {
                let offset = 1 + rng.gen_range(0..(QOS_LADDER.len() as u64 - 1)) as usize;
                next.qos_level = (self.qos_level + offset) % QOS_LADDER.len();
            }
            _ => {
                next.nash = match self.nash {
                    NashSide::BestResponse => NashSide::Equilibrium,
                    NashSide::Equilibrium => NashSide::BestResponse,
                };
            }
        }
        next
    }

    /// Uniform crossover: the platform (and with it the synth family's
    /// structural genes) comes from one parent chosen by `rng`, the synth
    /// value genes recombine via [`SynthSpec::crossover`], and QoS / Nash
    /// genes pick a parent each.
    pub fn crossover(&self, other: &Genome, rng: &mut ChaCha8Rng) -> Genome {
        let (primary, secondary) = if rng.gen_range(0..2u64) == 0 {
            (self, other)
        } else {
            (other, self)
        };
        let mut child = primary.clone();
        child.synth = primary.synth.crossover(&secondary.synth, rng);
        child.qos_level = if rng.gen_range(0..2u64) == 0 {
            self.qos_level
        } else {
            other.qos_level
        };
        child.nash = if rng.gen_range(0..2u64) == 0 {
            self.nash
        } else {
            other.nash
        };
        child
    }

    /// Lowers the genome to a named, executable [`ScenarioSpec`]: one
    /// Paper I platform axis over the synthetic family, one uniform QoS
    /// axis, and the RM2 + Nash variant pair the disagreement objective
    /// needs.
    pub fn spec(&self, name: &str) -> ScenarioSpec {
        let (qos_label, fraction) = QOS_LADDER[self.qos_level % QOS_LADDER.len()];
        let qos = if fraction == 0.0 {
            QosSpec::STRICT
        } else {
            QosSpec::relaxed_by(fraction)
        };
        ScenarioSpec {
            name: name.to_string(),
            platforms: vec![PlatformAxisSpec {
                label: format!("p{}", self.cores),
                platform: PlatformSpec::Paper1 {
                    num_cores: self.cores,
                },
                workloads: WorkloadSource::Synth(self.synth.clone()),
            }],
            qos: vec![QosAxis::uniform(qos_label, qos)],
            variants: vec![RmaVariant::Paper1, self.nash.variant()],
            options: None,
        }
    }
}

/// The four maximized objectives of one evaluated candidate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FitnessVector {
    /// Mean RM2 energy savings over the candidate's mixes.
    pub energy_savings: f64,
    /// Total QoS-at-risk intervals over every (mix, variant) cell.
    pub qos_at_risk: f64,
    /// Mean expected per-interval violation magnitude over every cell.
    pub model_error: f64,
    /// Mean |RM2 − Nash| energy-savings delta over the mixes.
    pub disagreement: f64,
}

impl FitnessVector {
    /// The objectives as an array, in the declared order.
    pub fn as_array(&self) -> [f64; 4] {
        [
            self.energy_savings,
            self.qos_at_risk,
            self.model_error,
            self.disagreement,
        ]
    }

    /// Pareto dominance with all objectives maximized: `self` dominates
    /// `other` iff it is no worse everywhere and strictly better somewhere.
    pub fn dominates(&self, other: &FitnessVector) -> bool {
        let a = self.as_array();
        let b = other.as_array();
        let mut strictly_better = false;
        for (x, y) in a.iter().zip(b.iter()) {
            if x < y {
                return false;
            }
            if x > y {
                strictly_better = true;
            }
        }
        strictly_better
    }
}

/// Strength and raw fitness of one pool member under the SPEA-style Pareto
/// Strength procedure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StrengthScore {
    /// How many pool members this one dominates.
    pub strength: u64,
    /// Summed strength of every member dominating this one; 0 means
    /// nondominated. Lower is better.
    pub raw: u64,
}

/// Computes the Pareto Strength scores of a pool of fitness vectors.
pub fn pareto_strength(pool: &[FitnessVector]) -> Vec<StrengthScore> {
    let n = pool.len();
    let mut strength = vec![0u64; n];
    for (i, a) in pool.iter().enumerate() {
        for b in pool.iter() {
            if a.dominates(b) {
                strength[i] += 1;
            }
        }
    }
    let mut scores = Vec::with_capacity(n);
    for (i, a) in pool.iter().enumerate() {
        let mut raw = 0u64;
        for (j, b) in pool.iter().enumerate() {
            if b.dominates(a) {
                raw += strength[j];
            }
        }
        scores.push(StrengthScore {
            strength: strength[i],
            raw,
        });
    }
    scores
}

/// Orders pool indices best-first under the Pareto Strength scalarization:
/// raw ascending, strength descending, fitness vector lexicographically
/// descending, then index. The order is total and deterministic.
pub fn rank_by_strength(pool: &[FitnessVector]) -> Vec<usize> {
    let scores = pareto_strength(pool);
    let mut order: Vec<usize> = (0..pool.len()).collect();
    order.sort_by(|&a, &b| {
        scores[a]
            .raw
            .cmp(&scores[b].raw)
            .then(scores[b].strength.cmp(&scores[a].strength))
            .then_with(|| {
                let va = pool[a].as_array();
                let vb = pool[b].as_array();
                for (x, y) in va.iter().zip(vb.iter()) {
                    let ord = y.total_cmp(x);
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            })
            .then(a.cmp(&b))
    });
    order
}

/// Dominance-correct, capacity-bounded archive selection: returns the pool
/// indices that survive, in Pareto Strength order (best first).
///
/// A member survives only if *no* pool member dominates it (so the archive
/// never retains a dominated member), and at most `capacity` survivors are
/// kept — truncation drops the tail of the Pareto Strength ordering, whose
/// ranking is computed against the **whole** pool (dominated members still
/// count towards strength, as SPEA prescribes).
pub fn select_archive(pool: &[FitnessVector], capacity: usize) -> Vec<usize> {
    let scores = pareto_strength(pool);
    rank_by_strength(pool)
        .into_iter()
        .filter(|&i| scores[i].raw == 0)
        .take(capacity.max(1))
        .collect()
}

/// One archived scenario, as recorded in the manifest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArchiveMember {
    /// Candidate id (`g{generation}c{slot}`), stable for the member's
    /// lifetime.
    pub id: String,
    /// Generation the member was first evaluated in.
    pub generation: usize,
    /// Its fitness vector.
    pub fitness: FitnessVector,
    /// Spec file within the archive directory (`ScenarioSpec::save` bytes;
    /// replays through `sweep run`).
    pub spec_file: String,
    /// Result file within the archive directory (`SweepResult::save`
    /// bytes; byte-identical to a `sweep merge` of the replayed spec).
    pub result_file: String,
}

/// The archive manifest (`manifest.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchManifest {
    /// Manifest schema tag ([`MANIFEST_SCHEMA`]).
    pub schema: String,
    /// Root seed the archive was grown from.
    pub seed: u64,
    /// Whether candidates were evaluated against quick-mode databases
    /// (replays must use the same mode).
    pub quick: bool,
    /// Generations completed.
    pub generations: usize,
    /// Distinct candidate evaluations performed (duplicates of an already
    /// evaluated genome are not re-run).
    pub evaluations: u64,
    /// Archive capacity the run was bounded to.
    pub capacity: usize,
    /// Members in Pareto Strength order (best first).
    pub members: Vec<ArchiveMember>,
}

impl SearchManifest {
    /// Loads the manifest of an archive directory.
    pub fn load(dir: &Path) -> Result<Self, QosrmError> {
        simdb::persist::load_json(&dir.join(MANIFEST_FILE))
    }
}

/// What a search run did (the CLI prints it; the bench gate exact-compares
/// the counters).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchReport {
    /// Generations completed.
    pub generations: usize,
    /// Candidate genomes proposed (including duplicates of evaluated ones).
    pub candidates: u64,
    /// Distinct sweep evaluations performed.
    pub evaluations: u64,
    /// Scenarios simulated across all evaluations.
    pub scenarios: u64,
    /// Final archive size.
    pub archive_size: usize,
}

/// One evaluated candidate the run keeps in memory until the archive is
/// written.
struct Candidate {
    id: String,
    generation: usize,
    genome: Genome,
    fitness: FitnessVector,
    result: SweepResult,
}

/// Computes the fitness vector of an evaluated candidate sweep. `nash` is
/// the variant label paired with RM2 in the candidate's spec.
pub fn fitness_of(result: &SweepResult, nash_label: &str) -> FitnessVector {
    let mut rm2_by_mix: Vec<(String, f64)> = Vec::new();
    let mut nash_by_mix: HashMap<String, f64> = HashMap::new();
    let mut risk = 0.0f64;
    let mut error_sum = 0.0f64;
    let mut cells = 0usize;
    for outcome in &result.scenarios {
        let comparison = &outcome.comparison;
        risk += comparison.qos_at_risk_intervals as f64;
        error_sum += comparison.interval_stats.expected_magnitude();
        cells += 1;
        if outcome.key.variant == "RM2" {
            rm2_by_mix.push((outcome.key.mix.clone(), comparison.energy_savings));
        } else if outcome.key.variant == nash_label {
            nash_by_mix.insert(outcome.key.mix.clone(), comparison.energy_savings);
        }
    }
    let energy = if rm2_by_mix.is_empty() {
        0.0
    } else {
        rm2_by_mix.iter().map(|(_, s)| s).sum::<f64>() / rm2_by_mix.len() as f64
    };
    let mut disagreement = 0.0f64;
    let mut pairs = 0usize;
    for (mix, rm2) in &rm2_by_mix {
        if let Some(nash) = nash_by_mix.get(mix) {
            disagreement += (rm2 - nash).abs();
            pairs += 1;
        }
    }
    FitnessVector {
        energy_savings: energy,
        qos_at_risk: risk,
        model_error: if cells == 0 {
            0.0
        } else {
            error_sum / cells as f64
        },
        disagreement: if pairs == 0 {
            0.0
        } else {
            disagreement / pairs as f64
        },
    }
}

/// Runs the evolutionary search and writes the Pareto archive into
/// `out_dir`. Deterministic per `(config, ctx.quick)`: the archive bytes
/// (specs, results, manifest) are identical across runs and machines for a
/// fixed seed.
pub fn run(
    config: &SearchConfig,
    ctx: &ExperimentContext,
    out_dir: &Path,
) -> Result<SearchReport, QosrmError> {
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let population = config.population.max(2);

    // Genome fingerprint -> evaluated candidate. A genome reappearing in a
    // later generation is not re-evaluated (and not re-archived under a
    // second id), which keeps the evaluation counters meaningful and the
    // archive free of duplicates.
    let mut evaluated: HashMap<String, usize> = HashMap::new();
    let mut candidates: Vec<Candidate> = Vec::new();
    let mut archive: Vec<usize> = Vec::new();
    let mut proposed = 0u64;
    let mut scenarios = 0u64;

    let mut genomes: Vec<Genome> = (0..population)
        .map(|_| Genome::random(&mut rng, config))
        .collect();

    let generations = config.generations.max(1);
    for generation in 0..generations {
        // Evaluate this generation's genomes (slot order; duplicates hit
        // the cache).
        let mut fresh: Vec<usize> = Vec::new();
        for (slot, genome) in genomes.iter().enumerate() {
            proposed += 1;
            let key = genome_key(genome);
            if evaluated.contains_key(&key) {
                continue;
            }
            let id = format!("g{generation}c{slot:02}");
            let spec = genome.spec(&format!("{}-{id}", config.name));
            let grid = spec.lower()?;
            let result = sweep::run_with(&grid, ctx, &ctx.sweep);
            scenarios += result.scenarios.len() as u64;
            let fitness = fitness_of(&result, genome.nash.variant().label());
            let index = candidates.len();
            candidates.push(Candidate {
                id,
                generation,
                genome: genome.clone(),
                fitness,
                result,
            });
            evaluated.insert(key, index);
            fresh.push(index);
        }

        // Archive update: pool = previous archive ∪ fresh evaluations, in
        // that (deterministic) order.
        let mut pool: Vec<usize> = archive.clone();
        for index in &fresh {
            if !pool.contains(index) {
                pool.push(*index);
            }
        }
        let fitnesses: Vec<FitnessVector> = pool.iter().map(|&i| candidates[i].fitness).collect();
        archive = select_archive(&fitnesses, config.capacity)
            .into_iter()
            .map(|i| pool[i])
            .collect();

        // Breed the next generation from the Pareto Strength ranking of the
        // same pool (the last generation skips breeding).
        if generation + 1 == generations {
            break;
        }
        let ranked = rank_by_strength(&fitnesses);
        let parents: Vec<usize> = ranked
            .into_iter()
            .take(population.max(2))
            .map(|i| pool[i])
            .collect();
        genomes = (0..population)
            .map(|_| {
                let a = &candidates[parents[rng.gen_range(0..parents.len())]].genome;
                let b = &candidates[parents[rng.gen_range(0..parents.len())]].genome;
                let child = if rng.gen_range(0..2u64) == 0 {
                    a.crossover(b, &mut rng)
                } else {
                    a.clone()
                };
                child.mutated(&mut rng, config)
            })
            .collect();
    }

    // The manifest lists the front in the Pareto Strength order of the
    // *final members alone* (selection ranked against evaluation pools that
    // are gone by now): the order is recomputable from the manifest itself.
    let front: Vec<FitnessVector> = archive.iter().map(|&i| candidates[i].fitness).collect();
    let archive: Vec<usize> = rank_by_strength(&front)
        .into_iter()
        .map(|i| archive[i])
        .collect();

    let members = write_archive(config, ctx.quick, out_dir, &candidates, &archive)?;
    Ok(SearchReport {
        generations,
        candidates: proposed,
        evaluations: candidates.len() as u64,
        scenarios,
        archive_size: members,
    })
}

/// Stable identity of a genome (content fingerprint).
fn genome_key(genome: &Genome) -> String {
    let digest = qosrm_core::memo::fingerprint(genome);
    format!("{:016x}{:016x}", digest.0, digest.1)
}

/// Persists the archive: member spec/result files plus the manifest, and
/// removes stale `spec-*`/`result-*` files from earlier runs or evicted
/// members so the directory contents equal the manifest exactly.
fn write_archive(
    config: &SearchConfig,
    quick: bool,
    out_dir: &Path,
    candidates: &[Candidate],
    archive: &[usize],
) -> Result<usize, QosrmError> {
    std::fs::create_dir_all(out_dir).map_err(|e| {
        QosrmError::Io(format!(
            "cannot create archive directory {}: {e}",
            out_dir.display()
        ))
    })?;

    let mut members = Vec::with_capacity(archive.len());
    let mut keep: Vec<String> = vec![MANIFEST_FILE.to_string()];
    for &index in archive {
        let candidate = &candidates[index];
        let spec_file = format!("spec-{}.json", candidate.id);
        let result_file = format!("result-{}.json", candidate.id);
        candidate
            .genome
            .spec(&format!("{}-{}", config.name, candidate.id))
            .save(&out_dir.join(&spec_file))?;
        candidate.result.save(&out_dir.join(&result_file))?;
        keep.push(spec_file.clone());
        keep.push(result_file.clone());
        members.push(ArchiveMember {
            id: candidate.id.clone(),
            generation: candidate.generation,
            fitness: candidate.fitness,
            spec_file,
            result_file,
        });
    }

    let manifest = SearchManifest {
        schema: MANIFEST_SCHEMA.to_string(),
        seed: config.seed,
        quick,
        generations: config.generations.max(1),
        evaluations: candidates.len() as u64,
        capacity: config.capacity,
        members,
    };
    let json = serde_json::to_string_pretty(&manifest)
        .map_err(|e| QosrmError::Io(format!("cannot serialize the archive manifest: {e}")))?;
    simdb::persist::write_atomic(&out_dir.join(MANIFEST_FILE), json.as_bytes())?;

    // Drop spec/result files the manifest no longer references.
    let entries = std::fs::read_dir(out_dir)
        .map_err(|e| QosrmError::Io(format!("cannot list {}: {e}", out_dir.display())))?;
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        let stale = (name.starts_with("spec-") || name.starts_with("result-"))
            && name.ends_with(".json")
            && !keep.contains(&name);
        if stale {
            let _ = std::fs::remove_file(entry.path());
        }
    }
    Ok(manifest.members.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vector(values: [f64; 4]) -> FitnessVector {
        FitnessVector {
            energy_savings: values[0],
            qos_at_risk: values[1],
            model_error: values[2],
            disagreement: values[3],
        }
    }

    #[test]
    fn dominance_requires_no_worse_everywhere_and_better_somewhere() {
        let a = vector([1.0, 2.0, 3.0, 4.0]);
        let b = vector([1.0, 2.0, 3.0, 3.0]);
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
        assert!(!a.dominates(&a), "dominance is irreflexive");
        let c = vector([2.0, 1.0, 3.0, 4.0]);
        assert!(!a.dominates(&c), "trade-offs are incomparable");
        assert!(!c.dominates(&a));
    }

    #[test]
    fn strength_and_raw_follow_spea() {
        // d is dominated by a and b; a and b are incomparable; c dominates
        // everything.
        let pool = vec![
            vector([2.0, 1.0, 0.0, 0.0]),
            vector([1.0, 2.0, 0.0, 0.0]),
            vector([3.0, 3.0, 0.0, 0.0]),
            vector([1.0, 1.0, 0.0, 0.0]),
        ];
        let scores = pareto_strength(&pool);
        assert_eq!(scores[2].strength, 3);
        assert_eq!(scores[2].raw, 0);
        assert_eq!(scores[0].raw, 3, "dominated only by c (strength 3)");
        assert_eq!(scores[3].raw, 1 + 1 + 3, "dominated by a, b and c");
    }

    #[test]
    fn archive_selection_is_dominance_correct_and_bounded() {
        let pool = vec![
            vector([1.0, 4.0, 0.0, 0.0]),
            vector([2.0, 3.0, 0.0, 0.0]),
            vector([3.0, 2.0, 0.0, 0.0]),
            vector([4.0, 1.0, 0.0, 0.0]),
            vector([0.5, 0.5, 0.0, 0.0]), // dominated by all of the front
        ];
        let scores = pareto_strength(&pool);
        let selected = select_archive(&pool, 3);
        assert_eq!(selected.len(), 3, "capacity bound holds");
        for &i in &selected {
            assert_eq!(scores[i].raw, 0, "archive kept a dominated member");
        }
        // Truncation keeps the Pareto Strength ordering: the survivors are
        // a prefix of the full ranking restricted to nondominated members.
        let full: Vec<usize> = rank_by_strength(&pool)
            .into_iter()
            .filter(|&i| scores[i].raw == 0)
            .collect();
        assert_eq!(selected, full[..3].to_vec());
    }

    #[test]
    fn genome_ops_are_deterministic_and_respect_constraints() {
        let config = SearchConfig::default();
        let mut r1 = ChaCha8Rng::seed_from_u64(3);
        let mut r2 = ChaCha8Rng::seed_from_u64(3);
        let a = Genome::random(&mut r1, &config);
        assert_eq!(a, Genome::random(&mut r2, &config));
        assert_eq!(a.synth.num_cores, a.cores);
        for round in 0..64u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(round);
            let m = a.mutated(&mut rng, &config);
            assert_eq!(m.synth.num_cores, m.cores, "synth family follows cores");
            assert!(m.synth.count >= 1 && m.synth.count <= config.max_mixes);
            let b = Genome::random(&mut rng, &config);
            let child = a.crossover(&b, &mut rng);
            assert_eq!(child.synth.num_cores, child.cores);
        }
    }

    #[test]
    fn genome_specs_validate_and_lower() {
        let config = SearchConfig::default();
        let mut rng = ChaCha8Rng::seed_from_u64(41);
        for i in 0..16 {
            let genome = Genome::random(&mut rng, &config);
            let spec = genome.spec(&format!("t-{i}"));
            let grid = spec.lower().expect("random genome lowers");
            grid.validate().expect("lowered grid validates");
        }
    }
}
