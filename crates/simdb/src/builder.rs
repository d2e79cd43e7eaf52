//! Construction of the simulation-results database.
//!
//! Characterizing a phase (generating its reference stream and replaying it
//! through the cache substrate) is the expensive step of the pipeline, and —
//! exactly as the paper notes for its Sniper runs — every (benchmark, phase)
//! pair is independent, so the build fans out over a Rayon thread pool.
//!
//! The paper characterizes each (benchmark, phase) once and reuses the
//! result across all experiments. A [`RecordStore`] does the same for a
//! session: it keeps every benchmark's phase characterizations and phase
//! trace, keyed by exactly the inputs the characterizer reads, so a
//! database on another platform characterizes only the benchmarks the store
//! has not seen under those inputs. [`build_database`] is a build on a fresh
//! store.

use crate::record::{BenchmarkRecord, SimDb};
use core_model::PhaseCharacterization;
use qosrm_types::{CoreSizeIdx, CoreSizeParams, PlatformConfig};
use rayon::prelude::*;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use workload::{
    classify, BenchmarkProfile, CategoryThresholds, CharacterizationConfig, PhaseCharacterizer,
    PhaseTrace, WorkloadMix,
};

/// Options of the database build.
#[derive(Debug, Clone)]
pub struct BuildOptions {
    /// Characterization configuration (replay scale, ATD sampling, warm-up).
    pub characterization: CharacterizationConfig,
    /// Categorization thresholds.
    pub thresholds: CategoryThresholds,
}

impl BuildOptions {
    /// Default options for a platform.
    pub fn for_platform(platform: &PlatformConfig) -> Self {
        BuildOptions {
            characterization: CharacterizationConfig::for_platform(platform),
            thresholds: CategoryThresholds::default(),
        }
    }

    /// Coarse, fast options: the production `--quick` configuration (see
    /// [`CharacterizationConfig::quick_for_tests`]), which most tests use
    /// too.
    pub fn quick_for_tests(platform: &PlatformConfig) -> Self {
        BuildOptions {
            characterization: CharacterizationConfig::quick_for_tests(platform),
            thresholds: CategoryThresholds::default(),
        }
    }
}

/// Everything [`PhaseCharacterizer`] reads: two builds with equal inputs
/// characterize every benchmark identically.
#[derive(Debug, Clone, PartialEq)]
struct CharacterizerInputs {
    /// Replay configuration; it also carries the LLC (scaled geometry and
    /// scale factor) and the quick/full distinction.
    characterization: CharacterizationConfig,
    interval_instructions: u64,
    core_sizes: Vec<CoreSizeParams>,
    baseline_core_size: CoreSizeIdx,
}

impl CharacterizerInputs {
    fn new(platform: &PlatformConfig, options: &BuildOptions) -> Self {
        // Exhaustive destructuring (no `..`): a new platform field fails
        // compilation here until someone decides whether the characterizer
        // reads it.
        let PlatformConfig {
            // `classify` re-runs per platform: the category depends on the
            // baseline ways per core.
            num_cores: _,
            // Enters through `options.characterization`.
            llc: _,
            // Timing and energy are evaluated at query time (`GroundTruth`).
            vf: _,
            memory: _,
            core_sizes,
            baseline_core_size,
            interval_instructions,
        } = platform;
        CharacterizerInputs {
            characterization: options.characterization.clone(),
            interval_instructions: *interval_instructions,
            core_sizes: core_sizes.clone(),
            baseline_core_size: *baseline_core_size,
        }
    }
}

/// The platform-independent part of a [`BenchmarkRecord`].
#[derive(Debug)]
struct Characterized {
    profile: BenchmarkProfile,
    phases: Vec<PhaseCharacterization>,
    trace: PhaseTrace,
}

impl Characterized {
    /// The database record on a platform with `baseline_ways` per core.
    fn record(&self, baseline_ways: usize, thresholds: &CategoryThresholds) -> BenchmarkRecord {
        let weighted: Vec<_> = self
            .phases
            .iter()
            .cloned()
            .zip(self.trace.weights())
            .collect();
        BenchmarkRecord {
            name: self.profile.name.clone(),
            phases: self.phases.clone(),
            trace: self.trace.clone(),
            category: classify(&weighted, baseline_ways, thresholds),
        }
    }
}

/// Work counters of a [`RecordStore`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// Benchmark records characterized.
    pub records_built: u64,
    /// Phases characterized (the phases of `records_built`).
    pub phases_built: u64,
    /// Benchmark records served from the store instead.
    pub records_reused: u64,
}

#[derive(Debug, Default)]
struct StoreState {
    /// Characterizations per distinct input set; a session sees a handful,
    /// so a linear scan with `PartialEq` beats any digest (and cannot
    /// collide).
    entries: Vec<(CharacterizerInputs, Vec<Arc<Characterized>>)>,
    counters: StoreCounters,
}

/// A session's benchmark characterizations, shared by every database built
/// through it.
///
/// A record is keyed by its [`BenchmarkProfile`] and by the characterizer
/// inputs: the characterization config, `interval_instructions`,
/// `core_sizes` and `baseline_core_size`. The core count, DVFS table and
/// memory parameters are not part of the key, since the characterizer never
/// reads them. Categories are not stored: [`classify`] re-runs for every
/// database, because it depends on the platform's baseline ways per core.
#[derive(Debug, Default)]
pub struct RecordStore {
    state: Mutex<StoreState>,
}

impl RecordStore {
    /// An empty store.
    pub fn new() -> Self {
        RecordStore::default()
    }

    /// What the store has built and reused so far.
    pub fn counters(&self) -> StoreCounters {
        self.lock().counters
    }

    fn lock(&self) -> MutexGuard<'_, StoreState> {
        // Every update is a single push or counter bump, so a panicking
        // holder cannot leave the state half-written.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Builds the database covering `benchmarks` on `platform`,
    /// characterizing (in parallel) only the benchmarks the store lacks for
    /// this platform's characterizer inputs. The result equals a build on a
    /// fresh store.
    ///
    /// No lock is held while characterizing. Two concurrent builds missing
    /// the same benchmark may both characterize it; the results are
    /// identical and the store keeps the first.
    pub fn database(
        &self,
        platform: &PlatformConfig,
        benchmarks: &[BenchmarkProfile],
        options: &BuildOptions,
    ) -> SimDb {
        let inputs = CharacterizerInputs::new(platform, options);
        let stored: Vec<Arc<Characterized>> = self
            .lock()
            .entries
            .iter()
            .find(|(key, _)| *key == inputs)
            .map_or_else(Vec::new, |(_, records)| records.clone());
        let in_store = |profile: &BenchmarkProfile| stored.iter().any(|c| c.profile == *profile);
        let mut missing: Vec<&BenchmarkProfile> = Vec::new();
        for profile in benchmarks {
            if !in_store(profile) && !missing.contains(&profile) {
                missing.push(profile);
            }
        }
        let built = characterize_all(platform, &missing, options);
        let reused = benchmarks.iter().filter(|p| in_store(p)).count();
        self.insert(inputs, &built, reused as u64);

        let baseline_ways = platform.baseline_ways_per_core();
        let records = benchmarks
            .iter()
            .map(|profile| {
                stored
                    .iter()
                    .chain(&built)
                    .find(|c| c.profile == *profile)
                    .expect("every benchmark is stored or was just built")
                    .record(baseline_ways, &options.thresholds)
            })
            .collect();
        SimDb::new(platform.clone(), records)
    }

    /// Keeps freshly built characterizations (the first of two racing
    /// builds wins) and counts the build's work.
    fn insert(&self, inputs: CharacterizerInputs, built: &[Arc<Characterized>], reused: u64) {
        let mut state = self.lock();
        let counters = &mut state.counters;
        counters.records_reused += reused;
        counters.records_built += built.len() as u64;
        counters.phases_built += built.iter().map(|c| c.phases.len() as u64).sum::<u64>();
        let index = match state.entries.iter().position(|(key, _)| *key == inputs) {
            Some(index) => index,
            None => {
                state.entries.push((inputs, Vec::new()));
                state.entries.len() - 1
            }
        };
        let stored = &mut state.entries[index].1;
        for record in built {
            if !stored.iter().any(|c| c.profile == record.profile) {
                stored.push(Arc::clone(record));
            }
        }
    }

    /// Builds the database covering exactly the benchmarks referenced by the
    /// given workload mixes (see [`RecordStore::database`]).
    pub fn database_for_mixes(
        &self,
        platform: &PlatformConfig,
        mixes: &[WorkloadMix],
        options: &BuildOptions,
    ) -> SimDb {
        let mut names: Vec<&str> = mixes
            .iter()
            .flat_map(|m| m.benchmarks.iter().map(String::as_str))
            .collect();
        names.sort_unstable();
        names.dedup();
        let profiles: Vec<BenchmarkProfile> = names
            .iter()
            .filter_map(|n| workload::benchmark(n))
            .collect();
        self.database(platform, &profiles, options)
    }
}

/// Characterizes every phase of every profile, all (benchmark, phase) pairs
/// in one parallel fan-out.
fn characterize_all(
    platform: &PlatformConfig,
    profiles: &[&BenchmarkProfile],
    options: &BuildOptions,
) -> Vec<Arc<Characterized>> {
    if profiles.is_empty() {
        return Vec::new();
    }
    let characterizer = PhaseCharacterizer::new(platform, options.characterization.clone());
    let jobs: Vec<(usize, usize)> = profiles
        .iter()
        .enumerate()
        .flat_map(|(p, profile)| (0..profile.phases.len()).map(move |i| (p, i)))
        .collect();
    let mut phases = jobs
        .par_iter()
        .map(|&(p, i)| {
            characterizer.characterize(&profiles[p].phases[i], profiles[p].phase_seed(i))
        })
        .collect::<Vec<_>>()
        .into_iter();
    profiles
        .iter()
        .map(|profile| {
            Arc::new(Characterized {
                profile: (*profile).clone(),
                phases: phases.by_ref().take(profile.phases.len()).collect(),
                trace: profile.phase_trace(),
            })
        })
        .collect()
}

/// Builds a database covering the given benchmarks (a build on a fresh
/// [`RecordStore`]).
pub fn build_database(
    platform: &PlatformConfig,
    benchmarks: &[BenchmarkProfile],
    options: &BuildOptions,
) -> SimDb {
    RecordStore::new().database(platform, benchmarks, options)
}

/// Builds a database covering exactly the benchmarks referenced by the given
/// workload mixes (each benchmark characterized once even if it appears in
/// several mixes), on a fresh [`RecordStore`].
pub fn build_database_for_mixes(
    platform: &PlatformConfig,
    mixes: &[WorkloadMix],
    options: &BuildOptions,
) -> SimDb {
    RecordStore::new().database_for_mixes(platform, mixes, options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qosrm_types::FreqLevel;
    use workload::benchmark;

    #[test]
    fn builds_records_for_requested_benchmarks() {
        let platform = PlatformConfig::paper2(4);
        let options = BuildOptions::quick_for_tests(&platform);
        let benchmarks = vec![
            benchmark("mcf_like").unwrap(),
            benchmark("libquantum_like").unwrap(),
        ];
        let db = build_database(&platform, &benchmarks, &options);
        assert_eq!(db.len(), 2);
        assert!(db.validate().is_ok());
        let mcf = db.benchmark("mcf_like").unwrap();
        assert_eq!(mcf.phases.len(), 3);
        assert!(mcf.category.paper1.cache_sensitive);
        let libq = db.benchmark("libquantum_like").unwrap();
        assert!(!libq.category.paper1.cache_sensitive);
        assert!(libq.category.paper2.parallelism_sensitive);
    }

    #[test]
    fn mix_build_deduplicates_benchmarks() {
        let platform = PlatformConfig::paper2(4);
        let options = BuildOptions::quick_for_tests(&platform);
        let mixes = vec![
            WorkloadMix::new(
                "a",
                vec!["gamess_like", "povray_like", "gamess_like", "povray_like"],
            ),
            WorkloadMix::new(
                "b",
                vec!["povray_like", "gamess_like", "povray_like", "gamess_like"],
            ),
        ];
        let db = build_database_for_mixes(&platform, &mixes, &options);
        assert_eq!(db.len(), 2);
        assert!(db.benchmark("gamess_like").is_some());
        assert!(db.benchmark("povray_like").is_some());
    }

    fn profiles(names: &[&str]) -> Vec<BenchmarkProfile> {
        names.iter().map(|n| benchmark(n).unwrap()).collect()
    }

    /// An E4-style platform: `paper1(4)` with another baseline VF level.
    fn custom_vf() -> PlatformConfig {
        let mut platform = PlatformConfig::paper1(4);
        platform.vf = platform.vf.with_baseline(FreqLevel(8)).unwrap();
        assert_ne!(platform, PlatformConfig::paper1(4));
        platform
    }

    #[test]
    fn store_assembled_databases_equal_one_shot_builds() {
        let store = RecordStore::new();
        let benchmarks = profiles(&["libquantum_like", "mcf_like"]);
        let phases: u64 = benchmarks.iter().map(|b| b.phases.len() as u64).sum();
        let mut databases = Vec::new();
        for platform in [
            PlatformConfig::paper1(4),
            PlatformConfig::paper1(8),
            PlatformConfig::paper2(4),
            custom_vf(),
        ] {
            let options = BuildOptions::quick_for_tests(&platform);
            let assembled = store.database(&platform, &benchmarks, &options);
            assert_eq!(assembled, build_database(&platform, &benchmarks, &options));
            databases.push(assembled);
        }
        // The Paper I platforms share one input set; Paper II's core sizes
        // make a second one.
        assert_eq!(
            store.counters(),
            StoreCounters {
                records_built: 4,
                phases_built: 2 * phases,
                records_reused: 4,
            }
        );
        // Shared characterizations, re-classified per platform: 4 and 8
        // cores give different baseline ways per core, hence categories.
        let category = |db: &SimDb| db.benchmark("libquantum_like").unwrap().category;
        assert_ne!(category(&databases[0]), category(&databases[1]));
    }

    #[test]
    fn store_key_covers_exactly_what_the_characterizer_reads() {
        let store = RecordStore::new();
        let benchmarks = profiles(&["gamess_like"]);
        let built_by = |platform: &PlatformConfig| {
            let before = store.counters().records_built;
            store.database(
                platform,
                &benchmarks,
                &BuildOptions::quick_for_tests(platform),
            );
            store.counters().records_built - before
        };
        let base = PlatformConfig::paper1(4);
        assert_eq!(built_by(&base), 1);

        let mut memory = base.clone();
        memory.memory.latency_ns *= 2.0;
        for shared in [PlatformConfig::paper1(8), custom_vf(), memory] {
            assert_eq!(built_by(&shared), 0, "{shared:?} must reuse the record");
        }

        let mut interval = base.clone();
        interval.interval_instructions /= 2;
        let mut core_sizes = base.clone();
        core_sizes.core_sizes[0].rob_entries *= 2;
        let mut llc = base.clone();
        llc.llc.num_sets *= 2;
        for fresh in [interval, core_sizes, llc] {
            assert_eq!(built_by(&fresh), 1, "{fresh:?} must characterize anew");
        }
        assert_eq!(store.counters().records_reused, 3);
    }

    #[test]
    fn build_is_deterministic() {
        let platform = PlatformConfig::paper2(4);
        let options = BuildOptions::quick_for_tests(&platform);
        let benchmarks = vec![benchmark("soplex_like").unwrap()];
        let a = build_database(&platform, &benchmarks, &options);
        let b = build_database(&platform, &benchmarks, &options);
        assert_eq!(
            a.benchmark("soplex_like").unwrap(),
            b.benchmark("soplex_like").unwrap()
        );
    }
}
