//! Shared experiment infrastructure: the session context (database
//! construction and caching, quick-mode limits, telemetry) and summary
//! statistics.

use crate::sweep::SweepOptions;
use crate::sync::LockUnpoisoned;
use qosrm_core::{CurveCache, RmaWorkCounters};
use qosrm_types::PlatformConfig;
use simdb::builder::BuildOptions;
use simdb::{RecordStore, SimDb};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use workload::WorkloadMix;

/// Session-wide aggregation of the measured RMA work counters
/// ([`RmaWorkCounters`]) of every manager a sweep evaluated. The sweep
/// engine folds each manager's cumulative counters in after its run, so a
/// resident serving process can expose — via `qosrm_serve`'s `/stats` —
/// how much optimization work it actually performed and how much the
/// chunked kernels and the incremental delta path skipped.
#[derive(Debug, Default)]
pub struct RmaTelemetry {
    counters: Mutex<RmaWorkCounters>,
}

impl RmaTelemetry {
    /// Folds one manager's cumulative counters into the aggregate.
    pub fn absorb(&self, counters: &RmaWorkCounters) {
        // Exhaustive destructuring (no `..`), mirroring the counters'
        // `Display`: adding a counter fails compilation here until the
        // aggregate covers it.
        let RmaWorkCounters {
            invocations,
            curve_builds,
            local_evaluations,
            reduction_ops,
            reduction_pruned,
            qos_at_risk_intervals,
            game_rounds,
            best_response_evaluations,
            equilibria_examined,
            delta_invocations,
            curves_patched,
            warm_rows_reused,
            chunked_conv_lanes,
        } = *counters;
        let mut total = self.counters.lock_unpoisoned();
        total.invocations += invocations;
        total.curve_builds += curve_builds;
        total.local_evaluations += local_evaluations;
        total.reduction_ops += reduction_ops;
        total.reduction_pruned += reduction_pruned;
        total.qos_at_risk_intervals += qos_at_risk_intervals;
        total.game_rounds += game_rounds;
        total.best_response_evaluations += best_response_evaluations;
        total.equilibria_examined += equilibria_examined;
        total.delta_invocations += delta_invocations;
        total.curves_patched += curves_patched;
        total.warm_rows_reused += warm_rows_reused;
        total.chunked_conv_lanes += chunked_conv_lanes;
    }

    /// The aggregated counters so far.
    pub fn snapshot(&self) -> RmaWorkCounters {
        *self.counters.lock_unpoisoned()
    }
}

/// Shared state of an experiment session.
pub struct ExperimentContext {
    /// Quick mode: fewer workloads and a coarser characterization, intended
    /// for smoke tests and CI.
    pub quick: bool,
    /// Optional directory where simulation databases are cached as JSON.
    pub cache_dir: Option<PathBuf>,
    /// How `sweep::run` executes grids (parallel, memoized and on the delta
    /// path by default).
    pub sweep: SweepOptions,
    /// Energy-curve memoization cache shared by every memoized sweep of the
    /// session (keys include platform/config digests, so scenarios from
    /// different grids never collide).
    curve_cache: Arc<CurveCache>,
    /// Aggregated measured RMA work of every sweep-evaluated manager of the
    /// session (see [`RmaTelemetry`]).
    rma_telemetry: Arc<RmaTelemetry>,
    /// Benchmark characterizations shared by every database the session
    /// builds.
    records: RecordStore,
    databases: Mutex<HashMap<String, SimDb>>,
}

impl ExperimentContext {
    /// Creates a context. `quick` selects the reduced configuration.
    pub fn new(quick: bool) -> Self {
        ExperimentContext {
            quick,
            cache_dir: None,
            sweep: SweepOptions::default(),
            curve_cache: Arc::new(CurveCache::new()),
            rma_telemetry: Arc::new(RmaTelemetry::default()),
            records: RecordStore::new(),
            databases: Mutex::new(HashMap::new()),
        }
    }

    /// Enables on-disk caching of simulation databases under `dir`.
    pub fn with_cache_dir(mut self, dir: PathBuf) -> Self {
        self.cache_dir = Some(dir);
        self
    }

    /// Overrides the sweep execution options (e.g. to force the serial
    /// reference path).
    pub fn with_sweep_options(mut self, options: SweepOptions) -> Self {
        self.sweep = options;
        self
    }

    /// The session-wide energy-curve cache.
    pub fn curve_cache(&self) -> &Arc<CurveCache> {
        &self.curve_cache
    }

    /// The session-wide aggregated RMA work telemetry.
    pub fn rma_telemetry(&self) -> &Arc<RmaTelemetry> {
        &self.rma_telemetry
    }

    /// The session's benchmark characterizations (its counters tell how many
    /// records the session's database builds characterized and reused).
    pub fn record_store(&self) -> &RecordStore {
        &self.records
    }

    /// Workload prefix kept by quick mode (the representative subset the
    /// smoke tests and CI run).
    pub const QUICK_WORKLOAD_PREFIX: usize = 4;

    /// Limits a workload list according to the quick mode (keeps a
    /// representative prefix).
    pub fn limit_workloads(&self, mixes: Vec<WorkloadMix>) -> Vec<WorkloadMix> {
        if self.quick {
            mixes
                .into_iter()
                .take(Self::QUICK_WORKLOAD_PREFIX)
                .collect()
        } else {
            mixes
        }
    }

    /// The spec-level mirror of [`ExperimentContext::limit_workloads`]: a
    /// [`crate::spec::MixSelection`] keeping the quick-mode prefix of a
    /// workload source (and everything in full mode) — the single source of
    /// the quick-mode cap for the E-module specs.
    pub fn quick_mix_selection(&self) -> crate::spec::MixSelection {
        if self.quick {
            crate::spec::MixSelection::limit(Self::QUICK_WORKLOAD_PREFIX)
        } else {
            crate::spec::MixSelection::ALL
        }
    }

    /// Database build options for a platform.
    fn build_options(&self, platform: &PlatformConfig) -> BuildOptions {
        if self.quick {
            BuildOptions::quick_for_tests(platform)
        } else {
            BuildOptions::for_platform(platform)
        }
    }

    /// Returns (building and caching if necessary) the simulation database
    /// covering `mixes` on `platform`.
    ///
    /// The database cache key digests the *full* platform configuration:
    /// the simulator takes its platform from the database, so two platforms
    /// differing in any parameter (e.g. only the baseline VF level, as in
    /// E4's sensitivity axes) must never share a database. A new database is
    /// assembled through the session's [`RecordStore`], which characterizes
    /// only the benchmarks it has not seen under the platform's
    /// characterizer inputs. With a cache directory, each database is one
    /// JSON file there; a failed save is reported on stderr and never
    /// repeats the build.
    pub fn database(&self, platform: &PlatformConfig, mixes: &[WorkloadMix]) -> SimDb {
        let mut names: Vec<&str> = mixes
            .iter()
            .flat_map(|m| m.benchmarks.iter().map(String::as_str))
            .collect();
        names.sort_unstable();
        names.dedup();
        let platform_digest = qosrm_core::memo::fingerprint(platform);
        let key = format!(
            "{:016x}{:016x}-{}-{}",
            platform_digest.0,
            platform_digest.1,
            if self.quick { "quick" } else { "full" },
            names.join(",")
        );
        {
            let cache = self.databases.lock_unpoisoned();
            if let Some(db) = cache.get(&key) {
                return db.clone();
            }
        }
        let options = self.build_options(platform);
        let build = || self.records.database_for_mixes(platform, mixes, &options);
        let db = if let Some(dir) = &self.cache_dir {
            let digest = fnv(&key);
            let path = dir.join(format!("simdb-{digest:016x}.json"));
            let (db, saved) = simdb::persist::load_or_build(&path, build);
            if let Err(e) = saved {
                eprintln!(
                    "warning: simulation database not cached at {}: {e}",
                    path.display()
                );
            }
            db
        } else {
            build()
        };
        self.databases.lock_unpoisoned().insert(key, db.clone());
        db
    }
}

fn fnv(s: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x1000_0000_01b3);
    }
    hash
}

/// Mean of a slice (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Maximum of a slice (0 when empty).
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statistics_helpers() {
        assert_eq!(mean(&[]), 0.0);
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
        assert_eq!(max(&[]), 0.0);
        assert!((max(&[0.4, -1.0, 0.2]) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn quick_mode_limits_workloads() {
        let ctx = ExperimentContext::new(true);
        let mixes = workload::paper1_workloads(4);
        assert_eq!(ctx.limit_workloads(mixes.clone()).len(), 4);
        let full = ExperimentContext::new(false);
        assert_eq!(full.limit_workloads(mixes.clone()).len(), mixes.len());
    }

    #[test]
    fn database_is_memoized() {
        let ctx = ExperimentContext::new(true);
        let platform = PlatformConfig::paper2(4);
        let mixes = vec![WorkloadMix::new(
            "t",
            vec!["gamess_like", "povray_like", "gamess_like", "povray_like"],
        )];
        let a = ctx.database(&platform, &mixes);
        let b = ctx.database(&platform, &mixes);
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn unwritable_cache_dir_builds_each_database_once() {
        let file = std::env::temp_dir().join(format!("qosrm_ctx_cache_{}", std::process::id()));
        std::fs::write(&file, "a regular file, not a cache directory").unwrap();
        let ctx = ExperimentContext::new(true).with_cache_dir(file.clone());
        let platform = PlatformConfig::paper2(4);
        let mixes = vec![WorkloadMix::new(
            "t",
            vec!["gamess_like", "povray_like", "gamess_like", "povray_like"],
        )];
        let db = ctx.database(&platform, &mixes);
        assert_eq!(db, ExperimentContext::new(true).database(&platform, &mixes));
        // The failed save neither loses the build nor repeats it.
        let counters = ctx.record_store().counters();
        assert_eq!((counters.records_built, counters.records_reused), (2, 0));
        std::fs::remove_file(&file).ok();
    }
}
