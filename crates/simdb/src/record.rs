//! Database records.

use core_model::PhaseCharacterization;
use qosrm_types::{PhaseId, PlatformConfig, QosrmError};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use workload::{AppCategory, PhaseTrace};

/// Everything the RMA simulator needs to know about one benchmark.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchmarkRecord {
    /// Benchmark name.
    pub name: String,
    /// Characterization of every phase (indexed by [`PhaseId`]).
    pub phases: Vec<PhaseCharacterization>,
    /// Phase trace of a full execution.
    pub trace: PhaseTrace,
    /// Category under the Paper I / Paper II criteria.
    pub category: AppCategory,
}

impl BenchmarkRecord {
    /// The characterization of phase `phase`.
    pub fn phase(&self, phase: PhaseId) -> &PhaseCharacterization {
        &self.phases[phase.index()]
    }

    /// Number of intervals in one full execution of the benchmark.
    pub fn trace_intervals(&self) -> usize {
        self.trace.len()
    }

    /// Validates internal consistency.
    pub fn validate(&self) -> Result<(), QosrmError> {
        if self.phases.is_empty() {
            return Err(QosrmError::InvalidWorkload(format!(
                "{}: no phases in record",
                self.name
            )));
        }
        if self.trace.num_phases() != self.phases.len() {
            return Err(QosrmError::InvalidWorkload(format!(
                "{}: trace references {} phases, record has {}",
                self.name,
                self.trace.num_phases(),
                self.phases.len()
            )));
        }
        for p in &self.phases {
            p.validate()?;
        }
        Ok(())
    }
}

/// The simulation-results database: benchmark records plus the platform they
/// were characterized against.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimDb {
    platform: PlatformConfig,
    benchmarks: BTreeMap<String, BenchmarkRecord>,
}

impl SimDb {
    /// Creates a database from records.
    pub fn new(platform: PlatformConfig, records: Vec<BenchmarkRecord>) -> Self {
        let benchmarks = records.into_iter().map(|r| (r.name.clone(), r)).collect();
        SimDb {
            platform,
            benchmarks,
        }
    }

    /// The platform the database was built for.
    pub fn platform(&self) -> &PlatformConfig {
        &self.platform
    }

    /// Number of benchmarks in the database.
    pub fn len(&self) -> usize {
        self.benchmarks.len()
    }

    /// Whether the database holds no benchmarks.
    pub fn is_empty(&self) -> bool {
        self.benchmarks.is_empty()
    }

    /// Names of the stored benchmarks.
    pub fn benchmark_names(&self) -> impl Iterator<Item = &str> {
        self.benchmarks.keys().map(String::as_str)
    }

    /// Looks up a benchmark record.
    pub fn benchmark(&self, name: &str) -> Option<&BenchmarkRecord> {
        self.benchmarks.get(name)
    }

    /// Looks up a benchmark record, returning an error naming the benchmark
    /// when it is missing.
    pub fn require(&self, name: &str) -> Result<&BenchmarkRecord, QosrmError> {
        self.benchmark(name)
            .ok_or_else(|| QosrmError::MissingRecord(format!("benchmark {name} not in database")))
    }

    /// Inserts (or replaces) a record.
    pub fn insert(&mut self, record: BenchmarkRecord) {
        self.benchmarks.insert(record.name.clone(), record);
    }

    /// Validates every record.
    pub fn validate(&self) -> Result<(), QosrmError> {
        self.platform.validate()?;
        for r in self.benchmarks.values() {
            r.validate()?;
        }
        Ok(())
    }

    /// Total number of stored phase characterizations.
    pub fn num_phases(&self) -> usize {
        self.benchmarks.values().map(|r| r.phases.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qosrm_types::PhaseId;
    use workload::{Paper1Category, Paper2Category};

    fn tiny_phase() -> PhaseCharacterization {
        PhaseCharacterization {
            instructions: 1_000_000,
            llc_accesses: 10_000,
            exec_cpi: vec![1.0],
            misses_per_way: vec![100, 80, 60, 50],
            leading_misses: vec![vec![90, 72, 55, 45]],
            atd_misses_per_way: vec![100, 80, 60, 50],
        }
    }

    fn record(name: &str) -> BenchmarkRecord {
        BenchmarkRecord {
            name: name.to_string(),
            phases: vec![tiny_phase(), tiny_phase()],
            trace: PhaseTrace::generate(&[0.5, 0.5], 10, 3, 1).unwrap(),
            category: AppCategory {
                paper1: Paper1Category {
                    memory_intensive: false,
                    cache_sensitive: false,
                },
                paper2: Paper2Category {
                    cache_sensitive: false,
                    parallelism_sensitive: false,
                },
            },
        }
    }

    #[test]
    fn insert_and_lookup() {
        let platform = PlatformConfig::paper1(4);
        let mut db = SimDb::new(platform, vec![record("a"), record("b")]);
        assert_eq!(db.len(), 2);
        assert!(!db.is_empty());
        assert!(db.benchmark("a").is_some());
        assert!(db.benchmark("c").is_none());
        assert!(db.require("c").is_err());
        db.insert(record("c"));
        assert!(db.require("c").is_ok());
        assert_eq!(db.num_phases(), 6);
        assert!(db.validate().is_ok());
        assert_eq!(db.benchmark_names().count(), 3);
    }

    #[test]
    fn record_accessors_and_validation() {
        let r = record("x");
        assert!(r.validate().is_ok());
        assert_eq!(r.trace_intervals(), 10);
        assert_eq!(r.phase(PhaseId(1)).instructions, 1_000_000);

        let mut bad = record("y");
        bad.phases.pop(); // trace still references 2 phases
        assert!(bad.validate().is_err());
        let mut bad = record("z");
        bad.phases.clear();
        assert!(bad.validate().is_err());
    }
}
