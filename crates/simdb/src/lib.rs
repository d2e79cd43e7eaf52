//! # simdb
//!
//! The simulation-results database of the evaluation pipeline.
//!
//! The paper performs one expensive, embarrassingly parallel step up front:
//! detailed Sniper + McPAT simulation of every benchmark phase for every
//! resource setting, collected into a database that all subsequent
//! resource-management experiments reuse. This crate reproduces that step:
//!
//! * [`builder`] characterizes every phase of every requested benchmark in
//!   parallel (Rayon) using the `workload` and `cache-model` substrates. Its
//!   [`RecordStore`] keeps those characterizations for a session, keyed by
//!   the inputs the characterizer reads, so each benchmark is characterized
//!   once and every further database on a compatible platform is assembled
//!   from stored records (only the platform-dependent category is
//!   recomputed);
//! * [`record`] stores the per-benchmark phase characterizations, phase
//!   traces and categories;
//! * [`ground_truth`] evaluates timing (via `core-model`) and energy (via
//!   `power-model`) for any `(phase, core size, VF level, ways)` point — the
//!   "query the database" operation of the RMA simulator;
//! * [`persist`] saves and loads the database as JSON so the expensive step
//!   can be cached across experiment runs.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod builder;
pub mod ground_truth;
pub mod persist;
pub mod record;

pub use builder::{build_database, BuildOptions, RecordStore, StoreCounters};
pub use ground_truth::GroundTruth;
pub use record::{BenchmarkRecord, SimDb};
