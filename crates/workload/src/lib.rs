//! # workload
//!
//! Synthetic SPEC-CPU2006-like benchmark suite, phase analysis and workload
//! mix generation.
//!
//! The paper evaluates its resource managers on multi-programmed workloads of
//! SPEC CPU2006 benchmarks, characterized through SimPoint phase analysis of
//! whole-program pinballs. Neither the benchmarks nor the pinballs can be
//! redistributed, so this crate builds the closest synthetic equivalent:
//!
//! * a suite of named **application profiles** ([`suite`]) spanning the same
//!   characteristic space the paper's categorization uses — memory intensive
//!   vs. compute intensive, cache sensitive vs. insensitive, and (Paper II)
//!   parallelism sensitive vs. insensitive;
//! * each application is a sequence of **phases** ([`phase`]), and each phase
//!   deterministically generates a synthetic LLC **reference stream**
//!   ([`stream`]) with a controlled working-set mixture, streaming fraction
//!   and miss burstiness;
//! * a **characterization** step ([`characterize`]) that replays the stream
//!   through the cache substrate and produces the
//!   [`core_model::PhaseCharacterization`] ground truth (plus the ATD-sampled
//!   miss curve) for the simulation database;
//! * **phase traces** ([`trace`]) with per-phase weights, mirroring the
//!   SimPoint output the co-phase simulator consumes (the synthetic suite
//!   knows its phases by construction, so no clustering step runs);
//! * the paper's **application categorization** ([`category`]) and the
//!   **workload mixes** ([`mixes`]) used by every experiment;
//! * a seeded **mix synthesizer** ([`synth`]) that expands a serializable
//!   [`SynthSpec`] into arbitrarily many mixes drawn from the category
//!   pools — deterministic per `(seed, index)`, so scenario sweeps can scale
//!   far beyond the hand-enumerated paper mixes.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod category;
pub mod characterize;
pub mod mixes;
pub mod phase;
pub mod stream;
pub mod suite;
pub mod synth;
pub mod trace;

pub use category::{classify, AppCategory, CategoryThresholds, Paper1Category, Paper2Category};
pub use characterize::{CharacterizationConfig, PhaseCharacterizer};
pub use mixes::{
    paper1_workloads, paper2_category_representatives, paper2_scenario_workloads,
    paper2_sixteen_mixes, validate_mix_axis, WorkloadMix,
};
pub use phase::{PhaseSpec, Region};
pub use stream::StreamGenerator;
pub use suite::{benchmark, benchmark_names, BenchmarkProfile};
pub use synth::{MixPopulation, SynthSpec};
pub use trace::PhaseTrace;
