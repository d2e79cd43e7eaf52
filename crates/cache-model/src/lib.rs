//! # cache-model
//!
//! Last-level cache substrate for the QoS-driven resource management
//! reproduction:
//!
//! * a detailed **set-associative, way-partitioned LLC** with LRU replacement
//!   ([`cache::PartitionedCache`]) used as the ground-truth cache simulator,
//! * a one-pass **LRU stack-distance profiler** ([`profile::StackDistanceProfiler`])
//!   that yields the miss count for *every* possible way allocation
//!   simultaneously (the property exploited by utility-based cache
//!   partitioning), and the characterization's one replay per slice
//!   ([`profile::SliceReplay`]) that fills the exact and the ATD-sampled
//!   miss histograms plus the compact per-access records the leading-miss
//!   kernel reads,
//! * the **Auxiliary Tag Directory** hardware model ([`atd::Atd`]) — a
//!   set-sampled shadow directory with per-way hit counters, as used by the
//!   paper to predict the cache-miss profile of each application at run time,
//! * the Paper II **MLP-aware ATD extension** ([`mlp_atd::MlpAtd`]) that
//!   detects overlapping misses and estimates the number of *leading* misses
//!   for every (core size, way allocation) combination.
//!
//! The crate operates on synthetic memory reference streams produced by the
//! `workload` crate; each access carries the cache-line address and the index
//! of the instruction that issued it.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod access;
pub mod atd;
pub mod cache;
pub mod mlp_atd;
pub mod profile;
pub mod replacement;

pub use access::{Access, AccessTrace};
pub use atd::{Atd, AtdConfig};
pub use cache::{AccessOutcome, CacheStats, PartitionedCache};
pub use mlp_atd::{LeadingMissMatrix, MlpAtd, MlpAtdConfig, OverlapParams};
pub use profile::{MissHistogram, ReplayProfile, SliceReplay, StackDistanceProfiler};
pub use replacement::{LruStack, ReplacementPolicy};
