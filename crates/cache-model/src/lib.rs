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
//! * the Paper II **leading-miss kernel**
//!   ([`profile::ReplayProfile::leading_miss_matrix`]) that detects
//!   overlapping misses and counts the *leading* misses for every
//!   (core size, way allocation) combination.
//!
//! The paper's Auxiliary Tag Directory (a set-sampled shadow directory with
//! per-way hit counters) and its MLP-aware extension are modelled by what
//! they report, not as hardware structures: the characterization's one
//! replay fills the ATD view's miss histogram from the sampled sets'
//! stacks, and the leading-miss kernel counts every real miss.
//!
//! The crate operates on synthetic memory reference streams produced by the
//! `workload` crate; each access carries the cache-line address and the index
//! of the instruction that issued it.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod access;
pub mod cache;
pub mod profile;
pub mod replacement;

pub use access::{Access, AccessTrace};
pub use cache::{AccessOutcome, CacheStats, PartitionedCache};
pub use profile::{
    LeadingMissMatrix, MissHistogram, OverlapParams, ReplayProfile, SliceReplay,
    StackDistanceProfiler,
};
pub use replacement::{LruStack, ReplacementPolicy};
