//! # qosrm-core
//!
//! QoS-driven coordinated management of per-core DVFS, LLC way-partitioning
//! and core micro-architecture configuration — the resource managers proposed
//! by the paper (and its Paper II extension), implemented against the
//! [`qosrm_types::ResourceManager`] interface.
//!
//! ## How the manager works
//!
//! Every core invokes the resource management algorithm (RMA) after executing
//! a fixed number of instructions (one *interval*). The invocation proceeds
//! in four steps, mirroring Figure 3 of the paper:
//!
//! 1. **Observation** — the RMA reads the core's hardware performance
//!    counters, the Auxiliary Tag Directory (ATD) miss profile and, on a
//!    Paper II platform, the MLP-aware ATD and ILP-monitor profiles.
//! 2. **Prediction** — simple analytical models
//!    ([`model::PerformanceModel`], [`model::AnalyticalEnergyModel`]) predict
//!    the interval's execution time and energy for *every* candidate
//!    configuration `(core size, VF level, ways)`.
//! 3. **Local optimization** ([`local`]) — the QoS target (the predicted
//!    baseline performance, optionally relaxed) prunes the per-core space:
//!    for every way count `w` the cheapest `(core size, VF)` pair that still
//!    meets the target is kept, producing an energy-versus-ways curve.
//! 4. **Global optimization** ([`global`]) — the curves of all cores are
//!    reduced pairwise (a min-plus convolution with argmin backtracking)
//!    until the partition of the LLC ways that minimizes total energy is
//!    found; each core then receives its optimal ways together with the
//!    VF level and core size recorded on its curve.
//!
//! ## The managers
//!
//! [`rma::CoordinatedRma`] implements all the schemes the paper evaluates:
//!
//! | constructor | paper name | controls | model |
//! |---|---|---|---|
//! | [`rma::CoordinatedRma::partitioning_only`] | RM1 | LLC ways | constant-MLP |
//! | [`rma::CoordinatedRma::dvfs_only`] | DVFS-only | VF | constant-MLP |
//! | [`rma::CoordinatedRma::paper1`] | RM2 / Combined RMA | VF + ways | constant-MLP (Model 2) |
//! | [`rma::CoordinatedRma::paper2`] | RM3 | core size + VF + ways | MLP-aware (Model 3) |
//! | [`rma::CoordinatedRma::with_model`] | — | configurable | Model 1 / 2 / 3 / perfect |
//! | [`rma::CoordinatedRma::nash_best_response`] | — (NashBR) | VF + ways, selfish cores | constant-MLP |
//! | [`rma::CoordinatedRma::nash_equilibrium`] | — (NashEq) | VF + ways, best equilibrium | constant-MLP |
//!
//! The Nash variants replace step 4's cooperative arbiter with the
//! game-theoretic solvers of [`game`]; E10 reports their price of anarchy
//! against RM2.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod curve;
pub mod curve_builder;
pub mod game;
pub mod global;
pub mod local;
pub mod memo;
pub mod model;
pub mod overhead;
pub mod rma;

pub use curve::{CurvePoint, EnergyCurve};
pub use curve_builder::{CurveBuild, CurveBuilder};
pub use game::{
    best_response, is_pure_nash, min_energy_equilibrium, total_energy, GameConfig, GameOutcome,
    GameStats, PartitionAlgo,
};
pub use global::{
    exhaustive_partition, optimize_partition, optimize_partition_scalar,
    optimize_partition_unpruned, optimize_partition_with_stats, Budget, IncrementalOptimizer,
    PruneStats, WarmStats,
};
pub use local::{LocalOptimizer, LocalOptimizerConfig};
pub use memo::{CurveCache, CurveKey};
pub use model::{AnalyticalEnergyModel, ModelKind, PerformanceModel, Prediction};
pub use overhead::OverheadModel;
pub use rma::{CoordinatedRma, RmaConfig, RmaWorkCounters};
