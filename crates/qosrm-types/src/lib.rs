//! # qosrm-types
//!
//! Shared vocabulary types for the *QoS-driven coordinated resource management*
//! library, a reproduction of
//! "QoS-Driven Coordinated Management of Resources to Save Energy in Multi-Core
//! Systems" (Nejat, Pericàs, Stenström — IPDPS 2019) and its Paper II extension
//! (coordinated core-configuration / DVFS / LLC-partitioning control).
//!
//! This crate intentionally has no heavyweight dependencies: it defines the data
//! types exchanged between
//!
//! * the **substrates** (cache model, core model, power model, workload
//!   generator, simulation database, co-phase RMA simulator), and
//! * the **resource managers** (the paper's contribution, in `qosrm-core`).
//!
//! The central abstraction is the [`ResourceManager`] trait: a resource manager
//! is invoked once per core at the end of each execution interval (a fixed
//! instruction count, 100 M instructions in the paper), observes the per-core
//! hardware statistics of the past interval ([`CoreObservation`]) and returns a
//! new system-wide resource setting ([`SystemSetting`]) consisting of a per-core
//! voltage–frequency level, a per-core micro-architecture size and an LLC
//! way-partition.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod config;
pub mod error;
pub mod freq;
pub mod ids;
pub mod manager;
pub mod qos;
pub mod setting;
pub mod stats;

pub use cache::{LlcGeometry, WayMask, WayPartition};
pub use config::{
    CoreSizeParams, MemoryParams, PlatformConfig, DEFAULT_INTERVAL_INSTRUCTIONS, MAX_MSHRS,
    MAX_ROB_ENTRIES,
};
pub use error::QosrmError;
pub use freq::{FreqLevel, VfPoint, VfTable};
pub use ids::{AppId, CoreId, CoreSizeIdx, PhaseId};
pub use manager::{ConfigMetrics, ConfigTable, CoreObservation, ResourceManager};
pub use qos::{QosSpec, QosViolation};
pub use setting::{CoreSetting, SettingDelta, SystemSetting};
pub use stats::{CoreScalingProfile, IntervalStats, MissProfile, MlpProfile};

/// Result alias used across the workspace.
pub type Result<T> = std::result::Result<T, QosrmError>;
