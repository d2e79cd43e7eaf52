//! # qosrm-bench
//!
//! The performance-regression gate ([`gate`], run by the `bench_gate`
//! binary) and the fixtures its workloads share.

#![warn(missing_docs)]

pub mod gate;

use qosrm_types::{
    CoreId, CoreObservation, CoreScalingProfile, MissProfile, MlpProfile, PlatformConfig,
    SystemSetting,
};
use simdb::{GroundTruth, SimDb};
use workload::WorkloadMix;

/// A representative 4-application workload used by several gate workloads.
pub(crate) fn default_mix() -> WorkloadMix {
    WorkloadMix::new(
        "bench-mix",
        vec!["mcf_like", "soplex_like", "libquantum_like", "gamess_like"],
    )
}

/// Builds the observations the cores running `mix` would hand to the
/// resource manager after one interval of each benchmark's first phase, at
/// the baseline setting (core `i` runs `mix.benchmarks[i]`).
pub(crate) fn observations(
    db: &SimDb,
    platform: &PlatformConfig,
    mix: &WorkloadMix,
) -> Vec<CoreObservation> {
    let ground_truth = GroundTruth::new(platform);
    let observe = |(core, benchmark): (usize, &String)| {
        let record = db.benchmark(benchmark).expect("benchmark in database");
        let phase = record.phase(record.trace.phase_at(0));
        let setting = SystemSetting::baseline(platform).core(CoreId(core));
        CoreObservation {
            app: qosrm_types::AppId(core),
            stats: ground_truth.interval_stats(phase, setting),
            miss_profile: MissProfile::new(phase.atd_misses_per_way.clone()),
            mlp_profile: Some(MlpProfile::new(phase.leading_misses.clone())),
            scaling_profile: Some(CoreScalingProfile::new(phase.exec_cpi.clone())),
            perfect: None,
        }
    };
    mix.benchmarks.iter().enumerate().map(observe).collect()
}
