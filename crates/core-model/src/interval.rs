//! The ground-truth interval performance model (Sniper substitute).

use crate::phase::PhaseCharacterization;
use qosrm_types::{CoreSizeIdx, FreqLevel, IntervalStats, MemoryParams, PlatformConfig, VfPoint};
use serde::{Deserialize, Serialize};

/// Timing outcome of executing one interval of a phase at a given
/// configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IntervalOutcome {
    /// Total interval time in seconds.
    pub time_seconds: f64,
    /// Compute (non-stalled) component in seconds.
    pub exec_seconds: f64,
    /// Memory-stall component in seconds.
    pub stall_seconds: f64,
    /// LLC misses during the interval.
    pub llc_misses: u64,
    /// Leading (stall-causing) misses during the interval.
    pub leading_misses: u64,
    /// Effective memory latency after bandwidth queueing, in nanoseconds.
    pub effective_latency_ns: f64,
}

impl IntervalOutcome {
    /// Instructions per second at this configuration.
    pub fn ips(&self, instructions: u64) -> f64 {
        instructions as f64 / self.time_seconds.max(f64::MIN_POSITIVE)
    }
}

/// The interval-based core performance model.
///
/// Unlike the simple analytical models inside the resource manager, the
/// ground-truth model includes a bandwidth-queueing term: when the miss
/// bandwidth demanded by a core approaches its equal share of the memory
/// bandwidth, the effective memory latency inflates. The resource manager's
/// models ignore this effect, which is one of the modeling-error sources the
/// paper's QoS-violation analysis studies.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IntervalModel {
    memory: MemoryParams,
    num_cores: usize,
    /// Strength of the bandwidth-queueing latency inflation.
    queue_coefficient: f64,
}

impl IntervalModel {
    /// Creates the model for a platform.
    pub fn new(platform: &PlatformConfig) -> Self {
        IntervalModel {
            memory: platform.memory,
            num_cores: platform.num_cores,
            queue_coefficient: 1.0,
        }
    }

    /// Evaluates the timing of one interval of `phase` at configuration
    /// `(size, vf, ways)`.
    pub fn evaluate(
        &self,
        phase: &PhaseCharacterization,
        size: CoreSizeIdx,
        vf: VfPoint,
        ways: usize,
    ) -> IntervalOutcome {
        let n = phase.instructions as f64;
        let exec_cpi = phase.exec_cpi[size.index()];
        let exec_seconds = n * exec_cpi / vf.freq_hz();

        let misses = phase.misses_at(ways);
        let leading = phase.leading_at(size, ways);
        let base_latency_s = self.memory.latency_ns * 1e-9;

        // Fixed-point iteration (two rounds) of the bandwidth-queueing term:
        // the effective latency depends on the interval duration, which in
        // turn depends on the effective latency.
        let bw_share = self.memory.per_core_bandwidth_gbs(self.num_cores) * 1e9; // bytes/s
        let bytes = misses as f64 * self.memory.line_bytes as f64;
        let mut latency_s = base_latency_s;
        for _ in 0..2 {
            let time = (exec_seconds + leading as f64 * latency_s).max(1e-12);
            let demand = bytes / time;
            let utilization = (demand / bw_share).min(1.5);
            latency_s = base_latency_s * (1.0 + self.queue_coefficient * utilization);
        }

        let stall_seconds = leading as f64 * latency_s;
        IntervalOutcome {
            time_seconds: exec_seconds + stall_seconds,
            exec_seconds,
            stall_seconds,
            llc_misses: misses,
            leading_misses: leading,
            effective_latency_ns: latency_s * 1e9,
        }
    }

    /// Evaluates the interval and renders it as the hardware performance
    /// counter view the resource manager would observe.
    pub fn interval_stats(
        &self,
        phase: &PhaseCharacterization,
        size: CoreSizeIdx,
        freq: FreqLevel,
        vf: VfPoint,
        ways: usize,
    ) -> IntervalStats {
        let outcome = self.evaluate(phase, size, vf, ways);
        let cycles = (outcome.time_seconds * vf.freq_hz()).round() as u64;
        let exec_cycles = (outcome.exec_seconds * vf.freq_hz()).round() as u64;
        IntervalStats {
            instructions: phase.instructions,
            cycles,
            exec_cycles,
            llc_accesses: phase.llc_accesses,
            llc_misses: outcome.llc_misses,
            leading_misses: outcome.leading_misses,
            elapsed_seconds: outcome.time_seconds,
            freq,
            core_size: size,
            ways,
        }
    }

    /// The memory parameters the model was built with.
    pub fn memory(&self) -> &MemoryParams {
        &self.memory
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qosrm_types::CoreSizeIdx;

    fn phase() -> PhaseCharacterization {
        PhaseCharacterization {
            instructions: 100_000_000,
            llc_accesses: 2_000_000,
            exec_cpi: vec![1.4, 1.0, 0.8],
            misses_per_way: vec![
                1_000_000, 800_000, 600_000, 450_000, 380_000, 330_000, 300_000, 280_000, 265_000,
                255_000, 248_000, 243_000, 239_000, 236_000, 234_000, 233_000,
            ],
            leading_misses: vec![
                (0..16)
                    .map(|w| {
                        (vec![
                            1_000_000u64,
                            800_000,
                            600_000,
                            450_000,
                            380_000,
                            330_000,
                            300_000,
                            280_000,
                            265_000,
                            255_000,
                            248_000,
                            243_000,
                            239_000,
                            236_000,
                            234_000,
                            233_000,
                        ][w] as f64
                            * 0.9) as u64
                    })
                    .collect(),
                (0..16)
                    .map(|w| {
                        (vec![
                            1_000_000u64,
                            800_000,
                            600_000,
                            450_000,
                            380_000,
                            330_000,
                            300_000,
                            280_000,
                            265_000,
                            255_000,
                            248_000,
                            243_000,
                            239_000,
                            236_000,
                            234_000,
                            233_000,
                        ][w] as f64
                            * 0.55) as u64
                    })
                    .collect(),
                (0..16)
                    .map(|w| {
                        (vec![
                            1_000_000u64,
                            800_000,
                            600_000,
                            450_000,
                            380_000,
                            330_000,
                            300_000,
                            280_000,
                            265_000,
                            255_000,
                            248_000,
                            243_000,
                            239_000,
                            236_000,
                            234_000,
                            233_000,
                        ][w] as f64
                            * 0.35) as u64
                    })
                    .collect(),
            ],
            atd_misses_per_way: vec![
                1_000_000, 800_000, 600_000, 450_000, 380_000, 330_000, 300_000, 280_000, 265_000,
                255_000, 248_000, 243_000, 239_000, 236_000, 234_000, 233_000,
            ],
        }
    }

    fn platform() -> PlatformConfig {
        PlatformConfig::paper2(4)
    }

    #[test]
    fn higher_frequency_shrinks_only_exec_time() {
        let p = platform();
        let model = IntervalModel::new(&p);
        let ph = phase();
        let slow = model.evaluate(&ph, CoreSizeIdx(1), p.vf.point(FreqLevel(0)), 4);
        let fast = model.evaluate(&ph, CoreSizeIdx(1), p.vf.point(p.vf.max_level()), 4);
        assert!(fast.exec_seconds < slow.exec_seconds);
        // Stall time is (nearly) frequency independent: it may only shrink
        // slightly because the shorter interval raises bandwidth pressure.
        assert!(fast.stall_seconds >= slow.stall_seconds * 0.99);
        assert!(fast.time_seconds < slow.time_seconds);
    }

    #[test]
    fn more_ways_reduce_time() {
        let p = platform();
        let model = IntervalModel::new(&p);
        let ph = phase();
        let few = model.evaluate(&ph, CoreSizeIdx(1), p.vf.point(p.vf.baseline()), 1);
        let many = model.evaluate(&ph, CoreSizeIdx(1), p.vf.point(p.vf.baseline()), 16);
        assert!(many.time_seconds < few.time_seconds);
        assert!(many.llc_misses < few.llc_misses);
    }

    #[test]
    fn bigger_core_reduces_both_components() {
        let p = platform();
        let model = IntervalModel::new(&p);
        let ph = phase();
        let small = model.evaluate(&ph, CoreSizeIdx(0), p.vf.point(p.vf.baseline()), 4);
        let large = model.evaluate(&ph, CoreSizeIdx(2), p.vf.point(p.vf.baseline()), 4);
        assert!(large.exec_seconds < small.exec_seconds);
        assert!(large.stall_seconds < small.stall_seconds);
        assert!(large.leading_misses < small.leading_misses);
    }

    #[test]
    fn queueing_inflates_latency_under_pressure() {
        let p = platform();
        let model = IntervalModel::new(&p);
        let mut ph = phase();
        // A very miss-heavy phase at a high frequency drives up bandwidth demand.
        for m in &mut ph.misses_per_way {
            *m *= 8;
        }
        for row in &mut ph.leading_misses {
            for m in row {
                *m *= 8;
            }
        }
        let outcome = model.evaluate(&ph, CoreSizeIdx(2), p.vf.point(p.vf.max_level()), 1);
        assert!(outcome.effective_latency_ns > model.memory().latency_ns * 1.2);

        let light = model.evaluate(&phase(), CoreSizeIdx(0), p.vf.point(FreqLevel(0)), 16);
        assert!(light.effective_latency_ns < outcome.effective_latency_ns);
    }

    #[test]
    fn interval_stats_reflect_outcome() {
        let p = platform();
        let model = IntervalModel::new(&p);
        let ph = phase();
        let stats = model.interval_stats(
            &ph,
            CoreSizeIdx(1),
            p.vf.baseline(),
            p.vf.point(p.vf.baseline()),
            4,
        );
        let outcome = model.evaluate(&ph, CoreSizeIdx(1), p.vf.point(p.vf.baseline()), 4);
        assert_eq!(stats.instructions, ph.instructions);
        assert_eq!(stats.llc_misses, outcome.llc_misses);
        assert!((stats.elapsed_seconds - outcome.time_seconds).abs() < 1e-12);
        assert!(stats.exec_cycles < stats.cycles);
        assert!(stats.measured_mlp() > 1.0);
        assert_eq!(stats.ways, 4);
    }

    #[test]
    fn ips_is_consistent() {
        let p = platform();
        let model = IntervalModel::new(&p);
        let ph = phase();
        let o = model.evaluate(&ph, CoreSizeIdx(1), p.vf.point(p.vf.baseline()), 8);
        let ips = o.ips(ph.instructions);
        assert!((ips * o.time_seconds - ph.instructions as f64).abs() < 1.0);
    }
}
