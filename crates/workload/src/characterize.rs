//! Phase characterization: from a synthetic phase specification to the
//! architectural ground truth consumed by the simulation database.
//!
//! The paper performs detailed Sniper + McPAT simulations of one
//! representative slice per phase, preceded by a warm-up slice. The
//! reproduction equivalently replays a warm-up and a representative synthetic
//! reference stream through the cache substrate. To keep the cost of
//! characterizing a whole benchmark suite low, the replay is performed on a
//! *scaled* configuration: `1/scale` of the LLC sets and `1/scale` of the
//! interval instructions, with all counts multiplied back by `scale` — the
//! same dynamic set-sampling argument the ATD hardware itself relies on.
//!
//! Each phase is characterized in one pass and no trace is stored: the
//! stream generator hands the warm-up slice straight to the per-set LRU
//! stacks and each access of the representative slice to one
//! [`SliceReplay`], which fills the exact miss histogram, the ATD view's
//! histogram (its sampled sets' stacks are the exact replay's stacks) and
//! one compact record per access. One kernel then computes every core
//! size's leading misses from those records
//! ([`cache_model::ReplayProfile::leading_miss_matrix`]).

use crate::phase::PhaseSpec;
use crate::stream::StreamGenerator;
use cache_model::{OverlapParams, SliceReplay};
use core_model::{exec_cpi_curve, PhaseCharacterization};
use qosrm_types::{LlcGeometry, PlatformConfig, QosrmError};
use serde::{Deserialize, Serialize};

/// Configuration of the characterization step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CharacterizationConfig {
    /// Scaled-down LLC geometry used for the replay.
    pub sim_llc: LlcGeometry,
    /// Scaling factor between the simulated slice and the real interval
    /// (applies to both sets and instructions).
    pub scale: u64,
    /// Additional set-sampling factor of the ATD view relative to the
    /// (already scaled) simulated LLC.
    pub atd_sampling: usize,
    /// Fraction of the simulated slice used to warm the cache state before
    /// the representative slice is recorded.
    pub warmup_fraction: f64,
}

impl CharacterizationConfig {
    /// Default (full-mode) configuration for a platform: simulate 1/16 of
    /// the LLC sets (at least 64, at most all of them) and 1/16 of the
    /// interval, with an additional 1-in-8 ATD sampling.
    pub fn for_platform(platform: &PlatformConfig) -> Self {
        Self::scaled(platform, 16, 64, 8)
    }

    /// The coarser configuration of quick mode: 1/64 of the LLC sets (at
    /// least 32, at most all of them) with 1-in-2 ATD sampling. This is the
    /// production `--quick` configuration: both goldens' quick runs, the
    /// gated benchmark workloads and most tests characterize with it.
    pub fn quick_for_tests(platform: &PlatformConfig) -> Self {
        Self::scaled(platform, 64, 32, 2)
    }

    /// Simulates `1/divisor` of the LLC sets, but at least `min_sets` and
    /// never more sets than the LLC has, so `scale` is a power of two
    /// `>= 1` on every valid platform.
    fn scaled(
        platform: &PlatformConfig,
        divisor: usize,
        min_sets: usize,
        atd_sampling: usize,
    ) -> Self {
        let num_sets = platform.llc.num_sets;
        let sim_sets = (num_sets / divisor).max(min_sets).min(num_sets);
        CharacterizationConfig {
            sim_llc: LlcGeometry {
                num_sets: sim_sets,
                associativity: platform.llc.associativity,
                line_bytes: platform.llc.line_bytes,
            },
            scale: (num_sets / sim_sets) as u64,
            atd_sampling,
            warmup_fraction: 0.5,
        }
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), QosrmError> {
        self.sim_llc.validate()?;
        if self.scale == 0 {
            return Err(QosrmError::InvalidWorkload("scale must be >= 1".into()));
        }
        if !(0.0..=1.0).contains(&self.warmup_fraction) {
            return Err(QosrmError::InvalidWorkload(
                "warmup fraction must be in [0, 1]".into(),
            ));
        }
        Ok(())
    }

    /// Scales a working-set size expressed in lines of the *full* LLC down to
    /// the simulated LLC. Phase specifications are written against the full
    /// LLC; the stream generator works against the simulated one.
    pub fn scale_lines(&self, full_lines: u64) -> u64 {
        (full_lines / self.scale).max(1)
    }
}

/// Characterizes phases of the synthetic suite against a platform.
#[derive(Debug, Clone)]
pub struct PhaseCharacterizer {
    platform: PlatformConfig,
    config: CharacterizationConfig,
    overlap_params: Vec<OverlapParams>,
}

impl PhaseCharacterizer {
    /// Creates a characterizer.
    pub fn new(platform: &PlatformConfig, config: CharacterizationConfig) -> Self {
        let overlap_params = platform
            .core_sizes
            .iter()
            .map(OverlapParams::from)
            .collect();
        PhaseCharacterizer {
            platform: platform.clone(),
            config,
            overlap_params,
        }
    }

    /// Convenience constructor with the default configuration.
    pub fn for_platform(platform: &PlatformConfig) -> Self {
        PhaseCharacterizer::new(platform, CharacterizationConfig::for_platform(platform))
    }

    /// The characterization configuration.
    pub fn config(&self) -> &CharacterizationConfig {
        &self.config
    }

    /// Characterizes one phase: streams its warm-up and representative
    /// slices through one replay of the scaled LLC (read exactly and
    /// through the ATD's sampled sets), and assembles the
    /// [`PhaseCharacterization`].
    pub fn characterize(&self, spec: &PhaseSpec, seed: u64) -> PhaseCharacterization {
        let sim_instructions =
            (self.platform.interval_instructions / self.config.scale).max(10_000);
        let warm_instructions = (sim_instructions as f64 * self.config.warmup_fraction) as u64;

        // Scale the phase's working sets down to the simulated LLC.
        let mut scaled = spec.clone();
        for region in &mut scaled.regions {
            region.lines = self.config.scale_lines(region.lines);
        }

        // The ATD view additionally samples the simulated sets (it models
        // the shadow tag directory hardware monitor).
        let sampling = self.config.atd_sampling.max(1);
        let mut replay = SliceReplay::new(&self.config.sim_llc, sampling, 1 % sampling);
        let mut generator = StreamGenerator::new(seed, 0);
        generator.stream(&scaled, warm_instructions.max(1_000), |access| {
            replay.warm(&access)
        });
        generator.stream(&scaled, sim_instructions, |access| replay.record(&access));

        let scale = self.config.scale;
        let exact = replay.exact();
        let misses_per_way = exact.histogram().miss_curve(scale);
        let atd_misses_per_way = replay.atd().miss_curve(sampling as u64 * scale);
        let leading_misses: Vec<Vec<u64>> = exact
            .leading_miss_matrix(&self.overlap_params)
            .leading
            .into_iter()
            .map(|row| row.into_iter().map(|v| v * scale).collect())
            .collect();
        // The MLP-ATD extension observes miss overlap at the MSHR file, which
        // sees every real miss (not only the ATD-sampled sets), so it reports
        // these exact counts. The remaining Model-3 error comes from the
        // sampled miss curve (for non-current way counts) and from effects
        // the leading-loads model ignores (bandwidth queueing).

        let exec_cpi = exec_cpi_curve(
            &spec.ilp,
            &self.platform.core_sizes,
            self.platform.baseline_core_size,
        );

        PhaseCharacterization {
            instructions: self.platform.interval_instructions,
            llc_accesses: exact.histogram().accesses() * scale,
            exec_cpi,
            misses_per_way,
            leading_misses,
            atd_misses_per_way,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::PhaseSpec;
    use cache_model::StackDistanceProfiler;
    use qosrm_types::{CoreSizeIdx, MissProfile};

    fn platform() -> PlatformConfig {
        PlatformConfig::paper2(4)
    }

    fn characterizer() -> PhaseCharacterizer {
        let p = platform();
        PhaseCharacterizer::new(&p, CharacterizationConfig::quick_for_tests(&p))
    }

    /// The characterization as it was before the one-pass replay: both
    /// slices stored as traces, an exact replay of every set and a separate
    /// replay of the ATD's sampled sets.
    fn two_replay_reference(
        c: &PhaseCharacterizer,
        spec: &PhaseSpec,
        seed: u64,
    ) -> PhaseCharacterization {
        let config = c.config();
        let sim_instructions = (c.platform.interval_instructions / config.scale).max(10_000);
        let warm_instructions = (sim_instructions as f64 * config.warmup_fraction) as u64;
        let mut scaled = spec.clone();
        for region in &mut scaled.regions {
            region.lines = config.scale_lines(region.lines);
        }
        let mut generator = StreamGenerator::new(seed, 0);
        let warm_trace = generator.generate(&scaled, warm_instructions.max(1_000));
        let main_trace = generator.generate(&scaled, sim_instructions);
        let mut exact = StackDistanceProfiler::new(&config.sim_llc);
        exact.warm_up(&warm_trace);
        let exact = exact.replay(&main_trace);
        let sampling = config.atd_sampling;
        let mut atd = StackDistanceProfiler::sampled(&config.sim_llc, sampling, 1 % sampling);
        atd.warm_up(&warm_trace);
        let atd = atd.replay(&main_trace);
        let scaled_curve = |curve: MissProfile| -> Vec<u64> {
            curve.as_slice().iter().map(|&m| m * config.scale).collect()
        };
        let leading = exact.leading_miss_matrix(&c.overlap_params).leading;
        let leading_misses: Vec<Vec<u64>> = leading
            .iter()
            .map(|row| row.iter().map(|&v| v * config.scale).collect())
            .collect();
        PhaseCharacterization {
            instructions: c.platform.interval_instructions,
            llc_accesses: main_trace.len() as u64 * config.scale,
            exec_cpi: exec_cpi_curve(
                &spec.ilp,
                &c.platform.core_sizes,
                c.platform.baseline_core_size,
            ),
            misses_per_way: scaled_curve(exact.miss_curve()),
            atd_misses_per_way: scaled_curve(atd.miss_curve()),
            leading_misses,
        }
    }

    #[test]
    fn one_pass_equals_the_two_replay_reference_on_every_suite_phase() {
        for p in [PlatformConfig::paper1(4), PlatformConfig::paper2(4)] {
            let c = PhaseCharacterizer::new(&p, CharacterizationConfig::quick_for_tests(&p));
            for name in crate::benchmark_names() {
                let profile = crate::benchmark(name).expect("suite benchmark");
                for (i, spec) in profile.phases.iter().enumerate() {
                    let seed = profile.phase_seed(i);
                    let reference = two_replay_reference(&c, spec, seed);
                    assert_eq!(c.characterize(spec, seed), reference, "{name} phase {i}");
                }
            }
        }
    }

    #[test]
    fn llcs_smaller_than_the_scaled_replay_are_simulated_whole() {
        let mut p = PlatformConfig::paper1(4);
        p.llc.num_sets = 16;
        p.interval_instructions = 200_000;
        for config in [
            CharacterizationConfig::for_platform(&p),
            CharacterizationConfig::quick_for_tests(&p),
        ] {
            assert!(config.validate().is_ok());
            assert_eq!((config.sim_llc.num_sets, config.scale), (16, 1));
            let c = PhaseCharacterizer::new(&p, config);
            let spec = PhaseSpec::cache_sensitive_bursty("b", 12.0, 1_024);
            let phase = c.characterize(&spec, 3);
            assert!(phase.validate().is_ok());
            assert!(phase.llc_accesses > 0);
        }
        // The shipped platforms keep their scaled geometry.
        let p = PlatformConfig::paper2(4);
        let quick = CharacterizationConfig::quick_for_tests(&p);
        assert_eq!((quick.sim_llc.num_sets, quick.scale), (64, 64));
        let full = CharacterizationConfig::for_platform(&p);
        assert_eq!((full.sim_llc.num_sets, full.scale), (256, 16));
    }

    #[test]
    fn configs_are_valid() {
        let p = platform();
        assert!(CharacterizationConfig::for_platform(&p).validate().is_ok());
        assert!(CharacterizationConfig::quick_for_tests(&p)
            .validate()
            .is_ok());
        let mut bad = CharacterizationConfig::for_platform(&p);
        bad.warmup_fraction = 2.0;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn characterization_is_internally_consistent() {
        let c = characterizer();
        let spec = PhaseSpec::cache_sensitive_bursty("b", 12.0, 32_768);
        let phase = c.characterize(&spec, 3);
        assert!(phase.validate().is_ok());
        assert_eq!(phase.max_ways(), 16);
        assert_eq!(phase.num_core_sizes(), 3);
        assert!(phase.llc_accesses > 0);
    }

    #[test]
    fn cache_sensitive_phase_has_steep_curve() {
        let c = characterizer();
        // Working set sized to roughly half the full LLC.
        let spec = PhaseSpec::cache_sensitive_dependent("d", 15.0, 32_768);
        let phase = c.characterize(&spec, 5);
        assert!(
            phase.mpki_at(2) > 2.0 * phase.mpki_at(16),
            "mpki(2)={} mpki(16)={}",
            phase.mpki_at(2),
            phase.mpki_at(16)
        );
    }

    #[test]
    fn compute_bound_phase_has_flat_low_curve() {
        let c = characterizer();
        let spec = PhaseSpec::compute_bound("c", 0.8, 0.8);
        let phase = c.characterize(&spec, 7);
        assert!(phase.mpki_at(2) < 1.0);
        assert!(phase.mpki_at(2) - phase.mpki_at(16) < 0.5);
    }

    #[test]
    fn bursty_phase_gains_mlp_on_large_core() {
        let c = characterizer();
        let spec = PhaseSpec::streaming("s", 25.0, 10);
        let phase = c.characterize(&spec, 9);
        let small = phase.mlp_at(CoreSizeIdx(0), 8);
        let large = phase.mlp_at(CoreSizeIdx(2), 8);
        assert!(large > small * 1.3, "small={small} large={large}");
    }

    #[test]
    fn dependent_phase_keeps_low_mlp() {
        let c = characterizer();
        let spec = PhaseSpec::cache_sensitive_dependent("d", 12.0, 32_768);
        let phase = c.characterize(&spec, 11);
        let small = phase.mlp_at(CoreSizeIdx(0), 4);
        let large = phase.mlp_at(CoreSizeIdx(2), 4);
        assert!(large < small * 1.6, "small={small} large={large}");
        assert!(large < 2.5);
    }

    #[test]
    fn atd_view_tracks_exact_curve() {
        let c = characterizer();
        let spec = PhaseSpec::cache_sensitive_bursty("b", 15.0, 32_768);
        let phase = c.characterize(&spec, 13);
        for w in [1usize, 4, 8, 16] {
            let exact = phase.misses_per_way[w - 1] as f64;
            let atd = phase.atd_misses_per_way[w - 1] as f64;
            if exact > 1000.0 {
                let rel = (atd - exact).abs() / exact;
                assert!(rel < 0.5, "w={w}: exact={exact} atd={atd}");
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let c = characterizer();
        let spec = PhaseSpec::streaming("s", 20.0, 6);
        let a = c.characterize(&spec, 21);
        let b = c.characterize(&spec, 21);
        assert_eq!(a, b);
    }
}
