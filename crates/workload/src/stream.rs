//! Deterministic synthetic reference-stream generation.

use crate::phase::PhaseSpec;
use cache_model::{Access, AccessTrace};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Address-space stride between working-set regions, in cache lines, so that
/// regions of the same phase never alias.
const REGION_STRIDE: u64 = 1 << 28;
/// Base of the streaming (never reused) address range.
const STREAMING_BASE: u64 = 1 << 40;

/// Generates the LLC reference stream of a phase.
///
/// The generator is deterministic: the same specification and seed always
/// produce the same trace, which keeps the whole evaluation pipeline
/// reproducible.
#[derive(Debug, Clone)]
pub struct StreamGenerator {
    rng: ChaCha8Rng,
    /// Per-application offset added to every line address so different
    /// applications never alias in a shared structure.
    address_offset: u64,
    streaming_cursor: u64,
}

impl StreamGenerator {
    /// Creates a generator with the given seed and per-application address
    /// offset.
    pub fn new(seed: u64, address_offset: u64) -> Self {
        StreamGenerator {
            rng: ChaCha8Rng::seed_from_u64(seed),
            address_offset,
            streaming_cursor: 0,
        }
    }

    /// Generates the reference stream of one slice of `instructions`
    /// instructions behaving as described by `spec`, handing each access to
    /// `sink` in program order. Nothing is stored: the characterization
    /// replays the stream as it is generated.
    pub fn stream(&mut self, spec: &PhaseSpec, instructions: u64, mut sink: impl FnMut(Access)) {
        debug_assert!(spec.validate().is_ok(), "invalid phase spec {}", spec.name);
        // Pre-compute cumulative region weights.
        let total_weight: f64 = spec.regions.iter().map(|r| r.weight).sum();
        let mut cumulative = Vec::with_capacity(spec.regions.len());
        let mut acc = 0.0;
        for r in &spec.regions {
            acc += r.weight / total_weight.max(f64::MIN_POSITIVE);
            cumulative.push(acc);
        }

        // Instruction bookkeeping: inside a burst accesses are
        // `intra_burst_gap` apart; between bursts we insert the gap needed to
        // keep the overall APKI on target (with +-40 % jitter).
        let mean_gap = spec.mean_access_gap();
        let burst_span = spec.burst_len as f64 * spec.intra_burst_gap as f64;
        let inter_burst_gap = (spec.burst_len as f64 * mean_gap - burst_span).max(1.0);

        let mut inst = 0u64;
        while inst < instructions {
            for _ in 0..spec.burst_len {
                if inst >= instructions {
                    break;
                }
                let line = self.pick_line(spec, &cumulative);
                let dependent = self.rng.gen::<f64>() < spec.dependent_fraction;
                sink(if dependent {
                    Access::dependent(self.address_offset + line, inst)
                } else {
                    Access::new(self.address_offset + line, inst)
                });
                inst += spec.intra_burst_gap.max(1);
            }
            let jitter = self.rng.gen_range(0.6..1.4);
            inst += (inter_burst_gap * jitter) as u64 + 1;
        }
    }

    /// The reference stream of one slice (see [`Self::stream`]), collected
    /// into an [`AccessTrace`].
    pub fn generate(&mut self, spec: &PhaseSpec, instructions: u64) -> AccessTrace {
        let expected_accesses = (instructions as f64 * spec.apki / 1000.0) as usize;
        let mut accesses = Vec::with_capacity(expected_accesses + spec.burst_len);
        self.stream(spec, instructions, |access| accesses.push(access));
        AccessTrace::new(accesses, instructions)
    }

    fn pick_line(&mut self, spec: &PhaseSpec, cumulative: &[f64]) -> u64 {
        if spec.regions.is_empty() || self.rng.gen::<f64>() < spec.streaming_fraction {
            // Streaming access: a brand new line, never reused.
            self.streaming_cursor += 1;
            return STREAMING_BASE + self.streaming_cursor;
        }
        let pick: f64 = self.rng.gen();
        let region_idx = cumulative
            .iter()
            .position(|&c| pick <= c)
            .unwrap_or(cumulative.len() - 1);
        let region = &spec.regions[region_idx];
        let line_in_region = self.rng.gen_range(0..region.lines);
        (region_idx as u64 + 1) * REGION_STRIDE + line_in_region
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::{PhaseSpec, Region};
    use cache_model::StackDistanceProfiler;
    use core_model::IlpParams;
    use qosrm_types::LlcGeometry;

    fn sim_llc() -> LlcGeometry {
        LlcGeometry {
            num_sets: 256,
            associativity: 16,
            line_bytes: 64,
        }
    }

    #[test]
    fn apki_is_respected() {
        let spec = PhaseSpec::streaming("s", 20.0, 4);
        let mut generator = StreamGenerator::new(1, 0);
        let trace = generator.generate(&spec, 2_000_000);
        let apki = trace.apki();
        assert!(
            (apki - 20.0).abs() / 20.0 < 0.25,
            "APKI {apki} too far from target 20"
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = PhaseSpec::cache_sensitive_bursty("b", 15.0, 4096);
        let a = StreamGenerator::new(42, 0).generate(&spec, 500_000);
        let b = StreamGenerator::new(42, 0).generate(&spec, 500_000);
        assert_eq!(a, b);
        let c = StreamGenerator::new(43, 0).generate(&spec, 500_000);
        assert_ne!(a, c);
    }

    #[test]
    fn generate_collects_the_stream() {
        let spec = PhaseSpec::cache_sensitive_bursty("b", 15.0, 4096);
        let mut streamed = Vec::new();
        let mut generator = StreamGenerator::new(42, 1 << 50);
        // Two slices from one generator: the second continues the first's
        // random state and streaming cursor on both paths.
        generator.stream(&spec, 300_000, |access| streamed.push(access));
        generator.stream(&spec, 200_000, |access| streamed.push(access));
        let mut generator = StreamGenerator::new(42, 1 << 50);
        let mut collected = generator.generate(&spec, 300_000).accesses().to_vec();
        collected.extend_from_slice(generator.generate(&spec, 200_000).accesses());
        assert!(!streamed.is_empty());
        assert_eq!(streamed, collected);
    }

    #[test]
    fn streaming_phase_is_cache_insensitive() {
        let spec = PhaseSpec::streaming("s", 20.0, 8);
        let mut generator = StreamGenerator::new(7, 0);
        let trace = generator.generate(&spec, 1_000_000);
        let mut profiler = StackDistanceProfiler::new(&sim_llc());
        let profile = profiler.replay(&trace);
        let m1 = profile.misses_at(1) as f64;
        let m16 = profile.misses_at(16) as f64;
        // Most accesses miss regardless of the allocation.
        assert!(m16 / m1 > 0.75, "m1={m1} m16={m16}");
        assert!(m16 > 0.7 * trace.len() as f64);
    }

    #[test]
    fn working_set_phase_is_cache_sensitive() {
        // Working set of ~8 ways of the simulated LLC.
        let ws_lines = 8 * 256;
        let spec = PhaseSpec {
            name: "cs".into(),
            apki: 15.0,
            regions: vec![Region {
                lines: ws_lines,
                weight: 1.0,
            }],
            streaming_fraction: 0.0,
            burst_len: 2,
            intra_burst_gap: 15,
            dependent_fraction: 0.3,
            ilp: IlpParams::new(1.0, 0.5),
        };
        let mut generator = StreamGenerator::new(11, 0);
        let warm = generator.generate(&spec, 1_000_000);
        let main = generator.generate(&spec, 2_000_000);
        let mut profiler = StackDistanceProfiler::new(&sim_llc());
        profiler.warm_up(&warm);
        let profile = profiler.replay(&main);
        let m2 = profile.misses_at(2) as f64;
        let m16 = profile.misses_at(16) as f64;
        assert!(m2 > 3.0 * (m16 + 1.0), "m2={m2} m16={m16}");
        // With the full cache the warmed working set mostly fits.
        assert!(m16 < 0.1 * main.len() as f64);
    }

    #[test]
    fn address_offset_separates_applications() {
        let spec = PhaseSpec::compute_bound("c", 1.0, 0.5);
        let a = StreamGenerator::new(1, 0).generate(&spec, 100_000);
        let b = StreamGenerator::new(1, 1 << 50).generate(&spec, 100_000);
        let max_a = a.accesses().iter().map(|x| x.line_addr).max().unwrap();
        let min_b = b.accesses().iter().map(|x| x.line_addr).min().unwrap();
        assert!(min_b > max_a);
    }
}
