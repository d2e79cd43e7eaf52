//! Phase traces: the sequence of phases a benchmark visits over its full
//! execution, as produced by the SimPoint-style analysis.

use qosrm_types::{PhaseId, QosrmError};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// The phase trace of one benchmark: for every execution interval (slice) of
/// the full program, the phase it belongs to.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseTrace {
    sequence: Vec<PhaseId>,
    num_phases: usize,
}

impl PhaseTrace {
    /// Creates a trace from an explicit sequence.
    pub fn new(sequence: Vec<PhaseId>, num_phases: usize) -> Result<Self, QosrmError> {
        if sequence.is_empty() {
            return Err(QosrmError::InvalidWorkload("empty phase trace".into()));
        }
        if num_phases == 0 {
            return Err(QosrmError::InvalidWorkload("no phases".into()));
        }
        if sequence.iter().any(|p| p.index() >= num_phases) {
            return Err(QosrmError::InvalidWorkload(
                "phase trace references an unknown phase".into(),
            ));
        }
        Ok(PhaseTrace {
            sequence,
            num_phases,
        })
    }

    /// Generates a structured trace of `length` intervals over `weights.len()`
    /// phases such that each phase's share of the intervals approximates its
    /// weight. Programs visit phases in runs (a phase persists for several
    /// intervals before switching), which is what makes interval-based
    /// resource management worthwhile; `mean_run_length` controls the typical
    /// run length.
    pub fn generate(
        weights: &[f64],
        length: usize,
        mean_run_length: usize,
        seed: u64,
    ) -> Result<Self, QosrmError> {
        if weights.is_empty() || weights.iter().any(|&w| w < 0.0) {
            return Err(QosrmError::InvalidWorkload(
                "phase weights must be non-negative and non-empty".into(),
            ));
        }
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return Err(QosrmError::InvalidWorkload(
                "phase weights must sum to a positive value".into(),
            ));
        }
        if length == 0 {
            return Err(QosrmError::InvalidWorkload(
                "trace length must be > 0".into(),
            ));
        }
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mean_run = mean_run_length.max(1);
        // Remaining budget of intervals per phase, proportional to weights.
        let mut budget: Vec<f64> = weights.iter().map(|w| w / total * length as f64).collect();
        let mut sequence = Vec::with_capacity(length);
        while sequence.len() < length {
            // Pick the phase with the largest remaining budget, with a random
            // tie-break so traces differ between benchmarks.
            let phase = budget
                .iter()
                .enumerate()
                .max_by(|a, b| {
                    (a.1 + rng.gen_range(0.0..0.25))
                        .partial_cmp(&(b.1 + rng.gen_range(0.0..0.25)))
                        .unwrap()
                })
                .map(|(i, _)| i)
                .unwrap_or(0);
            let run = rng.gen_range(1..=2 * mean_run).min(length - sequence.len());
            for _ in 0..run {
                sequence.push(PhaseId(phase));
            }
            budget[phase] -= run as f64;
        }
        PhaseTrace::new(sequence, weights.len())
    }

    /// The phase sequence.
    pub fn sequence(&self) -> &[PhaseId] {
        &self.sequence
    }

    /// Number of intervals in the trace (one full execution of the program).
    pub fn len(&self) -> usize {
        self.sequence.len()
    }

    /// Whether the trace is empty (never true for a validated trace).
    pub fn is_empty(&self) -> bool {
        self.sequence.is_empty()
    }

    /// Number of distinct phases the trace may reference.
    pub fn num_phases(&self) -> usize {
        self.num_phases
    }

    /// The phase of interval `interval`, wrapping around at the end of the
    /// trace (the co-phase simulator restarts finished applications so that
    /// contention persists until every application completes its first
    /// round).
    pub fn phase_at(&self, interval: usize) -> PhaseId {
        self.sequence[interval % self.sequence.len()]
    }

    /// Empirical weight of each phase in the trace.
    pub fn weights(&self) -> Vec<f64> {
        let mut counts = vec![0usize; self.num_phases];
        for p in &self.sequence {
            counts[p.index()] += 1;
        }
        counts
            .into_iter()
            .map(|c| c as f64 / self.sequence.len() as f64)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Number of phase switches in the trace.
    fn switches(trace: &PhaseTrace) -> usize {
        trace.sequence.windows(2).filter(|w| w[0] != w[1]).count()
    }

    #[test]
    fn generated_trace_matches_weights() {
        let weights = vec![0.5, 0.3, 0.2];
        let trace = PhaseTrace::generate(&weights, 200, 8, 1).unwrap();
        assert_eq!(trace.len(), 200);
        let observed = trace.weights();
        for (w, o) in weights.iter().zip(observed.iter()) {
            assert!((w - o).abs() < 0.08, "weight {w} observed {o}");
        }
    }

    #[test]
    fn traces_have_runs_not_noise() {
        let trace = PhaseTrace::generate(&[0.5, 0.5], 300, 10, 3).unwrap();
        // With mean run length 10, far fewer than 150 switches are expected.
        let switches = switches(&trace);
        assert!(switches < 80, "switches={switches}");
        assert!(switches > 2);
    }

    #[test]
    fn phase_at_wraps_around() {
        let trace = PhaseTrace::new(vec![PhaseId(0), PhaseId(1), PhaseId(1)], 2).unwrap();
        assert_eq!(trace.phase_at(0), PhaseId(0));
        assert_eq!(trace.phase_at(2), PhaseId(1));
        assert_eq!(trace.phase_at(3), PhaseId(0));
        assert_eq!(trace.phase_at(7), PhaseId(1));
    }

    #[test]
    fn generation_is_deterministic() {
        let a = PhaseTrace::generate(&[0.6, 0.4], 100, 5, 9).unwrap();
        let b = PhaseTrace::generate(&[0.6, 0.4], 100, 5, 9).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn validation_rejects_bad_traces() {
        assert!(PhaseTrace::new(vec![], 1).is_err());
        assert!(PhaseTrace::new(vec![PhaseId(3)], 2).is_err());
        assert!(PhaseTrace::new(vec![PhaseId(0)], 0).is_err());
        assert!(PhaseTrace::generate(&[], 10, 5, 0).is_err());
        assert!(PhaseTrace::generate(&[1.0], 0, 5, 0).is_err());
        assert!(PhaseTrace::generate(&[-1.0, 2.0], 10, 5, 0).is_err());
        assert!(PhaseTrace::generate(&[0.0, 0.0], 10, 5, 0).is_err());
    }

    #[test]
    fn single_phase_trace() {
        let trace = PhaseTrace::generate(&[1.0], 50, 10, 2).unwrap();
        assert_eq!(trace.len(), 50);
        assert_eq!(switches(&trace), 0);
        assert!((trace.weights()[0] - 1.0).abs() < 1e-12);
    }
}
