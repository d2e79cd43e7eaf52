//! Synthetic phase specification.
//!
//! A phase is a region of program execution with stable behaviour. Its
//! synthetic specification controls the three properties the resource
//! manager's trade-offs depend on:
//!
//! * the **miss curve** (how MPKI falls as LLC ways are added), shaped by a
//!   mixture of working-set regions plus a never-reused streaming component;
//! * the **miss burstiness** (how many independent misses are issued close
//!   together), which determines how much MLP a larger core can expose;
//! * the **ILP** of the non-memory instruction stream, which determines how
//!   the execution CPI reacts to the core size.

use core_model::IlpParams;
use qosrm_types::QosrmError;
use serde::{Deserialize, Serialize};

/// One working-set region of a phase.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Region {
    /// Number of distinct cache lines in the region.
    pub lines: u64,
    /// Fraction of non-streaming accesses that touch this region.
    pub weight: f64,
}

/// Synthetic specification of one program phase.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseSpec {
    /// Phase name (for diagnostics), e.g. `"mcf_like.p1"`.
    pub name: String,
    /// LLC accesses per kilo-instruction.
    pub apki: f64,
    /// Working-set regions, re-referenced with LRU-friendly reuse.
    pub regions: Vec<Region>,
    /// Fraction of accesses that stream over new lines and are never reused.
    pub streaming_fraction: f64,
    /// Number of consecutive accesses issued as one burst (dense in
    /// instruction count); larger bursts expose more MLP to large cores.
    pub burst_len: usize,
    /// Instruction gap between accesses inside a burst.
    pub intra_burst_gap: u64,
    /// Fraction of accesses whose address depends on the previous
    /// long-latency load (pointer chasing); dependent misses never overlap,
    /// keeping MLP low regardless of the core size.
    pub dependent_fraction: f64,
    /// ILP characteristics of the phase's instruction stream.
    pub ilp: IlpParams,
}

impl PhaseSpec {
    /// Validates the specification.
    pub fn validate(&self) -> Result<(), QosrmError> {
        if self.apki <= 0.0 || !self.apki.is_finite() {
            return Err(QosrmError::InvalidWorkload(format!(
                "{}: APKI must be positive",
                self.name
            )));
        }
        if !(0.0..=1.0).contains(&self.streaming_fraction) {
            return Err(QosrmError::InvalidWorkload(format!(
                "{}: streaming fraction must be in [0, 1]",
                self.name
            )));
        }
        if self.regions.is_empty() && self.streaming_fraction < 1.0 {
            return Err(QosrmError::InvalidWorkload(format!(
                "{}: a non-streaming phase needs at least one region",
                self.name
            )));
        }
        for r in &self.regions {
            if r.lines == 0 || r.weight < 0.0 {
                return Err(QosrmError::InvalidWorkload(format!(
                    "{}: regions must have lines > 0 and weight >= 0",
                    self.name
                )));
            }
        }
        if !self.regions.is_empty() {
            let total: f64 = self.regions.iter().map(|r| r.weight).sum();
            if total <= 0.0 {
                return Err(QosrmError::InvalidWorkload(format!(
                    "{}: region weights must sum to a positive value",
                    self.name
                )));
            }
        }
        if self.burst_len == 0 {
            return Err(QosrmError::InvalidWorkload(format!(
                "{}: burst length must be >= 1",
                self.name
            )));
        }
        if !(0.0..=1.0).contains(&self.dependent_fraction) {
            return Err(QosrmError::InvalidWorkload(format!(
                "{}: dependent fraction must be in [0, 1]",
                self.name
            )));
        }
        Ok(())
    }

    /// Average instruction distance between consecutive LLC accesses.
    pub fn mean_access_gap(&self) -> f64 {
        1000.0 / self.apki
    }
}

/// Convenience builders for the archetypes used by the synthetic suite.
impl PhaseSpec {
    /// A compute-bound phase: few LLC accesses, tiny working set.
    pub fn compute_bound(name: impl Into<String>, exec_cpi: f64, ilp_sensitivity: f64) -> Self {
        PhaseSpec {
            name: name.into(),
            apki: 1.0,
            regions: vec![Region {
                lines: 256,
                weight: 1.0,
            }],
            streaming_fraction: 0.02,
            burst_len: 1,
            intra_burst_gap: 10,
            dependent_fraction: 0.2,
            ilp: IlpParams::new(exec_cpi, ilp_sensitivity),
        }
    }

    /// A streaming phase: every access misses regardless of the cache size;
    /// misses are bursty so they overlap well on a large core.
    pub fn streaming(name: impl Into<String>, apki: f64, burst_len: usize) -> Self {
        PhaseSpec {
            name: name.into(),
            apki,
            regions: vec![Region {
                lines: 512,
                weight: 1.0,
            }],
            streaming_fraction: 0.85,
            burst_len,
            intra_burst_gap: 8,
            dependent_fraction: 0.0,
            ilp: IlpParams::new(0.9, 0.25),
        }
    }

    /// A cache-sensitive phase with pointer-chasing style dependent misses
    /// (low MLP on every core size).
    pub fn cache_sensitive_dependent(name: impl Into<String>, apki: f64, ws_lines: u64) -> Self {
        PhaseSpec {
            name: name.into(),
            apki,
            regions: vec![
                Region {
                    lines: ws_lines,
                    weight: 0.8,
                },
                Region {
                    lines: ws_lines / 8,
                    weight: 0.2,
                },
            ],
            streaming_fraction: 0.05,
            burst_len: 1,
            intra_burst_gap: 20,
            dependent_fraction: 0.9,
            ilp: IlpParams::new(1.3, 0.2),
        }
    }

    /// A cache-sensitive phase with bursty (overlappable) misses.
    pub fn cache_sensitive_bursty(name: impl Into<String>, apki: f64, ws_lines: u64) -> Self {
        PhaseSpec {
            name: name.into(),
            apki,
            regions: vec![
                Region {
                    lines: ws_lines,
                    weight: 0.7,
                },
                Region {
                    lines: ws_lines / 4,
                    weight: 0.3,
                },
            ],
            streaming_fraction: 0.10,
            burst_len: 12,
            intra_burst_gap: 10,
            dependent_fraction: 0.05,
            ilp: IlpParams::new(1.0, 0.3),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn archetypes_are_valid() {
        assert!(PhaseSpec::compute_bound("c", 0.7, 0.9).validate().is_ok());
        assert!(PhaseSpec::streaming("s", 25.0, 8).validate().is_ok());
        assert!(PhaseSpec::cache_sensitive_dependent("d", 12.0, 8192)
            .validate()
            .is_ok());
        assert!(PhaseSpec::cache_sensitive_bursty("b", 15.0, 8192)
            .validate()
            .is_ok());
    }

    #[test]
    fn validation_rejects_bad_specs() {
        let mut p = PhaseSpec::compute_bound("c", 0.7, 0.9);
        p.apki = 0.0;
        assert!(p.validate().is_err());

        let mut p = PhaseSpec::streaming("s", 25.0, 8);
        p.streaming_fraction = 1.5;
        assert!(p.validate().is_err());

        let mut p = PhaseSpec::cache_sensitive_bursty("b", 15.0, 8192);
        p.burst_len = 0;
        assert!(p.validate().is_err());

        let mut p = PhaseSpec::cache_sensitive_bursty("b", 15.0, 8192);
        p.regions.clear();
        p.streaming_fraction = 0.1;
        assert!(p.validate().is_err());

        let mut p = PhaseSpec::cache_sensitive_bursty("b", 15.0, 8192);
        p.regions[0].lines = 0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn derived_quantities() {
        let p = PhaseSpec::streaming("s", 20.0, 8);
        assert!((p.mean_access_gap() - 50.0).abs() < 1e-12);
    }
}
