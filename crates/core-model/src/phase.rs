//! Architectural characterization of one program phase.

use qosrm_types::{CoreSizeIdx, QosrmError};
use serde::{Deserialize, Serialize};

/// Everything the interval model needs to know about one program phase
/// (one representative slice), obtained by replaying the phase's reference
/// stream through the cache substrate and applying the ILP model.
///
/// Two views of the miss curve are kept:
///
/// * the **exact** counts (`misses_per_way`) used as ground truth by the
///   simulation database, and
/// * the **ATD-sampled** counts (`atd_misses_per_way`) that model what the
///   set-sampled shadow tag directory reports to the resource manager —
///   these differ from the exact counts by the sampling error, which is one
///   of the sources of modeling error the paper analyses.
///
/// The leading-miss counts (`leading_misses`) are stored once: the MLP-aware
/// ATD extension observes miss overlap at the MSHR file, which sees every
/// real miss rather than only the sampled sets, so what it reports equals
/// the exact counts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseCharacterization {
    /// Instructions of one interval of this phase.
    pub instructions: u64,
    /// LLC accesses of one interval.
    pub llc_accesses: u64,
    /// Execution (non-stall) CPI for every core size.
    pub exec_cpi: Vec<f64>,
    /// Exact LLC misses for every way allocation (`[w-1]`).
    pub misses_per_way: Vec<u64>,
    /// Leading misses for every `(core size, way allocation)`: the ground
    /// truth and what the MLP-aware ATD extension reports.
    pub leading_misses: Vec<Vec<u64>>,
    /// ATD-reported (set-sampled) misses for every way allocation.
    pub atd_misses_per_way: Vec<u64>,
}

impl PhaseCharacterization {
    /// Maximum way count covered.
    pub fn max_ways(&self) -> usize {
        self.misses_per_way.len()
    }

    /// Number of core sizes covered.
    pub fn num_core_sizes(&self) -> usize {
        self.exec_cpi.len()
    }

    /// Exact misses at `ways` ways.
    #[inline]
    pub fn misses_at(&self, ways: usize) -> u64 {
        self.misses_per_way[ways - 1]
    }

    /// Exact leading misses at `(size, ways)`.
    #[inline]
    pub fn leading_at(&self, size: CoreSizeIdx, ways: usize) -> u64 {
        self.leading_misses[size.index()][ways - 1]
    }

    /// Exact MLP at `(size, ways)`.
    pub fn mlp_at(&self, size: CoreSizeIdx, ways: usize) -> f64 {
        let total = self.misses_at(ways);
        let leading = self.leading_at(size, ways);
        if total == 0 || leading == 0 {
            1.0
        } else {
            (total as f64 / leading as f64).max(1.0)
        }
    }

    /// Misses per kilo-instruction at `ways` ways (exact).
    pub fn mpki_at(&self, ways: usize) -> f64 {
        self.misses_at(ways) as f64 / (self.instructions.max(1) as f64 / 1000.0)
    }

    /// Validates internal consistency.
    pub fn validate(&self) -> Result<(), QosrmError> {
        if self.instructions == 0 {
            return Err(QosrmError::InvalidWorkload(
                "phase has 0 instructions".into(),
            ));
        }
        if self.misses_per_way.is_empty() || self.exec_cpi.is_empty() {
            return Err(QosrmError::InvalidWorkload(
                "phase characterization is missing curves".into(),
            ));
        }
        let ways = self.misses_per_way.len();
        let sizes = self.exec_cpi.len();
        if self.atd_misses_per_way.len() != ways {
            return Err(QosrmError::InvalidWorkload(
                "ATD miss curve length differs from exact curve".into(),
            ));
        }
        if self.leading_misses.len() != sizes {
            return Err(QosrmError::InvalidWorkload(
                "leading-miss matrix must cover every core size".into(),
            ));
        }
        for row in &self.leading_misses {
            if row.len() != ways {
                return Err(QosrmError::InvalidWorkload(
                    "leading-miss matrix row length differs from way count".into(),
                ));
            }
        }
        for pair in self.misses_per_way.windows(2) {
            if pair[1] > pair[0] {
                return Err(QosrmError::InvalidWorkload(
                    "exact miss curve must be non-increasing".into(),
                ));
            }
        }
        for (s, row) in self.leading_misses.iter().enumerate() {
            for (w, &leading) in row.iter().enumerate() {
                if leading > self.misses_per_way[w] {
                    return Err(QosrmError::InvalidWorkload(format!(
                        "leading misses exceed total misses at size {s}, ways {}",
                        w + 1
                    )));
                }
            }
        }
        for &cpi in &self.exec_cpi {
            if !(cpi.is_finite() && cpi > 0.0) {
                return Err(QosrmError::InvalidWorkload(
                    "execution CPI must be positive".into(),
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn example_phase() -> PhaseCharacterization {
        PhaseCharacterization {
            instructions: 1_000_000,
            llc_accesses: 20_000,
            exec_cpi: vec![1.4, 1.0, 0.8],
            misses_per_way: vec![8000, 6000, 4000, 3000, 2500, 2200, 2000, 1900],
            leading_misses: vec![
                vec![7000, 5400, 3700, 2800, 2350, 2080, 1900, 1810],
                vec![5000, 3800, 2600, 2000, 1700, 1500, 1380, 1320],
                vec![3200, 2500, 1750, 1360, 1160, 1030, 950, 910],
            ],
            atd_misses_per_way: vec![8200, 6100, 4050, 3060, 2540, 2230, 2030, 1930],
        }
    }

    #[test]
    fn example_is_valid() {
        assert!(example_phase().validate().is_ok());
        let p = example_phase();
        assert_eq!(p.max_ways(), 8);
        assert_eq!(p.num_core_sizes(), 3);
        assert_eq!(p.misses_at(1), 8000);
        assert_eq!(p.leading_at(CoreSizeIdx(2), 1), 3200);
        assert!(p.mlp_at(CoreSizeIdx(2), 1) > p.mlp_at(CoreSizeIdx(0), 1));
        assert!((p.mpki_at(1) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn validation_catches_inconsistencies() {
        let mut p = example_phase();
        p.misses_per_way[3] = 10_000; // non-monotone
        assert!(p.validate().is_err());

        let mut p = example_phase();
        p.leading_misses[0][0] = 9_000; // exceeds total
        assert!(p.validate().is_err());

        let mut p = example_phase();
        p.exec_cpi[1] = -1.0;
        assert!(p.validate().is_err());

        let mut p = example_phase();
        p.atd_misses_per_way.pop();
        assert!(p.validate().is_err());

        let mut p = example_phase();
        p.instructions = 0;
        assert!(p.validate().is_err());
    }
}
