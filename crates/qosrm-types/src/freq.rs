//! Voltage–frequency (VF) levels and the platform V-f table.
//!
//! The paper assumes per-core DVFS with a discrete set of voltage–frequency
//! operating points. The baseline setting used to define the QoS target is a
//! mid-range level (2.0 GHz in the evaluation). Energy-wise the important
//! property is that dynamic power scales as `C·V²·f` and that lowering `f`
//! allows lowering `V`, so running slower is super-linearly cheaper.

use crate::error::QosrmError;
use serde::{Deserialize, Serialize};

/// Index of a voltage–frequency level in the platform [`VfTable`].
///
/// Level 0 is the slowest (lowest voltage) operating point; higher indices are
/// monotonically faster and higher-voltage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FreqLevel(pub usize);

impl FreqLevel {
    /// Returns the raw level index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for FreqLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// One operating point of the V-f table.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VfPoint {
    /// Core clock frequency in GHz.
    pub freq_ghz: f64,
    /// Supply voltage in volts at this frequency.
    pub voltage: f64,
}

impl VfPoint {
    /// Frequency in Hz.
    #[inline]
    pub fn freq_hz(&self) -> f64 {
        self.freq_ghz * 1e9
    }
}

/// The platform voltage–frequency table: the discrete DVFS operating points
/// available on every core, plus the index of the baseline (QoS-defining)
/// level.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VfTable {
    points: Vec<VfPoint>,
    baseline: FreqLevel,
}

impl VfTable {
    /// Creates a V-f table from explicit operating points.
    ///
    /// Points must be sorted by strictly increasing frequency and voltage must
    /// be non-decreasing; `baseline` must index into `points`.
    pub fn new(points: Vec<VfPoint>, baseline: FreqLevel) -> Result<Self, QosrmError> {
        if points.is_empty() {
            return Err(QosrmError::InvalidPlatform("empty V-f table".into()));
        }
        if baseline.index() >= points.len() {
            return Err(QosrmError::InvalidPlatform(format!(
                "baseline level {} out of range ({} levels)",
                baseline.index(),
                points.len()
            )));
        }
        for pair in points.windows(2) {
            if pair[1].freq_ghz <= pair[0].freq_ghz {
                return Err(QosrmError::InvalidPlatform(
                    "V-f table frequencies must be strictly increasing".into(),
                ));
            }
            if pair[1].voltage < pair[0].voltage {
                return Err(QosrmError::InvalidPlatform(
                    "V-f table voltages must be non-decreasing".into(),
                ));
            }
        }
        for p in &points {
            if p.freq_ghz <= 0.0 || p.voltage <= 0.0 {
                return Err(QosrmError::InvalidPlatform(
                    "V-f points must have positive frequency and voltage".into(),
                ));
            }
        }
        Ok(VfTable { points, baseline })
    }

    /// The default table used throughout the evaluation: 13 levels from
    /// 0.8 GHz to 3.2 GHz in 0.2 GHz steps with a near-linear voltage ramp
    /// from 0.70 V to 1.20 V, baseline at 2.0 GHz (level 6).
    pub fn default_13_levels() -> Self {
        let mut points = Vec::with_capacity(13);
        for i in 0..13usize {
            let freq_ghz = 0.8 + 0.2 * i as f64;
            // Linear V ramp between (0.8 GHz, 0.70 V) and (3.2 GHz, 1.20 V).
            let voltage = 0.70 + (freq_ghz - 0.8) / (3.2 - 0.8) * (1.20 - 0.70);
            points.push(VfPoint { freq_ghz, voltage });
        }
        VfTable::new(points, FreqLevel(6)).expect("default table is valid")
    }

    /// Number of available VF levels.
    #[inline]
    pub fn num_levels(&self) -> usize {
        self.points.len()
    }

    /// The baseline (QoS-defining) level.
    #[inline]
    pub fn baseline(&self) -> FreqLevel {
        self.baseline
    }

    /// Returns a copy of this table with a different baseline level
    /// (used by the baseline-VF sensitivity experiment).
    pub fn with_baseline(&self, baseline: FreqLevel) -> Result<Self, QosrmError> {
        VfTable::new(self.points.clone(), baseline)
    }

    /// The operating point at `level`.
    ///
    /// # Panics
    /// Panics if `level` is out of range; use [`VfTable::get`] for a checked
    /// lookup.
    #[inline]
    pub fn point(&self, level: FreqLevel) -> VfPoint {
        self.points[level.index()]
    }

    /// Checked lookup of the operating point at `level`.
    pub fn get(&self, level: FreqLevel) -> Option<VfPoint> {
        self.points.get(level.index()).copied()
    }

    /// Iterator over `(level, point)` pairs from slowest to fastest.
    pub fn iter(&self) -> impl Iterator<Item = (FreqLevel, VfPoint)> + '_ {
        self.points
            .iter()
            .enumerate()
            .map(|(i, p)| (FreqLevel(i), *p))
    }

    /// All levels from slowest to fastest.
    pub fn levels(&self) -> impl Iterator<Item = FreqLevel> {
        (0..self.points.len()).map(FreqLevel)
    }

    /// The highest available level.
    #[inline]
    pub fn max_level(&self) -> FreqLevel {
        FreqLevel(self.points.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_table_shape() {
        let t = VfTable::default_13_levels();
        assert_eq!(t.num_levels(), 13);
        assert!((t.point(FreqLevel(0)).freq_ghz - 0.8).abs() < 1e-12);
        assert!((t.point(t.max_level()).freq_ghz - 3.2).abs() < 1e-9);
        assert!((t.point(t.baseline()).freq_ghz - 2.0).abs() < 1e-9);
        assert!((t.point(FreqLevel(0)).voltage - 0.70).abs() < 1e-12);
        assert!((t.point(t.max_level()).voltage - 1.20).abs() < 1e-9);
    }

    #[test]
    fn monotonicity_is_enforced() {
        let bad = vec![
            VfPoint {
                freq_ghz: 1.0,
                voltage: 0.8,
            },
            VfPoint {
                freq_ghz: 0.9,
                voltage: 0.9,
            },
        ];
        assert!(VfTable::new(bad, FreqLevel(0)).is_err());

        let bad_v = vec![
            VfPoint {
                freq_ghz: 1.0,
                voltage: 0.9,
            },
            VfPoint {
                freq_ghz: 1.2,
                voltage: 0.8,
            },
        ];
        assert!(VfTable::new(bad_v, FreqLevel(0)).is_err());
    }

    #[test]
    fn baseline_out_of_range_rejected() {
        let pts = vec![VfPoint {
            freq_ghz: 1.0,
            voltage: 0.8,
        }];
        assert!(VfTable::new(pts, FreqLevel(3)).is_err());
    }

    #[test]
    fn empty_table_rejected() {
        assert!(VfTable::new(vec![], FreqLevel(0)).is_err());
    }

    #[test]
    fn with_baseline_changes_only_baseline() {
        let t = VfTable::default_13_levels();
        let t2 = t.with_baseline(FreqLevel(4)).unwrap();
        assert_eq!(t2.baseline(), FreqLevel(4));
        assert_eq!(t2.num_levels(), t.num_levels());
    }

    #[test]
    fn hz_from_ghz() {
        let p = VfPoint {
            freq_ghz: 2.0,
            voltage: 1.0,
        };
        assert!((p.freq_hz() - 2.0e9).abs() < 1.0);
    }
}
