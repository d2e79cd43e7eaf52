//! Per-core energy-versus-ways curves.
//!
//! The local optimization step of the RMA reduces the three-dimensional
//! per-core configuration space to a one-dimensional curve: for every
//! possible LLC way allocation `w`, the minimum predicted energy over all
//! `(core size, VF level)` pairs that still satisfy the QoS target, together
//! with the argmin pair. The global optimizer then only has to distribute
//! ways among cores.

use qosrm_types::{CoreSizeIdx, FreqLevel, QosrmError};
use serde::{Deserialize, Serialize};

/// One feasible point of an energy curve: the cheapest configuration at a
/// given way count.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CurvePoint {
    /// Predicted interval energy in joules.
    pub energy_joules: f64,
    /// VF level achieving it.
    pub freq: FreqLevel,
    /// Core size achieving it.
    pub core_size: CoreSizeIdx,
    /// Predicted interval time at this configuration (for diagnostics).
    pub time_seconds: f64,
    /// Way allocation the prediction was evaluated at. Usually the point's
    /// position on the curve, but [`EnergyCurve::smooth_monotone`] carries a
    /// cheaper point forward to larger allocations, and the carried point
    /// keeps its *source* ways — so `time_seconds` is always the time
    /// predicted at `ways`, never a stale value relabelled to a larger
    /// allocation.
    pub ways: usize,
}

/// Energy-versus-ways curve of one core.
///
/// `points[w - 1]` holds the cheapest feasible configuration with `w` ways,
/// or `None` when no `(core size, VF)` pair meets the QoS target at that
/// allocation. The default curve is empty: it covers no way count.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct EnergyCurve {
    points: Vec<Option<CurvePoint>>,
}

impl EnergyCurve {
    /// Creates a curve from per-way points.
    pub fn new(points: Vec<Option<CurvePoint>>) -> Self {
        EnergyCurve { points }
    }

    /// Maximum way count covered by the curve.
    pub fn max_ways(&self) -> usize {
        self.points.len()
    }

    /// The point at `ways` ways (1-based), if feasible.
    pub fn point(&self, ways: usize) -> Option<CurvePoint> {
        if ways == 0 || ways > self.points.len() {
            None
        } else {
            self.points[ways - 1]
        }
    }

    /// Predicted energy at `ways`, `f64::INFINITY` when infeasible.
    pub fn energy(&self, ways: usize) -> f64 {
        self.point(ways)
            .map(|p| p.energy_joules)
            .unwrap_or(f64::INFINITY)
    }

    /// Whether at least one way count is feasible.
    pub fn any_feasible(&self) -> bool {
        self.points.iter().any(Option::is_some)
    }

    /// The smallest feasible way count, if any.
    pub fn min_feasible_ways(&self) -> Option<usize> {
        self.points.iter().position(Option::is_some).map(|i| i + 1)
    }

    /// Validates basic sanity: at least one feasible point and non-negative
    /// energies.
    pub fn validate(&self) -> Result<(), QosrmError> {
        if self.points.is_empty() {
            return Err(QosrmError::InvalidSetting("empty energy curve".into()));
        }
        if !self.any_feasible() {
            return Err(QosrmError::InvalidSetting(
                "energy curve has no feasible point".into(),
            ));
        }
        for p in self.points.iter().flatten() {
            if !(p.energy_joules.is_finite() && p.energy_joules >= 0.0) {
                return Err(QosrmError::InvalidSetting(
                    "energy curve contains non-finite energy".into(),
                ));
            }
        }
        Ok(())
    }

    /// Enforces that energy is non-increasing in the way count by replacing
    /// each point with the cheapest point at or below that allocation.
    ///
    /// More cache can never hurt (the manager may simply not use the extra
    /// ways), but the raw per-way optimization can produce small
    /// non-monotonicities when the discrete VF level jumps; smoothing keeps
    /// the global optimizer's reasoning sound.
    ///
    /// A carried-forward point keeps its [`CurvePoint::ways`] (and therefore
    /// its `time_seconds`, which was predicted at that smaller allocation):
    /// the configuration is simply reused with the extra ways left idle, and
    /// relabelling the time to the larger allocation would misreport it.
    /// Energies and the argmin configuration are unchanged by this
    /// bookkeeping.
    pub fn smooth_monotone(&mut self) {
        let mut best: Option<CurvePoint> = None;
        for slot in self.points.iter_mut() {
            match (best, *slot) {
                (Some(b), Some(p)) if p.energy_joules > b.energy_joules => *slot = Some(b),
                (_, Some(p)) => best = Some(p),
                (Some(b), None) => *slot = Some(b),
                (None, None) => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(e: f64) -> Option<CurvePoint> {
        Some(CurvePoint {
            energy_joules: e,
            freq: FreqLevel(3),
            core_size: CoreSizeIdx(1),
            time_seconds: 0.1,
            ways: 1,
        })
    }

    #[test]
    fn accessors() {
        let curve = EnergyCurve::new(vec![None, point(5.0), point(4.0), point(4.5)]);
        assert_eq!(curve.max_ways(), 4);
        assert!(curve.point(1).is_none());
        assert_eq!(curve.energy(1), f64::INFINITY);
        assert!((curve.energy(3) - 4.0).abs() < 1e-12);
        assert_eq!(curve.min_feasible_ways(), Some(2));
        assert!(curve.any_feasible());
        assert!(curve.validate().is_ok());
        assert_eq!(curve.point(0), None);
        assert_eq!(curve.point(9), None);
    }

    #[test]
    fn validation_rejects_empty_and_infeasible() {
        assert!(EnergyCurve::new(vec![]).validate().is_err());
        assert!(EnergyCurve::new(vec![None, None]).validate().is_err());
        let nan = EnergyCurve::new(vec![point(f64::NAN)]);
        assert!(nan.validate().is_err());
    }

    #[test]
    fn smoothing_makes_energy_non_increasing() {
        let mut curve =
            EnergyCurve::new(vec![point(5.0), point(6.0), None, point(3.0), point(3.5)]);
        curve.smooth_monotone();
        let energies: Vec<f64> = (1..=5).map(|w| curve.energy(w)).collect();
        for pair in energies.windows(2) {
            assert!(pair[1] <= pair[0] + 1e-12);
        }
        // The infeasible hole was filled by the cheaper prefix point.
        assert!((curve.energy(3) - 5.0).abs() < 1e-12);
        assert!((curve.energy(5) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn smoothing_carries_source_ways_with_the_point() {
        // The cheap point at 2 ways (time predicted there) is carried to
        // slots 3 and 4; its source allocation and time must travel with it.
        let cheap = CurvePoint {
            energy_joules: 1.0,
            freq: FreqLevel(2),
            core_size: CoreSizeIdx(0),
            time_seconds: 0.25,
            ways: 2,
        };
        let expensive = CurvePoint {
            energy_joules: 3.0,
            freq: FreqLevel(5),
            core_size: CoreSizeIdx(1),
            time_seconds: 0.10,
            ways: 3,
        };
        let mut curve = EnergyCurve::new(vec![None, Some(cheap), Some(expensive), None]);
        curve.smooth_monotone();
        for w in [3usize, 4] {
            let p = curve.point(w).unwrap();
            assert_eq!(p.ways, 2, "carried point keeps its source allocation");
            assert!((p.time_seconds - 0.25).abs() < 1e-15);
            assert!((p.energy_joules - 1.0).abs() < 1e-15);
        }
    }

    #[test]
    fn smoothing_keeps_leading_infeasible_region() {
        let mut curve = EnergyCurve::new(vec![None, None, point(2.0), point(2.5)]);
        curve.smooth_monotone();
        assert!(curve.point(1).is_none());
        assert!(curve.point(2).is_none());
        assert!((curve.energy(4) - 2.0).abs() < 1e-12);
    }
}
