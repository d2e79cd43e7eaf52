//! Shared last-level cache (LLC) geometry and way-partitioning types.
//!
//! The paper partitions the shared LLC among cores at way granularity
//! (as in Qureshi & Patt's utility-based cache partitioning): each core is
//! assigned a subset of the ways of every set, expressed as a bit-mask, and a
//! core's fills may only evict lines from its own ways.

use crate::error::QosrmError;
use serde::{Deserialize, Serialize};

/// Geometry of the shared last-level cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LlcGeometry {
    /// Number of sets.
    pub num_sets: usize,
    /// Associativity (number of ways per set). Way partitioning operates at
    /// this granularity.
    pub associativity: usize,
    /// Cache line size in bytes.
    pub line_bytes: usize,
}

impl LlcGeometry {
    /// The default geometry used in the evaluation: a 16-way, 4 MiB LLC with
    /// 64-byte lines (4096 sets).
    pub fn default_4mib_16way() -> Self {
        LlcGeometry {
            num_sets: 4096,
            associativity: 16,
            line_bytes: 64,
        }
    }

    /// A reduced geometry for fast unit tests (64 sets, 16 ways).
    pub fn small_for_tests() -> Self {
        LlcGeometry {
            num_sets: 64,
            associativity: 16,
            line_bytes: 64,
        }
    }

    /// Validates that the geometry is usable.
    pub fn validate(&self) -> Result<(), QosrmError> {
        if self.num_sets == 0 || self.associativity == 0 || self.line_bytes == 0 {
            return Err(QosrmError::InvalidPlatform(
                "LLC geometry fields must be non-zero".into(),
            ));
        }
        if !self.num_sets.is_power_of_two() {
            return Err(QosrmError::InvalidPlatform(
                "LLC number of sets must be a power of two".into(),
            ));
        }
        if self.associativity > 64 {
            return Err(QosrmError::InvalidPlatform(
                "way masks support at most 64 ways".into(),
            ));
        }
        Ok(())
    }
}

/// A bit-mask over the ways of the LLC identifying the ways a core may
/// allocate into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct WayMask(pub u64);

impl WayMask {
    /// An empty mask (no ways).
    pub const EMPTY: WayMask = WayMask(0);

    /// A contiguous mask of `count` ways starting at way `start`.
    pub fn contiguous(start: usize, count: usize) -> Self {
        if count == 0 {
            return WayMask(0);
        }
        debug_assert!(start + count <= 64);
        let ones = if count >= 64 {
            u64::MAX
        } else {
            (1u64 << count) - 1
        };
        WayMask(ones << start)
    }

    /// Number of ways in the mask.
    #[inline]
    pub fn count(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether way `w` is part of the mask.
    #[inline]
    pub fn contains(&self, way: usize) -> bool {
        way < 64 && (self.0 >> way) & 1 == 1
    }

    /// Iterator over the way indices in the mask, in increasing order.
    pub fn ways(&self) -> impl Iterator<Item = usize> + '_ {
        let bits = self.0;
        (0..64usize).filter(move |w| (bits >> w) & 1 == 1)
    }
}

/// A partition of the LLC ways among the cores: `ways[i]` is the number of
/// ways assigned to core `i`.
///
/// A valid partition assigns at least one way to every core and exactly
/// `associativity` ways in total (the paper never leaves ways unused: the
/// global optimizer distributes the full associativity).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct WayPartition {
    ways: Vec<usize>,
}

impl WayPartition {
    /// Creates a partition from the per-core way counts.
    pub fn new(ways: Vec<usize>) -> Self {
        WayPartition { ways }
    }

    /// The equal (baseline) partition of `associativity` ways among
    /// `num_cores` cores. Requires that the associativity is divisible by the
    /// number of cores, as in the paper's 4-core (4 ways each) and 8-core
    /// (2 ways each) configurations.
    pub fn equal(num_cores: usize, associativity: usize) -> Result<Self, QosrmError> {
        if num_cores == 0 {
            return Err(QosrmError::InvalidPlatform("no cores".into()));
        }
        if !associativity.is_multiple_of(num_cores) {
            return Err(QosrmError::InvalidPlatform(format!(
                "associativity {associativity} not divisible by {num_cores} cores"
            )));
        }
        Ok(WayPartition {
            ways: vec![associativity / num_cores; num_cores],
        })
    }

    /// Number of cores covered by the partition.
    #[inline]
    pub fn num_cores(&self) -> usize {
        self.ways.len()
    }

    /// The per-core way counts.
    #[inline]
    pub fn as_slice(&self) -> &[usize] {
        &self.ways
    }

    /// Total number of ways assigned.
    pub fn total_ways(&self) -> usize {
        self.ways.iter().sum()
    }

    /// Validates the partition against an LLC geometry: every core gets at
    /// least one way and the counts sum to the associativity.
    pub fn validate(&self, llc: &LlcGeometry) -> Result<(), QosrmError> {
        if self.ways.is_empty() {
            return Err(QosrmError::InvalidSetting("empty way partition".into()));
        }
        if self.ways.contains(&0) {
            return Err(QosrmError::InvalidSetting(
                "every core must receive at least one LLC way".into(),
            ));
        }
        let total = self.total_ways();
        if total != llc.associativity {
            return Err(QosrmError::InvalidSetting(format!(
                "way partition sums to {total}, expected associativity {}",
                llc.associativity
            )));
        }
        Ok(())
    }

    /// Materializes the partition as contiguous, disjoint way masks
    /// (core 0 gets the lowest ways, core 1 the next block, and so on).
    pub fn to_masks(&self) -> Vec<WayMask> {
        let mut masks = Vec::with_capacity(self.ways.len());
        let mut start = 0usize;
        for &count in &self.ways {
            masks.push(WayMask::contiguous(start, count));
            start += count;
        }
        masks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_geometry_is_valid() {
        let g = LlcGeometry::default_4mib_16way();
        assert!(g.validate().is_ok());
    }

    #[test]
    fn geometry_validation_rejects_bad_shapes() {
        let mut g = LlcGeometry::default_4mib_16way();
        g.num_sets = 1000; // not a power of two
        assert!(g.validate().is_err());
        let mut g = LlcGeometry::default_4mib_16way();
        g.associativity = 0;
        assert!(g.validate().is_err());
        let mut g = LlcGeometry::default_4mib_16way();
        g.associativity = 128;
        assert!(g.validate().is_err());
    }

    #[test]
    fn way_mask_contiguous() {
        let m = WayMask::contiguous(4, 3);
        assert_eq!(m.count(), 3);
        assert!(m.contains(4) && m.contains(5) && m.contains(6));
        assert!(!m.contains(3) && !m.contains(7));
        assert_eq!(m.ways().collect::<Vec<_>>(), vec![4, 5, 6]);
        assert_eq!(WayMask::contiguous(0, 0), WayMask::EMPTY);
    }

    #[test]
    fn equal_partition() {
        let p = WayPartition::equal(4, 16).unwrap();
        assert_eq!(p.as_slice(), &[4, 4, 4, 4]);
        assert_eq!(p.total_ways(), 16);
        assert!(WayPartition::equal(3, 16).is_err());
        assert!(WayPartition::equal(0, 16).is_err());
    }

    #[test]
    fn partition_validation() {
        let llc = LlcGeometry::default_4mib_16way();
        let ok = WayPartition::new(vec![10, 2, 3, 1]);
        assert!(ok.validate(&llc).is_ok());
        let zero = WayPartition::new(vec![12, 0, 3, 1]);
        assert!(zero.validate(&llc).is_err());
        let sum = WayPartition::new(vec![4, 4, 4, 3]);
        assert!(sum.validate(&llc).is_err());
        let empty = WayPartition::new(vec![]);
        assert!(empty.validate(&llc).is_err());
    }

    #[test]
    fn masks_are_disjoint_and_cover() {
        let p = WayPartition::new(vec![5, 3, 6, 2]);
        let masks = p.to_masks();
        assert_eq!(masks.len(), 4);
        let mut seen = WayMask::EMPTY;
        for (i, m) in masks.iter().enumerate() {
            assert_eq!(m.count(), p.as_slice()[i]);
            assert_eq!(m.0 & seen.0, 0, "mask {i} overlaps an earlier one");
            seen = WayMask(seen.0 | m.0);
        }
        assert_eq!(seen.count(), 16);
    }
}
