//! Detailed set-associative, way-partitioned LLC model.
//!
//! This is the ground-truth "main cache" of the simulated system: each core is
//! restricted to filling into the ways of its partition (contiguous way masks,
//! as produced by [`qosrm_types::WayPartition::to_masks`]) while lookups probe
//! the whole set. It is used to validate the stack-distance profiler and the
//! ATD model, and by integration tests that exercise repartitioning.

use crate::access::Access;
use crate::replacement::ReplacementPolicy;
use qosrm_types::{CoreId, LlcGeometry, QosrmError, WayMask, WayPartition};
use serde::{Deserialize, Serialize};

/// Outcome of a single cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AccessOutcome {
    /// The line was found in the cache.
    Hit,
    /// The line was not present and was filled into an invalid way.
    MissFilled,
    /// The line was not present and a victim line was evicted to make room.
    MissEvicted {
        /// Line address of the evicted victim.
        victim_line: u64,
    },
}

impl AccessOutcome {
    /// Whether the access missed.
    pub fn is_miss(&self) -> bool {
        !matches!(self, AccessOutcome::Hit)
    }
}

/// Per-core hit/miss statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Number of lookups issued by the core.
    pub accesses: u64,
    /// Number of lookups that hit.
    pub hits: u64,
    /// Number of lookups that missed.
    pub misses: u64,
}

impl CacheStats {}

#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct Line {
    valid: bool,
    tag: u64,
    owner: usize,
    /// Monotonic timestamp of the last reference, for LRU victim selection.
    last_use: u64,
}

impl Line {
    fn empty() -> Self {
        Line {
            valid: false,
            tag: 0,
            owner: 0,
            last_use: 0,
        }
    }
}

/// A shared, way-partitioned, set-associative cache with per-core fill masks.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PartitionedCache {
    geometry: LlcGeometry,
    policy: ReplacementPolicy,
    masks: Vec<WayMask>,
    sets: Vec<Vec<Line>>,
    stats: Vec<CacheStats>,
    clock: u64,
    rng_state: u64,
}

impl PartitionedCache {
    /// Creates a cache with the given geometry and per-core way partition.
    pub fn new(
        geometry: LlcGeometry,
        partition: &WayPartition,
        policy: ReplacementPolicy,
    ) -> Result<Self, QosrmError> {
        geometry.validate()?;
        partition.validate(&geometry)?;
        let masks = partition.to_masks();
        let num_cores = masks.len();
        Ok(PartitionedCache {
            geometry,
            policy,
            masks,
            sets: vec![vec![Line::empty(); geometry.associativity]; geometry.num_sets],
            stats: vec![CacheStats::default(); num_cores],
            clock: 0,
            rng_state: 0x9E37_79B9_7F4A_7C15,
        })
    }

    /// The cache geometry.
    pub fn geometry(&self) -> &LlcGeometry {
        &self.geometry
    }

    /// Per-core statistics collected since construction or the last
    /// [`Self::reset_stats`].
    pub fn stats(&self, core: CoreId) -> CacheStats {
        self.stats[core.index()]
    }

    /// Clears the per-core statistics (cache contents are kept).
    pub fn reset_stats(&mut self) {
        for s in &mut self.stats {
            *s = CacheStats::default();
        }
    }

    /// Applies a new way partition. Cached lines outside a core's new mask
    /// are *not* invalidated (as in real way-partitioning hardware, existing
    /// lines remain until they are naturally evicted), but new fills obey the
    /// new masks.
    pub fn repartition(&mut self, partition: &WayPartition) -> Result<(), QosrmError> {
        partition.validate(&self.geometry)?;
        if partition.num_cores() != self.masks.len() {
            return Err(QosrmError::InvalidSetting(
                "repartition must cover the same number of cores".into(),
            ));
        }
        self.masks = partition.to_masks();
        Ok(())
    }

    /// Performs one access on behalf of `core` and returns its outcome.
    pub fn access(&mut self, core: CoreId, access: Access) -> AccessOutcome {
        self.clock += 1;
        let clock = self.clock;
        let set_idx = access.set_index(self.geometry.num_sets);
        let tag = access.tag(self.geometry.num_sets);
        let stats = &mut self.stats[core.index()];
        stats.accesses += 1;

        // Lookup probes the whole set.
        let set = &mut self.sets[set_idx];
        if let Some(line) = set.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.last_use = clock;
            stats.hits += 1;
            return AccessOutcome::Hit;
        }
        stats.misses += 1;

        // Fill: victim selection restricted to the core's way mask.
        let mask = self.masks[core.index()];
        debug_assert!(mask.count() > 0, "core has an empty way mask");

        // Prefer an invalid way inside the mask.
        if let Some(way) = mask.ways().find(|&w| !set[w].valid) {
            set[way] = Line {
                valid: true,
                tag,
                owner: core.index(),
                last_use: clock,
            };
            return AccessOutcome::MissFilled;
        }

        let victim_way = match self.policy {
            ReplacementPolicy::Lru => mask
                .ways()
                .min_by_key(|&w| set[w].last_use)
                .expect("non-empty mask"),
            ReplacementPolicy::Random => {
                let ways: Vec<usize> = mask.ways().collect();
                let r = {
                    let mut x = self.rng_state;
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    self.rng_state = x;
                    x
                };
                ways[(r % ways.len() as u64) as usize]
            }
        };
        let victim = set[victim_way];
        set[victim_way] = Line {
            valid: true,
            tag,
            owner: core.index(),
            last_use: clock,
        };
        let victim_line = (victim.tag << self.geometry.num_sets.trailing_zeros()) | set_idx as u64;
        AccessOutcome::MissEvicted { victim_line }
    }

    /// Replays a slice of accesses on behalf of `core`, returning the number
    /// of misses.
    pub fn replay(&mut self, core: CoreId, accesses: &[Access]) -> u64 {
        let mut misses = 0;
        for &a in accesses {
            if self.access(core, a).is_miss() {
                misses += 1;
            }
        }
        misses
    }

    /// Number of valid lines currently owned by `core`.
    pub fn resident_lines(&self, core: CoreId) -> usize {
        self.sets
            .iter()
            .flat_map(|s| s.iter())
            .filter(|l| l.valid && l.owner == core.index())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::Access;

    fn small_geometry() -> LlcGeometry {
        LlcGeometry {
            num_sets: 16,
            associativity: 8,
            line_bytes: 64,
        }
    }

    fn loop_trace(lines: u64, repeats: u64) -> Vec<Access> {
        let mut v = Vec::new();
        let mut inst = 0;
        for _ in 0..repeats {
            for i in 0..lines {
                v.push(Access::new(i * 16, inst)); // all map to set 0
                inst += 10;
            }
        }
        v
    }

    #[test]
    fn single_core_lru_behaviour() {
        let geom = small_geometry();
        let partition = WayPartition::new(vec![4, 4]);
        let mut cache = PartitionedCache::new(geom, &partition, ReplacementPolicy::Lru).unwrap();

        // Core 0 loops over 4 lines in one set with 4 ways: only cold misses.
        let misses = cache.replay(CoreId(0), &loop_trace(4, 10));
        assert_eq!(misses, 4);
        assert_eq!(cache.stats(CoreId(0)).misses, 4);
        assert_eq!(cache.stats(CoreId(0)).accesses, 40);
    }

    #[test]
    fn partition_limits_usable_ways() {
        let geom = small_geometry();
        // Core 0 gets only 2 ways: the 4-line loop thrashes.
        let partition = WayPartition::new(vec![2, 6]);
        let mut cache = PartitionedCache::new(geom, &partition, ReplacementPolicy::Lru).unwrap();
        let misses = cache.replay(CoreId(0), &loop_trace(4, 10));
        assert_eq!(misses, 40);
    }

    #[test]
    fn matches_stack_distance_profiler() {
        use crate::profile::StackDistanceProfiler;
        use rand::{Rng, SeedableRng};
        let geom = small_geometry();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let accesses: Vec<Access> = (0..2000u64)
            .map(|i| Access::new(rng.gen_range(0..96u64), i * 3))
            .collect();
        let trace = crate::access::AccessTrace::new(accesses.clone(), 6000);

        let mut profiler = StackDistanceProfiler::new(&geom);
        let profile = profiler.replay(&trace);

        for ways in [1usize, 2, 3, 5, 7] {
            let partition = WayPartition::new(vec![ways, geom.associativity - ways]);
            let mut cache =
                PartitionedCache::new(geom, &partition, ReplacementPolicy::Lru).unwrap();
            let misses = cache.replay(CoreId(0), &accesses);
            assert_eq!(
                misses,
                profile.misses_at(ways),
                "partitioned cache vs stack profiler at {ways} ways"
            );
        }
    }

    #[test]
    fn cores_do_not_evict_each_other() {
        let geom = small_geometry();
        let partition = WayPartition::new(vec![4, 4]);
        let mut cache = PartitionedCache::new(geom, &partition, ReplacementPolicy::Lru).unwrap();

        // Core 0 installs 4 lines in set 0.
        cache.replay(CoreId(0), &loop_trace(4, 1));
        // Core 1 streams over many lines of the same set.
        let streaming: Vec<Access> = (100..200u64).map(|i| Access::new(i * 16, i)).collect();
        cache.replay(CoreId(1), &streaming);
        // Core 0's lines must still be resident: re-running its loop causes no misses.
        cache.reset_stats();
        let misses = cache.replay(CoreId(0), &loop_trace(4, 1));
        assert_eq!(misses, 0);
    }

    #[test]
    fn repartition_changes_future_fills() {
        let geom = small_geometry();
        let mut cache =
            PartitionedCache::new(geom, &WayPartition::new(vec![2, 6]), ReplacementPolicy::Lru)
                .unwrap();
        // With 2 ways the 4-line loop thrashes.
        assert_eq!(cache.replay(CoreId(0), &loop_trace(4, 5)), 20);
        // Grow core 0 to 8... not allowed (must sum to associativity); grow to 6.
        cache.repartition(&WayPartition::new(vec![6, 2])).unwrap();
        cache.reset_stats();
        // After a transition pass that misses while the working set refills,
        // steady state has no misses.
        cache.replay(CoreId(0), &loop_trace(4, 1));
        cache.reset_stats();
        assert_eq!(cache.replay(CoreId(0), &loop_trace(4, 5)), 0);
        // Invalid repartitions are rejected.
        assert!(cache
            .repartition(&WayPartition::new(vec![6, 2, 8]))
            .is_err());
        assert!(cache.repartition(&WayPartition::new(vec![7, 2])).is_err());
    }

    #[test]
    fn random_policy_still_bounded_by_partition() {
        let geom = small_geometry();
        let partition = WayPartition::new(vec![2, 6]);
        let mut cache = PartitionedCache::new(geom, &partition, ReplacementPolicy::Random).unwrap();
        let misses = cache.replay(CoreId(0), &loop_trace(4, 10));
        // Random replacement still cannot fit 4 lines into 2 ways.
        assert!(misses > 20);
        assert_eq!(cache.resident_lines(CoreId(0)), 2);
    }

    #[test]
    fn eviction_reports_victim() {
        let geom = small_geometry();
        let partition = WayPartition::new(vec![1, 7]);
        let mut cache = PartitionedCache::new(geom, &partition, ReplacementPolicy::Lru).unwrap();
        assert_eq!(
            cache.access(CoreId(0), Access::new(0, 0)),
            AccessOutcome::MissFilled
        );
        match cache.access(CoreId(0), Access::new(16, 1)) {
            AccessOutcome::MissEvicted { victim_line } => assert_eq!(victim_line, 0),
            other => panic!("expected eviction, got {other:?}"),
        }
    }
}
