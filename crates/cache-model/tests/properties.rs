//! Property-based tests of the cache substrate invariants.

use cache_model::{
    Access, AccessTrace, Atd, AtdConfig, OverlapParams, PartitionedCache, ReplacementPolicy,
    StackDistanceProfiler,
};
use proptest::prelude::*;
use qosrm_types::{CoreId, LlcGeometry, WayPartition};

fn small_geometry() -> LlcGeometry {
    LlcGeometry {
        num_sets: 16,
        associativity: 8,
        line_bytes: 64,
    }
}

/// Strategy: a trace of up to 600 accesses over a bounded address range, with
/// monotonically increasing instruction indices.
fn trace_strategy(max_lines: u64) -> impl Strategy<Value = AccessTrace> {
    prop::collection::vec((0..max_lines, 1u64..50), 1..600).prop_map(|pairs| {
        let mut inst = 0u64;
        let accesses = pairs
            .into_iter()
            .map(|(line, gap)| {
                inst += gap;
                Access::new(line, inst)
            })
            .collect::<Vec<_>>();
        let total_inst = inst + 100;
        AccessTrace::new(accesses, total_inst)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The ATD/stack-profiler miss curve is non-increasing in the way count.
    #[test]
    fn miss_curve_is_monotone(trace in trace_strategy(256)) {
        let geom = small_geometry();
        let mut profiler = StackDistanceProfiler::new(&geom);
        let profile = profiler.replay(&trace);
        let curve = profile.miss_curve();
        prop_assert!(curve.validate().is_ok());
        prop_assert!(curve.misses_at(1) <= trace.len() as u64);
    }

    /// The detailed partitioned cache agrees exactly with the stack-distance
    /// profiler for any single-core way allocation (LRU stack property).
    #[test]
    fn partitioned_cache_matches_profiler(trace in trace_strategy(128), ways in 1usize..8) {
        let geom = small_geometry();
        let mut profiler = StackDistanceProfiler::new(&geom);
        let profile = profiler.replay(&trace);

        let partition = WayPartition::new(vec![ways, geom.associativity - ways]);
        let mut cache = PartitionedCache::new(geom, &partition, ReplacementPolicy::Lru).unwrap();
        let misses = cache.replay(CoreId(0), trace.accesses());
        prop_assert_eq!(misses, profile.misses_at(ways));
    }

    /// Leading misses never exceed total misses and never increase with a
    /// larger overlap window or more MSHRs.
    #[test]
    fn leading_misses_monotone_in_core_size(
        trace in trace_strategy(512),
        ways in 1usize..8,
        rob_small in 16usize..64,
        rob_extra in 1usize..256,
        mshr_small in 1usize..4,
        mshr_extra in 1usize..16,
    ) {
        let geom = small_geometry();
        let mut profiler = StackDistanceProfiler::new(&geom);
        let profile = profiler.replay(&trace);

        let small = OverlapParams { rob_entries: rob_small, mshrs: mshr_small };
        let large = OverlapParams {
            rob_entries: rob_small + rob_extra,
            mshrs: mshr_small + mshr_extra,
        };
        let total = profile.misses_at(ways);
        let matrix = profile.leading_miss_matrix(&[small, large]).leading;
        let (lead_small, lead_large) = (matrix[0][ways - 1], matrix[1][ways - 1]);
        prop_assert!(lead_small <= total);
        prop_assert!(lead_large <= total);
        prop_assert!(lead_large <= lead_small, "bigger cores can only merge more misses");
    }

    /// A set-sampled ATD never reports a non-monotonic curve and its estimate
    /// stays within a loose bound of the exact profile for uniform traffic.
    #[test]
    fn sampled_atd_monotone(trace in trace_strategy(512)) {
        let geom = small_geometry();
        let mut atd = Atd::new(geom, AtdConfig { set_sampling: 4, bits_per_entry: 28 });
        let profile = atd.observe_interval(&trace);
        prop_assert!(profile.validate().is_ok());
        prop_assert!(profile.misses_at(1) <= 4 * trace.len() as u64);
    }

    /// Repartitioning the detailed cache never lets a core exceed its way
    /// budget in any set.
    #[test]
    fn resident_lines_bounded_by_partition(
        trace in trace_strategy(512),
        ways in 1usize..8,
    ) {
        let geom = small_geometry();
        let partition = WayPartition::new(vec![ways, geom.associativity - ways]);
        let mut cache = PartitionedCache::new(geom, &partition, ReplacementPolicy::Lru).unwrap();
        cache.replay(CoreId(0), trace.accesses());
        prop_assert!(cache.resident_lines(CoreId(0)) <= ways * geom.num_sets);
    }
}
