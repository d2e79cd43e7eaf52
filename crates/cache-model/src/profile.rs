//! One-pass LRU stack-distance profiling of a reference stream.
//!
//! Under LRU replacement, an access whose per-set stack distance is `d` hits
//! in every cache with more than `d` ways and misses in every cache with at
//! most `d` ways (the *stack property*). Profiling a trace once therefore
//! yields the miss count for **every** possible way allocation, which is the
//! mechanism both the ground-truth simulator and the Auxiliary Tag Directory
//! rely on.
//!
//! The per-set stacks are bounded to the associativity: no query asks for
//! more ways than the cache has, and an access at distance
//! `>= associativity` misses at every way count up to it, exactly as a cold
//! miss does. The profiles answer queries for `1..=associativity` ways
//! (checked by debug assertions).

use crate::access::AccessTrace;
use crate::mlp_atd::OverlapParams;
use crate::replacement::LruStack;
use qosrm_types::{LlcGeometry, MissProfile};
use serde::{Deserialize, Serialize};

/// Stack distance marking an access that misses at every profiled way
/// count: a cold miss, or a reuse deeper than the profiled associativity.
pub const COLD_DISTANCE: u32 = u32::MAX;

/// One profiled access: the instruction that issued it and its per-set LRU
/// stack distance ([`COLD_DISTANCE`] when the line is not among the
/// associativity most recently used lines of its set).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccessRecord {
    /// Instruction index of the access within the slice.
    pub inst_index: u64,
    /// LRU stack distance within the access's set, exact below the profiled
    /// associativity.
    pub stack_distance: u32,
    /// Whether the access is address-dependent on the previous long-latency
    /// load (pointer chasing); dependent misses never overlap.
    pub dependent: bool,
}

impl AccessRecord {
    /// Whether this access misses in a cache with `ways` ways per set.
    #[inline]
    fn is_miss_at(&self, ways: usize) -> bool {
        self.stack_distance == COLD_DISTANCE || self.stack_distance as usize >= ways
    }
}

/// Profiler that replays a reference stream against per-set LRU stacks
/// bounded to the associativity and records every access's stack distance
/// (exact below the associativity, [`COLD_DISTANCE`] otherwise).
#[derive(Debug, Clone)]
pub struct StackDistanceProfiler {
    num_sets: usize,
    /// Capacity of every per-set stack: the associativity.
    depth: usize,
    /// Optional set-sampling: only sets whose index satisfies
    /// `set % sampling == offset` are profiled (used by the ATD model).
    sampling: usize,
    offset: usize,
    sets: Vec<LruStack>,
}

impl StackDistanceProfiler {
    /// Creates a profiler covering every set of the given geometry.
    pub fn new(llc: &LlcGeometry) -> Self {
        Self::sampled(llc, 1, 0)
    }

    /// Creates a set-sampled profiler: only 1 out of `sampling` sets is
    /// profiled (the sets congruent to `offset`). Sampled profiles must be
    /// scaled by `sampling` to estimate whole-cache counts.
    pub fn sampled(llc: &LlcGeometry, sampling: usize, offset: usize) -> Self {
        Self::with_depth(llc, llc.associativity, sampling, offset)
    }

    fn with_depth(llc: &LlcGeometry, depth: usize, sampling: usize, offset: usize) -> Self {
        let sampling = sampling.max(1);
        StackDistanceProfiler {
            num_sets: llc.num_sets,
            depth,
            sampling,
            offset: offset % sampling,
            sets: (0..llc.num_sets).map(|_| LruStack::new(depth)).collect(),
        }
    }

    /// A profiler whose stacks never forget a line: the exact-at-any-depth
    /// oracle the bounded profiler is tested against.
    #[cfg(test)]
    fn unbounded_oracle(llc: &LlcGeometry, sampling: usize, offset: usize) -> Self {
        Self::with_depth(llc, usize::MAX, sampling, offset)
    }

    /// Whether the profiler observes accesses to `set`.
    #[inline]
    fn observes(&self, set: usize) -> bool {
        self.sampling == 1 || set % self.sampling == self.offset
    }

    /// Replays a trace and produces its [`ReplayProfile`].
    ///
    /// The profiler is stateful across calls: replaying a second trace models
    /// a warmed-up cache. Use a fresh profiler (or [`Self::reset`]) for an
    /// independent slice; the evaluation warms each representative slice with
    /// the preceding warm-up slice, as the paper does.
    pub fn replay(&mut self, trace: &AccessTrace) -> ReplayProfile {
        let mut records = Vec::with_capacity(trace.len());
        for access in trace.accesses() {
            let set = access.set_index(self.num_sets);
            if !self.observes(set) {
                continue;
            }
            let distance = match self.sets[set].touch(access.tag(self.num_sets)) {
                Some(d) => u32::try_from(d).unwrap_or(COLD_DISTANCE),
                None => COLD_DISTANCE,
            };
            records.push(AccessRecord {
                inst_index: access.inst_index,
                stack_distance: distance,
                dependent: access.dependent,
            });
        }
        ReplayProfile {
            records,
            instructions: trace.instructions(),
            total_accesses: trace.len() as u64,
            scale: self.sampling as u64,
            max_ways: self.depth,
        }
    }

    /// Replays a trace purely to warm the profiler state, without recording.
    pub fn warm_up(&mut self, trace: &AccessTrace) {
        for access in trace.accesses() {
            let set = access.set_index(self.num_sets);
            if self.observes(set) {
                self.sets[set].touch(access.tag(self.num_sets));
            }
        }
    }

    /// Clears all reuse history.
    pub fn reset(&mut self) {
        for s in &mut self.sets {
            *s = LruStack::new(self.depth);
        }
    }
}

/// The result of replaying one slice: per-access stack distances plus slice
/// metadata, from which miss curves and leading-miss matrices are derived.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplayProfile {
    records: Vec<AccessRecord>,
    instructions: u64,
    total_accesses: u64,
    /// Set-sampling factor: derived counts must be multiplied by this factor
    /// to estimate whole-cache counts (1 for a full profile).
    scale: u64,
    /// Largest way count the stack distances are exact for (the profiled
    /// associativity): every query must ask for at most this many ways.
    max_ways: usize,
}

impl ReplayProfile {
    /// Builds a profile directly from records (used by tests and generators).
    /// The records' distances are taken as exact at any depth.
    pub fn from_records(records: Vec<AccessRecord>, instructions: u64, scale: u64) -> Self {
        let total_accesses = records.len() as u64 * scale;
        ReplayProfile {
            records,
            instructions,
            total_accesses,
            scale: scale.max(1),
            max_ways: usize::MAX,
        }
    }

    /// Checks a way-count query against the profiled associativity.
    #[inline]
    fn debug_assert_in_domain(&self, ways: usize) {
        debug_assert!(
            ways <= self.max_ways,
            "query at {ways} ways beyond the profiled associativity {}",
            self.max_ways
        );
    }

    /// The profiled access records, in program order.
    pub fn records(&self) -> &[AccessRecord] {
        &self.records
    }

    /// Instructions covered by the slice.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Total LLC accesses of the slice (whole cache, not only sampled sets).
    pub fn total_accesses(&self) -> u64 {
        self.total_accesses
    }

    /// The set-sampling scale factor of this profile.
    pub fn scale(&self) -> u64 {
        self.scale
    }

    /// Number of profiled (observed) accesses.
    pub fn observed_accesses(&self) -> u64 {
        self.records.len() as u64
    }

    /// Misses for a cache with `ways` ways per set (scaled to the whole
    /// cache when the profile is set-sampled).
    pub fn misses_at(&self, ways: usize) -> u64 {
        self.debug_assert_in_domain(ways);
        let raw = self.records.iter().filter(|r| r.is_miss_at(ways)).count() as u64;
        raw * self.scale
    }

    /// The full miss curve for way allocations `1..=max_ways`, computed in a
    /// single pass over the records.
    pub fn miss_curve(&self, max_ways: usize) -> MissProfile {
        self.debug_assert_in_domain(max_ways);
        // hist[d] = number of accesses with stack distance exactly d (d < max_ways).
        let mut hist = vec![0u64; max_ways];
        let mut beyond = 0u64; // distance >= max_ways or cold
        for r in &self.records {
            if r.stack_distance == COLD_DISTANCE || r.stack_distance as usize >= max_ways {
                beyond += 1;
            } else {
                hist[r.stack_distance as usize] += 1;
            }
        }
        let mut curve = Vec::with_capacity(max_ways);
        // misses(w) = beyond + sum_{d >= w, d < max_ways} hist[d]
        let mut tail: u64 = hist.iter().sum();
        for w in 1..=max_ways {
            tail -= hist[w - 1];
            curve.push((beyond + tail) * self.scale);
        }
        MissProfile::new(curve)
    }

    /// Number of *leading* (non-overlapped) misses for every way allocation
    /// `1..=max_ways` under the overlap model `params` (`curve[w - 1]` for
    /// `w` ways, scaled to the whole cache), in one pass over the records.
    ///
    /// A miss overlaps with the current leading miss if it is issued within
    /// the re-order-buffer window of that leading miss and fewer than `mshrs`
    /// misses are already outstanding in the overlap group; otherwise it
    /// starts a new group and counts as a leading miss. Dependent misses
    /// always start a group. Overlapped misses are hidden behind the leading
    /// miss and do not contribute to memory stall time (the leading-loads
    /// performance model).
    ///
    /// Every way count runs its own group state machine over the misses it
    /// sees. An access at stack distance `d` misses exactly with
    /// `1..=min(d, max_ways)` ways, so it updates only those lanes.
    pub fn leading_miss_curve(&self, max_ways: usize, params: &OverlapParams) -> Vec<u64> {
        self.debug_assert_in_domain(max_ways);
        /// One way count's overlap group; `size == 0` until its first miss.
        #[derive(Clone, Copy)]
        struct Lane {
            start: u64,
            size: usize,
            leading: u64,
        }
        let window = params.rob_entries as u64;
        let mshrs = params.mshrs.max(1);
        let mut lanes = vec![
            Lane {
                start: 0,
                size: 0,
                leading: 0,
            };
            max_ways
        ];
        for r in &self.records {
            let missing = (r.stack_distance as usize).min(max_ways);
            for lane in &mut lanes[..missing] {
                let starts_new_group = r.dependent
                    || lane.size == 0
                    || r.inst_index.saturating_sub(lane.start) > window
                    || lane.size >= mshrs;
                if starts_new_group {
                    lane.leading += 1;
                    lane.start = r.inst_index;
                    lane.size = 1;
                } else {
                    lane.size += 1;
                }
            }
        }
        lanes.iter().map(|lane| lane.leading * self.scale).collect()
    }

    /// Leading misses at one way count, one pass per query: the per-way
    /// reference [`Self::leading_miss_curve`] is tested against.
    #[cfg(test)]
    pub(crate) fn leading_misses_at(&self, ways: usize, params: &OverlapParams) -> u64 {
        let window = params.rob_entries as u64;
        let mshrs = params.mshrs.max(1);
        let mut leading = 0u64;
        let mut group_start: Option<u64> = None;
        let mut group_size = 0usize;
        for r in &self.records {
            if !r.is_miss_at(ways) {
                continue;
            }
            let starts_new_group = r.dependent
                || match group_start {
                    Some(start) => {
                        r.inst_index.saturating_sub(start) > window || group_size >= mshrs
                    }
                    None => true,
                };
            if starts_new_group {
                leading += 1;
                group_start = Some(r.inst_index);
                group_size = 1;
            } else {
                group_size += 1;
            }
        }
        leading * self.scale
    }

    /// Average memory-level parallelism at `ways` ways under `params`.
    #[cfg(test)]
    fn mlp_at(&self, ways: usize, params: &OverlapParams) -> f64 {
        let total = self.misses_at(ways);
        let leading = self.leading_misses_at(ways, params);
        if total == 0 || leading == 0 {
            1.0
        } else {
            total as f64 / leading as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{Access, AccessTrace};

    fn geometry() -> LlcGeometry {
        LlcGeometry {
            num_sets: 16,
            associativity: 8,
            line_bytes: 64,
        }
    }

    /// A trace looping over `n` distinct lines that all map to set 0.
    fn same_set_loop(n: u64, repeats: u64) -> AccessTrace {
        let mut accesses = Vec::new();
        let mut inst = 0u64;
        for _ in 0..repeats {
            for i in 0..n {
                accesses.push(Access::new(i * 16, inst)); // stride 16 lines => same set
                inst += 100;
            }
        }
        AccessTrace::new(accesses, inst.max(1))
    }

    #[test]
    fn loop_miss_curve_matches_theory() {
        // A cyclic loop over 4 lines in one set: with >= 4 ways everything
        // after the cold misses hits; with < 4 ways LRU thrashes and every
        // access misses.
        let trace = same_set_loop(4, 10);
        let mut profiler = StackDistanceProfiler::new(&geometry());
        let profile = profiler.replay(&trace);
        let curve = profile.miss_curve(8);
        assert_eq!(curve.misses_at(4), 4); // only the cold misses
        assert_eq!(curve.misses_at(8), 4);
        assert_eq!(curve.misses_at(3), 40); // full thrash
        assert_eq!(curve.misses_at(1), 40);
        assert!(curve.validate().is_ok());
    }

    #[test]
    fn miss_curve_is_monotonic_and_matches_point_queries() {
        let trace = same_set_loop(6, 5);
        let mut profiler = StackDistanceProfiler::new(&geometry());
        let profile = profiler.replay(&trace);
        let curve = profile.miss_curve(8);
        for w in 1..=8usize {
            assert_eq!(curve.misses_at(w), profile.misses_at(w), "w={w}");
            if w > 1 {
                assert!(curve.misses_at(w) <= curve.misses_at(w - 1));
            }
        }
    }

    #[test]
    fn warm_up_removes_cold_misses() {
        let trace = same_set_loop(4, 1);
        let mut cold = StackDistanceProfiler::new(&geometry());
        let cold_profile = cold.replay(&trace);
        assert_eq!(cold_profile.misses_at(8), 4);

        let mut warmed = StackDistanceProfiler::new(&geometry());
        warmed.warm_up(&trace);
        let warm_profile = warmed.replay(&trace);
        assert_eq!(warm_profile.misses_at(8), 0);

        warmed.reset();
        let reset_profile = warmed.replay(&trace);
        assert_eq!(reset_profile.misses_at(8), 4);
    }

    #[test]
    fn sampled_profile_scales_counts() {
        // Accesses spread over all 16 sets, each set seeing the same pattern.
        let mut accesses = Vec::new();
        let mut inst = 0;
        for _rep in 0..3u64 {
            for set in 0..16u64 {
                for line in 0..2u64 {
                    accesses.push(Access::new(set + 16 * line, inst));
                    inst += 10;
                }
            }
        }
        let trace = AccessTrace::new(accesses, inst);
        let mut full = StackDistanceProfiler::new(&geometry());
        let full_misses = full.replay(&trace).misses_at(8);
        let mut sampled = StackDistanceProfiler::sampled(&geometry(), 4, 0);
        let sampled_misses = sampled.replay(&trace).misses_at(8);
        // Uniform traffic: the scaled sampled estimate matches exactly.
        assert_eq!(full_misses, sampled_misses);
    }

    #[test]
    fn leading_misses_respect_window_and_mshrs() {
        // 6 misses to one set: the first 3 within a 128-instruction window,
        // the last 3 far apart.
        let times = [0u64, 10, 20, 10_000, 20_000, 30_000];
        let accesses: Vec<Access> = times
            .iter()
            .enumerate()
            .map(|(line, &inst)| Access::new(line as u64 * 16, inst))
            .collect();
        let trace = AccessTrace::new(accesses, 40_000);
        let mut profiler = StackDistanceProfiler::new(&geometry());
        let profile = profiler.replay(&trace);
        assert_eq!(profile.misses_at(8), 6);

        let big = OverlapParams {
            rob_entries: 128,
            mshrs: 8,
        };
        assert_eq!(profile.leading_misses_at(8, &big), 4); // {0,10,20} overlap
        assert!((profile.mlp_at(8, &big) - 1.5).abs() < 1e-12);

        let tiny_window = OverlapParams {
            rob_entries: 4,
            mshrs: 8,
        };
        assert_eq!(profile.leading_misses_at(8, &tiny_window), 6);
        assert!((profile.mlp_at(8, &tiny_window) - 1.0).abs() < 1e-12);

        let one_mshr = OverlapParams {
            rob_entries: 128,
            mshrs: 1,
        };
        assert_eq!(profile.leading_misses_at(8, &one_mshr), 6);
    }

    #[test]
    fn mlp_grows_with_core_size() {
        // Bursty misses: groups of 4 misses close together.
        let mut accesses = Vec::new();
        let mut inst = 0u64;
        for burst in 0..10u64 {
            for i in 0..4u64 {
                accesses.push(Access::new((burst * 4 + i) * 16, inst + i * 8));
            }
            inst += 5_000;
        }
        let trace = AccessTrace::new(accesses, inst);
        let mut profiler = StackDistanceProfiler::new(&geometry());
        let profile = profiler.replay(&trace);

        let small = OverlapParams {
            rob_entries: 16,
            mshrs: 2,
        };
        let large = OverlapParams {
            rob_entries: 256,
            mshrs: 16,
        };
        assert!(profile.mlp_at(8, &large) > profile.mlp_at(8, &small));
    }

    #[test]
    fn dependent_misses_never_overlap() {
        // The same bursty pattern, but marked dependent: MLP stays 1 even on
        // a huge window.
        let accesses: Vec<Access> = (0..20u64)
            .map(|i| Access::dependent(i * 16, i * 8))
            .collect();
        let trace = AccessTrace::new(accesses, 1_000);
        let mut profiler = StackDistanceProfiler::new(&geometry());
        let profile = profiler.replay(&trace);
        let params = OverlapParams {
            rob_entries: 512,
            mshrs: 32,
        };
        assert_eq!(profile.leading_misses_at(8, &params), profile.misses_at(8));
        assert!((profile.mlp_at(8, &params) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_profile_defaults() {
        let profile = ReplayProfile::from_records(vec![], 1000, 1);
        assert_eq!(profile.misses_at(4), 0);
        let params = OverlapParams {
            rob_entries: 128,
            mshrs: 8,
        };
        assert!((profile.mlp_at(4, &params) - 1.0).abs() < 1e-12);
        assert_eq!(profile.miss_curve(4).misses_at(1), 0);
        assert_eq!(profile.leading_miss_curve(4, &params), vec![0; 4]);
    }

    use proptest::prelude::*;

    /// A trace from `(line, instruction gap, dependent if 0)` triples.
    fn trace_of(raw: Vec<(u64, u64, u8)>) -> AccessTrace {
        let mut inst = 0u64;
        let accesses = raw
            .into_iter()
            .map(|(line, gap, kind)| {
                inst += gap;
                if kind == 0 {
                    Access::dependent(line, inst)
                } else {
                    Access::new(line, inst)
                }
            })
            .collect();
        AccessTrace::new(accesses, inst + 1)
    }

    /// The bounded profile agrees with the unbounded oracle's on every
    /// query of the `1..=associativity` domain.
    fn assert_bounded_matches_oracle(
        bounded: &ReplayProfile,
        oracle: &ReplayProfile,
        assoc: usize,
        params: &OverlapParams,
    ) -> Result<(), String> {
        prop_assert_eq!(bounded.records.len(), oracle.records.len());
        for (b, o) in bounded.records.iter().zip(&oracle.records) {
            let expected = if o.stack_distance as usize >= assoc {
                COLD_DISTANCE
            } else {
                o.stack_distance
            };
            prop_assert_eq!(b.stack_distance, expected);
            prop_assert_eq!((b.inst_index, b.dependent), (o.inst_index, o.dependent));
        }
        for w in 1..=assoc {
            prop_assert_eq!(bounded.misses_at(w), oracle.misses_at(w));
        }
        prop_assert_eq!(bounded.miss_curve(assoc), oracle.miss_curve(assoc));
        let per_way: Vec<u64> = (1..=assoc)
            .map(|w| oracle.leading_misses_at(w, params))
            .collect();
        prop_assert_eq!(bounded.leading_miss_curve(assoc, params), per_way);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Stacks bounded to the associativity answer every query exactly
        /// like unbounded stacks: after warm-up, across replays that carry
        /// state, and after `reset()`, for full and set-sampled profilers.
        #[test]
        fn bounded_replay_matches_unbounded_oracle(
            (sets_log, assoc) in (0u32..5, 1usize..17),
            (sampling, offset) in (1usize..4, 0usize..4),
            warm in prop::collection::vec((0u64..256, 1u64..40, 0u8..5), 0..300),
            main in prop::collection::vec((0u64..256, 1u64..40, 0u8..5), 1..400),
            (rob_entries, mshrs) in (1usize..300, 1usize..12),
        ) {
            let llc = LlcGeometry {
                num_sets: 1 << sets_log,
                associativity: assoc,
                line_bytes: 64,
            };
            let params = OverlapParams { rob_entries, mshrs };
            let (warm, main) = (trace_of(warm), trace_of(main));
            let mut bounded = StackDistanceProfiler::sampled(&llc, sampling, offset);
            let mut oracle = StackDistanceProfiler::unbounded_oracle(&llc, sampling, offset);
            bounded.warm_up(&warm);
            oracle.warm_up(&warm);
            for step in 0..3 {
                if step == 2 {
                    bounded.reset();
                    oracle.reset();
                }
                let (b, o) = (bounded.replay(&main), oracle.replay(&main));
                assert_bounded_matches_oracle(&b, &o, assoc, &params)?;
            }
        }

        /// The single-pass leading-miss curve equals one per-way pass at
        /// every way count, on arbitrary distances, scales and overlap
        /// parameters.
        #[test]
        fn leading_miss_curve_matches_per_way_passes(
            raw in prop::collection::vec((0u32..24, 1u64..200, 0u8..4), 0..400),
            (max_ways, scale) in (1usize..21, 1u64..5),
            (rob_entries, mshrs) in (1usize..400, 0usize..12),
        ) {
            let mut inst = 0u64;
            let records: Vec<AccessRecord> = raw
                .into_iter()
                .map(|(distance, gap, kind)| {
                    inst += gap;
                    AccessRecord {
                        inst_index: inst,
                        stack_distance: if distance >= 22 { COLD_DISTANCE } else { distance },
                        dependent: kind == 0,
                    }
                })
                .collect();
            let profile = ReplayProfile::from_records(records, inst + 1, scale);
            let params = OverlapParams { rob_entries, mshrs };
            let per_way: Vec<u64> = (1..=max_ways)
                .map(|w| profile.leading_misses_at(w, &params))
                .collect();
            prop_assert_eq!(profile.leading_miss_curve(max_ways, &params), per_way);
        }
    }
}
