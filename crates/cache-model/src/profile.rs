//! One-pass LRU stack-distance profiling of a reference stream.
//!
//! Under LRU replacement, an access whose per-set stack distance is `d` hits
//! in every cache with more than `d` ways and misses in every cache with at
//! most `d` ways (the *stack property*). Replaying a stream once therefore
//! yields the miss count for **every** possible way allocation, which is the
//! mechanism both the ground-truth simulator and the Auxiliary Tag Directory
//! rely on.
//!
//! The per-set stacks are bounded to the associativity: no query asks for
//! more ways than the cache has, and an access at distance
//! `>= associativity` misses at every way count up to it, exactly as a cold
//! miss does. A replay therefore reduces each access to the number of way
//! counts it misses at, `min(d, associativity)`. A [`MissHistogram`] over
//! that number answers every miss-count query, and one compact 4-byte
//! record per access (instruction gap, missing ways, dependent flag) is all
//! the leading-miss kernel ([`ReplayProfile::leading_miss_matrix`]) reads:
//! it computes every core size's leading misses at every way count in one
//! branch-free pass per core size and block of sixteen way counts.
//!
//! The characterization replays each representative slice once
//! ([`SliceReplay`]): the warm-up slice goes straight into the stacks, and
//! each access of the main slice fills the exact profile and the ATD view's
//! histogram together. A set-sampled ATD's stacks are exactly the exact
//! replay's stacks for the sets it samples, so the second replay a separate
//! [`StackDistanceProfiler::sampled`] would run is redundant; it survives as
//! the hardware [`crate::Atd`] model and as the test oracle of the one-pass
//! view.

use crate::access::{Access, AccessTrace};
use crate::mlp_atd::{LeadingMissMatrix, OverlapParams};
use crate::replacement::LruStack;
use qosrm_types::{LlcGeometry, MissProfile, MAX_MSHRS, MAX_ROB_ENTRIES};

/// One replayed access, as compact as the leading-miss kernel reads it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MissRecord {
    /// Instructions since the previous access of the replay (since the
    /// start of the slice for the first one), saturated at `u16::MAX`: every
    /// gap past the largest ROB window reads the same.
    delta: u16,
    /// Number of way counts the access misses at: it misses with
    /// `1..=missing` ways and hits with more. This is its stack distance
    /// capped at the associativity, which a cold miss reads as.
    missing: u8,
    /// Whether the access is address-dependent on the previous long-latency
    /// load (pointer chasing); dependent misses never overlap.
    dependent: bool,
}

/// Miss counts of one replay at every way count, as a histogram over the
/// number of way counts each access misses at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MissHistogram {
    /// `counts[m]`: accesses that miss at exactly the way counts `1..=m`.
    counts: Vec<u64>,
}

impl MissHistogram {
    /// An empty histogram for the way counts `1..=ways`.
    fn new(ways: usize) -> Self {
        MissHistogram {
            counts: vec![0; ways + 1],
        }
    }

    #[inline]
    fn add(&mut self, missing: usize) {
        self.counts[missing] += 1;
    }

    /// The largest way count the histogram answers for.
    fn ways(&self) -> usize {
        self.counts.len() - 1
    }

    /// Number of accesses counted.
    pub fn accesses(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Misses with `ways` ways per set.
    fn misses_at(&self, ways: usize) -> u64 {
        debug_assert!(
            ways <= self.ways(),
            "query at {ways} ways beyond the profiled associativity {}",
            self.ways()
        );
        self.counts[ways..].iter().sum()
    }

    /// Misses at every way count up to the profiled associativity
    /// (`curve[w - 1]` for `w` ways), each multiplied by `scale`.
    pub fn miss_curve(&self, scale: u64) -> Vec<u64> {
        let mut misses = self.accesses();
        self.counts[..self.ways()]
            .iter()
            .map(|&hits| {
                misses -= hits;
                misses * scale
            })
            .collect()
    }
}

/// Profiler that replays a reference stream against per-set LRU stacks
/// bounded to the associativity and reduces every access to the number of
/// way counts it misses at.
#[derive(Debug, Clone)]
pub struct StackDistanceProfiler {
    num_sets: usize,
    /// The associativity: the largest way count queried, and the cap on
    /// every access's missing ways.
    ways: usize,
    /// Capacity of every per-set stack: the associativity, except in the
    /// unbounded test oracle.
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
    /// profiled (the sets congruent to `offset`). A sampled profile's counts
    /// are multiplied by `sampling` to estimate whole-cache counts.
    pub fn sampled(llc: &LlcGeometry, sampling: usize, offset: usize) -> Self {
        Self::with_depth(llc, llc.associativity, sampling, offset)
    }

    fn with_depth(llc: &LlcGeometry, depth: usize, sampling: usize, offset: usize) -> Self {
        let sampling = sampling.max(1);
        StackDistanceProfiler {
            num_sets: llc.num_sets,
            ways: llc.associativity,
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

    /// References `access` in the stack of its set `set` and returns the
    /// number of way counts it misses at.
    #[inline]
    fn touch(&mut self, set: usize, access: &Access) -> usize {
        match self.sets[set].touch(access.tag(self.num_sets)) {
            Some(distance) => distance.min(self.ways),
            None => self.ways,
        }
    }

    /// Replays a trace and produces its [`ReplayProfile`].
    ///
    /// The profiler is stateful across calls: replaying a second trace models
    /// a warmed-up cache. Use a fresh profiler (or [`Self::reset`]) for an
    /// independent slice.
    pub fn replay(&mut self, trace: &AccessTrace) -> ReplayProfile {
        let mut profile = ReplayProfile::new(self.ways, self.sampling as u64);
        for access in trace.accesses() {
            let set = access.set_index(self.num_sets);
            if self.observes(set) {
                let missing = self.touch(set, access);
                profile.push(access, missing);
            }
        }
        profile
    }

    /// Replays a trace purely to warm the profiler state, without recording.
    pub fn warm_up(&mut self, trace: &AccessTrace) {
        for access in trace.accesses() {
            let set = access.set_index(self.num_sets);
            if self.observes(set) {
                self.touch(set, access);
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

/// The result of replaying one slice: its miss histogram and one compact
/// record per profiled access, from which miss curves and leading-miss
/// matrices are derived.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayProfile {
    histogram: MissHistogram,
    records: Vec<MissRecord>,
    /// Instruction index of the last recorded access.
    last_inst: u64,
    /// Set-sampling factor: derived counts are multiplied by this factor to
    /// estimate whole-cache counts (1 for a full profile).
    scale: u64,
}

impl ReplayProfile {
    /// An empty profile for the way counts `1..=ways`.
    fn new(ways: usize, scale: u64) -> Self {
        assert!(
            ways <= usize::from(u8::MAX),
            "{ways} ways do not fit a miss record"
        );
        ReplayProfile {
            histogram: MissHistogram::new(ways),
            records: Vec::new(),
            last_inst: 0,
            scale,
        }
    }

    /// Records one access that misses at `missing` way counts.
    #[inline]
    fn push(&mut self, access: &Access, missing: usize) {
        self.histogram.add(missing);
        let delta = access.inst_index.saturating_sub(self.last_inst);
        self.last_inst = access.inst_index;
        self.records.push(MissRecord {
            delta: delta.min(u64::from(u16::MAX)) as u16,
            missing: missing as u8,
            dependent: access.dependent,
        });
    }

    /// The miss histogram of the profiled accesses (not scaled).
    pub fn histogram(&self) -> &MissHistogram {
        &self.histogram
    }

    /// Misses for a cache with `ways` ways per set (scaled to the whole
    /// cache when the profile is set-sampled).
    pub fn misses_at(&self, ways: usize) -> u64 {
        self.histogram.misses_at(ways) * self.scale
    }

    /// The miss curve at every way count up to the associativity.
    pub fn miss_curve(&self) -> MissProfile {
        MissProfile::new(self.histogram.miss_curve(self.scale))
    }

    /// Leading (non-overlapped) misses of every core size in `sizes` at
    /// every way count up to the associativity (`leading[s][w - 1]`, scaled
    /// to the whole cache).
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
    /// sees, and one branch-free kernel runs sixteen of them per pass over
    /// the records.
    ///
    /// # Panics
    ///
    /// Panics if a core size exceeds [`MAX_ROB_ENTRIES`] or [`MAX_MSHRS`],
    /// which every validated platform respects.
    pub fn leading_miss_matrix(&self, sizes: &[OverlapParams]) -> LeadingMissMatrix {
        let ways = self.histogram.ways();
        let leading = sizes
            .iter()
            .map(|params| {
                let mut curve = Vec::with_capacity(ways);
                for first in (0..ways).step_by(LANES) {
                    let block = leading_lane_block(&self.records, first, params);
                    curve.extend(block.iter().take(ways - first).map(|&n| n * self.scale));
                }
                curve
            })
            .collect();
        LeadingMissMatrix { leading }
    }
}

/// Way counts the leading-miss kernel advances together: sixteen `i16`
/// lanes, two SSE2 registers per state vector on the baseline x86-64
/// target.
const LANES: usize = 16;

/// Leading misses at the way counts `first + 1..=first + LANES` under
/// `params`, in one branch-free pass over `records`.
///
/// Lane `l` stands for `first + l + 1` ways and misses on a record with
/// `missing > first + l`. It keeps its overlap group's size and age (the
/// instructions since the group's leading miss) in `i16` lanes. An age
/// saturates at `i16::MAX`, past every ROB window up to
/// [`MAX_ROB_ENTRIES`], so the window test stays exact, and a group never
/// outgrows [`MAX_MSHRS`]. A lane starts aged past any window, so its first
/// miss leads.
fn leading_lane_block(
    records: &[MissRecord],
    first: usize,
    params: &OverlapParams,
) -> [u64; LANES] {
    assert!(
        params.rob_entries <= MAX_ROB_ENTRIES && params.mshrs <= MAX_MSHRS,
        "{params:?} exceeds the leading-miss kernel's lane widths"
    );
    let window = params.rob_entries as i16;
    let mshrs = params.mshrs.max(1) as i16;
    let lane: [i16; LANES] = std::array::from_fn(|l| (first + l) as i16);
    let mut age = [i16::MAX; LANES];
    let mut size = [0i16; LANES];
    let mut totals = [0u64; LANES];
    // A lane counts at most one leading miss per record, so `i16` counters
    // flushed every `i16::MAX` records cannot overflow.
    for chunk in records.chunks(i16::MAX as usize) {
        let mut leading = [0i16; LANES];
        for r in chunk {
            let delta = r.delta.min(i16::MAX as u16) as i16;
            let missing = i16::from(r.missing);
            for l in 0..LANES {
                let aged = age[l].saturating_add(delta);
                let miss = lane[l] < missing;
                let leads = miss & (r.dependent | (aged > window) | (size[l] >= mshrs));
                leading[l] += i16::from(leads);
                age[l] = if leads { 0 } else { aged };
                size[l] = if leads { 1 } else { size[l] + i16::from(miss) };
            }
        }
        for (total, n) in totals.iter_mut().zip(leading) {
            *total += n as u64;
        }
    }
    totals
}

/// The characterization's one replay of a representative slice, read two
/// ways: the exact [`ReplayProfile`] of every set, and the ATD view's
/// [`MissHistogram`] of the sets `set % atd_sampling == atd_offset`. The
/// warm-up slice only warms the stacks ([`Self::warm`]); each access of the
/// main slice goes through its set's stack once ([`Self::record`]) and
/// fills both views.
#[derive(Debug, Clone)]
pub struct SliceReplay {
    profiler: StackDistanceProfiler,
    atd_sampling: usize,
    atd_offset: usize,
    exact: ReplayProfile,
    atd: MissHistogram,
}

impl SliceReplay {
    /// A cold replay of the given geometry whose ATD view samples the sets
    /// congruent to `atd_offset` modulo `atd_sampling`.
    pub fn new(llc: &LlcGeometry, atd_sampling: usize, atd_offset: usize) -> Self {
        let profiler = StackDistanceProfiler::new(llc);
        let atd_sampling = atd_sampling.max(1);
        SliceReplay {
            exact: ReplayProfile::new(profiler.ways, 1),
            atd: MissHistogram::new(profiler.ways),
            profiler,
            atd_sampling,
            atd_offset: atd_offset % atd_sampling,
        }
    }

    /// Warms the stacks with one access of the warm-up slice, recording
    /// nothing.
    #[inline]
    pub fn warm(&mut self, access: &Access) {
        let set = access.set_index(self.profiler.num_sets);
        self.profiler.touch(set, access);
    }

    /// Replays one access of the representative slice into both views.
    #[inline]
    pub fn record(&mut self, access: &Access) {
        let set = access.set_index(self.profiler.num_sets);
        let missing = self.profiler.touch(set, access);
        self.exact.push(access, missing);
        if set % self.atd_sampling == self.atd_offset {
            self.atd.add(missing);
        }
    }

    /// The exact profile of every set.
    pub fn exact(&self) -> &ReplayProfile {
        &self.exact
    }

    /// The ATD view's histogram; its counts times the sampling factor
    /// estimate the whole cache's.
    pub fn atd(&self) -> &MissHistogram {
        &self.atd
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

    /// Leading misses of one core size at `ways` ways, from the kernel.
    fn leading_at(profile: &ReplayProfile, ways: usize, params: OverlapParams) -> u64 {
        profile.leading_miss_matrix(&[params]).leading[0][ways - 1]
    }

    /// Average memory-level parallelism at `ways` ways under `params`.
    fn mlp_at(profile: &ReplayProfile, ways: usize, params: OverlapParams) -> f64 {
        let total = profile.misses_at(ways);
        let leading = leading_at(profile, ways, params);
        if total == 0 || leading == 0 {
            1.0
        } else {
            total as f64 / leading as f64
        }
    }

    /// Leading misses at one way count, one pass per query over raw
    /// `(instruction, missing ways, dependent)` accesses: the per-way
    /// reference the kernel is tested against.
    fn leading_misses_at(
        accesses: &[(u64, usize, bool)],
        ways: usize,
        params: &OverlapParams,
    ) -> u64 {
        let window = params.rob_entries as u64;
        let mshrs = params.mshrs.max(1);
        let mut leading = 0u64;
        let mut group_start: Option<u64> = None;
        let mut group_size = 0usize;
        for &(inst, missing, dependent) in accesses {
            if missing < ways {
                continue;
            }
            let starts_new_group = dependent
                || match group_start {
                    Some(start) => inst.saturating_sub(start) > window || group_size >= mshrs,
                    None => true,
                };
            if starts_new_group {
                leading += 1;
                group_start = Some(inst);
                group_size = 1;
            } else {
                group_size += 1;
            }
        }
        leading
    }

    /// A profile of raw `(instruction, missing ways, dependent)` accesses.
    fn profile_of(accesses: &[(u64, usize, bool)], ways: usize, scale: u64) -> ReplayProfile {
        let mut profile = ReplayProfile::new(ways, scale);
        for &(inst, missing, dependent) in accesses {
            let access = if dependent {
                Access::dependent(0, inst)
            } else {
                Access::new(0, inst)
            };
            profile.push(&access, missing);
        }
        profile
    }

    #[test]
    fn loop_miss_curve_matches_theory() {
        // A cyclic loop over 4 lines in one set: with >= 4 ways everything
        // after the cold misses hits; with < 4 ways LRU thrashes and every
        // access misses.
        let trace = same_set_loop(4, 10);
        let mut profiler = StackDistanceProfiler::new(&geometry());
        let profile = profiler.replay(&trace);
        let curve = profile.miss_curve();
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
        let curve = profile.miss_curve();
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
        assert_eq!(leading_at(&profile, 8, big), 4); // {0,10,20} overlap
        assert!((mlp_at(&profile, 8, big) - 1.5).abs() < 1e-12);

        let tiny_window = OverlapParams {
            rob_entries: 4,
            mshrs: 8,
        };
        assert_eq!(leading_at(&profile, 8, tiny_window), 6);
        assert!((mlp_at(&profile, 8, tiny_window) - 1.0).abs() < 1e-12);

        let one_mshr = OverlapParams {
            rob_entries: 128,
            mshrs: 1,
        };
        assert_eq!(leading_at(&profile, 8, one_mshr), 6);
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
        assert!(mlp_at(&profile, 8, large) > mlp_at(&profile, 8, small));
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
        assert_eq!(leading_at(&profile, 8, params), profile.misses_at(8));
        assert!((mlp_at(&profile, 8, params) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_profile_defaults() {
        let profile = ReplayProfile::new(4, 1);
        assert_eq!(profile.misses_at(4), 0);
        let params = OverlapParams {
            rob_entries: 128,
            mshrs: 8,
        };
        assert!((mlp_at(&profile, 4, params) - 1.0).abs() < 1e-12);
        assert_eq!(profile.miss_curve().misses_at(1), 0);
        let matrix = profile.leading_miss_matrix(&[params, params]);
        assert_eq!(matrix.leading, vec![vec![0; 4]; 2]);
    }

    /// The kernel's narrow lanes hold at the validated bounds: ages at the
    /// widest window, groups at the most MSHRs, and more records than an
    /// `i16` counter holds.
    #[test]
    fn kernel_is_exact_at_the_lane_bounds() {
        let window = OverlapParams {
            rob_entries: MAX_ROB_ENTRIES,
            mshrs: MAX_MSHRS,
        };
        // Gaps of exactly the window overlap; one more instruction leads.
        let mut inst = 0;
        let mut accesses = Vec::new();
        for gap in [
            0,
            MAX_ROB_ENTRIES as u64,
            1,
            MAX_ROB_ENTRIES as u64,
            70_000,
            3,
        ] {
            inst += gap;
            accesses.push((inst, 8, false));
        }
        // 70,000 misses at one instruction: groups of `MAX_MSHRS`.
        accesses.extend(std::iter::repeat_n((inst + 100_000, 8, false), 70_000));
        // 70,000 dependent misses: every one leads.
        accesses.extend(std::iter::repeat_n((inst + 200_000, 8, true), 70_000));
        let profile = profile_of(&accesses, 8, 1);
        let expected: Vec<u64> = (1..=8)
            .map(|w| leading_misses_at(&accesses, w, &window))
            .collect();
        assert_eq!(
            expected[7],
            3 + 70_000_u64.div_ceil(MAX_MSHRS as u64) + 70_000
        );
        assert_eq!(
            profile.leading_miss_matrix(&[window]).leading,
            vec![expected]
        );
    }

    #[test]
    #[should_panic(expected = "lane widths")]
    fn kernel_rejects_windows_past_its_lanes() {
        let params = OverlapParams {
            rob_entries: MAX_ROB_ENTRIES + 1,
            mshrs: 8,
        };
        ReplayProfile::new(4, 1).leading_miss_matrix(&[params]);
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

    /// A value of `a` or of `b`, each half the time.
    fn either<T>(
        a: impl Strategy<Value = T>,
        b: impl Strategy<Value = T>,
    ) -> impl Strategy<Value = T> {
        (0u8..2, a, b).prop_map(|(pick, a, b)| if pick == 0 { a } else { b })
    }

    /// Overlap parameters reaching the kernel's lane bounds.
    fn overlap_params() -> impl Strategy<Value = OverlapParams> {
        let rob_entries = either(1usize..400, (MAX_ROB_ENTRIES - 300)..=MAX_ROB_ENTRIES);
        let mshrs = either(0usize..12, (MAX_MSHRS - 4)..=MAX_MSHRS);
        (rob_entries, mshrs).prop_map(|(rob_entries, mshrs)| OverlapParams { rob_entries, mshrs })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Stacks bounded to the associativity replay every access exactly
        /// like unbounded stacks capped at the associativity: after warm-up,
        /// across replays that carry state, and after `reset()`, for full
        /// and set-sampled profilers.
        #[test]
        fn bounded_replay_matches_unbounded_oracle(
            (sets_log, assoc) in (0u32..5, 1usize..17),
            (sampling, offset) in (1usize..4, 0usize..4),
            warm in prop::collection::vec((0u64..256, 1u64..40, 0u8..5), 0..300),
            main in prop::collection::vec((0u64..256, 1u64..40, 0u8..5), 1..400),
        ) {
            let llc = LlcGeometry {
                num_sets: 1 << sets_log,
                associativity: assoc,
                line_bytes: 64,
            };
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
                prop_assert_eq!(bounded.replay(&main), oracle.replay(&main));
            }
        }

        /// One pass fills the exact profile a full profiler's replay yields
        /// and the ATD histogram a separate sampled replay yields, for every
        /// sampling factor and offset.
        #[test]
        fn one_pass_views_match_separate_replays(
            (sets_log, assoc) in (0u32..6, 1usize..17),
            sampling in 1usize..9,
            warm in prop::collection::vec((0u64..512, 1u64..40, 0u8..5), 0..300),
            main in prop::collection::vec((0u64..512, 1u64..40, 0u8..5), 1..400),
        ) {
            let llc = LlcGeometry {
                num_sets: 1 << sets_log,
                associativity: assoc,
                line_bytes: 64,
            };
            let (warm, main) = (trace_of(warm), trace_of(main));
            let mut full = StackDistanceProfiler::new(&llc);
            full.warm_up(&warm);
            let exact = full.replay(&main);
            for offset in 0..sampling {
                let mut replay = SliceReplay::new(&llc, sampling, offset);
                warm.accesses().iter().for_each(|a| replay.warm(a));
                main.accesses().iter().for_each(|a| replay.record(a));
                let mut sampled = StackDistanceProfiler::sampled(&llc, sampling, offset);
                sampled.warm_up(&warm);
                let atd = sampled.replay(&main);
                prop_assert_eq!(replay.exact(), &exact);
                prop_assert_eq!(replay.atd(), atd.histogram());
            }
        }

        /// The all-core-sizes kernel equals one per-way pass at every way
        /// count, for several overlap parameters per case, on arbitrary
        /// missing ways, gaps (zero, and past the record's and the lanes'
        /// saturation), scales and associativities.
        #[test]
        fn leading_miss_curve_matches_per_way_passes(
            raw in prop::collection::vec(
                (0usize..21, either(0u64..200, 30_000u64..70_000), 0u8..4),
                0..400,
            ),
            (ways, scale) in (1usize..=20, 1u64..5),
            sizes in prop::collection::vec(overlap_params(), 1..4),
        ) {
            let mut inst = 0u64;
            let accesses: Vec<(u64, usize, bool)> = raw
                .into_iter()
                .map(|(missing, gap, kind)| {
                    inst += gap;
                    (inst, missing.min(ways), kind == 0)
                })
                .collect();
            let profile = profile_of(&accesses, ways, scale);
            let per_way: Vec<Vec<u64>> = sizes
                .iter()
                .map(|params| {
                    (1..=ways)
                        .map(|w| leading_misses_at(&accesses, w, params) * scale)
                        .collect()
                })
                .collect();
            prop_assert_eq!(profile.leading_miss_matrix(&sizes).leading, per_way);
        }
    }
}
