//! Keyed memoization of per-application energy curves.
//!
//! Building one energy-versus-ways curve evaluates the analytical models
//! over the `(core size, VF level, ways)` candidate space — the dominant
//! cost of an RMA invocation (Section "overhead" of the paper: hundreds of
//! model evaluations per call). The cache answers *recurring* observations;
//! a miss falls through to the staged
//! [`CurveBuilder`](crate::curve_builder::CurveBuilder), which batches the
//! per-axis factors and prunes each `(size, ways)` column to its
//! QoS-feasible VF suffix by a partition point, so even the cold path stays
//! cheap. Across a scenario sweep the same application profiles recur
//! constantly: phase traces wrap around within one run, and different sweep
//! points (QoS targets, RMA variants) revisit identical observations. The curve is a pure function of
//!
//! * the optimizer configuration (platform + control knobs + model + energy
//!   calibration) — the *configuration fingerprint*,
//! * the per-core QoS specification, and
//! * the observation (statistics and ATD/MLP/ILP profiles),
//!
//! so a [`CurveCache`] keyed by a digest of those three inputs returns
//! bit-identical curves while skipping recomputation. The cache is sharded
//! and thread-safe: one instance is shared across all scenarios of a
//! parallel sweep (see `experiments::sweep`).
//!
//! Keys are 128-bit digests of two 64-bit lanes. The configuration
//! fingerprint — computed once per manager — digests the canonical `serde`
//! value tree via [`fingerprint`], a byte-wise FNV-1a stream: its digests
//! also name persistent things (serve run ids, search genome keys,
//! `--cache-dir` database files), so its output never moves. The
//! per-invocation key is derived on every lookup, hits included, so
//! [`curve_key`] streams the observation field by field (no allocation) and
//! *word by word*: each `u64`, and each `f64`'s bits, is one step of each
//! lane, where FNV-1a would take eight (a Paper II observation is ~77
//! words). An exhaustive destructuring makes adding a field to
//! `CoreObservation` fail compilation here until the key covers it. At the
//! cache sizes a sweep produces (well below 2³⁰ entries) collisions are
//! vanishingly unlikely.
//!
//! The incremental delta path of [`crate::CoordinatedRma`] does not trust a
//! digest: it keeps each core's previous observation and compares the new
//! one bit for bit ([`same_observation`]), so its curve reuse is exact.

use crate::curve::EnergyCurve;
use qosrm_types::{ConfigMetrics, CoreObservation, IntervalStats, QosSpec};
use serde::{Serialize, Value};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A 128-bit cache key (two independent 64-bit digests).
pub type CurveKey = (u64, u64);

/// Incremental 128-bit digest: two byte-wise FNV-1a streams with distinct
/// offsets ([`fingerprint`]'s digest).
#[derive(Debug, Clone, Copy)]
struct Digest {
    a: u64,
    b: u64,
}

impl Digest {
    fn new() -> Self {
        Digest {
            a: 0xcbf2_9ce4_8422_2325,
            b: 0x6c62_272e_07bb_0142,
        }
    }

    fn write_u8(&mut self, byte: u8) {
        self.a = (self.a ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        self.b = (self.b ^ byte as u64).wrapping_mul(0x0000_0100_0000_0197);
    }

    fn write_u64(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.write_u8(byte);
        }
    }

    fn write_f64(&mut self, value: f64) {
        self.write_u64(value.to_bits());
    }

    fn write_str(&mut self, value: &str) {
        self.write_u64(value.len() as u64);
        for byte in value.bytes() {
            self.write_u8(byte);
        }
    }

    fn write_value(&mut self, value: &Value) {
        match value {
            Value::Null => self.write_u8(0),
            Value::Bool(b) => {
                self.write_u8(1);
                self.write_u8(*b as u8);
            }
            Value::UInt(n) => {
                self.write_u8(2);
                self.write_u64(*n);
            }
            Value::Int(n) => {
                self.write_u8(3);
                self.write_u64(*n as u64);
            }
            Value::Float(x) => {
                self.write_u8(4);
                self.write_f64(*x);
            }
            Value::Str(s) => {
                self.write_u8(5);
                self.write_str(s);
            }
            Value::Array(items) => {
                self.write_u8(6);
                self.write_u64(items.len() as u64);
                for item in items {
                    self.write_value(item);
                }
            }
            Value::Object(fields) => {
                self.write_u8(7);
                self.write_u64(fields.len() as u64);
                for (key, item) in fields {
                    self.write_str(key);
                    self.write_value(item);
                }
            }
        }
    }

    fn finish(self) -> CurveKey {
        (self.a, self.b)
    }
}

/// Digests any serializable value into a [`CurveKey`].
///
/// Used for the *configuration fingerprint* of a manager: platform, control
/// knobs, model kind and energy calibration, computed once at construction.
pub fn fingerprint<T: Serialize>(value: &T) -> CurveKey {
    let mut digest = Digest::new();
    digest.write_value(&value.to_value());
    digest.finish()
}

/// Incremental 128-bit digest of [`curve_key`]: two 64-bit lanes that take
/// one word per step, `lane = ((lane ^ word) * odd).rotate_left(r)`, with
/// distinct offsets, multipliers and rotations, and lane `b` fed the word
/// rotated by half its width. For a fixed word each step is a bijection of
/// the lane, and for a fixed lane it is injective in the word, so two
/// streams of one shape that differ in one word never share a key.
#[derive(Debug, Clone, Copy)]
struct WordDigest {
    a: u64,
    b: u64,
}

impl WordDigest {
    fn new() -> Self {
        WordDigest {
            a: 0xcbf2_9ce4_8422_2325,
            b: 0x6c62_272e_07bb_0142,
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.a = (self.a ^ word)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(29);
        self.b = (self.b ^ word.rotate_left(32))
            .wrapping_mul(0xc2b2_ae3d_27d4_eb4f)
            .rotate_left(31);
    }

    /// An `Option` tag, one word like any other.
    fn write_u8(&mut self, tag: u8) {
        self.write_u64(tag as u64);
    }

    fn write_f64(&mut self, value: f64) {
        self.write_u64(value.to_bits());
    }

    fn finish(self) -> CurveKey {
        (self.a, self.b)
    }
}

/// Derives the full cache key of one curve construction from the manager's
/// configuration fingerprint, the core's QoS specification and the
/// observation handed to the local optimizer.
///
/// This runs on every curve-cache lookup — hits included — so the
/// observation is digested field by field (no intermediate value tree, no
/// allocation) and word by word: one step of each lane per `u64` or `f64`,
/// where [`fingerprint`]'s byte-wise stream would take eight.
pub fn curve_key(config: CurveKey, qos: QosSpec, observation: &CoreObservation) -> CurveKey {
    let mut digest = WordDigest::new();
    digest.write_u64(config.0);
    digest.write_u64(config.1);
    digest.write_f64(qos.allowed_slowdown);
    digest_observation(&mut digest, observation);
    digest.finish()
}

/// Streams every field of an observation into the digest, one word per
/// integer or float. Option fields are tagged so `None` never collides with
/// an adjacent value.
fn digest_observation(digest: &mut WordDigest, observation: &CoreObservation) {
    // Exhaustive destructuring (no `..`): adding a field to CoreObservation
    // or IntervalStats fails compilation here until the digest covers it.
    let CoreObservation {
        app,
        stats,
        miss_profile,
        mlp_profile,
        scaling_profile,
        perfect,
    } = observation;
    let IntervalStats {
        instructions,
        cycles,
        exec_cycles,
        llc_accesses,
        llc_misses,
        leading_misses,
        elapsed_seconds,
        freq,
        core_size,
        ways,
    } = *stats;

    digest.write_u64(app.0 as u64);
    digest.write_u64(instructions);
    digest.write_u64(cycles);
    digest.write_u64(exec_cycles);
    digest.write_u64(llc_accesses);
    digest.write_u64(llc_misses);
    digest.write_u64(leading_misses);
    digest.write_f64(elapsed_seconds);
    digest.write_u64(freq.0 as u64);
    digest.write_u64(core_size.0 as u64);
    digest.write_u64(ways as u64);

    let misses = miss_profile.as_slice();
    digest.write_u64(misses.len() as u64);
    for &m in misses {
        digest.write_u64(m);
    }

    match mlp_profile {
        None => digest.write_u8(0),
        Some(mlp) => {
            digest.write_u8(1);
            digest.write_u64(mlp.num_core_sizes() as u64);
            digest.write_u64(mlp.max_ways() as u64);
            for size in 0..mlp.num_core_sizes() {
                for ways in 1..=mlp.max_ways() {
                    digest.write_u64(mlp.leading_at(qosrm_types::CoreSizeIdx(size), ways));
                }
            }
        }
    }

    match scaling_profile {
        None => digest.write_u8(0),
        Some(scaling) => {
            digest.write_u8(1);
            digest.write_u64(scaling.as_slice().len() as u64);
            for &cpi in scaling.as_slice() {
                digest.write_f64(cpi);
            }
        }
    }

    match perfect {
        None => digest.write_u8(0),
        Some(table) => {
            digest.write_u8(1);
            digest.write_u64(table.num_core_sizes() as u64);
            digest.write_u64(table.num_freqs() as u64);
            digest.write_u64(table.num_ways() as u64);
            for size in 0..table.num_core_sizes() {
                for freq in 0..table.num_freqs() {
                    for ways in 1..=table.num_ways() {
                        let metrics = table.get(
                            qosrm_types::CoreSizeIdx(size),
                            qosrm_types::FreqLevel(freq),
                            ways,
                        );
                        digest.write_f64(metrics.time_seconds);
                        digest.write_f64(metrics.energy_joules);
                        digest.write_u64(metrics.llc_misses);
                        digest.write_u64(metrics.leading_misses);
                    }
                }
            }
        }
    }
}

/// Whether two observations are identical bit for bit: integers by value
/// and every `f64` by [`f64::to_bits`], so `-0.0` differs from `0.0` and
/// NaN payloads are told apart. A manager's configuration and a core's QoS
/// are fixed, so the core's curve is a pure function of its observation:
/// the delta path of [`crate::CoordinatedRma`] keeps a core's retained
/// curve exactly when the new observation passes this test against the
/// previous one.
pub fn same_observation(a: &CoreObservation, b: &CoreObservation) -> bool {
    // Exhaustive destructuring (no `..`), as in `digest_observation`:
    // adding a field to CoreObservation or IntervalStats fails compilation
    // here until the comparison covers it.
    let CoreObservation {
        app,
        stats,
        miss_profile,
        mlp_profile,
        scaling_profile,
        perfect,
    } = a;
    let IntervalStats {
        instructions,
        cycles,
        exec_cycles,
        llc_accesses,
        llc_misses,
        leading_misses,
        elapsed_seconds,
        freq,
        core_size,
        ways,
    } = *stats;
    let other = &b.stats;
    *app == b.app
        && instructions == other.instructions
        && cycles == other.cycles
        && exec_cycles == other.exec_cycles
        && llc_accesses == other.llc_accesses
        && llc_misses == other.llc_misses
        && leading_misses == other.leading_misses
        && elapsed_seconds.to_bits() == other.elapsed_seconds.to_bits()
        && freq == other.freq
        && core_size == other.core_size
        && ways == other.ways
        && miss_profile.as_slice() == b.miss_profile.as_slice()
        && same_option(mlp_profile, &b.mlp_profile, |x, y| {
            x.as_rows() == y.as_rows()
        })
        && same_option(scaling_profile, &b.scaling_profile, |x, y| {
            same_slices(x.as_slice(), y.as_slice(), |p, q| {
                p.to_bits() == q.to_bits()
            })
        })
        && same_option(perfect, &b.perfect, |x, y| {
            x.num_core_sizes() == y.num_core_sizes()
                && x.num_freqs() == y.num_freqs()
                && x.num_ways() == y.num_ways()
                && same_slices(x.as_slice(), y.as_slice(), same_metrics)
        })
}

fn same_option<T>(a: &Option<T>, b: &Option<T>, same: impl FnOnce(&T, &T) -> bool) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(a), Some(b)) => same(a, b),
        _ => false,
    }
}

fn same_slices<T>(a: &[T], b: &[T], same: impl Fn(&T, &T) -> bool) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| same(x, y))
}

fn same_metrics(a: &ConfigMetrics, b: &ConfigMetrics) -> bool {
    let ConfigMetrics {
        time_seconds,
        energy_joules,
        llc_misses,
        leading_misses,
    } = *a;
    time_seconds.to_bits() == b.time_seconds.to_bits()
        && energy_joules.to_bits() == b.energy_joules.to_bits()
        && llc_misses == b.llc_misses
        && leading_misses == b.leading_misses
}

const NUM_SHARDS: usize = 16;

/// One cache slot: filled once by whichever lookup builds it first, while
/// concurrent lookups of the same key wait on it.
type Entry = Arc<OnceLock<EnergyCurve>>;

/// Default cache capacity in entries (~100 MB of 16-way curves). A long
/// experiment session keeps inserting distinct `(config, QoS, observation)`
/// keys forever, so an unbounded map would grow monotonically with total
/// RMA invocations; when a shard fills, it is wholesale-cleared (epoch
/// eviction) — cheap, and only a perf event, never a correctness one.
pub const DEFAULT_MAX_ENTRIES: usize = 131_072;

/// Thread-safe, sharded memoization cache for [`EnergyCurve`]s.
///
/// Shared (via `Arc`) between every manager instance of a scenario sweep;
/// see [`crate::CoordinatedRma::with_curve_cache`].
///
/// A miss is single-flight: each key maps to one entry that is built once,
/// and a lookup that finds the entry — built, or still being built by
/// another thread, which it then waits for — counts as a hit. Below
/// capacity, `misses` therefore equals the number of distinct keys looked
/// up, however the lookups interleave. Under epoch eviction the counts
/// still depend on order: a key evicted and requested again is built again.
///
/// # Example
///
/// ```
/// use qosrm_core::CurveCache;
///
/// let cache = CurveCache::new();
/// assert_eq!(cache.len(), 0);
/// assert_eq!(cache.hit_rate(), 0.0);
/// ```
pub struct CurveCache {
    shards: Vec<Mutex<HashMap<CurveKey, Entry>>>,
    max_entries_per_shard: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    evicted_entries: AtomicU64,
}

impl CurveCache {
    /// Creates an empty cache bounded at [`DEFAULT_MAX_ENTRIES`].
    pub fn new() -> Self {
        CurveCache::with_max_entries(DEFAULT_MAX_ENTRIES)
    }

    /// Creates an empty cache holding at most `max_entries` curves (rounded
    /// up to a multiple of the shard count; at least one per shard). When a
    /// shard reaches its share it is cleared and refilled — bounded memory
    /// at the cost of occasional recomputation.
    pub fn with_max_entries(max_entries: usize) -> Self {
        CurveCache {
            shards: (0..NUM_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            max_entries_per_shard: max_entries.div_ceil(NUM_SHARDS).max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            evicted_entries: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: CurveKey) -> &Mutex<HashMap<CurveKey, Entry>> {
        &self.shards[(key.0 % NUM_SHARDS as u64) as usize]
    }

    /// Returns the cached curve for `key`, or computes, stores and returns
    /// it. The shard lock is held only to find or insert the key's entry;
    /// the computation runs outside it, so lookups of *different* keys
    /// never serialize on one computation, while a lookup of a key being
    /// computed waits for that computation instead of repeating it.
    pub fn get_or_compute(
        &self,
        key: CurveKey,
        compute: impl FnOnce() -> EnergyCurve,
    ) -> EnergyCurve {
        let entry = {
            let mut shard = self.shard(key).lock().expect("curve shard poisoned");
            if let Some(entry) = shard.get(&key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Arc::clone(entry)
            } else {
                self.misses.fetch_add(1, Ordering::Relaxed);
                if shard.len() >= self.max_entries_per_shard {
                    // Waiters on an evicted in-flight entry hold its `Arc`,
                    // so its build still reaches them.
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                    self.evicted_entries
                        .fetch_add(shard.len() as u64, Ordering::Relaxed);
                    shard.clear();
                }
                Arc::clone(shard.entry(key).or_default())
            }
        };
        entry.get_or_init(compute).clone()
    }

    /// Number of cached curves, counting entries still being built.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("curve shard poisoned").len())
            .sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups that found their key's entry, built or in flight.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that inserted their key's entry: each one's curve is built
    /// once.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Epoch-eviction events: times a full shard was cleared because it
    /// reached its capacity share. A long-lived serving process exposes
    /// this (with [`CurveCache::evicted_entries`]) so operators can tell a
    /// cold cache from one thrashing its capacity bound.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Total entries dropped by epoch evictions.
    pub fn evicted_entries(&self) -> u64 {
        self.evicted_entries.load(Ordering::Relaxed)
    }

    /// Fraction of lookups answered from the cache (0 when unused).
    pub fn hit_rate(&self) -> f64 {
        let hits = self.hits() as f64;
        let total = hits + self.misses() as f64;
        if total == 0.0 {
            0.0
        } else {
            hits / total
        }
    }

    /// Drops all cached curves and resets the statistics.
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().expect("curve shard poisoned").clear();
        }
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
        self.evicted_entries.store(0, Ordering::Relaxed);
    }
}

impl Default for CurveCache {
    fn default() -> Self {
        CurveCache::new()
    }
}

impl std::fmt::Debug for CurveCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CurveCache")
            .field("entries", &self.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .field("evictions", &self.evictions())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curve::CurvePoint;
    use qosrm_types::{
        AppId, ConfigTable, CoreScalingProfile, CoreSizeIdx, FreqLevel, MissProfile, MlpProfile,
    };

    fn observation(llc_misses: u64) -> CoreObservation {
        CoreObservation {
            app: AppId(0),
            stats: IntervalStats {
                instructions: 1_000_000,
                cycles: 2_000_000,
                exec_cycles: 1_000_000,
                llc_accesses: 10_000,
                llc_misses,
                leading_misses: llc_misses / 2,
                elapsed_seconds: 0.001,
                freq: FreqLevel(6),
                core_size: CoreSizeIdx(1),
                ways: 4,
            },
            miss_profile: MissProfile::new(vec![llc_misses; 16]),
            mlp_profile: Some(MlpProfile::new(vec![vec![llc_misses / 2; 16]; 3])),
            scaling_profile: Some(CoreScalingProfile::new(vec![1.2, 1.0, 0.9])),
            perfect: None,
        }
    }

    fn curve(energy: f64) -> EnergyCurve {
        EnergyCurve::new(vec![Some(CurvePoint {
            energy_joules: energy,
            freq: FreqLevel(3),
            core_size: CoreSizeIdx(1),
            time_seconds: 0.1,
            ways: 1,
        })])
    }

    #[test]
    fn identical_observations_compare_equal() {
        let mut with_table = observation(500);
        with_table.perfect = Some(table(0));
        assert!(same_observation(&observation(500), &observation(500)));
        assert!(same_observation(&with_table, &with_table.clone()));
        assert!(!same_observation(&observation(500), &observation(501)));
        assert!(!same_observation(&observation(500), &with_table));
    }

    #[test]
    fn signed_zeros_read_as_changed() {
        let mut zero = observation(500);
        zero.stats.elapsed_seconds = 0.0;
        let mut negative_zero = zero.clone();
        negative_zero.stats.elapsed_seconds = -0.0;
        assert_eq!(
            zero, negative_zero,
            "derived equality cannot tell them apart"
        );
        assert!(!same_observation(&zero, &negative_zero));
    }

    #[test]
    fn nan_payloads_read_as_changed() {
        let quiet = f64::from_bits(0x7ff8_0000_0000_0001);
        let other = f64::from_bits(0x7ff8_0000_0000_0002);
        let with_cpi = |cpi: f64| {
            let mut obs = observation(500);
            obs.scaling_profile = Some(CoreScalingProfile::new(vec![cpi, 1.0, 0.9]));
            obs
        };
        assert!(same_observation(&with_cpi(quiet), &with_cpi(quiet)));
        assert!(!same_observation(&with_cpi(quiet), &with_cpi(other)));
    }

    #[test]
    fn one_cell_of_a_perfect_table_reads_as_changed() {
        let mut a = observation(500);
        a.perfect = Some(table(0));
        let mut b = observation(500);
        b.perfect = Some(table(37));
        assert!(!same_observation(&a, &b));
    }

    /// A ground-truth table whose energy differs from the base table in the
    /// single cell numbered `bumped` (0 means none).
    fn table(bumped: usize) -> ConfigTable {
        let mut cell = 0;
        ConfigTable::from_fn(3, 13, 16, |_, _, ways| {
            cell += 1;
            ConfigMetrics {
                time_seconds: 0.01 * ways as f64,
                energy_joules: if cell == bumped { 1.5 } else { 1.0 },
                llc_misses: 100,
                leading_misses: 50,
            }
        })
    }

    #[test]
    fn identical_inputs_share_one_entry() {
        let config = fingerprint(&"config-a".to_string());
        let a = curve_key(config, QosSpec::STRICT, &observation(500));
        let b = curve_key(config, QosSpec::STRICT, &observation(500));
        assert_eq!(a, b);
    }

    #[test]
    fn any_input_change_changes_the_key() {
        let config = fingerprint(&"config-a".to_string());
        let mut base = observation(500);
        base.perfect = Some(table(0));
        let base_key = curve_key(config, QosSpec::STRICT, &base);
        let other_qos = curve_key(config, QosSpec::relaxed_by(0.4), &base);
        let other_config = curve_key(fingerprint(&"config-b".to_string()), QosSpec::STRICT, &base);
        assert_ne!(base_key, other_qos);
        assert_ne!(base_key, other_config);

        // One edit per field of `digest_observation`'s destructure; the
        // base has every option `Some`, so the last three edits are the
        // `Some`/`None` swaps.
        type Edit = fn(&mut CoreObservation);
        let edits: &[(&str, Edit)] = &[
            ("app", |o| o.app = AppId(1)),
            ("instructions", |o| o.stats.instructions += 1),
            ("cycles", |o| o.stats.cycles += 1),
            ("exec_cycles", |o| o.stats.exec_cycles += 1),
            ("llc_accesses", |o| o.stats.llc_accesses += 1),
            ("llc_misses", |o| o.stats.llc_misses += 1),
            ("leading_misses", |o| o.stats.leading_misses += 1),
            ("elapsed_seconds", |o| o.stats.elapsed_seconds *= 1.5),
            ("freq", |o| o.stats.freq = FreqLevel(5)),
            ("core_size", |o| o.stats.core_size = CoreSizeIdx(2)),
            ("ways", |o| o.stats.ways += 1),
            ("one miss-profile word", |o| {
                let mut misses = vec![500; 16];
                misses[7] = 499;
                o.miss_profile = MissProfile::new(misses);
            }),
            ("one leading-miss cell", |o| {
                let mut rows = vec![vec![250; 16]; 3];
                rows[1][9] = 251;
                o.mlp_profile = Some(MlpProfile::new(rows));
            }),
            ("one exec-CPI value", |o| {
                o.scaling_profile = Some(CoreScalingProfile::new(vec![1.2, 1.0, 0.95]))
            }),
            ("one perfect-table cell", |o| o.perfect = Some(table(37))),
            ("no MLP profile", |o| o.mlp_profile = None),
            ("no scaling profile", |o| o.scaling_profile = None),
            ("no perfect table", |o| o.perfect = None),
        ];
        for (field, edit) in edits {
            let mut edited = base.clone();
            edit(&mut edited);
            assert!(!same_observation(&base, &edited), "{field} edit is a no-op");
            assert_ne!(
                curve_key(config, QosSpec::STRICT, &edited),
                base_key,
                "{field}"
            );
        }
        let mut zero = base.clone();
        zero.stats.elapsed_seconds = 0.0;
        let mut negative_zero = zero.clone();
        negative_zero.stats.elapsed_seconds = -0.0;
        assert_ne!(
            curve_key(config, QosSpec::STRICT, &zero),
            curve_key(config, QosSpec::STRICT, &negative_zero)
        );
    }

    #[test]
    fn cache_hits_skip_computation() {
        let cache = CurveCache::new();
        let key = (1, 2);
        let mut computed = 0;
        let first = cache.get_or_compute(key, || {
            computed += 1;
            curve(5.0)
        });
        let second = cache.get_or_compute(key, || {
            computed += 1;
            curve(99.0)
        });
        assert_eq!(computed, 1);
        assert_eq!(first, second);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
        assert!((cache.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn capacity_bound_evicts_instead_of_growing() {
        // 16 shards x 1 entry each: the 17th distinct key that lands in an
        // occupied shard clears that shard first.
        let cache = CurveCache::with_max_entries(16);
        for i in 0..1000u64 {
            cache.get_or_compute((i, i), || curve(i as f64));
        }
        assert!(
            cache.len() <= 16,
            "cache exceeded its bound: {} entries",
            cache.len()
        );
        // Epoch evictions are counted for the serving telemetry.
        assert!(cache.evictions() > 0);
        assert!(cache.evicted_entries() >= cache.evictions());
        // Eviction is a perf event only: a re-request recomputes the same
        // curve.
        let again = cache.get_or_compute((0, 0), || curve(0.0));
        assert_eq!(again.energy(1), 0.0);
        cache.clear();
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.evicted_entries(), 0);
    }

    #[test]
    fn clear_resets_entries_and_stats() {
        let cache = CurveCache::new();
        cache.get_or_compute((1, 1), || curve(1.0));
        cache.get_or_compute((2, 2), || curve(2.0));
        assert_eq!(cache.len(), 2);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.hits() + cache.misses(), 0);
    }

    #[test]
    fn racing_misses_on_one_key_build_once() {
        use std::sync::atomic::AtomicUsize;
        const THREADS: usize = 8;
        let cache = CurveCache::new();
        let started = AtomicUsize::new(0);
        let builds = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    started.fetch_add(1, Ordering::SeqCst);
                    let got = cache.get_or_compute((7, 7), || {
                        // Build only once every thread has started its
                        // lookup, so every lookup overlaps this build.
                        while started.load(Ordering::SeqCst) < THREADS {
                            std::thread::yield_now();
                        }
                        builds.fetch_add(1, Ordering::SeqCst);
                        curve(7.0)
                    });
                    assert_eq!(got, curve(7.0));
                });
            }
        });
        assert_eq!(builds.load(Ordering::SeqCst), 1, "one build per key");
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), THREADS as u64 - 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn shared_across_threads() {
        use std::sync::Arc;
        let cache = Arc::new(CurveCache::new());
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    for i in 0..50u64 {
                        cache.get_or_compute((i, t % 2), || curve(i as f64));
                    }
                });
            }
        });
        assert!(cache.len() <= 100);
        assert_eq!(cache.hits() + cache.misses(), 200);
    }
}
