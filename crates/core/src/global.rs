//! Global optimization: distributing the LLC ways among the cores.
//!
//! Each core's local optimization produces an energy-versus-ways curve. The
//! global step finds the partition `{w_j}` with `Σ w_j = associativity` that
//! minimizes total predicted energy. Following the paper, the curves are
//! reduced **pairwise**: two curves are combined into one curve over their
//! joint way budget by a min-plus convolution that records the argmin split;
//! the reduction is applied recursively until a single curve remains, and the
//! chosen splits are then unwound to produce the per-core allocation. The
//! cost is `O(cores · ways²)`, independent of the number of VF levels and
//! core sizes already folded into the curves.
//!
//! # Implementation notes
//!
//! The reduction is laid out in a **flat arena** rather than a boxed tree:
//! node metadata lives in one `Vec<NodeData>` indexed by `NodeId`, and the
//! combined energy/split tables of all inner nodes share two flat buffers
//! (each node owns a contiguous `[offset, offset + len)` slice). This keeps
//! the whole reduction in a handful of allocations and the convolution scans
//! on dense, cache-friendly rows.
//!
//! The convolution itself is **pruned with energy lower bounds**: every node
//! records the minimum energy over all of its feasible budgets, and a split
//! candidate is skipped when `left(w) + min(right)` already cannot beat the
//! running best. Because the bound is a true lower bound and the best-so-far
//! comparison is strict (`<`), pruning never changes the computed energies
//! *or* the recorded argmin splits — results are bit-identical to the naive
//! scan, as [`optimize_partition_unpruned`] and the property tests in
//! `tests/properties.rs` verify.
//!
//! # Chunked kernel
//!
//! The candidate scan is laid out as a **flat, 4-wide-chunked pass**: the
//! right child's row is reversed once per combination so both operands of
//! every candidate sum are read with ascending unit-stride indices
//! (`left_row[k - 1] + right_rev[right_max - total + k]`), and each
//! 4-candidate chunk is processed branch-free — unrolled loads, sums in
//! the scalar path's exact `left + right` operand order (no FMA
//! reassociation), and explicit *pairwise* min trees that the SLP
//! vectorizer packs into two-lane ops (a serial fold would require float
//! reassociation, which the compiler rightly refuses). The scalar decision
//! sequence is reproduced exactly without branching: the running best at
//! candidate `l` equals the prefix minimum over **all** earlier sums (a
//! pruned candidate can never update it), so each prune flag is an OR of
//! independent compares against `best` and earlier sums, and the strict-`<`
//! argmin is a first-tie scan entered only when the chunk minimum beats
//! `best`. The recorded energies, argmin splits *and* the [`PruneStats`]
//! counters are bit-identical to the scalar loop, which is preserved as
//! [`optimize_partition_scalar`] for the perf gate and the property tests.
//!
//! # Incremental re-optimization
//!
//! [`IncrementalOptimizer`] is the one arena every global step runs
//! through, and it stays alive across invocations: when only some input
//! curves changed since the previous call, it re-densifies the dirty leaf
//! rows, recombines exactly the inner nodes on their paths to the root, and
//! reuses every other row verbatim (deterministic kernels on
//! bitwise-identical inputs reproduce rows bitwise, so reuse is exact). A
//! cold step is the same step with nothing retained. Every row, the root
//! included, holds the exact minimum at every budget, so one retained arena
//! answers a [`Budget::Exact`] step (the cooperative pick) and a
//! [`Budget::Slack`] step (equilibrium selection) alike.

use crate::curve::{CurvePoint, EnergyCurve};

/// Width of one convolution chunk: four `f64` lanes (one AVX2 register, two
/// SSE2 registers).
const LANES: usize = 4;

/// Work counters of one global optimization call.
///
/// `ops` counts evaluated split candidates (one addition + comparison each);
/// `pruned` counts the candidates skipped by the lower-bound test. The
/// `bench_gate` perf harness tracks `ops` across releases: a rise without a
/// workload change means the pruning regressed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruneStats {
    /// Split candidates evaluated by the min-plus convolution.
    pub ops: u64,
    /// Split candidates skipped by the lower-bound test.
    pub pruned: u64,
    /// Full 4-wide chunk passes executed by the chunked kernel (the scalar
    /// reference path leaves this at zero).
    pub lanes: u64,
}

/// Row-reuse counters of one [`IncrementalOptimizer::optimize`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WarmStats {
    /// Arena rows (leaf or inner) reused verbatim from the previous call.
    pub rows_reused: u64,
}

/// Index of a node in the reduction arena.
type NodeId = usize;

/// Flat-arena node. Every node — leaf or inner — owns a dense row of the
/// shared `energy` buffer (`f64::INFINITY` marks infeasible budgets), so the
/// convolution scans contiguous memory with no per-candidate dispatch.
#[derive(Debug, Clone)]
struct NodeData {
    /// For leaves, the input curve index; for inner nodes, `usize::MAX`.
    core: usize,
    /// Children (`NodeId`s); only meaningful for inner nodes.
    left: NodeId,
    right: NodeId,
    /// Start of this node's row in the shared `energy`/`split` buffers.
    offset: usize,
    /// Number of leaves beneath this node (every leaf needs ≥ 1 way).
    leaves: usize,
    /// Largest way budget covered by this node's curve (the row length).
    max_ways: usize,
    /// Lower bound: minimum energy over every feasible budget of this node,
    /// `f64::INFINITY` when nothing is feasible.
    min_energy: f64,
}

/// The reduction arena: all node metadata plus the shared combined-curve
/// storage.
#[derive(Debug, Clone)]
struct Arena {
    nodes: Vec<NodeData>,
    /// `energy[node.offset + w - 1]` = minimum energy of `node` with `w`
    /// total ways.
    energy: Vec<f64>,
    /// `split[node.offset + w - 1]` = ways given to the left child at that
    /// optimum (inner nodes; leaf rows stay zero).
    split: Vec<usize>,
}

/// Which candidate-scan implementation a reduction runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Kernel {
    /// The flat 4-wide-chunked pass with lower-bound pruning (production
    /// path).
    #[default]
    Chunked,
    /// The per-candidate scalar loop with the same pruning, preserved as the
    /// perf-gate and property-test reference.
    Scalar,
    /// The scalar loop without pruning: the naive candidate scan.
    Unpruned,
}

/// One min-plus row combination with the chunked kernel: fills
/// `out_energy`/`out_split` for every combined budget `2..=max_total` and
/// returns the row minimum.
///
/// `right_rev` is caller-owned scratch holding nothing on entry; the right
/// row is copied into it reversed so both operands of a candidate sum are
/// read at ascending unit-stride indices (`right_row[total - k - 1]` becomes
/// `right_rev[right_max - total + k]`). Each chunk's four sums are computed
/// branch-free in the exact `left + right` operand order, and every prune
/// decision and the strict-`<` argmin follow from independent compares (see
/// the module notes), so results *and* [`PruneStats`] match the scalar
/// kernel bit for bit (f64 addition is deterministic).
#[allow(clippy::too_many_arguments)]
fn convolve_rows_chunked(
    left_row: &[f64],
    right_row: &[f64],
    right_rev: &mut Vec<f64>,
    left_leaves: usize,
    right_leaves: usize,
    right_min: f64,
    max_total: usize,
    out_energy: &mut [f64],
    out_split: &mut [usize],
    stats: &mut PruneStats,
) -> f64 {
    let left_max = left_row.len();
    let right_max = right_row.len();
    right_rev.clear();
    right_rev.extend(right_row.iter().rev());

    let mut node_min = f64::INFINITY;
    for total in 2..=max_total {
        // Every child must receive at least one way per leaf beneath it
        // and no more than its row covers; the bounds encode what the
        // naive scan would skip, preserving the ascending candidate
        // order (and thus argmin tie-breaking).
        let lo = left_leaves.max(total.saturating_sub(right_max));
        let hi = total.saturating_sub(right_leaves).min(left_max);
        let mut best = f64::INFINITY;
        let mut best_split = 0usize;
        if lo <= hi {
            let n = hi - lo + 1;
            // Candidate k = lo + i reads left_row[k - 1] and
            // right_row[total - k - 1] == right_rev[right_max - total + k];
            // both indices ascend with i.
            let ls = &left_row[lo - 1..lo - 1 + n];
            let rbase = right_max + lo - total;
            let rs = &right_rev[rbase..rbase + n];
            let mut i = 0;
            while i + LANES <= n {
                // Branch-free 4-wide chunk: unrolled unit-stride loads and
                // candidate sums in the scalar path's exact operand order
                // (`left + right`, no reassociation), then the chunk
                // minimum as an explicit pairwise tree — a fixed-shape
                // reduction the SLP vectorizer packs into two-lane min
                // ops, unlike a serial fold whose float reassociation the
                // compiler must refuse.
                let l0 = ls[i];
                let l1 = ls[i + 1];
                let l2 = ls[i + 2];
                let l3 = ls[i + 3];
                let s0 = l0 + rs[i];
                let s1 = l1 + rs[i + 1];
                let s2 = l2 + rs[i + 2];
                let s3 = l3 + rs[i + 3];
                // The scalar decision sequence is *exactly* reproducible
                // without branches: the running best at candidate `l`
                // equals the prefix minimum `p_l = min(best, sums[..l])`
                // over **all** earlier sums (a pruned candidate's sum is
                // ≥ its bound ≥ the running best, so skipping it never
                // changes the prefix minimum), candidate `l` is pruned iff
                // `bound_l ≥ p_l`, and the first lane at the chunk minimum
                // is never pruned — so flags, counters, and the strict-`<`
                // argmin all fall out of four compares and a three-deep
                // select chain. `x ≥ min(set)` ⇔ some member is ≤ x, so
                // each flag is an OR of independent compares (reusing the
                // min tree's `m01`) rather than a serial select chain —
                // nothing in the chunk depends on anything but `best`.
                let m01 = if s0 < s1 { s0 } else { s1 };
                let m23 = if s2 < s3 { s2 } else { s3 };
                let chunk_min = if m01 < m23 { m01 } else { m23 };
                stats.lanes += 1;
                let b0 = l0 + right_min;
                let b1 = l1 + right_min;
                let b2 = l2 + right_min;
                let b3 = l3 + right_min;
                let pr = (b0 >= best) as u64
                    + ((b1 >= best) | (b1 >= s0)) as u64
                    + ((b2 >= best) | (b2 >= m01)) as u64
                    + ((b3 >= best) | (b3 >= m01) | (b3 >= s2)) as u64;
                stats.pruned += pr;
                stats.ops += LANES as u64 - pr;
                // Rarely taken: the chunk only matters when it beats the
                // running best, so the cross-chunk dependency is a
                // predicted-untaken branch, not a float min.
                if chunk_min < best {
                    let sums = [s0, s1, s2, s3];
                    let mut mi = 0usize;
                    while sums[mi] > chunk_min {
                        mi += 1;
                    }
                    best = sums[mi];
                    best_split = lo + i + mi;
                }
                i += LANES;
            }
            while i < n {
                let left_energy = ls[i];
                if left_energy + right_min >= best {
                    stats.pruned += 1;
                } else {
                    stats.ops += 1;
                    let e = left_energy + rs[i];
                    if e < best {
                        best = e;
                        best_split = lo + i;
                    }
                }
                i += 1;
            }
        }
        out_energy[total - 1] = best;
        out_split[total - 1] = best_split;
        node_min = node_min.min(best);
    }
    node_min
}

/// The pre-chunking per-candidate scalar loop, preserved verbatim as the
/// perf-gate baseline ([`optimize_partition_scalar`]) and the bit-identity
/// reference for the chunked kernel's property tests.
#[allow(clippy::too_many_arguments)]
fn convolve_rows_scalar(
    left_row: &[f64],
    right_row: &[f64],
    left_leaves: usize,
    right_leaves: usize,
    right_min: f64,
    max_total: usize,
    out_energy: &mut [f64],
    out_split: &mut [usize],
    prune: bool,
    stats: &mut PruneStats,
) -> f64 {
    let left_max = left_row.len();
    let right_max = right_row.len();
    let mut node_min = f64::INFINITY;
    for total in 2..=max_total {
        let lo = left_leaves.max(total.saturating_sub(right_max));
        let hi = total.saturating_sub(right_leaves).min(left_max);
        let mut best = f64::INFINITY;
        let mut best_split = 0usize;
        for left_ways in lo..=hi {
            let left_energy = left_row[left_ways - 1];
            // Lower bound: even paired with the cheapest share the right
            // child offers anywhere, this left share cannot beat the
            // running best — the exact sum (≥ the bound) cannot satisfy the
            // strict `<` below, so skipping preserves the argmin.
            if prune && left_energy + right_min >= best {
                stats.pruned += 1;
                continue;
            }
            stats.ops += 1;
            let e = left_energy + right_row[total - left_ways - 1];
            if e < best {
                best = e;
                best_split = left_ways;
            }
        }
        out_energy[total - 1] = best;
        out_split[total - 1] = best_split;
        node_min = node_min.min(best);
    }
    node_min
}

impl Arena {
    fn new(curves: &[EnergyCurve], cap: usize) -> Self {
        // cores leaves + (cores - 1) inner nodes, each row at most cap wide.
        let mut arena = Arena {
            nodes: Vec::with_capacity(2 * curves.len()),
            energy: Vec::with_capacity(2 * curves.len() * cap),
            split: Vec::with_capacity(2 * curves.len() * cap),
        };
        // Leaf rows: densify each input curve once so the convolution reads
        // plain `f64` rows for leaves and inner nodes alike.
        for (core, curve) in curves.iter().enumerate() {
            let offset = arena.energy.len();
            let mut min_energy = f64::INFINITY;
            for w in 1..=curve.max_ways() {
                let e = curve.energy(w);
                min_energy = min_energy.min(e);
                arena.energy.push(e);
            }
            arena.nodes.push(NodeData {
                core,
                left: NodeId::MAX,
                right: NodeId::MAX,
                offset,
                leaves: 1,
                max_ways: curve.max_ways(),
                min_energy,
            });
        }
        arena.split.resize(arena.energy.len(), 0);
        arena
    }

    #[inline]
    fn energy_at(&self, node: NodeId, ways: usize) -> f64 {
        let n = &self.nodes[node];
        if ways == 0 || ways > n.max_ways {
            f64::INFINITY
        } else {
            self.energy[n.offset + ways - 1]
        }
    }

    /// Combines two nodes by min-plus convolution over the way budget,
    /// capping the combined curve at `cap` ways (the LLC associativity)
    /// since larger budgets can never be requested.
    ///
    /// A pruning kernel skips split candidates whose lower bound cannot beat
    /// the running best; the recorded energies and argmin splits are
    /// identical either way because the bound is conservative and the
    /// comparison is strict.
    fn combine(
        &mut self,
        left: NodeId,
        right: NodeId,
        cap: usize,
        kernel: Kernel,
        scratch: &mut Vec<f64>,
        stats: &mut PruneStats,
    ) -> NodeId {
        let (left_leaves, left_max) = {
            let n = &self.nodes[left];
            (n.leaves, n.max_ways)
        };
        let (right_leaves, right_max) = {
            let n = &self.nodes[right];
            (n.leaves, n.max_ways)
        };
        let max_total = (left_max + right_max).min(cap);
        let offset = self.energy.len();
        self.energy.resize(offset + max_total, f64::INFINITY);
        self.split.resize(offset + max_total, 0);
        self.nodes.push(NodeData {
            core: usize::MAX,
            left,
            right,
            offset,
            leaves: left_leaves + right_leaves,
            max_ways: max_total,
            min_energy: f64::INFINITY,
        });
        let id = self.nodes.len() - 1;
        self.recombine(id, kernel, scratch, stats);
        id
    }

    /// Recomputes an inner node's combined row in place from its children's
    /// current rows (used both by [`Arena::combine`] on freshly allocated
    /// rows and by [`IncrementalOptimizer`] when patching dirty subtrees).
    fn recombine(
        &mut self,
        node: NodeId,
        kernel: Kernel,
        scratch: &mut Vec<f64>,
        stats: &mut PruneStats,
    ) {
        let (left, right, offset, max_total) = {
            let n = &self.nodes[node];
            (n.left, n.right, n.offset, n.max_ways)
        };
        let (left_leaves, left_max, left_offset) = {
            let n = &self.nodes[left];
            (n.leaves, n.max_ways, n.offset)
        };
        let (right_leaves, right_max, right_offset, right_min) = {
            let n = &self.nodes[right];
            (n.leaves, n.max_ways, n.offset, n.min_energy)
        };
        // Children are created before their parent, so their rows live
        // strictly before `offset` and the output row can be written while
        // both input rows are read.
        let (prev, out) = self.energy.split_at_mut(offset);
        let left_row = &prev[left_offset..left_offset + left_max];
        let right_row = &prev[right_offset..right_offset + right_max];
        let out_energy = &mut out[..max_total];
        let out_split = &mut self.split[offset..offset + max_total];

        let node_min = match kernel {
            Kernel::Chunked => convolve_rows_chunked(
                left_row,
                right_row,
                scratch,
                left_leaves,
                right_leaves,
                right_min,
                max_total,
                out_energy,
                out_split,
                stats,
            ),
            Kernel::Scalar | Kernel::Unpruned => convolve_rows_scalar(
                left_row,
                right_row,
                left_leaves,
                right_leaves,
                right_min,
                max_total,
                out_energy,
                out_split,
                kernel == Kernel::Scalar,
                stats,
            ),
        };
        self.nodes[node].min_energy = node_min;
    }

    /// Rewrites a leaf's row from `curve` (the curve's `max_ways` must equal
    /// the row width) and refreshes its minimum.
    fn redensify_leaf(&mut self, leaf: NodeId, curve: &EnergyCurve) {
        let (offset, max_ways) = {
            let n = &self.nodes[leaf];
            debug_assert_eq!(n.max_ways, curve.max_ways());
            (n.offset, n.max_ways)
        };
        let mut min_energy = f64::INFINITY;
        for w in 1..=max_ways {
            let e = curve.energy(w);
            min_energy = min_energy.min(e);
            self.energy[offset + w - 1] = e;
        }
        self.nodes[leaf].min_energy = min_energy;
    }

    /// Unwinds the recorded splits from `root`, writing each core's
    /// allocation. Iterative (explicit stack) so deep reductions cannot
    /// overflow the call stack.
    fn assign(&self, root: NodeId, ways: usize, out: &mut [Option<usize>]) {
        let mut stack = vec![(root, ways)];
        while let Some((node, ways)) = stack.pop() {
            let n = &self.nodes[node];
            if n.core != usize::MAX {
                out[n.core] = Some(ways);
            } else {
                let left_ways = self.split[n.offset + ways - 1];
                stack.push((n.left, left_ways));
                stack.push((n.right, ways - left_ways));
            }
        }
    }
}

/// Builds the full reduction in a fresh arena: pairs adjacent frontier
/// nodes until one remains (the same pairing order as the original boxed
/// tree) and returns the arena plus the root node.
fn build_reduction(
    curves: &[EnergyCurve],
    total_ways: usize,
    kernel: Kernel,
    scratch: &mut Vec<f64>,
    stats: &mut PruneStats,
) -> (Arena, NodeId) {
    let mut arena = Arena::new(curves, total_ways);
    let mut frontier: Vec<NodeId> = (0..curves.len()).collect();
    let mut next = Vec::with_capacity(frontier.len().div_ceil(2));
    while frontier.len() > 1 {
        next.clear();
        let mut i = 0;
        while i < frontier.len() {
            if i + 1 < frontier.len() {
                next.push(arena.combine(
                    frontier[i],
                    frontier[i + 1],
                    total_ways,
                    kernel,
                    scratch,
                    stats,
                ));
                i += 2;
            } else {
                next.push(frontier[i]);
                i += 1;
            }
        }
        std::mem::swap(&mut frontier, &mut next);
    }
    let root = frontier.pop().expect("at least one node");
    (arena, root)
}

/// Unwinds the optimum from a built arena into the per-core result vector.
fn extract_result(
    arena: &Arena,
    root: NodeId,
    curves: &[EnergyCurve],
    total_ways: usize,
) -> Option<Vec<(usize, CurvePoint)>> {
    if !arena.energy_at(root, total_ways).is_finite() {
        return None;
    }
    let mut allocation: Vec<Option<usize>> = vec![None; curves.len()];
    arena.assign(root, total_ways, &mut allocation);

    let mut result = Vec::with_capacity(curves.len());
    for (core, ways) in allocation.into_iter().enumerate() {
        let ways = ways?;
        let point = curves[core].point(ways)?;
        result.push((ways, point));
    }
    debug_assert_eq!(result.iter().map(|(w, _)| w).sum::<usize>(), total_ways);
    Some(result)
}

/// Finds the energy-minimal distribution of `total_ways` LLC ways among the
/// cores described by `curves`.
///
/// Returns, per core, the allocated way count and the curve point (VF level,
/// core size, predicted energy) at that allocation, or `None` when no
/// feasible partition exists (some core cannot meet its QoS target at any
/// share it could receive).
pub fn optimize_partition(
    curves: &[EnergyCurve],
    total_ways: usize,
) -> Option<Vec<(usize, CurvePoint)>> {
    cold_step(curves, total_ways, Kernel::Chunked).0
}

/// Like [`optimize_partition`], additionally returning the [`PruneStats`]
/// work counters (used by the `bench_gate` perf harness).
pub fn optimize_partition_with_stats(
    curves: &[EnergyCurve],
    total_ways: usize,
) -> (Option<Vec<(usize, CurvePoint)>>, PruneStats) {
    cold_step(curves, total_ways, Kernel::Chunked)
}

/// The pre-chunking pruned scalar path, preserved so the perf gate can
/// measure the chunked kernel's speedup against it and so property tests
/// can assert the two are bit-identical.
pub fn optimize_partition_scalar(
    curves: &[EnergyCurve],
    total_ways: usize,
) -> (Option<Vec<(usize, CurvePoint)>>, PruneStats) {
    cold_step(curves, total_ways, Kernel::Scalar)
}

/// Reference implementation running the full (unpruned) min-plus convolution
/// with the scalar kernel — the naive candidate scan.
///
/// Exists so tests can assert that lower-bound pruning and the chunked
/// kernel are behaviour preserving: [`optimize_partition`] must return
/// bit-identical allocations and energies for any curve set, including
/// non-concave ones.
pub fn optimize_partition_unpruned(
    curves: &[EnergyCurve],
    total_ways: usize,
) -> Option<Vec<(usize, CurvePoint)>> {
    cold_step(curves, total_ways, Kernel::Unpruned).0
}

/// One exact step of a fresh [`IncrementalOptimizer`] scanning with
/// `kernel`: nothing is retained, so every row is built cold.
fn cold_step(
    curves: &[EnergyCurve],
    total_ways: usize,
    kernel: Kernel,
) -> (Option<Vec<(usize, CurvePoint)>>, PruneStats) {
    let mut arena = IncrementalOptimizer {
        kernel,
        ..IncrementalOptimizer::default()
    };
    let dirty = vec![true; curves.len()];
    let (allocation, stats, _) = arena.optimize(curves, &dirty, total_ways, Budget::Exact);
    (allocation, stats)
}

/// Which root cell an [`IncrementalOptimizer`] step unwinds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Budget {
    /// Exactly `total_ways`: the cooperative step's exact-sum partition.
    #[default]
    Exact,
    /// The first minimum over the budgets `cores..=total_ways`: the
    /// slack-allowed optimum that equilibrium selection starts from
    /// ([`crate::game::min_energy_equilibrium`]). Ties go to the fewest
    /// total ways, then to the arena's split order.
    Slack,
}

/// The min-plus arena behind every global step: the cooperative step and
/// equilibrium selection of [`crate::CoordinatedRma`], on the delta path or
/// off it, and the cold entry points above. Between calls whose curve sets
/// differ in only a few cores, it re-densifies the dirty leaf rows,
/// recombines the inner nodes on their root paths, and reuses every other
/// row verbatim. A caller that keeps nothing between steps
/// [`clears`](IncrementalOptimizer::clear) it first; the step then builds
/// every row cold.
///
/// Results are bit-identical to a cold [`optimize_partition`] call on the
/// same curves (locked by unit and property tests): reused rows were
/// produced by the same deterministic kernel from bitwise-identical curve
/// inputs, and recomputed rows run the production chunked kernel.
#[derive(Debug, Clone, Default)]
pub struct IncrementalOptimizer {
    /// The retained reduction (arena + root) of the previous call, if any.
    state: Option<(Arena, NodeId)>,
    /// Way budget the retained reduction was built for.
    total_ways: usize,
    /// Reversed-row scratch shared by all recombinations.
    scratch: Vec<f64>,
    /// Candidate scan of every combination (a reference kernel only in the
    /// cold entry points above).
    kernel: Kernel,
}

impl IncrementalOptimizer {
    /// Creates an optimizer with no retained state (the first call builds
    /// cold).
    pub fn new() -> Self {
        IncrementalOptimizer::default()
    }

    /// Drops the retained arena: the next call builds cold, as on a fresh
    /// optimizer.
    pub fn clear(&mut self) {
        self.state = None;
    }

    /// Rows (leaf and inner) of the retained arena: what a call with
    /// nothing dirty reports as [`WarmStats::rows_reused`].
    pub fn retained_rows(&self) -> u64 {
        self.state
            .as_ref()
            .map_or(0, |(arena, _)| arena.nodes.len() as u64)
    }

    /// Optimizes `curves` over `total_ways` and unwinds the root cell
    /// `budget` selects, reusing every arena row whose subtree inputs are
    /// unchanged. `dirty[i]` must be true whenever `curves[i]` may differ
    /// (in any bit) from the curve passed at the previous call; extra true
    /// entries cost work but never correctness.
    ///
    /// Every row, the root included, holds the exact minimum at every
    /// budget up to `total_ways`, so a retained arena serves either
    /// `budget`: reuse depends only on the reduction topology and
    /// `total_ways`, and successive calls may alternate [`Budget::Exact`]
    /// and [`Budget::Slack`] reads over one arena.
    ///
    /// Returns the allocation (as [`optimize_partition`] for `Exact`), the
    /// convolution work counters for the rows actually recomputed, and the
    /// row-reuse counters.
    pub fn optimize(
        &mut self,
        curves: &[EnergyCurve],
        dirty: &[bool],
        total_ways: usize,
        budget: Budget,
    ) -> (Option<Vec<(usize, CurvePoint)>>, PruneStats, WarmStats) {
        let mut stats = PruneStats::default();
        let mut warm = WarmStats::default();
        if curves.is_empty() || total_ways < curves.len() {
            self.state = None;
            return (None, stats, warm);
        }
        debug_assert_eq!(dirty.len(), curves.len());

        // The retained arena is reusable only when the reduction topology —
        // leaf count (a reduction of `n` leaves has `2n - 1` nodes, leaves
        // first), per-leaf row widths and the way budget — is unchanged;
        // offsets and row lengths are then identical, so dirty rows can be
        // patched in place.
        let reusable = self.total_ways == total_ways
            && self.state.as_ref().is_some_and(|(arena, _)| {
                arena.nodes.len() + 1 == 2 * curves.len()
                    && curves
                        .iter()
                        .zip(&arena.nodes)
                        .all(|(c, n)| n.max_ways == c.max_ways())
            });

        if reusable {
            let (arena, _) = self.state.as_mut().expect("checked reusable");
            let mut node_dirty = vec![false; arena.nodes.len()];
            for (i, curve) in curves.iter().enumerate() {
                if dirty[i] {
                    arena.redensify_leaf(i, curve);
                    node_dirty[i] = true;
                } else {
                    warm.rows_reused += 1;
                }
            }
            // Inner nodes follow their children in creation order, so a
            // single ascending pass recombines exactly the dirty root paths.
            for id in curves.len()..arena.nodes.len() {
                let n = &arena.nodes[id];
                if node_dirty[n.left] || node_dirty[n.right] {
                    arena.recombine(id, self.kernel, &mut self.scratch, &mut stats);
                    node_dirty[id] = true;
                } else {
                    warm.rows_reused += 1;
                }
            }
        } else {
            self.total_ways = total_ways;
            self.state = Some(build_reduction(
                curves,
                total_ways,
                self.kernel,
                &mut self.scratch,
                &mut stats,
            ));
        }

        let (arena, root) = self.state.as_ref().expect("built or patched above");
        let ways = match budget {
            Budget::Exact => total_ways,
            // Strict `<`: the first minimum, on the fewest ways, wins ties.
            Budget::Slack => (curves.len()..=total_ways).fold(curves.len(), |best, ways| {
                if arena.energy_at(*root, ways) < arena.energy_at(*root, best) {
                    ways
                } else {
                    best
                }
            }),
        };
        (extract_result(arena, *root, curves, ways), stats, warm)
    }
}

/// Brute-force reference optimizer used to validate
/// [`optimize_partition`] on small instances: enumerates every partition of
/// `total_ways` into one share of at least one way per core.
pub fn exhaustive_partition(
    curves: &[EnergyCurve],
    total_ways: usize,
) -> Option<(f64, Vec<usize>)> {
    fn recurse(
        curves: &[EnergyCurve],
        core: usize,
        remaining: usize,
        current: &mut Vec<usize>,
        best: &mut Option<(f64, Vec<usize>)>,
    ) {
        if core == curves.len() {
            if remaining != 0 {
                return;
            }
            let energy: f64 = current
                .iter()
                .enumerate()
                .map(|(i, &w)| curves[i].energy(w))
                .sum();
            if energy.is_finite() && best.as_ref().map(|(e, _)| energy < *e).unwrap_or(true) {
                *best = Some((energy, current.clone()));
            }
            return;
        }
        let cores_left = curves.len() - core - 1;
        let max_here = remaining
            .saturating_sub(cores_left)
            .min(curves[core].max_ways());
        for w in 1..=max_here {
            current.push(w);
            recurse(curves, core + 1, remaining - w, current, best);
            current.pop();
        }
    }
    let mut best = None;
    recurse(curves, 0, total_ways, &mut Vec::new(), &mut best);
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use qosrm_types::{CoreSizeIdx, FreqLevel};

    fn point(e: f64) -> Option<CurvePoint> {
        Some(CurvePoint {
            energy_joules: e,
            freq: FreqLevel(0),
            core_size: CoreSizeIdx(0),
            time_seconds: 0.1,
            ways: 1,
        })
    }

    /// Curve with energy `base - slope * w` (clamped at 0.1): a cache
    /// sensitive application keeps benefiting from ways.
    fn sloped_curve(base: f64, slope: f64, max_ways: usize) -> EnergyCurve {
        EnergyCurve::new(
            (1..=max_ways)
                .map(|w| point((base - slope * w as f64).max(0.1)))
                .collect(),
        )
    }

    /// Flat curve: a cache-insensitive application.
    fn flat_curve(energy: f64, max_ways: usize) -> EnergyCurve {
        EnergyCurve::new((1..=max_ways).map(|_| point(energy)).collect())
    }

    #[test]
    fn sensitive_app_receives_the_ways() {
        let curves = vec![sloped_curve(10.0, 0.5, 16), flat_curve(5.0, 16)];
        let result = optimize_partition(&curves, 16).unwrap();
        assert_eq!(result.len(), 2);
        assert_eq!(result[0].0 + result[1].0, 16);
        assert_eq!(
            result[0].0, 15,
            "the sloped curve should take all but one way"
        );
        assert_eq!(result[1].0, 1);
    }

    #[test]
    fn matches_exhaustive_search() {
        // Mix of shapes, including an infeasible region.
        let mut bumpy = vec![None, None];
        bumpy.extend((3..=16).map(|w| point(8.0 - 0.3 * w as f64 + ((w % 3) as f64) * 0.2)));
        let curves = vec![
            sloped_curve(12.0, 0.7, 16),
            flat_curve(4.0, 16),
            EnergyCurve::new(bumpy),
            sloped_curve(6.0, 0.2, 16),
        ];
        let fast = optimize_partition(&curves, 16).unwrap();
        let (best_energy, best_alloc) = exhaustive_partition(&curves, 16).unwrap();
        let fast_energy: f64 = fast.iter().map(|(_, p)| p.energy_joules).sum();
        assert!(
            (fast_energy - best_energy).abs() < 1e-9,
            "pairwise reduction must be optimal: {fast_energy} vs {best_energy}"
        );
        assert_eq!(fast.iter().map(|(w, _)| *w).sum::<usize>(), 16);
        // The allocation itself may differ when ties exist; energies must not.
        let exhaustive_energy: f64 = best_alloc
            .iter()
            .enumerate()
            .map(|(i, &w)| curves[i].energy(w))
            .sum();
        assert!((exhaustive_energy - best_energy).abs() < 1e-12);
    }

    #[test]
    fn eight_core_reduction_is_optimal() {
        let curves: Vec<EnergyCurve> = (0..8)
            .map(|i| sloped_curve(8.0 + i as f64, 0.1 + 0.1 * i as f64, 16))
            .collect();
        let fast = optimize_partition(&curves, 16).unwrap();
        let (best_energy, _) = exhaustive_partition(&curves, 16).unwrap();
        let fast_energy: f64 = fast.iter().map(|(_, p)| p.energy_joules).sum();
        assert!((fast_energy - best_energy).abs() < 1e-9);
        assert_eq!(fast.iter().map(|(w, _)| *w).sum::<usize>(), 16);
        for (w, _) in &fast {
            assert!(*w >= 1);
        }
    }

    #[test]
    fn infeasible_cores_force_none() {
        // One core cannot meet QoS with any allocation.
        let curves = vec![flat_curve(3.0, 16), EnergyCurve::new(vec![None; 16])];
        assert!(optimize_partition(&curves, 16).is_none());
        assert!(exhaustive_partition(&curves, 16).is_none());
    }

    #[test]
    fn partially_infeasible_curves_are_respected() {
        // Core 1 needs at least 6 ways.
        let mut needs_six = vec![None; 5];
        needs_six.extend((6..=16).map(|w| point(10.0 - 0.1 * w as f64)));
        let curves = vec![flat_curve(2.0, 16), EnergyCurve::new(needs_six)];
        let result = optimize_partition(&curves, 16).unwrap();
        assert!(result[1].0 >= 6);
        assert_eq!(result[0].0 + result[1].0, 16);
    }

    #[test]
    fn degenerate_inputs() {
        assert!(optimize_partition(&[], 16).is_none());
        let one = vec![flat_curve(1.0, 16)];
        let result = optimize_partition(&one, 16).unwrap();
        assert_eq!(result[0].0, 16);
        // Not enough ways for every core to get one.
        let many: Vec<EnergyCurve> = (0..5).map(|_| flat_curve(1.0, 4)).collect();
        assert!(optimize_partition(&many, 4).is_none());
    }

    #[test]
    fn single_core_takes_everything() {
        let curves = vec![sloped_curve(5.0, 0.3, 16)];
        let result = optimize_partition(&curves, 16).unwrap();
        assert_eq!(result[0].0, 16);
    }

    #[test]
    fn pruning_preserves_exact_allocations_and_prunes_work() {
        // Non-concave curve set with ties and infeasible holes: the hardest
        // case for an argmin-preserving pruner.
        let mut bumpy = vec![None];
        bumpy.extend((2..=16).map(|w| point(9.0 - 0.4 * w as f64 + ((w % 4) as f64) * 0.3)));
        let curves = vec![
            sloped_curve(12.0, 0.7, 16),
            EnergyCurve::new(bumpy),
            flat_curve(4.0, 16),
            flat_curve(4.0, 16), // duplicate creates ties
            sloped_curve(6.0, 0.2, 16),
        ];
        let (pruned, stats) = optimize_partition_with_stats(&curves, 16);
        let unpruned = optimize_partition_unpruned(&curves, 16);
        assert_eq!(pruned, unpruned, "pruning changed the argmin result");
        assert!(stats.pruned > 0, "lower bounds should skip some candidates");
        assert!(stats.ops > 0);
    }

    #[test]
    fn stats_count_all_candidates_when_unpruned() {
        let curves = vec![flat_curve(1.0, 8), flat_curve(2.0, 8)];
        let (_, pruned_stats) = optimize_partition_with_stats(&curves, 8);
        let (_, full_stats) = cold_step(&curves, 8, Kernel::Unpruned);
        assert_eq!(full_stats.pruned, 0);
        assert_eq!(
            pruned_stats.ops + pruned_stats.pruned,
            full_stats.ops,
            "pruned + evaluated must cover the full candidate set"
        );
    }

    /// The shapes of the other tests, reused for kernel- and warm-path
    /// equivalence checks.
    fn mixed_curves() -> Vec<EnergyCurve> {
        let mut bumpy = vec![None];
        bumpy.extend((2..=16).map(|w| point(9.0 - 0.4 * w as f64 + ((w % 4) as f64) * 0.3)));
        vec![
            sloped_curve(12.0, 0.7, 16),
            EnergyCurve::new(bumpy),
            flat_curve(4.0, 16),
            flat_curve(4.0, 16),
            sloped_curve(6.0, 0.2, 16),
        ]
    }

    #[test]
    fn chunked_kernel_matches_scalar_results_and_stats() {
        let curves = mixed_curves();
        for total in [8usize, 11, 16] {
            let (chunked, chunked_stats) = optimize_partition_with_stats(&curves, total);
            let (scalar, scalar_stats) = optimize_partition_scalar(&curves, total);
            assert_eq!(chunked, scalar, "kernels disagree at {total} ways");
            assert_eq!(chunked_stats.ops, scalar_stats.ops);
            assert_eq!(chunked_stats.pruned, scalar_stats.pruned);
            assert_eq!(scalar_stats.lanes, 0, "scalar path must not count lanes");
        }
        let (_, stats) = optimize_partition_with_stats(&curves, 16);
        assert!(stats.lanes > 0, "chunked path must execute chunk passes");
    }

    #[test]
    fn incremental_matches_cold_rebuild_per_patch() {
        let mut curves = mixed_curves();
        let mut warm_opt = IncrementalOptimizer::new();
        let all_dirty = vec![true; curves.len()];
        let (cold, _) = optimize_partition_with_stats(&curves, 16);
        let (first, _, warm_stats) = warm_opt.optimize(&curves, &all_dirty, 16, Budget::Exact);
        assert_eq!(first, cold);
        assert_eq!(warm_stats.rows_reused, 0, "first call builds everything");

        // Patch one core at a time; every warm result must equal a cold
        // rebuild.
        for step in 0..6usize {
            let core = step % curves.len();
            curves[core] = sloped_curve(10.0 + step as f64, 0.3 + 0.05 * step as f64, 16);
            let mut dirty = vec![false; curves.len()];
            dirty[core] = true;
            let (warm, _, warm_stats) = warm_opt.optimize(&curves, &dirty, 16, Budget::Exact);
            let cold = optimize_partition(&curves, 16);
            assert_eq!(warm, cold, "warm path diverged at step {step}");
            assert!(
                warm_stats.rows_reused > 0,
                "a single dirty core must reuse rows"
            );
        }

        // No dirty cores: the retained arena answers without recomputation.
        let no_dirty = vec![false; curves.len()];
        let (warm, stats, warm_stats) = warm_opt.optimize(&curves, &no_dirty, 16, Budget::Exact);
        assert_eq!(warm, optimize_partition(&curves, 16));
        assert_eq!(warm_stats.rows_reused, 2 * curves.len() as u64 - 1);
        assert_eq!(stats.ops, 0, "nothing dirty, nothing scanned");
    }

    #[test]
    fn incremental_rebuilds_on_topology_change() {
        let curves = mixed_curves();
        let mut warm_opt = IncrementalOptimizer::new();
        warm_opt.optimize(&curves, &vec![true; curves.len()], 16, Budget::Exact);
        // Different core count: the mask says clean, but the retained arena
        // must be discarded and rebuilt cold.
        let fewer = curves[..3].to_vec();
        let (warm, _, warm_stats) = warm_opt.optimize(&fewer, &[false; 3], 16, Budget::Exact);
        assert_eq!(warm, optimize_partition(&fewer, 16));
        assert_eq!(warm_stats.rows_reused, 0, "topology change must rebuild");
    }
}
