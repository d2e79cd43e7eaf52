//! Game-theoretic LLC way allocation: iterated best response and
//! minimum-total-energy pure-Nash-equilibrium selection over the per-core
//! energy curves of [`crate::local`].
//!
//! The paper's global step ([`crate::global`]) is *cooperative*: one arbiter
//! minimizes total energy over joint allocations. This module models the
//! same decision as a *game* between selfish cores — the setting of the
//! integer-programming-games literature (the ZERO-Regrets line of work):
//! each core picks a pure integer strategy, a way count which via its energy
//! curve folds in the cheapest QoS-feasible `(VF level, core size)` pair, to
//! minimize its *own* predicted energy holding the other cores' strategies
//! frozen.
//!
//! ## Strategy space
//!
//! A strategy vector gives core `i` a way count `w_i ≥ 1` with
//! `Σ w_i ≤ total_ways`; slack is allowed — a selfish core has no reason to
//! claim ways it does not benefit from, and unclaimed ways stay in a free
//! pool. With frozen opponents, core `i` may deviate to any `w` with
//! `1 ≤ w ≤ min(w_i + free, max_ways)` where `free = total_ways − Σ w_j`:
//! it can always shrink, and it can grow into the unclaimed pool. The
//! exact-sum space of the cooperative arbiter would make *every* feasible
//! allocation trivially an equilibrium (no core can grow without another
//! shrinking first), which is why the game keeps the slack.
//!
//! Applying an outcome still requires an exact-sum partition (the system
//! setting validation demands the way counts sum to the LLC associativity):
//! [`GameOutcome::exact_sum_allocation`] deterministically tops the
//! strategies up with the leftover free ways. The chosen curve point — and
//! therefore the VF/core-size decision — stays the one at the strategy
//! ways; the extra ways are simply left idle.
//!
//! ## An exact potential game
//!
//! Each core's energy depends only on its own ways; the shared budget only
//! shapes the strategy sets. So `Φ(w) = Σ_i E_i(w_i)` — the total energy the
//! cooperative arbiter minimizes — is an exact potential: a unilateral move
//! changes `Φ` by exactly the mover's own change (Monderer–Shapley). Three
//! consequences shape the solvers:
//!
//! * the minimum of `Φ` over the slack-allowed space is an equilibrium (a
//!   strictly cheaper deviation would lower `Φ` below its minimum), so
//!   equilibrium selection reads it off the cooperative min-plus arena;
//! * a best-response move either lowers the mover's energy, or keeps it and
//!   lowers the mover's ways (ties go to fewer ways), so `(Φ, Σ w)` falls
//!   lexicographically every round that moves a core and no state can
//!   repeat: best response needs no cycle detection;
//! * a best-response fixed point is a local minimum of `Φ` under
//!   unilateral moves, so E10's price of anarchy is the gap between a local
//!   and the global minimum of one function.
//!
//! ## Solvers and the independent checker
//!
//! * [`best_response`] — deterministic iterated best response: round-robin
//!   core order starting from the minimal feasible profile, bounded rounds.
//!   On the monotone curves the local optimizer produces, the first mover
//!   hoards the free pool — the classic selfish outcome whose cost the E10
//!   experiment reports as the price of anarchy.
//! * [`min_energy_equilibrium`] — equilibrium selection: the slack-allowed
//!   minimum of `Φ` from the cooperative min-plus arena it is handed
//!   ([`crate::global::IncrementalOptimizer`]), certified by best-response
//!   rounds started there. A fresh arena costs one pairwise reduction at any
//!   core count; the manager's retained arena recombines only the root paths
//!   of the cores whose curves changed.
//! * [`is_pure_nash`] — an exhaustive, solver-independent verifier of the
//!   equilibrium definition that the solvers never consult. It exists so
//!   property tests can adversarially validate every solver output.

use crate::curve::{CurvePoint, EnergyCurve};
use crate::global::{Budget, IncrementalOptimizer, PruneStats, WarmStats};
use serde::{Deserialize, Serialize};

/// Which global allocation algorithm step 4 of the RMA runs.
///
/// The choice deliberately does **not** enter the manager's curve-cache
/// configuration fingerprint: energy curves are a per-core quantity that
/// does not depend on how the global step distributes ways, so cooperative
/// and game-theoretic managers share cache entries bit-for-bit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PartitionAlgo {
    /// The paper's cooperative arbiter: minimize *total* energy over joint
    /// exact-sum allocations ([`crate::global::optimize_partition`]).
    #[default]
    Cooperative,
    /// Selfish iterated best response ([`best_response`]); the last state is
    /// applied even when the round bound is hit without convergence.
    NashBestResponse,
    /// Minimum-total-energy pure Nash equilibrium
    /// ([`min_energy_equilibrium`]).
    NashMinEnergyEquilibrium,
}

/// Configuration of the iterated-best-response solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GameConfig {
    /// Maximum best-response rounds (one round = every core responds once,
    /// in core order) before the solver stops and returns the last state
    /// unconverged.
    pub max_rounds: usize,
}

impl Default for GameConfig {
    fn default() -> Self {
        GameConfig { max_rounds: 32 }
    }
}

/// Deterministic work counters of one solver call, accumulated into
/// [`crate::RmaWorkCounters`] by the manager and exact-compared by the
/// bench gate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GameStats {
    /// Best-response rounds executed.
    pub rounds: u64,
    /// Single-core energy lookups performed while computing best responses.
    pub evaluations: u64,
    /// Candidates certified by equilibrium selection: one per solve that
    /// found a feasible slack optimum.
    pub equilibria_examined: u64,
}

/// The result of a solver call: a strategy vector with its per-core curve
/// points and total predicted energy.
///
/// Serializable so determinism tests can lock byte-identity of repeated
/// solves.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GameOutcome {
    /// Way count chosen by each core (`Σ ≤ total_ways`, each `≥ 1`).
    pub strategies: Vec<usize>,
    /// The curve point backing each strategy (VF level, core size, energy).
    pub points: Vec<CurvePoint>,
    /// Total predicted energy of the strategy vector, in joules.
    pub total_energy: f64,
    /// Whether the solver reached a fixed point. Iterated best response
    /// reports `false` only when the round bound cut it short (the manager
    /// applies the last state regardless); equilibrium selection always
    /// converges.
    pub converged: bool,
}

impl GameOutcome {
    /// Converts the slack-allowed outcome into the exact-sum
    /// `(ways, point)` allocation the system-setting validation requires,
    /// by handing the leftover free ways out one at a time in round-robin
    /// core order, starting at core 0.
    ///
    /// Each core keeps the curve point of its *strategy* ways — the game's
    /// VF/core-size decision — and merely holds the topped-up allocation.
    pub fn exact_sum_allocation(&self, total_ways: usize) -> Vec<(usize, CurvePoint)> {
        distribute_slack(&self.strategies, total_ways)
            .into_iter()
            .zip(self.points.iter().copied())
            .collect()
    }
}

/// Total predicted energy of a strategy vector: the sum of each core's
/// curve energy at its way count (`f64::INFINITY` as soon as any core is
/// infeasible at its strategy).
pub fn total_energy(curves: &[EnergyCurve], strategies: &[usize]) -> f64 {
    curves
        .iter()
        .zip(strategies)
        .map(|(curve, &w)| curve.energy(w))
        .sum()
}

/// Deterministically tops a slack-allowed strategy vector up to an exact
/// sum of `total_ways`: leftover ways are handed out one at a time in
/// round-robin core order starting at core 0. Vectors already summing to
/// `total_ways` (or exceeding it) are returned unchanged.
fn distribute_slack(strategies: &[usize], total_ways: usize) -> Vec<usize> {
    let mut ways = strategies.to_vec();
    let free = total_ways.saturating_sub(ways.iter().sum());
    for core in (0..ways.len()).cycle().take(free) {
        ways[core] += 1;
    }
    ways
}

/// The largest way count core may deviate to with frozen opponents: its own
/// allocation plus the free pool, clamped to the curve's domain.
fn deviation_budget(ways: usize, free: usize, max_ways: usize) -> usize {
    (ways + free).min(max_ways)
}

/// Exhaustively verifies that `strategies` is a pure Nash equilibrium of
/// the way-allocation game: every core is feasible at its strategy, the
/// vector fits in `total_ways`, and no core has a *strictly* cheaper
/// unilateral deviation within its budget (its own ways plus the free
/// pool).
///
/// This is the module's correctness core: an independent naive scan of the
/// definition that the solvers never call, so property tests can use it to
/// adversarially validate every solver output. Comparisons are exact
/// (strict `<`, no epsilon) — the curves are deterministic, so so is the
/// verdict.
pub fn is_pure_nash(curves: &[EnergyCurve], total_ways: usize, strategies: &[usize]) -> bool {
    if curves.is_empty() || strategies.len() != curves.len() {
        return false;
    }
    if strategies.contains(&0) {
        return false;
    }
    let used: usize = strategies.iter().sum();
    if used > total_ways {
        return false;
    }
    let free = total_ways - used;
    for (curve, &ways) in curves.iter().zip(strategies) {
        let current = curve.energy(ways);
        if !current.is_finite() {
            return false;
        }
        for deviation in 1..=deviation_budget(ways, free, curve.max_ways()) {
            if curve.energy(deviation) < current {
                return false;
            }
        }
    }
    true
}

/// Deterministic iterated best response over pure strategies.
///
/// Starts every core at its minimal feasible way count (`None` when any
/// curve is fully infeasible or the minimal profile does not fit in
/// `total_ways`), then repeats rounds of best responses in round-robin
/// core order: core `i` moves to the smallest way count minimizing its own
/// energy within its deviation budget (ties break towards fewer ways). A
/// round without any change is a fixed point (`converged = true`); hitting
/// [`GameConfig::max_rounds`] stops the solver with `converged = false` and
/// the last state — the manager applies it anyway, mirroring a real
/// runtime that cannot iterate forever. No state repeats on the way (see
/// the module docs), so there is no cycle to detect.
///
/// Every energy lookup during a best-response scan counts one
/// [`GameStats::evaluations`].
pub fn best_response(
    curves: &[EnergyCurve],
    total_ways: usize,
    config: &GameConfig,
) -> (Option<GameOutcome>, GameStats) {
    let mut stats = GameStats::default();
    let start: Option<Vec<usize>> = curves.iter().map(EnergyCurve::min_feasible_ways).collect();
    let outcome = start
        .filter(|start| !start.is_empty() && start.iter().sum::<usize>() <= total_ways)
        .map(|start| respond(curves, total_ways, start, config.max_rounds, &mut stats));
    (outcome, stats)
}

/// Runs rounds of best responses from the feasible profile `strategies`
/// until a round moves no core (`converged = true`) or `max_rounds` rounds
/// have run, counting rounds and energy lookups into `stats`.
fn respond(
    curves: &[EnergyCurve],
    total_ways: usize,
    mut strategies: Vec<usize>,
    max_rounds: usize,
    stats: &mut GameStats,
) -> GameOutcome {
    let mut converged = false;
    for _ in 0..max_rounds {
        stats.rounds += 1;
        let mut changed = false;
        for i in 0..curves.len() {
            let used: usize = strategies.iter().sum();
            let budget = deviation_budget(strategies[i], total_ways - used, curves[i].max_ways());
            let mut best_ways = strategies[i];
            let mut best_energy = f64::INFINITY;
            for w in 1..=budget {
                stats.evaluations += 1;
                let energy = curves[i].energy(w);
                // Strict `<`: the first (smallest) argmin wins ties, so the
                // orbit is deterministic.
                if energy < best_energy {
                    best_energy = energy;
                    best_ways = w;
                }
            }
            if best_energy.is_finite() && best_ways != strategies[i] {
                strategies[i] = best_ways;
                changed = true;
            }
        }
        if !changed {
            converged = true;
            break;
        }
    }

    // The start is feasible and a best response only ever moves to a finite
    // energy, so every strategy has a curve point.
    let points: Vec<CurvePoint> = curves
        .iter()
        .zip(&strategies)
        .map(|(curve, &w)| curve.point(w).expect("best response stays feasible"))
        .collect();
    let energy = total_energy(curves, &strategies);
    GameOutcome {
        strategies,
        points,
        total_energy: energy,
        converged,
    }
}

/// Equilibrium selection: the minimum-total-energy pure Nash equilibrium.
/// `None` when no strategy vector is feasible (some curve fully infeasible,
/// or the minimal feasible profile does not fit in `total_ways`).
///
/// The game is an exact potential game over `Φ = Σ_i E_i(w_i)` (see the
/// module docs), so the cheapest equilibrium is the slack-allowed minimum of
/// `Φ`. The root row of the cooperative min-plus arena holds `Φ`'s minimum
/// at every budget, and a [`Budget::Slack`] step of `arena` reads it at the
/// first minimum over the budgets `cores..=total_ways`: ties go to the
/// fewest total ways, then to the arena's split order. The step reuses the
/// rows `arena` retains from its previous step, exact or slack, for every
/// core whose `dirty` entry is false (see [`IncrementalOptimizer::optimize`]);
/// a fresh arena builds every row.
///
/// Best-response rounds started from that point certify it. On an
/// equilibrium the first round moves nothing. No core can move to fewer
/// ways at equal or lower energy: with f64 addition monotone, the same
/// tree-order sum would then be reached at a smaller budget, and the budget
/// read is the first minimum. The only possible move is a strictly cheaper
/// one to more ways that f64 rounding hides in the sum (`4.0 + (1 − 2⁻⁵³)`
/// rounds to `5.0`); the rounds then descend from there. Every move lowers
/// `(Φ, Σ w)` lexicographically over a finite space, so the rounds run
/// unbounded and end at a best-response fixed point: the outcome is an
/// equilibrium by construction and always `converged`.
///
/// Returns the outcome, the certificate's [`GameStats`] (one
/// [`GameStats::equilibria_examined`] per certified candidate) and the
/// arena step's [`PruneStats`] and [`WarmStats`].
pub fn min_energy_equilibrium(
    arena: &mut IncrementalOptimizer,
    curves: &[EnergyCurve],
    dirty: &[bool],
    total_ways: usize,
) -> (Option<GameOutcome>, GameStats, PruneStats, WarmStats) {
    let mut stats = GameStats::default();
    let (optimum, reduction, warm) = arena.optimize(curves, dirty, total_ways, Budget::Slack);
    let outcome = optimum.map(|optimum| {
        stats.equilibria_examined += 1;
        let start = optimum.iter().map(|&(ways, _)| ways).collect();
        respond(curves, total_ways, start, usize::MAX, &mut stats)
    });
    (outcome, stats, reduction, warm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qosrm_types::{CoreSizeIdx, FreqLevel};

    /// Builds a curve from per-way energies; `f64::INFINITY` marks an
    /// infeasible allocation.
    fn curve(energies: &[f64]) -> EnergyCurve {
        EnergyCurve::new(
            energies
                .iter()
                .enumerate()
                .map(|(i, &e)| {
                    if e.is_finite() {
                        Some(CurvePoint {
                            energy_joules: e,
                            freq: FreqLevel(i % 13),
                            core_size: CoreSizeIdx(i % 3),
                            time_seconds: 0.05,
                            ways: i + 1,
                        })
                    } else {
                        None
                    }
                })
                .collect(),
        )
    }

    const INF: f64 = f64::INFINITY;

    /// Equilibrium selection on a fresh arena.
    fn equilibrium(
        curves: &[EnergyCurve],
        total_ways: usize,
    ) -> (Option<GameOutcome>, GameStats, PruneStats) {
        let mut arena = IncrementalOptimizer::new();
        let dirty = vec![true; curves.len()];
        let (outcome, stats, reduction, _) =
            min_energy_equilibrium(&mut arena, curves, &dirty, total_ways);
        (outcome, stats, reduction)
    }

    #[test]
    fn first_mover_hoards_on_monotone_curves() {
        // Monotone non-increasing curves (the real, smoothed shape): core 0
        // responds first, grabs the whole free pool, and the rest sit at
        // their minimum — the greedy equilibrium E10's PoA story relies on.
        let curves = vec![
            curve(&[8.0, 6.0, 5.0, 4.5, 4.0, 3.8, 3.6, 3.5]),
            curve(&[4.0, 3.5, 3.2, 3.0, 2.9, 2.8, 2.7, 2.6]),
        ];
        let (outcome, stats) = best_response(&curves, 8, &GameConfig::default());
        let outcome = outcome.unwrap();
        assert!(outcome.converged);
        assert_eq!(outcome.strategies, vec![7, 1]);
        assert!(is_pure_nash(&curves, 8, &outcome.strategies));
        assert!(stats.rounds >= 2, "a settle round follows the first moves");
        assert!(stats.evaluations > 0);
        assert_eq!(stats.equilibria_examined, 0);
        assert!((outcome.total_energy - (3.6 + 4.0)).abs() < 1e-12);
    }

    #[test]
    fn ties_break_towards_fewer_ways() {
        // A flat tail: the smallest argmin wins, leaving slack unclaimed.
        let curves = vec![curve(&[5.0, 2.0, 2.0, 2.0]), curve(&[3.0, 3.0, 3.0, 3.0])];
        let (outcome, _) = best_response(&curves, 4, &GameConfig::default());
        let outcome = outcome.unwrap();
        assert!(outcome.converged);
        assert_eq!(outcome.strategies, vec![2, 1]);
        assert!(is_pure_nash(&curves, 4, &outcome.strategies));
    }

    #[test]
    fn infeasibility_returns_none() {
        // A fully infeasible curve.
        let curves = vec![curve(&[1.0, 1.0]), curve(&[INF, INF])];
        assert!(best_response(&curves, 4, &GameConfig::default())
            .0
            .is_none());
        assert!(equilibrium(&curves, 4).0.is_none());
        // Minimal feasible profile does not fit.
        let tight = vec![curve(&[INF, INF, 1.0]), curve(&[INF, 2.0, 1.0])];
        assert!(best_response(&tight, 4, &GameConfig::default()).0.is_none());
        assert!(equilibrium(&tight, 4).0.is_none());
        assert!(best_response(&[], 4, &GameConfig::default()).0.is_none());
    }

    #[test]
    fn round_bound_returns_last_state_unconverged() {
        let curves = vec![curve(&[3.0, 2.0, 1.0]), curve(&[3.0, 2.0, 1.0])];
        let (outcome, stats) = best_response(&curves, 4, &GameConfig { max_rounds: 0 });
        let outcome = outcome.unwrap();
        assert!(!outcome.converged);
        assert_eq!(outcome.strategies, vec![1, 1], "the start state is kept");
        assert_eq!(stats.rounds, 0);
    }

    #[test]
    fn checker_rejects_non_equilibria() {
        let curves = vec![
            curve(&[8.0, 6.0, 5.0, 4.5, 4.0, 3.8, 3.6, 3.5]),
            curve(&[4.0, 3.5, 3.2, 3.0, 2.9, 2.8, 2.7, 2.6]),
        ];
        // Free pool of 4 ways: both cores can strictly improve.
        assert!(!is_pure_nash(&curves, 8, &[2, 2]));
        // Length mismatch, zero ways, oversubscription, infeasible strategy.
        assert!(!is_pure_nash(&curves, 8, &[2]));
        assert!(!is_pure_nash(&curves, 8, &[0, 8]));
        assert!(!is_pure_nash(&curves, 8, &[7, 2]));
        let holey = vec![curve(&[INF, 2.0]), curve(&[1.0, 1.0])];
        assert!(!is_pure_nash(&holey, 2, &[1, 1]));
    }

    #[test]
    fn equilibrium_selection_matches_brute_force() {
        // Non-monotone curves with holes: enumerate all strategy vectors,
        // filter with the independent checker, take the cheapest — the
        // solver must agree exactly.
        let curves = vec![
            curve(&[6.0, 2.0, 4.0, INF, 1.5]),
            curve(&[3.0, INF, 1.0, 2.5, 2.0]),
            curve(&[5.0, 4.0, 4.5, 1.0, 3.0]),
        ];
        let total_ways = 8;
        let (outcome, stats, reduction) = equilibrium(&curves, total_ways);
        let outcome = outcome.unwrap();
        assert!(outcome.converged);
        assert!(is_pure_nash(&curves, total_ways, &outcome.strategies));

        let mut best: Option<(f64, Vec<usize>)> = None;
        for a in 1..=5usize {
            for b in 1..=5usize {
                for c in 1..=5usize {
                    let s = vec![a, b, c];
                    if is_pure_nash(&curves, total_ways, &s) {
                        let e = total_energy(&curves, &s);
                        if best.as_ref().is_none_or(|(be, _)| e < *be) {
                            best = Some((e, s));
                        }
                    }
                }
            }
        }
        let (brute_energy, brute_strategies) = best.expect("an equilibrium exists");
        assert_eq!(outcome.strategies, brute_strategies);
        assert!((outcome.total_energy - brute_energy).abs() < 1e-12);
        // One candidate, certified by one round that moves nothing.
        assert_eq!(stats.equilibria_examined, 1);
        assert_eq!(stats.rounds, 1);
        assert!(reduction.ops > 0, "the arena's work is reported");
    }

    #[test]
    fn certificate_rounds_recover_a_move_rounding_hides() {
        // `4.0 + (1 − 2⁻⁵³)` rounds to `5.0`, so budgets 2 and 3 tie in the
        // arena and the first minimum unwinds to (1, 1) — which is not an
        // equilibrium: core 1 strictly gains by taking the free way.
        let just_below_one = 1.0 - f64::EPSILON / 2.0;
        let curves = vec![
            curve(&[4.0, INF, INF]),
            curve(&[1.0, just_below_one, just_below_one]),
        ];
        assert!(!is_pure_nash(&curves, 3, &[1, 1]));
        let (outcome, stats, _) = equilibrium(&curves, 3);
        let outcome = outcome.unwrap();
        assert!(outcome.converged);
        assert_eq!(outcome.strategies, vec![1, 2]);
        assert!(is_pure_nash(&curves, 3, &outcome.strategies));
        assert_eq!((stats.equilibria_examined, stats.rounds), (1, 2));
    }

    #[test]
    fn equilibrium_ties_go_to_the_fewest_ways() {
        // (2,1), (3,1), (2,2) and (1,3) all cost 3.0 and are equilibria;
        // (2,1) is the only one on the fewest ways.
        let curves = vec![curve(&[2.0, 1.0, 1.0, 1.0]), curve(&[2.0, 2.0, 1.0, 1.0])];
        let (outcome, _, _) = equilibrium(&curves, 4);
        let outcome = outcome.unwrap();
        assert_eq!(outcome.strategies, vec![2, 1]);
        assert!(is_pure_nash(&curves, 4, &outcome.strategies));
        assert_eq!(outcome.total_energy, 3.0);
    }

    #[test]
    fn slack_distribution_is_deterministic_and_exact() {
        assert_eq!(distribute_slack(&[1, 1], 8), vec![4, 4]);
        assert_eq!(distribute_slack(&[2, 1], 8), vec![5, 3]);
        assert_eq!(distribute_slack(&[3, 5], 8), vec![3, 5]);
        let outcome = GameOutcome {
            strategies: vec![5, 1, 1, 1],
            points: vec![
                curve(&[1.0, 1.0, 1.0, 1.0, 1.0]).point(5).unwrap(),
                curve(&[2.0]).point(1).unwrap(),
                curve(&[3.0]).point(1).unwrap(),
                curve(&[4.0]).point(1).unwrap(),
            ],
            total_energy: 10.0,
            converged: true,
        };
        let allocation = outcome.exact_sum_allocation(16);
        assert_eq!(allocation.iter().map(|(w, _)| w).sum::<usize>(), 16);
        assert_eq!(
            allocation.iter().map(|(w, _)| *w).collect::<Vec<_>>(),
            vec![7, 3, 3, 3]
        );
        // The points keep the strategy-time decision.
        assert!((allocation[1].1.energy_joules - 2.0).abs() < 1e-12);
    }

    #[test]
    fn outcomes_serialize_round_trip() {
        let curves = vec![curve(&[3.0, 2.0, 1.0]), curve(&[4.0, 3.5, 3.4])];
        let (outcome, _) = best_response(&curves, 4, &GameConfig::default());
        let outcome = outcome.unwrap();
        let json = serde_json::to_string(&outcome).unwrap();
        let back: GameOutcome = serde_json::from_str(&json).unwrap();
        assert_eq!(back, outcome);
    }
}
