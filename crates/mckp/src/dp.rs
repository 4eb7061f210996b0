//! Exact dynamic programming for MCKP on the real weights.
//!
//! This is the "dynamic programming algorithm \[Dudzinski & Walukiewicz
//! 1987\]" the paper adopts (§5.2), in its list form (Kellerer, Pferschy
//! & Pisinger, *Knapsack Problems*, ch. 11): class by class it keeps the
//! Pareto frontier of partial selections, the `(weight, profit)` states
//! that no other state matches on both.
//!
//! * **Exact.** A state's weight and profit fold its items from `0.0` in
//!   class order, as [`MckpInstance::selection_weight`] does, bit for
//!   bit, and a state is kept only if its weight is `≤ capacity`. Adding
//!   a non-negative `f64` is monotone, so a state no heavier and no less
//!   profitable than another stays so after every later item. The result
//!   is the most profitable selection [`MckpInstance::is_feasible`]
//!   accepts: no rounding, no epsilon.
//! * **Cost.** The previous frontier, shifted by one item, is still
//!   weight-sorted, so each item costs one linear merge:
//!   `O(items × frontier)` per class. A Lagrangian bound (see `Bound`)
//!   drops states that cannot reach a known selection's profit, so
//!   frontiers stay below 750 states of 32 bytes on every workload (far
//!   below glibc's 128 KiB mmap threshold; DESIGN.md §3.2 has the sizes).
//! * **Grid fallback.** A frontier past `resolution + 1` states restarts
//!   the solve on a grid of `resolution` cells, with weights rounded
//!   **up** (feasible, but optimal on the rounded instance only) at
//!   `O(items × resolution)` per class: no dearer than that frontier.
//!   [`DpSolver::solve_with_stats`] reports whether a solve fell back.

use crate::error::SolveError;
use crate::heu::HeuOeSolver;
use crate::instance::MckpInstance;
use crate::lp::{dominance_filter, lp_on_hulls, upper_hull};
use crate::solution::Selection;
use crate::Solver;

/// Grid choice-table sentinel for a budget no selection reaches, so on
/// the grid a class may keep at most `u16::MAX` items.
const UNREACHABLE: u16 = u16::MAX;

/// A dominance-pruned item; within a class, weights and profits rise.
#[derive(Debug, Clone, Copy)]
struct Choice {
    class: usize,
    /// Index of the item in its class.
    index: usize,
    weight: f64,
    profit: f64,
}

fn same_class(a: &Choice, b: &Choice) -> bool {
    a.class == b.class
}

/// A partial selection: its folded weight and profit, its parent's
/// position in the previous class's frontier and its item's position in
/// the class's pruned run.
#[derive(Debug, Clone, Copy, Default)]
struct State {
    weight: f64,
    profit: f64,
    parent: usize,
    item: usize,
}

/// Sets `out` to the frontier of `acc` ∪ (`prev` shifted by `item`, the
/// class's `tag`-th pruned item), keeping states that fit `capacity` and
/// pass `p − λ·w ≥ cut`. The lighter state goes first, `acc`'s on equal
/// weights (earlier items win ties); a state is kept only if it is more
/// profitable than every state before it, and replaces the last kept
/// state if the shift rounded their weights together.
fn merge(
    acc: &[State],
    prev: &[State],
    (tag, item): (usize, &Choice),
    capacity: f64,
    (lambda, cut): (f64, f64),
    out: &mut Vec<State>,
) {
    out.clear();
    // The shifted states that still fit form a prefix.
    let fit = prev.partition_point(|s| s.weight + item.weight <= capacity);
    let shifted = |parent: usize| State {
        weight: prev[parent].weight + item.weight,
        profit: prev[parent].profit + item.profit,
        parent,
        item: tag,
    };
    let (mut a, mut b) = (0, 0);
    let mut best = f64::NEG_INFINITY;
    while a < acc.len() || b < fit {
        let take_b = b < fit && (a == acc.len() || shifted(b).weight < acc[a].weight);
        let state = if take_b {
            b += 1;
            shifted(b - 1)
        } else {
            a += 1;
            acc[a - 1]
        };
        if state.profit > best {
            best = state.profit;
            if state.profit - lambda * state.weight >= cut {
                if out.last().is_some_and(|last| state.weight <= last.weight) {
                    out.pop();
                }
                out.push(state);
            }
        }
    }
}

/// A Lagrangian bound. For any `λ ≥ 0`, a completion after class `k`
/// that fits the residual capacity `capacity − w` earns at most
/// `Σ_{j>k} max_i (p_ji − λ·w_ji) + λ·(capacity − w)`, so a state `(w, p)`
/// after class `k` reaches the profit `lb` of a known selection only if
/// `p − λ·w ≥ cuts[k] = lb − λ·capacity − Σ_{j>k} max_i (p_ji − λ·w_ji)`,
/// less a margin of 1e-9 relative to the magnitudes summed (far above
/// their rounding error). Every prefix of an optimal selection passes, so
/// the optimum survives and a frontier empties only if nothing fits. `λ`
/// is the LP relaxation's dual and the known selection HEU-OE's, both run
/// on the solve's own class hulls.
#[derive(Debug)]
struct Bound {
    lambda: f64,
    cuts: Vec<f64>,
}

impl Bound {
    fn new(instance: &MckpInstance, hulls: &[Vec<usize>], choices: &[Choice]) -> Bound {
        let classes = instance.num_classes();
        let off = Bound {
            lambda: 0.0,
            cuts: vec![f64::NEG_INFINITY; classes],
        };
        let lp = lp_on_hulls(instance, hulls);
        let known = HeuOeSolver::new().solve_on_hulls(instance, hulls);
        let (Some(lp), Ok(known)) = (lp, known) else {
            return off;
        };
        let lambda = lp.critical_efficiency;
        let lb = match instance.selection_profit(&known) {
            Ok(lb) if instance.is_feasible(&known) => lb,
            _ => return off,
        };
        // A dominated item never scores higher than the one dominating it.
        let best: Vec<f64> = choices
            .chunk_by(same_class)
            .map(|items| items.iter().map(|c| c.profit - lambda * c.weight))
            .map(|scores| scores.fold(f64::NEG_INFINITY, f64::max))
            .collect();
        let reach = lambda * instance.capacity();
        let magnitude: f64 = best.iter().map(|b| b.abs()).sum();
        let margin = 1e-9 * (1.0 + lb.abs() + reach.abs() + magnitude);
        let mut cuts = vec![0.0; classes];
        let mut rest = 0.0;
        for (cut, b) in cuts.iter_mut().zip(&best).rev() {
            *cut = lb - margin - reach - rest;
            rest += b;
        }
        if cuts.iter().all(|c| c.is_finite()) {
            Bound { lambda, cuts }
        } else {
            off
        }
    }
}

/// What one [`DpSolver`] solve did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DpStats {
    /// The largest frontier built, in states, counting the intermediate
    /// frontiers of a class's item-by-item merges.
    pub max_frontier: usize,
    /// Whether a frontier grew past `resolution + 1` states and the
    /// solve fell back to the weight grid.
    pub fell_back: bool,
}

/// Exact MCKP dynamic program over Pareto frontiers, with a weight-grid
/// fallback for frontiers past `resolution + 1` states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DpSolver {
    resolution: usize,
}

impl DpSolver {
    /// Default grid resolution; `resolution + 1` is also the largest
    /// frontier a solve builds before it falls back to the grid.
    pub const DEFAULT_RESOLUTION: usize = 10_000;

    /// Creates a solver whose frontiers may grow to `resolution + 1`
    /// states before it falls back to a grid of `resolution` cells.
    ///
    /// # Panics
    ///
    /// Panics if `resolution == 0`.
    pub fn with_resolution(resolution: usize) -> Self {
        assert!(resolution > 0, "resolution must be positive");
        DpSolver { resolution }
    }

    /// The configured grid resolution.
    pub fn resolution(&self) -> usize {
        self.resolution
    }

    /// Solves the instance like [`Solver::solve`] and reports what the
    /// solve did.
    ///
    /// # Errors
    ///
    /// As [`Solver::solve`]: [`SolveError::Infeasible`] when no selection
    /// fits; [`SolveError::BadInstance`] when the grid fallback meets a
    /// class of more than 65 535 undominated items.
    pub fn solve_with_stats(
        &self,
        instance: &MckpInstance,
    ) -> (Result<Selection, SolveError>, DpStats) {
        let capacity = instance.capacity();
        let classes = instance.classes();
        // Every class is pruned once; its hull, for the bound, comes from
        // the pruned run.
        let pruned: Vec<Vec<usize>> = classes.iter().map(|c| dominance_filter(c)).collect();
        // Every class keeps at least one item, so `chunk_by(same_class)`
        // yields one run per class.
        let choices: Vec<Choice> = pruned
            .iter()
            .zip(classes)
            .enumerate()
            .flat_map(|(class, (kept, items))| {
                kept.iter().map(move |&index| Choice {
                    class,
                    index,
                    weight: items[index].weight,
                    profit: items[index].profit,
                })
            })
            .collect();
        let hulls: Vec<Vec<usize>> = classes
            .iter()
            .zip(pruned)
            .map(|(items, kept)| upper_hull(items, kept))
            .collect();
        let mut stats = DpStats::default();
        let bound = Bound::new(instance, &hulls, &choices);
        let picks = match self.frontier(&choices, &bound, capacity, &mut stats) {
            Ok(Some(picks)) => Ok(picks),
            Ok(None) => {
                stats.fell_back = true;
                self.grid(&choices, instance.num_classes(), capacity)
            }
            Err(e) => Err(e),
        };
        let selection = picks.map(Selection::new);
        debug_assert!(selection.as_ref().map_or(true, |s| instance.is_feasible(s)));
        (selection, stats)
    }

    /// The frontier DP: the optimal per-class item indices, or `None`
    /// when a frontier grows past `resolution + 1` states.
    // analyze: hot-path
    fn frontier(
        &self,
        choices: &[Choice],
        bound: &Bound,
        capacity: f64,
        stats: &mut DpStats,
    ) -> Result<Option<Vec<usize>>, SolveError> {
        // Before the first class: the empty selection.
        let start = [State::default()];
        let (mut acc, mut out) = (Vec::new(), Vec::new());
        let mut history: Vec<Vec<State>> = Vec::with_capacity(bound.cuts.len());
        for (items, &cut) in choices.chunk_by(same_class).zip(&bound.cuts) {
            let prev = history.last().map_or(&start[..], Vec::as_slice);
            for shift in items.iter().enumerate() {
                if prev[0].weight + shift.1.weight > capacity {
                    break; // weight-sorted: the rest fit no state either
                }
                merge(&acc, prev, shift, capacity, (bound.lambda, cut), &mut out);
                std::mem::swap(&mut acc, &mut out);
                stats.max_frontier = stats.max_frontier.max(acc.len());
                if acc.len() > self.resolution.saturating_add(1) {
                    return Ok(None);
                }
            }
            if acc.is_empty() {
                return Err(SolveError::Infeasible);
            }
            history.push(std::mem::take(&mut acc));
        }
        // The heaviest state of the last frontier is the most profitable.
        let mut state = history.last().map_or(0, |last| last.len() - 1);
        // analyze: allow(A7): reconstruction buffer built once per solve
        let mut picks = vec![0; history.len()];
        for (items, states) in choices.chunk_by(same_class).rev().zip(history.iter().rev()) {
            let s = states[state];
            picks[items[s.item].class] = items[s.item].index;
            state = s.parent;
        }
        Ok(Some(picks))
    }

    /// Scales a weight onto the grid, rounding up (safe side); weights
    /// that never fit map to `resolution + 1`.
    fn scale(&self, weight: f64, capacity: f64) -> usize {
        // Ordered comparisons, not `==`: lint L2 bans f64 equality in
        // density math.
        if weight <= 0.0 {
            return 0;
        }
        if capacity <= 0.0 || weight > capacity {
            return self.resolution + 1;
        }
        // Clamp before the cast: the guards pin the ratio into (0, 1],
        // but the interval checker (A4) reasons per variable.
        let scaled = (weight / capacity * self.resolution as f64)
            .ceil()
            .clamp(0.0, u32::MAX as f64) as usize;
        scaled.min(self.resolution + 1)
    }

    /// The grid fallback: the optimal per-class item indices with every
    /// weight rounded up to `resolution` cells.
    // analyze: hot-path
    fn grid(
        &self,
        choices: &[Choice],
        classes: usize,
        capacity: f64,
    ) -> Result<Vec<usize>, SolveError> {
        let res = self.resolution;
        let width = res + 1;
        if choices
            .chunk_by(same_class)
            .any(|items| u16::try_from(items.len()).is_err())
        {
            return Err(SolveError::bad(
                "a class keeps more than 65535 undominated items, more than the DP's u16 choice table indexes",
            ));
        }
        // prev[c] = max profit over the classes so far with grid weight
        // <= c (0 before the first class). Every buffer is at most one f64
        // row, below glibc's mmap threshold at the default resolution.
        const NEG: f64 = f64::NEG_INFINITY;
        // analyze: allow(A7): DP row allocated once per grid solve, swapped with `next` between classes
        let mut prev = vec![0.0; width];
        // analyze: allow(A7): DP row allocated once per grid solve, swapped with `prev` between classes
        let mut next = vec![NEG; width];
        // choice[k][c] = position in class k's run of the item chosen at
        // remaining budget c.
        let mut choice: Vec<Vec<u16>> = Vec::with_capacity(classes);
        for items in choices.chunk_by(same_class) {
            next.fill(NEG);
            // analyze: allow(A7): one u16 choice row per class, a quarter of a DP row
            let mut row = vec![UNREACHABLE; width];
            // One contiguous sweep per item; per cell the first strictly
            // best item wins, and NEG + profit never does.
            for (tag, item) in (0..UNREACHABLE).zip(items) {
                let sw = self.scale(item.weight, capacity);
                if sw > res {
                    break; // weight-sorted: the rest are heavier
                }
                let cells = next[sw..].iter_mut().zip(&prev[..width - sw]);
                for ((best, &base), pick) in cells.zip(&mut row[sw..]) {
                    // Selects, not a branch: vector compare-and-blend.
                    let value = base + item.profit;
                    let better = value > *best;
                    *best = if better { value } else { *best };
                    *pick = if better { tag } else { *pick };
                }
            }
            choice.push(row);
            std::mem::swap(&mut prev, &mut next);
        }
        if prev[res] == NEG {
            return Err(SolveError::Infeasible);
        }
        let mut budget = res;
        // analyze: allow(A7): reconstruction buffer built once per grid solve
        let mut picks = vec![0usize; choice.len()];
        for (items, row) in choices.chunk_by(same_class).rev().zip(choice.iter().rev()) {
            let item = items[usize::from(row[budget])];
            picks[item.class] = item.index;
            budget -= self.scale(item.weight, capacity);
        }
        Ok(picks)
    }
}

impl Default for DpSolver {
    fn default() -> Self {
        DpSolver {
            resolution: Self::DEFAULT_RESOLUTION,
        }
    }
}

impl Solver for DpSolver {
    fn solve(&self, instance: &MckpInstance) -> Result<Selection, SolveError> {
        self.solve_with_stats(instance).0
    }

    fn name(&self) -> &'static str {
        "dp"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Item;

    fn solve(classes: Vec<Vec<Item>>, capacity: f64) -> Result<Selection, SolveError> {
        let inst = MckpInstance::new(classes, capacity).unwrap();
        DpSolver::default().solve(&inst)
    }

    #[test]
    fn picks_obvious_optimum() {
        let sel = solve(
            vec![
                vec![Item::new(0.2, 1.0), Item::new(0.6, 5.0)],
                vec![Item::new(0.3, 2.0), Item::new(0.7, 4.0)],
            ],
            1.0,
        )
        .unwrap();
        assert_eq!(sel.choices(), &[1, 0]);
    }

    #[test]
    fn single_class_picks_best_fitting() {
        let sel = solve(
            vec![vec![
                Item::new(0.2, 1.0),
                Item::new(0.8, 9.0),
                Item::new(1.5, 100.0), // does not fit
            ]],
            1.0,
        )
        .unwrap();
        assert_eq!(sel.choices(), &[1]);
    }

    #[test]
    fn infeasible_when_nothing_fits() {
        let err = solve(vec![vec![Item::new(2.0, 1.0)]], 1.0).unwrap_err();
        assert_eq!(err, SolveError::Infeasible);
    }

    #[test]
    fn infeasible_when_combination_exceeds() {
        let err = solve(
            vec![vec![Item::new(0.7, 1.0)], vec![Item::new(0.7, 1.0)]],
            1.0,
        )
        .unwrap_err();
        assert_eq!(err, SolveError::Infeasible);
    }

    #[test]
    fn zero_capacity_allows_zero_weight_items() {
        let sel = solve(vec![vec![Item::new(0.0, 3.0), Item::new(0.5, 9.0)]], 0.0).unwrap();
        assert_eq!(sel.choices(), &[0]);
    }

    #[test]
    fn zero_capacity_infeasible_with_positive_weights() {
        let err = solve(vec![vec![Item::new(0.1, 1.0)]], 0.0).unwrap_err();
        assert_eq!(err, SolveError::Infeasible);
    }

    #[test]
    fn exact_fill_is_allowed() {
        // Two items of exactly half the capacity each.
        let sel = solve(
            vec![
                vec![Item::new(0.5, 5.0), Item::new(0.1, 1.0)],
                vec![Item::new(0.5, 5.0), Item::new(0.1, 1.0)],
            ],
            1.0,
        )
        .unwrap();
        assert_eq!(sel.choices(), &[0, 0]);
    }

    #[test]
    fn reaches_fits_the_grid_rounds_away() {
        // 3 × 0.33333 ≤ 1, but each rounds up to 34 of 100 cells: the
        // frontier DP takes all three, the 100-cell grid only two.
        let inst = MckpInstance::new(
            vec![vec![Item::new(0.33333, 1.0), Item::new(0.0, 0.0)]; 3],
            1.0,
        )
        .unwrap();
        let (sel, stats) = DpSolver::with_resolution(100).solve_with_stats(&inst);
        assert_eq!(sel.unwrap().choices(), &[0, 0, 0]);
        assert!(!stats.fell_back);
    }

    #[test]
    fn falls_back_to_the_grid_past_the_state_cap() {
        // Items on one line, p = w, with the capacity cutting the line:
        // the LP's slope is 1, every state scores p − w = 0, and the
        // bound keeps all four that fit, past the 3 states a resolution
        // of 2 allows.
        let inst = MckpInstance::new(
            vec![[0.0, 0.3, 0.4, 0.5, 0.9]
                .iter()
                .map(|&w| Item::new(w, w))
                .collect()],
            0.6,
        )
        .unwrap();
        let (sel, stats) = DpSolver::with_resolution(2).solve_with_stats(&inst);
        assert!(stats.fell_back);
        // On the 2-cell grid 0.4 and 0.5 both round up to the full capacity.
        assert_eq!(sel.unwrap().choices(), &[3]);
        let (sel, stats) = DpSolver::with_resolution(3).solve_with_stats(&inst);
        assert!(!stats.fell_back);
        assert_eq!(stats.max_frontier, 4);
        assert_eq!(sel.unwrap().choices(), &[3]);
    }

    #[test]
    fn bound_drops_states_that_cannot_reach_the_optimum() {
        // HEU-OE finds the optimum (0.9, 3); no lighter state can reach it.
        let inst = MckpInstance::new(
            vec![vec![
                Item::new(0.0, 0.0),
                Item::new(0.3, 1.0),
                Item::new(0.5, 2.0),
                Item::new(0.9, 3.0),
            ]],
            1.0,
        )
        .unwrap();
        let (sel, stats) = DpSolver::default().solve_with_stats(&inst);
        assert_eq!(sel.unwrap().choices(), &[3]);
        assert_eq!(stats.max_frontier, 1);
    }

    #[test]
    fn matches_brute_force_small() {
        use crate::brute::BruteForceSolver;
        let inst = MckpInstance::new(
            vec![
                vec![
                    Item::new(0.11, 2.0),
                    Item::new(0.42, 6.5),
                    Item::new(0.65, 8.0),
                ],
                vec![Item::new(0.05, 1.0), Item::new(0.33, 5.0)],
                vec![
                    Item::new(0.2, 3.0),
                    Item::new(0.25, 3.2),
                    Item::new(0.5, 7.7),
                ],
            ],
            1.0,
        )
        .unwrap();
        let dp = DpSolver::default().solve(&inst).unwrap();
        let bf = BruteForceSolver::default().solve(&inst).unwrap();
        assert_eq!(
            inst.selection_profit(&dp).unwrap().to_bits(),
            inst.selection_profit(&bf).unwrap().to_bits()
        );
    }

    #[test]
    fn name_and_resolution() {
        let s = DpSolver::with_resolution(500);
        assert_eq!(s.resolution(), 500);
        assert_eq!(s.name(), "dp");
        assert_eq!(
            DpSolver::default().resolution(),
            DpSolver::DEFAULT_RESOLUTION
        );
    }

    #[test]
    #[should_panic(expected = "resolution must be positive")]
    fn zero_resolution_panics() {
        DpSolver::with_resolution(0);
    }
}
