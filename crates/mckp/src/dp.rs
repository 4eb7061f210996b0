//! Exact pseudo-polynomial dynamic programming for MCKP.
//!
//! This is the "dynamic programming algorithm \[Dudzinski & Walukiewicz
//! 1987\]" the paper adopts (§5.2): a profit-maximizing DP over a weight
//! grid. The paper's weights are real densities in `[0, 1]`, so the grid is
//! obtained by **rounding weights up** to a configurable resolution. The
//! consequences are:
//!
//! * any returned selection is feasible for the *true* real-valued
//!   capacity (safety is never compromised), and
//! * optimality is exact *on the rounded instance* only. A selection
//!   whose rounded-up weights overflow the grid is out of reach even when
//!   its real weight fits: on the §6.2 systems HEU-OE, which works on the
//!   real densities, beats the default 10⁴-cell DP by one 0.1 benefit
//!   step on about 5–7% of instances, each time with such an off-grid
//!   selection.
//!
//! Runtime is `O(total_items × resolution)`: every dominance-pruned item
//! is scaled onto the grid once, then swept over one contiguous row
//! slice per class. Memory is 2 bytes per choice cell (one `u16` row of
//! `resolution + 1` cells per class, for reconstruction) plus two `f64`
//! rows of `resolution + 1` cells.

use crate::error::SolveError;
use crate::instance::MckpInstance;
use crate::lp::dominance_filter;
use crate::solution::Selection;
use crate::Solver;

/// Choice-table sentinel for a budget no selection reaches. Pruned
/// positions are stored as `u16`, so a class may keep at most
/// `u16::MAX` items (positions `0..u16::MAX`).
const UNREACHABLE: u16 = u16::MAX;

/// A dominance-pruned item with its weight already on the grid.
#[derive(Debug, Clone, Copy)]
struct GridItem {
    /// Index of the item's class.
    class: usize,
    /// Index of the item in its class.
    index: usize,
    /// Weight in grid units, rounded up; `resolution + 1` never fits.
    weight: usize,
    profit: f64,
}

/// Exact DP solver over a discretized weight grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DpSolver {
    resolution: usize,
}

impl DpSolver {
    /// Default number of grid units the capacity is divided into.
    pub const DEFAULT_RESOLUTION: usize = 10_000;

    /// Creates a solver with the given weight-grid resolution.
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

    /// Scales a weight onto the grid, rounding up (safe side).
    ///
    /// Weights that do not fit the capacity at all map to `resolution + 1`
    /// (never selectable).
    fn scale(&self, weight: f64, capacity: f64) -> usize {
        // Ordered comparisons, not `==`: weights/capacities are
        // validated non-negative, and lint L2 bans f64 equality in
        // density math.
        if weight <= 0.0 {
            return 0;
        }
        if capacity <= 0.0 || weight > capacity {
            return self.resolution + 1;
        }
        // Clamp before the cast: the guards above pin the ratio into
        // (0, 1], but the interval checker (A4) reasons per-variable, and
        // a grid beyond u32::MAX cells could never be allocated anyway.
        let scaled = (weight / capacity * self.resolution as f64)
            .ceil()
            .clamp(0.0, u32::MAX as f64) as usize;
        scaled.min(self.resolution + 1)
    }
}

/// Groups a class-ordered grid-item list into its classes.
fn same_class(a: &GridItem, b: &GridItem) -> bool {
    a.class == b.class
}

impl Default for DpSolver {
    fn default() -> Self {
        DpSolver {
            resolution: Self::DEFAULT_RESOLUTION,
        }
    }
}

impl Solver for DpSolver {
    // analyze: hot-path
    fn solve(&self, instance: &MckpInstance) -> Result<Selection, SolveError> {
        let res = self.resolution;
        let width = res + 1;
        let capacity = instance.capacity();
        let classes = instance.classes();

        // Dominance-pruned items, class after class (exactness
        // preserved), each scaled onto the grid once instead of once per
        // (cell, item). Within a class, grid weights are non-decreasing
        // and profits strictly increasing. Every class keeps at least
        // one item, so `chunk_by(same_class)` yields one run per class.
        let grid: Vec<GridItem> = classes
            .iter()
            .enumerate()
            .flat_map(|(k, class)| {
                dominance_filter(class)
                    .into_iter()
                    .map(move |index| GridItem {
                        class: k,
                        index,
                        weight: self.scale(class[index].weight, capacity),
                        profit: class[index].profit,
                    })
            })
            // analyze: allow(A7): one grid-item list per solve, built before the DP loops
            .collect();
        // A class of at most u16::MAX items has positions below the sentinel.
        if grid
            .chunk_by(same_class)
            .any(|items| u16::try_from(items.len()).is_err())
        {
            return Err(SolveError::bad(
                "a class keeps more than 65535 undominated items, more than the DP's u16 choice table indexes",
            ));
        }

        // prev[c] = max profit over the classes processed so far with
        // grid weight <= c. Before the first class it is 0 everywhere:
        // the empty selection fits every budget. Two rows, swapped
        // between classes.
        //
        // Every buffer here is at most one f64 row: at the default
        // resolution that stays below glibc's 128 KB mmap threshold.
        // Freeing a larger block raises the threshold for the rest of
        // the process, which measurably slowed and grew the pipelines
        // around the DP (a single 2-row buffer: +9% peak RSS on the case
        // study; a flat choice table: +2% on a 100-task fleet run).
        const NEG: f64 = f64::NEG_INFINITY;
        // analyze: allow(A7): DP row allocated once per solve, swapped with `next` between classes
        let mut prev = vec![0.0; width];
        // analyze: allow(A7): DP row allocated once per solve, swapped with `prev` between classes
        let mut next = vec![NEG; width];
        // choice[k][c] = position (within class k's run of `grid`) of the
        // item chosen at class k when the remaining budget is c.
        let mut choice: Vec<Vec<u16>> = Vec::with_capacity(classes.len());

        for items in grid.chunk_by(same_class) {
            next.fill(NEG);
            // analyze: allow(A7): one u16 choice row per class, a quarter of a DP row
            let mut row = vec![UNREACHABLE; width];
            // Items in pruned order, each one contiguous sweep; per cell
            // the first strictly best item wins, as with a cell-outer
            // loop. NEG + profit stays NEG, so unreachable cells never win.
            for (tag, item) in (0..UNREACHABLE).zip(items) {
                let sw = item.weight;
                if sw > res {
                    // weight-sorted: the rest are heavier
                    break;
                }
                let cells = next[sw..].iter_mut().zip(&prev[..width - sw]);
                for ((best, &base), pick) in cells.zip(&mut row[sw..]) {
                    // Selects, not a branch: the sweep then compiles to
                    // vector compare-and-blend (about 1.5x faster).
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

        // Reconstruct backwards from the full budget.
        let mut budget = res;
        // analyze: allow(A7): reconstruction buffer built once per solve
        let mut picks = vec![0usize; classes.len()];
        for items in grid.chunk_by(same_class).rev() {
            let k = items[0].class;
            let tag = choice[k][budget];
            debug_assert_ne!(tag, UNREACHABLE, "reconstruction hit unreachable cell");
            let item = items[usize::from(tag)];
            picks[k] = item.index;
            budget -= item.weight;
        }

        let selection = Selection::new(picks);
        debug_assert!(instance.is_feasible(&selection));
        Ok(selection)
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
    fn respects_rounding_safety() {
        // Weights just over a grid cell: rounded up, so DP may refuse a
        // razor-thin fit, but must never return an infeasible selection.
        let inst = MckpInstance::new(
            vec![
                vec![Item::new(0.33334, 1.0), Item::new(0.0, 0.0)],
                vec![Item::new(0.33334, 1.0), Item::new(0.0, 0.0)],
                vec![Item::new(0.33334, 1.0), Item::new(0.0, 0.0)],
            ],
            1.0,
        )
        .unwrap();
        let sel = DpSolver::with_resolution(100).solve(&inst).unwrap();
        assert!(inst.is_feasible(&sel));
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
        assert!(
            (inst.selection_profit(&dp).unwrap() - inst.selection_profit(&bf).unwrap()).abs()
                < 1e-9,
            "dp {} vs brute {}",
            inst.selection_profit(&dp).unwrap(),
            inst.selection_profit(&bf).unwrap()
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
