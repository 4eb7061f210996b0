//! HEU-OE: the greedy + opportunistic-exchange MCKP heuristic.
//!
//! The paper adopts "the HEU-OE heuristic algorithm from \[Khan 1998\]" as
//! its fast near-optimal solver. The algorithm:
//!
//! 1. **Prune** each class to its LP-undominated items (upper convex hull
//!    of `(weight, profit)`).
//! 2. **Base**: select the lightest hull item of every class.
//! 3. **Greedy upgrades** (HEU): repeatedly apply, among the next hull
//!    upgrade of every class, the one with the highest incremental
//!    efficiency `Δprofit/Δweight` that still fits; upgrades that do not
//!    fit are discarded for good (their class stays at its current level).
//! 4. **Opportunistic exchange** (OE): a local-improvement pass over *all*
//!    items (including LP-dominated ones, which the greedy can never
//!    reach): while some single-class swap raises profit without
//!    exceeding the capacity, apply the best such swap.
//!
//! The phases track the weight by deltas, which can drift a few ulps from
//! the sum [`MckpInstance::is_feasible`] checks, so the latest changes are
//! undone until the result fits exactly (the base always does).
//!
//! The heuristic runs in `O(total_items · log total_items)` for the greedy
//! phase plus `O(passes · total_items)` for the exchange phase and is
//! near-optimal on the benefit-function instances of the paper (see the
//! Figure 3 bench, where it tracks the DP within a few percent).

use crate::error::SolveError;
use crate::instance::MckpInstance;
use crate::lp::convex_hull_indices;
use crate::solution::Selection;
use crate::Solver;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// The HEU-OE heuristic solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeuOeSolver {
    exchange: bool,
    max_exchange_passes: usize,
}

impl HeuOeSolver {
    /// Full HEU-OE: greedy plus opportunistic exchange (the paper's
    /// configuration).
    pub fn new() -> Self {
        HeuOeSolver {
            exchange: true,
            max_exchange_passes: 64,
        }
    }

    /// Greedy-only variant (no exchange pass); used by the ablation bench.
    pub fn without_exchange() -> Self {
        HeuOeSolver {
            exchange: false,
            max_exchange_passes: 0,
        }
    }

    /// Limits the number of exchange passes (each pass applies the single
    /// best improving swap).
    pub fn with_max_exchange_passes(mut self, passes: usize) -> Self {
        self.max_exchange_passes = passes;
        self
    }
}

impl Default for HeuOeSolver {
    fn default() -> Self {
        HeuOeSolver::new()
    }
}

/// Heap entry: a candidate upgrade for `class` to hull position `pos`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Upgrade {
    efficiency: f64,
    class: usize,
    pos: usize,
    d_weight: f64,
    d_profit: f64,
}

impl Eq for Upgrade {}

impl Ord for Upgrade {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap by efficiency; deterministic tie-break by class/pos.
        self.efficiency
            .total_cmp(&other.efficiency)
            .then(other.class.cmp(&self.class))
            .then(other.pos.cmp(&self.pos))
    }
}

impl PartialOrd for Upgrade {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl HeuOeSolver {
    /// [`Solver::solve`] on precomputed [`convex_hull_indices`], one per
    /// class.
    pub(crate) fn solve_on_hulls(
        &self,
        instance: &MckpInstance,
        hulls: &[Vec<usize>],
    ) -> Result<Selection, SolveError> {
        let classes = instance.classes();
        let capacity = instance.capacity();

        // Base: lightest hull item per class.
        let mut picks: Vec<usize> = hulls.iter().map(|h| h[0]).collect();
        let mut weight: f64 = picks
            .iter()
            .enumerate()
            .map(|(c, &j)| classes[c][j].weight)
            .sum();
        if weight > capacity {
            // The base is the lightest possible selection up to profit
            // tie-breaks, so exceeding here means the instance is
            // infeasible (hull[0] is a minimum-weight item of the class).
            return Err(SolveError::Infeasible);
        }

        // Greedy upgrades along the hulls.
        let upgrade = |c: usize, pos: usize| -> Upgrade {
            let prev = classes[c][hulls[c][pos - 1]];
            let next = classes[c][hulls[c][pos]];
            let d_weight = next.weight - prev.weight;
            let d_profit = next.profit - prev.profit;
            Upgrade {
                efficiency: if d_weight > 0.0 {
                    d_profit / d_weight
                } else {
                    f64::MAX
                },
                class: c,
                pos,
                d_weight,
                d_profit,
            }
        };
        let mut heap: BinaryHeap<Upgrade> = (0..classes.len())
            .filter(|&c| hulls[c].len() > 1)
            .map(|c| upgrade(c, 1))
            .collect();
        let mut level: Vec<usize> = vec![0; classes.len()];
        // (class, previous pick) of every accepted change, oldest first.
        let mut history: Vec<(usize, usize)> = Vec::new();
        // analyze: allow(A8): every pop discards a stale entry or advances level[class]; at most one push per pop, bounded by Σ hull lengths
        while let Some(up) = heap.pop() {
            if up.pos != level[up.class] + 1 {
                continue; // stale entry from a discarded branch
            }
            if weight + up.d_weight <= capacity {
                weight += up.d_weight;
                history.push((up.class, picks[up.class]));
                level[up.class] = up.pos;
                picks[up.class] = hulls[up.class][up.pos];
                if up.pos + 1 < hulls[up.class].len() {
                    heap.push(upgrade(up.class, up.pos + 1));
                }
            }
            // Upgrades that do not fit are dropped (HEU discards them).
        }

        // Opportunistic exchange over all items.
        if self.exchange {
            let mut profit: f64 = picks
                .iter()
                .enumerate()
                .map(|(c, &j)| classes[c][j].profit)
                .sum();
            for _ in 0..self.max_exchange_passes {
                let mut best: Option<(usize, usize, f64, f64)> = None; // class, item, d_profit, d_weight
                for (c, class) in classes.iter().enumerate() {
                    let cur = class[picks[c]];
                    for (j, item) in class.iter().enumerate() {
                        if j == picks[c] {
                            continue;
                        }
                        let d_w = item.weight - cur.weight;
                        let d_p = item.profit - cur.profit;
                        if d_p > 1e-15 && weight + d_w <= capacity {
                            let better = match best {
                                None => true,
                                Some((_, _, bp, bw)) => d_p > bp || (d_p == bp && d_w < bw),
                            };
                            if better {
                                best = Some((c, j, d_p, d_w));
                            }
                        }
                    }
                }
                match best {
                    Some((c, j, d_p, d_w)) => {
                        history.push((c, picks[c]));
                        picks[c] = j;
                        weight += d_w;
                        profit += d_p;
                    }
                    None => break,
                }
            }
            let _ = profit;
        }

        let mut selection = Selection::new(picks);
        for (class, previous) in history.into_iter().rev() {
            if instance.is_feasible(&selection) {
                break;
            }
            selection.set_choice(class, previous);
        }
        debug_assert!(instance.is_feasible(&selection));
        Ok(selection)
    }
}

impl Solver for HeuOeSolver {
    fn solve(&self, instance: &MckpInstance) -> Result<Selection, SolveError> {
        let hulls: Vec<Vec<usize>> = instance
            .classes()
            .iter()
            .map(|c| convex_hull_indices(c))
            .collect();
        self.solve_on_hulls(instance, &hulls)
    }

    fn name(&self) -> &'static str {
        if self.exchange {
            "heu-oe"
        } else {
            "heu"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Item;
    use crate::lp::lp_relaxation;

    fn inst(classes: Vec<Vec<Item>>, capacity: f64) -> MckpInstance {
        MckpInstance::new(classes, capacity).unwrap()
    }

    #[test]
    fn finds_obvious_optimum() {
        let i = inst(
            vec![
                vec![Item::new(0.2, 1.0), Item::new(0.6, 5.0)],
                vec![Item::new(0.3, 2.0), Item::new(0.7, 4.0)],
            ],
            1.0,
        );
        let sel = HeuOeSolver::new().solve(&i).unwrap();
        assert_eq!(sel.choices(), &[1, 0]);
    }

    #[test]
    fn infeasible_detected() {
        let i = inst(
            vec![vec![Item::new(0.7, 1.0)], vec![Item::new(0.7, 1.0)]],
            1.0,
        );
        assert_eq!(
            HeuOeSolver::new().solve(&i).unwrap_err(),
            SolveError::Infeasible
        );
    }

    #[test]
    fn feasible_base_returned_when_no_upgrades_fit() {
        let i = inst(
            vec![
                vec![Item::new(0.4, 1.0), Item::new(0.9, 10.0)],
                vec![Item::new(0.5, 1.0), Item::new(0.9, 10.0)],
            ],
            1.0,
        );
        let sel = HeuOeSolver::new().solve(&i).unwrap();
        assert!(i.is_feasible(&sel));
        assert_eq!(sel.choices(), &[0, 0]);
    }

    #[test]
    fn exchange_reaches_lp_dominated_item() {
        // Class 0: item 1 is LP-dominated (below the chord) but is the best
        // integer choice once class 1 ate most of the capacity.
        let i = inst(
            vec![
                vec![
                    Item::new(0.0, 0.0),
                    Item::new(0.35, 4.0), // strictly below the chord (0,0)-(0.5,7.0)
                    Item::new(0.5, 7.0),
                ],
                vec![Item::new(0.6, 10.0)],
            ],
            1.0,
        );
        // Greedy hull path: class0 can only jump to (0.5, 7.0), which does
        // not fit next to class1's 0.6, so greedy leaves class0 at (0,0).
        // Exchange should find the LP-dominated (0.35, 4.0).
        let greedy = HeuOeSolver::without_exchange().solve(&i).unwrap();
        assert_eq!(greedy.choices()[0], 0);
        let full = HeuOeSolver::new().solve(&i).unwrap();
        assert_eq!(full.choices()[0], 1);
        assert!(i.selection_profit(&full).unwrap() > i.selection_profit(&greedy).unwrap());
    }

    #[test]
    fn drifted_weight_is_undone_until_the_selection_fits() {
        // 0.2 + 0.7000000000000001 + 0.1 folds to 1.0000000000000002 in
        // class order, but the greedy's delta sum reads at most 1.0.
        let i = inst(
            vec![
                vec![Item::new(0.2, 3.0)],
                vec![
                    Item::new(0.7000000000000001, 4.0),
                    Item::new(0.6000000000000001, 2.0),
                ],
                vec![Item::new(0.1, 4.0)],
            ],
            1.0,
        );
        for heu in [HeuOeSolver::new(), HeuOeSolver::without_exchange()] {
            let sel = heu.solve(&i).unwrap();
            assert!(i.is_feasible(&sel));
            assert_eq!(sel.choices(), &[0, 1, 0]);
        }
    }

    #[test]
    fn result_bounded_by_lp_relaxation() {
        let i = inst(
            vec![
                vec![
                    Item::new(0.1, 1.0),
                    Item::new(0.4, 3.5),
                    Item::new(0.8, 5.0),
                ],
                vec![Item::new(0.2, 2.0), Item::new(0.5, 4.0)],
                vec![Item::new(0.05, 0.5), Item::new(0.3, 2.8)],
            ],
            1.0,
        );
        let sel = HeuOeSolver::new().solve(&i).unwrap();
        let lp = lp_relaxation(&i).unwrap();
        assert!(i.selection_profit(&sel).unwrap() <= lp.upper_bound + 1e-9);
        assert!(i.is_feasible(&sel));
    }

    #[test]
    fn exchange_pass_limit_respected() {
        let i = inst(
            vec![
                vec![Item::new(0.1, 0.0), Item::new(0.2, 1.0)],
                vec![Item::new(0.1, 0.0), Item::new(0.2, 1.0)],
            ],
            1.0,
        );
        // Zero passes behaves like greedy-only even with exchange enabled.
        let sel = HeuOeSolver::new()
            .with_max_exchange_passes(0)
            .solve(&i)
            .unwrap();
        assert!(i.is_feasible(&sel));
    }

    #[test]
    fn solver_names() {
        assert_eq!(HeuOeSolver::new().name(), "heu-oe");
        assert_eq!(HeuOeSolver::without_exchange().name(), "heu");
    }

    #[test]
    fn single_class_picks_best_fitting_item() {
        let i = inst(
            vec![vec![
                Item::new(0.2, 1.0),
                Item::new(0.9, 9.0),
                Item::new(2.0, 100.0),
            ]],
            1.0,
        );
        let sel = HeuOeSolver::new().solve(&i).unwrap();
        assert_eq!(sel.choices(), &[1]);
    }
}
