//! Differential tests of `DpSolver`, the Pareto-frontier DP on the real
//! weights:
//!
//! * it is exact: its profit equals `BruteForceSolver`'s, bit for bit;
//! * it is never worse than `RefDp`, a verbatim copy of the original
//!   cell-outer weight-grid DP (weights rounded up to `resolution`
//!   cells, grid weights rescaled per (cell, item) pair, one `usize`
//!   choice row per class), at the same resolution;
//! * its grid fallback, forced by a resolution below the frontier size,
//!   returns exactly what `RefDp` returns, ties and errors included.

use proptest::prelude::*;
use rto_mckp::lp::dominance_filter;
use rto_mckp::{BruteForceSolver, DpSolver, Item, MckpInstance, Selection, SolveError, Solver};

/// The original grid DP, kept here as the oracle.
struct RefDp {
    resolution: usize,
}

impl RefDp {
    fn scale(&self, weight: f64, capacity: f64) -> usize {
        if weight <= 0.0 {
            return 0;
        }
        if capacity <= 0.0 || weight > capacity {
            return self.resolution + 1;
        }
        let scaled = (weight / capacity * self.resolution as f64)
            .ceil()
            .clamp(0.0, u32::MAX as f64) as usize;
        scaled.min(self.resolution + 1)
    }

    fn solve(&self, instance: &MckpInstance) -> Result<Selection, SolveError> {
        let res = self.resolution;
        let capacity = instance.capacity();
        let classes = instance.classes();

        let pruned: Vec<Vec<usize>> = classes.iter().map(|c| dominance_filter(c)).collect();

        const NEG: f64 = f64::NEG_INFINITY;
        let mut dp: Vec<f64> = vec![NEG; res + 1];
        let mut choice: Vec<Vec<usize>> = Vec::with_capacity(classes.len());

        {
            let mut ch = vec![usize::MAX; res + 1];
            for (pi, &item_idx) in pruned[0].iter().enumerate() {
                let item = classes[0][item_idx];
                let sw = self.scale(item.weight, capacity);
                if sw > res {
                    continue;
                }
                if item.profit > dp[sw] {
                    dp[sw] = item.profit;
                    ch[sw] = pi;
                }
            }
            for c in 1..=res {
                if dp[c - 1] > dp[c] {
                    dp[c] = dp[c - 1];
                    ch[c] = ch[c - 1];
                }
            }
            choice.push(ch);
        }

        for (k, class) in classes.iter().enumerate().skip(1) {
            let mut next = vec![NEG; res + 1];
            let mut ch = vec![usize::MAX; res + 1];
            for c in 0..=res {
                for (pi, &item_idx) in pruned[k].iter().enumerate() {
                    let item = class[item_idx];
                    let sw = self.scale(item.weight, capacity);
                    if sw > c {
                        break;
                    }
                    let base = dp[c - sw];
                    if base == NEG {
                        continue;
                    }
                    let value = base + item.profit;
                    if value > next[c] {
                        next[c] = value;
                        ch[c] = pi;
                    }
                }
            }
            dp = next;
            choice.push(ch);
        }

        if dp[res] == NEG {
            return Err(SolveError::Infeasible);
        }

        let mut budget = res;
        let mut picks = vec![0usize; classes.len()];
        for k in (0..classes.len()).rev() {
            let pi = choice[k][budget];
            let item_idx = pruned[k][pi];
            picks[k] = item_idx;
            let sw = self.scale(classes[k][item_idx].weight, capacity);
            budget -= sw;
        }
        Ok(Selection::new(picks))
    }
}

/// Tie-heavy instances of up to `classes` classes of up to `items`
/// items: weights and profits drawn from small discrete sets (so many
/// items share a weight, a profit or a grid cell, and many selections
/// share a best value), with weights up to 1.3 so some items are heavier
/// than every capacity tried.
fn tie_heavy_instance(
    classes: usize,
    items: usize,
) -> impl Strategy<Value = (Vec<Vec<Item>>, f64)> {
    let item = (0u32..=13, 0u32..=6).prop_map(|(w, p)| Item::new(f64::from(w) * 0.1, f64::from(p)));
    (
        prop::collection::vec(prop::collection::vec(item, 1..=items), 1..=classes),
        capacity(),
    )
}

/// Continuous weights and profits: off-grid weights exercise the
/// round-up of the grid and the real-valued capacity test of the
/// frontier.
fn continuous_instance(
    classes: usize,
    items: usize,
) -> impl Strategy<Value = (Vec<Vec<Item>>, f64)> {
    let item = (0.0f64..1.2, 0.0f64..10.0).prop_map(|(w, p)| Item::new(w, p));
    (
        prop::collection::vec(prop::collection::vec(item, 1..=items), 1..=classes),
        capacity(),
    )
}

/// Capacities 0, 0.5, 0.77 (off every small grid) and 1.
fn capacity() -> impl Strategy<Value = f64> {
    (0usize..4).prop_map(|i| [0.0, 0.5, 0.77, 1.0][i])
}

/// Resolutions 1..3000 on four cases in five, else one of the two large
/// grids the experiments use (10⁴ and 10⁵ cells).
fn resolution() -> impl Strategy<Value = usize> {
    (0usize..10, 1usize..3000).prop_map(|(pick, small)| match pick {
        8 => 10_000,
        9 => 100_000,
        _ => small,
    })
}

fn profit(inst: &MckpInstance, sel: &Selection) -> f64 {
    inst.selection_profit(sel)
        .expect("selection matches the instance")
}

/// The DP's profit equals brute force's, bit for bit, and both agree on
/// infeasibility.
fn assert_exact(classes: Vec<Vec<Item>>, capacity: f64) -> Result<(), TestCaseError> {
    let inst = MckpInstance::new(classes, capacity).expect("generated instance is valid");
    let (dp, stats) = DpSolver::default().solve_with_stats(&inst);
    prop_assert!(!stats.fell_back, "small instance fell back: {:?}", stats);
    match (dp, BruteForceSolver::default().solve(&inst)) {
        (Ok(d), Ok(b)) => {
            prop_assert!(inst.is_feasible(&d));
            prop_assert_eq!(profit(&inst, &d).to_bits(), profit(&inst, &b).to_bits());
        }
        (Err(SolveError::Infeasible), Err(SolveError::Infeasible)) => {}
        (d, b) => prop_assert!(false, "dp {d:?} vs brute force {b:?}"),
    }
    Ok(())
}

/// Without a fallback the DP is at least as good as the grid at the same
/// resolution; with one it returns exactly what the grid returns.
fn assert_dominates_grid(
    classes: Vec<Vec<Item>>,
    capacity: f64,
    res: usize,
) -> Result<(), TestCaseError> {
    let inst = MckpInstance::new(classes, capacity).expect("generated instance is valid");
    let (dp, stats) = DpSolver::with_resolution(res).solve_with_stats(&inst);
    let grid = RefDp { resolution: res }.solve(&inst);
    if stats.fell_back {
        prop_assert_eq!(dp, grid, "resolution {}", res);
        return Ok(());
    }
    prop_assert!(
        stats.max_frontier <= res + 1,
        "{:?} at resolution {}",
        stats,
        res
    );
    match (dp, grid) {
        (Ok(d), Ok(g)) => {
            prop_assert!(inst.is_feasible(&d));
            prop_assert!(profit(&inst, &d) >= profit(&inst, &g), "resolution {}", res);
        }
        // The grid's round-up may lose every selection the real capacity allows.
        (Ok(d), Err(SolveError::Infeasible)) => prop_assert!(inst.is_feasible(&d)),
        (Err(SolveError::Infeasible), Err(SolveError::Infeasible)) => {}
        (d, g) => prop_assert!(false, "dp {d:?} vs grid {g:?} at resolution {res}"),
    }
    Ok(())
}

/// A first class of 64 undominated items that all fit, each worth its
/// weight, and all lighter than 10⁻¹¹: their scores under the DP's bound
/// differ by less than its margin, so all 64 states survive it, past the
/// cap of a resolution of at most 62, and the solve falls back.
fn forcing_class() -> Vec<Item> {
    (0..64)
        .map(|k| {
            let w = f64::from(k) * 1e-13;
            Item::new(w, w)
        })
        .collect()
}

/// Solves 256 instances of `family` behind the forcing class, at
/// resolutions 1 to 62, and checks that each falls back to the grid and
/// returns exactly what the grid oracle returns.
fn fallback_matches_grid(family: impl Strategy<Value = (Vec<Vec<Item>>, f64)>) {
    for case in 0..256u64 {
        let mut rng = proptest::test_runner::TestRng::from_seed(case);
        let (mut classes, _) = family.generate(&mut rng);
        classes.insert(0, forcing_class());
        let capacity = [0.5, 0.77, 1.0][(rng.next_u64() % 3) as usize];
        let res = 1 + (rng.next_u64() % 62) as usize;
        let inst = MckpInstance::new(classes, capacity).expect("generated instance is valid");
        let (dp, stats) = DpSolver::with_resolution(res).solve_with_stats(&inst);
        assert!(stats.fell_back, "case {case}, resolution {res}: {stats:?}");
        let grid = RefDp { resolution: res }.solve(&inst);
        assert_eq!(dp, grid, "case {case}, resolution {res}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn dp_equals_brute_force_on_ties((classes, capacity) in tie_heavy_instance(6, 6)) {
        assert_exact(classes, capacity)?;
    }

    #[test]
    fn dp_equals_brute_force_on_continuous((classes, capacity) in continuous_instance(6, 6)) {
        assert_exact(classes, capacity)?;
    }

    #[test]
    fn dp_dominates_grid_on_ties((classes, capacity) in tie_heavy_instance(12, 12), res in resolution()) {
        assert_dominates_grid(classes, capacity, res)?;
    }

    #[test]
    fn dp_dominates_grid_on_continuous((classes, capacity) in continuous_instance(12, 12), res in resolution()) {
        assert_dominates_grid(classes, capacity, res)?;
    }

}

#[test]
fn fallback_matches_grid_on_ties() {
    fallback_matches_grid(tie_heavy_instance(12, 12));
}

#[test]
fn fallback_matches_grid_on_continuous() {
    fallback_matches_grid(continuous_instance(12, 12));
}

#[test]
fn exact_fill_beyond_the_grid() {
    // Three thirds fold to exactly 1.0, but each rounds up to 3334 of the
    // 10⁴ grid cells: only the real-valued DP takes all three.
    let third = 1.0 / 3.0;
    let inst = MckpInstance::new(
        vec![vec![Item::new(0.0, 0.0), Item::new(third, 1.0)]; 3],
        1.0,
    )
    .unwrap();
    let dp = DpSolver::default().solve(&inst).unwrap();
    assert_eq!(dp.choices(), &[1, 1, 1]);
    assert_eq!(
        inst.selection_weight(&dp).unwrap().to_bits(),
        1.0f64.to_bits()
    );
    let grid = RefDp {
        resolution: DpSolver::DEFAULT_RESOLUTION,
    }
    .solve(&inst)
    .unwrap();
    assert_eq!(profit(&inst, &grid), 2.0);
}

#[test]
fn exact_fill_at_the_capacity() {
    for capacity in [0.0, 0.5, 0.77, 1.0] {
        // The first class's best item fills the capacity exactly (grid
        // weight == resolution); every item of the second class but the
        // free one is heavier than the capacity.
        let classes = vec![
            vec![Item::new(0.0, 0.5), Item::new(capacity, 9.0)],
            vec![
                Item::new(0.0, 1.0),
                Item::new(1.5, 3.0),
                Item::new(2.0, 4.0),
            ],
        ];
        for res in [1, 7, 10_000] {
            let inst = MckpInstance::new(classes.clone(), capacity).unwrap();
            let dp = DpSolver::with_resolution(res).solve(&inst);
            assert_eq!(dp, RefDp { resolution: res }.solve(&inst));
            assert_eq!(dp.unwrap().choices(), &[1, 0]);
        }
    }
}

/// `n` undominated items on the line `p = w`, `w = i · 10⁻⁷`. With a
/// capacity that cuts the line the LP's slope is 1, every state scores
/// `p − w = 0`, and the bound keeps every state that fits.
fn line_class(n: usize) -> Vec<Item> {
    (0..n)
        .map(|i| {
            let w = i as f64 * 1e-7;
            Item::new(w, w)
        })
        .collect()
}

#[test]
fn fallback_rejects_classes_beyond_the_u16_choice_table() {
    let inst = MckpInstance::new(vec![line_class(usize::from(u16::MAX) + 1)], 0.005).unwrap();
    let (err, stats) = DpSolver::with_resolution(10).solve_with_stats(&inst);
    assert!(stats.fell_back);
    assert!(matches!(err, Err(SolveError::BadInstance(_))), "{err:?}");
}

#[test]
fn fallback_accepts_the_largest_u16_indexable_class() {
    // 65 535 items: the last position, 65 534, sits just below the
    // `u16::MAX` sentinel.
    let inst = MckpInstance::new(vec![line_class(usize::from(u16::MAX))], 0.005).unwrap();
    let (sel, stats) = DpSolver::with_resolution(10).solve_with_stats(&inst);
    assert!(stats.fell_back);
    assert_eq!(sel, RefDp { resolution: 10 }.solve(&inst));
}
