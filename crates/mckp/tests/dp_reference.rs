//! Differential test: `DpSolver` against `RefDp`, a verbatim copy of the
//! original cell-outer weight-grid DP (grid weights rescaled per
//! (cell, item) pair, one `usize` choice row per class).
//!
//! The production DP sweeps items outer over contiguous row slices with
//! grid weights computed once per class and `u16` choice rows;
//! its selections — and its errors — must be identical, ties included.

use proptest::prelude::*;
use rto_mckp::lp::dominance_filter;
use rto_mckp::{DpSolver, Item, MckpInstance, Selection, SolveError, Solver};

/// The original DP, kept here as the oracle.
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

/// Tie-heavy instances: weights and profits drawn from small discrete
/// sets (so many items share a grid cell or a profit, and many cells
/// share a best value), with weights up to 1.3 so some items are
/// heavier than every capacity tried.
fn tie_heavy_instance() -> impl Strategy<Value = (Vec<Vec<Item>>, f64)> {
    let item = (0u32..=13, 0u32..=6).prop_map(|(w, p)| Item::new(f64::from(w) * 0.1, f64::from(p)));
    (
        prop::collection::vec(prop::collection::vec(item, 1..=12), 1..=12),
        capacity(),
    )
}

/// Continuous weights and profits: off-grid weights exercise the
/// round-up in `scale`.
fn continuous_instance() -> impl Strategy<Value = (Vec<Vec<Item>>, f64)> {
    let item = (0.0f64..1.2, 0.0f64..10.0).prop_map(|(w, p)| Item::new(w, p));
    (
        prop::collection::vec(prop::collection::vec(item, 1..=12), 1..=12),
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

fn assert_same(classes: Vec<Vec<Item>>, capacity: f64, res: usize) -> Result<(), TestCaseError> {
    let inst = MckpInstance::new(classes, capacity).expect("generated instance is valid");
    let fast = DpSolver::with_resolution(res).solve(&inst);
    let reference = RefDp { resolution: res }.solve(&inst);
    prop_assert_eq!(fast, reference, "resolution {}", res);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn dp_matches_reference_on_ties((classes, capacity) in tie_heavy_instance(), res in resolution()) {
        assert_same(classes, capacity, res)?;
    }

    #[test]
    fn dp_matches_reference_on_continuous((classes, capacity) in continuous_instance(), res in resolution()) {
        assert_same(classes, capacity, res)?;
    }
}

#[test]
fn dp_matches_reference_on_edge_weights() {
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
            let fast = DpSolver::with_resolution(res).solve(&inst);
            assert_eq!(fast, RefDp { resolution: res }.solve(&inst));
            assert_eq!(fast.unwrap().choices(), &[1, 0]);
        }
    }
}

/// `n` undominated items: strictly increasing weights and profits, so
/// dominance pruning keeps every one.
fn undominated_class(n: usize) -> Vec<Item> {
    (0..n)
        .map(|i| Item::new(i as f64 * 1e-6, i as f64))
        .collect()
}

#[test]
fn rejects_classes_beyond_the_u16_choice_table() {
    let inst = MckpInstance::new(vec![undominated_class(usize::from(u16::MAX) + 1)], 1.0).unwrap();
    let err = DpSolver::with_resolution(10).solve(&inst).unwrap_err();
    assert!(matches!(err, SolveError::BadInstance(_)), "{err:?}");
}

#[test]
fn accepts_the_largest_u16_indexable_class() {
    // 65 535 items: the last position, 65 534, sits just below the
    // `u16::MAX` sentinel.
    let inst = MckpInstance::new(vec![undominated_class(usize::from(u16::MAX))], 1.0).unwrap();
    let sel = DpSolver::with_resolution(10).solve(&inst).unwrap();
    assert_eq!(sel.choices(), &[usize::from(u16::MAX) - 1]);
}
