//! Property tests: the four MCKP solvers agree where they must.
//!
//! * `brute`, `branch_bound` and (up to grid rounding) `dp` are exact and
//!   must produce equal profits on random small instances.
//! * `heu_oe` is heuristic: feasible and bounded by the exact optimum and
//!   the LP upper bound.

use proptest::prelude::*;
use rto_mckp::lp::lp_relaxation;
use rto_mckp::{
    BranchBoundSolver, BruteForceSolver, DpSolver, HeuOeSolver, Item, MckpInstance, SolveError,
    Solver,
};

/// Strategy: a random instance with 1..=5 classes of 1..=5 items, weights
/// in [0, 0.6], profits in [0, 10], capacity 1.
fn small_instance() -> impl Strategy<Value = MckpInstance> {
    prop::collection::vec(
        prop::collection::vec((0.0f64..0.6, 0.0f64..10.0), 1..=5),
        1..=5,
    )
    .prop_map(|raw| {
        let classes = raw
            .into_iter()
            .map(|c| c.into_iter().map(|(w, p)| Item::new(w, p)).collect())
            .collect();
        MckpInstance::new(classes, 1.0).expect("generated instance is valid")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn exact_solvers_agree(inst in small_instance()) {
        let brute = BruteForceSolver::default().solve(&inst);
        let bb = BranchBoundSolver::new().solve(&inst);
        match (brute, bb) {
            (Ok(a), Ok(b)) => {
                let pa = inst.selection_profit(&a).unwrap();
                let pb = inst.selection_profit(&b).unwrap();
                prop_assert!((pa - pb).abs() < 1e-9, "brute {pa} vs bb {pb}");
                prop_assert!(inst.is_feasible(&a));
                prop_assert!(inst.is_feasible(&b));
            }
            (Err(SolveError::Infeasible), Err(SolveError::Infeasible)) => {}
            (x, y) => prop_assert!(false, "solver disagreement: {x:?} vs {y:?}"),
        }
    }

    #[test]
    fn dp_close_to_exact_and_feasible(inst in small_instance()) {
        let dp = DpSolver::default().solve(&inst);
        let brute = BruteForceSolver::default().solve(&inst);
        match (dp, brute) {
            (Ok(a), Ok(b)) => {
                let pa = inst.selection_profit(&a).unwrap();
                let pb = inst.selection_profit(&b).unwrap();
                prop_assert!(inst.is_feasible(&a));
                prop_assert!(pa <= pb + 1e-9, "dp {pa} beat exact {pb}");
                // The DP rounds weights up onto a grid of
                // `capacity / resolution` cells; a selection inflates by at
                // most one cell per class. Two sound bounds follow:
                let cell = inst.capacity() / DpSolver::DEFAULT_RESOLUTION as f64;
                let slack_cap = inst.capacity() - inst.num_classes() as f64 * cell;
                if inst.selection_weight(&b).unwrap() <= slack_cap {
                    // The true optimum survives round-up, so the DP must
                    // find it (it is exact on the rounded instance).
                    prop_assert!(pa >= pb - 1e-9, "dp {pa} lost reachable optimum {pb}");
                } else if let Ok(safe) = BruteForceSolver::default()
                    .solve(&MckpInstance::new(inst.classes().to_vec(), slack_cap).unwrap())
                {
                    // Razor-thin fit: the optimum may be rounded away, but
                    // every selection fitting with full rounding slack is
                    // still representable, so the DP must beat the best one.
                    let floor = inst.selection_profit(&safe).unwrap();
                    prop_assert!(pa >= floor - 1e-9, "dp {pa} below sound floor {floor}");
                }
            }
            (Err(SolveError::Infeasible), Err(SolveError::Infeasible)) => {}
            // DP may declare a razor-thin instance infeasible due to
            // round-up; accept only if the true fit is extremely tight.
            (Err(SolveError::Infeasible), Ok(b)) => {
                let w = inst.selection_weight(&inst.min_weight_selection()).unwrap();
                prop_assert!(w > 1.0 - 0.01, "dp infeasible but min weight {w}");
                let _ = b;
            }
            (x, y) => prop_assert!(false, "unexpected: {x:?} vs {y:?}"),
        }
    }

    #[test]
    fn heuristic_is_feasible_and_bounded(inst in small_instance()) {
        match HeuOeSolver::new().solve(&inst) {
            Ok(sel) => {
                prop_assert!(inst.is_feasible(&sel));
                let profit = inst.selection_profit(&sel).unwrap();
                let lp = lp_relaxation(&inst).expect("heuristic succeeded, LP must too");
                prop_assert!(profit <= lp.upper_bound + 1e-9);
                if let Ok(exact) = BruteForceSolver::default().solve(&inst) {
                    prop_assert!(profit <= inst.selection_profit(&exact).unwrap() + 1e-9);
                }
            }
            Err(SolveError::Infeasible) => {
                prop_assert!(!inst.has_feasible_selection());
            }
            Err(e) => prop_assert!(false, "unexpected error {e:?}"),
        }
    }

    #[test]
    fn greedy_never_beats_full_heu_oe(inst in small_instance()) {
        let greedy = HeuOeSolver::without_exchange().solve(&inst);
        let full = HeuOeSolver::new().solve(&inst);
        if let (Ok(g), Ok(f)) = (greedy, full) {
            prop_assert!(
                inst.selection_profit(&f).unwrap() >= inst.selection_profit(&g).unwrap() - 1e-12
            );
        }
    }

    #[test]
    fn infeasibility_is_consistent(inst in small_instance()) {
        let feasible = inst.has_feasible_selection();
        for solver in [
            &BruteForceSolver::default() as &dyn Solver,
            &BranchBoundSolver::new(),
            &HeuOeSolver::new(),
        ] {
            match solver.solve(&inst) {
                Ok(_) => prop_assert!(feasible, "{} solved infeasible instance", solver.name()),
                Err(SolveError::Infeasible) => {
                    prop_assert!(!feasible, "{} failed feasible instance", solver.name())
                }
                Err(e) => prop_assert!(false, "unexpected error {e:?}"),
            }
        }
    }
}
