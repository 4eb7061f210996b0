//! Property tests: the MCKP solvers agree where they must.
//!
//! * `brute` and `dp` are exact and must produce bit-identical profits on
//!   random small instances.
//! * `heu_oe` is heuristic: feasible and bounded by the exact optimum and
//!   the LP upper bound.

use proptest::prelude::*;
use rto_mckp::lp::lp_relaxation;
use rto_mckp::{BruteForceSolver, DpSolver, HeuOeSolver, Item, MckpInstance, SolveError, Solver};

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
        let dp = DpSolver::default().solve(&inst);
        match (brute, dp) {
            (Ok(a), Ok(b)) => {
                let pa = inst.selection_profit(&a).unwrap();
                let pb = inst.selection_profit(&b).unwrap();
                prop_assert_eq!(pa.to_bits(), pb.to_bits(), "brute {} vs dp {}", pa, pb);
                prop_assert!(inst.is_feasible(&a));
                prop_assert!(inst.is_feasible(&b));
            }
            (Err(SolveError::Infeasible), Err(SolveError::Infeasible)) => {}
            (x, y) => prop_assert!(false, "solver disagreement: {x:?} vs {y:?}"),
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
            &DpSolver::default(),
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
