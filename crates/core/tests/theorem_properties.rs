//! Property tests for the paper's theorems and the ODM invariants.
//!
//! * Theorem 1: the exact offloaded dbf never exceeds the linear bound
//!   `((C1+C2)/(D−R))·t`.
//! * Theorem 3 vs the exact processor-demand test: anything the density
//!   test accepts, the exact test accepts (the density test is
//!   sufficient).
//! * The proportional split always yields `C1 ≤ D1 ≤ D − R − C2`.
//! * Every ODM plan is Theorem-3 feasible, and the DP plan's benefit is
//!   at least the heuristic's.

use proptest::prelude::*;
use rto_core::analysis::{density_test, processor_demand_test, OffloadedTask};
use rto_core::benefit::BenefitFunction;
use rto_core::dbf::{dbf_offloaded, dbf_offloaded_bound_ns, OffloadedDemand};
use rto_core::deadline::{setup_deadline, SplitPolicy};
use rto_core::odm::{OdmTask, OffloadingDecisionManager};
use rto_core::task::Task;
use rto_core::time::Duration;
use rto_mckp::{DpSolver, HeuOeSolver, Solver};

fn ms(v: u64) -> Duration {
    Duration::from_ms(v)
}

/// An offloadable task: C1, C2 in [1, 20] ms, D = T in [50, 200] ms with
/// C1 + C2 <= D, and a response time R with C1 + C2 <= D - R.
fn offload_params() -> impl Strategy<Value = (u64, u64, u64, u64)> {
    (1u64..=20, 1u64..=20, 50u64..=200).prop_flat_map(|(c1, c2, d)| {
        let max_r = d - c1 - c2; // keep density <= 1
        (Just(c1), Just(c2), Just(d), 0u64..=max_r)
    })
}

fn make_task(id: usize, c1: u64, c2: u64, d: u64) -> Task {
    Task::builder(id, format!("t{id}"))
        .local_wcet(ms(c2.min(d)))
        .setup_wcet(ms(c1))
        .compensation_wcet(ms(c2))
        .period(ms(d))
        .build()
        .expect("generated parameters are valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn theorem1_bound_holds((c1, c2, d, r) in offload_params(), t_ms in 1u64..2000) {
        let task = make_task(0, c1, c2, d);
        let d1 = setup_deadline(&task, ms(r), SplitPolicy::Proportional).unwrap();
        let demand = OffloadedDemand {
            setup_wcet: ms(c1),
            compensation_wcet: ms(c2),
            response_time: ms(r),
            setup_deadline: d1,
            deadline: ms(d),
            period: ms(d),
        };
        let t = ms(t_ms);
        let exact = dbf_offloaded(&demand, t).as_ns() as f64;
        let bound = dbf_offloaded_bound_ns(&demand, t);
        // The floor-rounded D1 can inflate the staircase by < 1 ns worth
        // of density; tolerate a relative 1e-9 plus 2 ns absolute.
        prop_assert!(
            exact <= bound * (1.0 + 1e-9) + 2.0,
            "dbf {exact} exceeds Theorem-1 bound {bound} at t={t}"
        );
    }

    #[test]
    fn proportional_split_well_placed((c1, c2, d, r) in offload_params()) {
        let task = make_task(0, c1, c2, d);
        let d1 = setup_deadline(&task, ms(r), SplitPolicy::Proportional).unwrap();
        prop_assert!(d1 >= ms(c1), "D1 {d1} below setup WCET");
        // Completion window must fit the compensation WCET.
        let window = ms(d) - d1 - ms(r);
        prop_assert!(window >= ms(c2), "window {window} below compensation WCET");
    }

    #[test]
    fn acceptance_chain_theorem3_qpa_exact(
        (c1a, c2a, da, ra) in offload_params(),
        (c1b, c2b, db, rb) in offload_params(),
    ) {
        use rto_core::qpa::qpa_test;
        let a = make_task(0, c1a, c2a, da);
        let b = make_task(1, c1b, c2b, db);
        let off = [
            OffloadedTask::new(&a, ms(ra)),
            OffloadedTask::new(&b, ms(rb)),
        ];
        let t3 = density_test([], off).unwrap();
        let qpa = qpa_test([], off, SplitPolicy::Proportional).unwrap();
        let exact = processor_demand_test(
            [], off, SplitPolicy::Proportional, ms(4 * da.max(db)),
        )
        .unwrap();
        // Theorem 3 ⇒ QPA (two-staircase sum) ⇒ exact (max-of-alignments).
        if t3.schedulable {
            prop_assert!(qpa.schedulable, "Theorem 3 accepted but QPA rejected");
        }
        if qpa.schedulable {
            prop_assert!(exact.schedulable, "QPA accepted but the exact test rejected");
        }
    }

    #[test]
    fn density_test_is_sufficient_for_exact(
        (c1a, c2a, da, ra) in offload_params(),
        (c1b, c2b, db, rb) in offload_params(),
    ) {
        let a = make_task(0, c1a, c2a, da);
        let b = make_task(1, c1b, c2b, db);
        let off = [
            OffloadedTask::new(&a, ms(ra)),
            OffloadedTask::new(&b, ms(rb)),
        ];
        let density = density_test([], off).unwrap();
        if density.schedulable {
            let horizon = ms(4 * da.max(db));
            let exact =
                processor_demand_test([], off, SplitPolicy::Proportional, horizon).unwrap();
            prop_assert!(
                exact.schedulable,
                "Theorem 3 accepted (load {}) but exact test found violation at {:?}",
                density.load,
                exact.first_violation
            );
        }
    }

    /// Constrained deadlines: density acceptance still implies exact
    /// acceptance when local tasks have `D < T`.
    #[test]
    fn density_sound_for_constrained_deadlines(
        specs in prop::collection::vec((1u64..=30, 40u64..=100, 100u64..=400), 1..5),
    ) {
        let tasks: Vec<Task> = specs
            .iter()
            .enumerate()
            .filter(|(_, &(c, d, _))| c <= d)
            .map(|(i, &(c, d, t))| {
                Task::builder(i, format!("t{i}"))
                    .local_wcet(ms(c))
                    .period(ms(t.max(d)))
                    .deadline(ms(d))
                    .build()
                    .expect("filtered to valid parameters")
            })
            .collect();
        if tasks.is_empty() {
            return Ok(());
        }
        let refs: Vec<&Task> = tasks.iter().collect();
        let density = density_test(refs.iter().copied(), []).unwrap();
        if density.schedulable {
            let horizon = ms(4 * specs.iter().map(|&(_, _, t)| t).max().unwrap());
            let exact = processor_demand_test(
                refs.iter().copied(),
                [],
                SplitPolicy::Proportional,
                horizon,
            )
            .unwrap();
            prop_assert!(
                exact.schedulable,
                "density accepted a constrained-deadline system (load {}) the exact test rejects",
                density.load
            );
        }
    }

    #[test]
    fn odm_plans_always_feasible(
        specs in prop::collection::vec(offload_params(), 1..6),
        benefits in prop::collection::vec(1.0f64..100.0, 6),
    ) {
        // Build one ODM task per spec; benefit at the generated R.
        let mut odm_tasks = Vec::new();
        for (i, &(c1, c2, d, r)) in specs.iter().enumerate() {
            let task = make_task(i, c1, c2, d);
            let g = if r == 0 {
                BenefitFunction::from_ms_points(&[(0.0, 1.0)]).unwrap()
            } else {
                BenefitFunction::from_ms_points(&[(0.0, 1.0), (r as f64, benefits[i % benefits.len()])])
                    .unwrap()
            };
            odm_tasks.push(OdmTask::new(task, g));
        }
        let odm = OffloadingDecisionManager::new(odm_tasks).unwrap();
        for solver in [&DpSolver::default() as &dyn Solver, &HeuOeSolver::new()] {
            match odm.decide(solver) {
                Ok(plan) => {
                    prop_assert!(plan.total_density() <= 1.0 + 1e-9,
                        "{} plan density {}", solver.name(), plan.total_density());
                    prop_assert!(plan.total_benefit() >= 0.0);
                }
                Err(rto_core::CoreError::Unschedulable(_)) => {
                    // Only legitimate when all-local already overloads.
                    let util: f64 = specs
                        .iter()
                        .map(|&(_, c2, d, _)| c2.min(d) as f64 / d as f64)
                        .sum();
                    prop_assert!(util > 1.0 - 1e-9, "spurious Unschedulable at util {util}");
                }
                Err(e) => prop_assert!(false, "unexpected error: {e}"),
            }
        }
    }

    #[test]
    fn dp_at_least_as_good_as_heuristic(
        specs in prop::collection::vec(offload_params(), 1..6),
    ) {
        let mut odm_tasks = Vec::new();
        for (i, &(c1, c2, d, r)) in specs.iter().enumerate() {
            let task = make_task(i, c1, c2, d);
            let points = if r == 0 {
                vec![(0.0, 1.0)]
            } else {
                vec![(0.0, 1.0), (r as f64, 10.0 + i as f64)]
            };
            let g = BenefitFunction::from_ms_points(&points).unwrap();
            odm_tasks.push(OdmTask::new(task, g));
        }
        let odm = OffloadingDecisionManager::new(odm_tasks).unwrap();
        if let (Ok(dp), Ok(heu)) = (
            odm.decide(&DpSolver::default()),
            odm.decide(&HeuOeSolver::new()),
        ) {
            // The DP is exact on the real densities, so no feasible plan,
            // the heuristic's included, beats it: not even a razor-thin fit.
            prop_assert!(
                dp.total_benefit() >= heu.total_benefit(),
                "dp {} < heu {} (heu density {})",
                dp.total_benefit(),
                heu.total_benefit(),
                heu.total_density()
            );
        }
    }
}
