//! Cross-crate integration tests: the full pipeline through the facade
//! crate — estimator → benefit function → ODM → plan → simulation →
//! audits — plus consistency checks between the analysis layer and the
//! simulator.

use rto::core::analysis::{density_test, processor_demand_test, OffloadedTask};
use rto::core::deadline::SplitPolicy;
use rto::core::odm::{Decision, OdmTask, OffloadingDecisionManager};
use rto::core::prelude::*;
use rto::mckp::{BruteForceSolver, DpSolver, HeuOeSolver};
use rto::server::gpu::{OffloadRequest, PerfectServer};
use rto::server::{Scenario, ServerProxy};
use rto::sim::prelude::*;
use rto::stats::Rng;
use rto::workloads::case_study::{case_study_system, shape_request};
use rto::workloads::random::{random_system, RandomSystemParams};

fn ms(v: u64) -> Duration {
    Duration::from_ms(v)
}

/// Measure → estimate → decide → simulate: the full §3 architecture.
#[test]
fn estimator_to_simulation_pipeline() {
    // 1. Measure the server through the proxy (the §6.1.2 campaign).
    let server = Scenario::Idle.build_server(21).expect("preset valid");
    let mut proxy = ServerProxy::new(server);
    let request = OffloadRequest::new(0).with_compute_scale(1.5);
    let report = proxy.measure(&request, 300, Instant::ZERO, ms(500));
    assert_eq!(report.total(), 300);

    // 2. Build the benefit function from the measured quantiles:
    //    probability levels 25%..100%.
    let estimator = report.to_estimator().expect("some probes completed");
    let benefit = estimator
        .benefit_function(0.0, &[0.25, 0.5, 0.75, 0.95])
        .expect("grid is valid");
    assert_eq!(benefit.local_value(), 0.0);

    // 3. Decide.
    let task = Task::builder(0, "measured-kernel")
        .local_wcet(ms(40))
        .setup_wcet(ms(4))
        .compensation_wcet(ms(40))
        .period(ms(400))
        .build()
        .expect("valid task");
    let odm = OffloadingDecisionManager::new(vec![OdmTask::new(task, benefit)]).expect("one task");
    let plan = odm.decide(&DpSolver::default()).expect("feasible");
    assert_eq!(
        plan.num_offloaded(),
        1,
        "an idle server should attract offloading"
    );

    // 4. Simulate against the same scenario and verify the realized
    //    success rate roughly matches the promised probability level.
    let level_prob = match plan.decisions()[0].decision {
        Decision::Offload { level, .. } => odm.tasks()[0].benefit().points()[level].value,
        Decision::Local => unreachable!("asserted offloaded"),
    };
    let sim_server = Scenario::Idle.build_server(22).expect("preset valid");
    let sim = Simulation::build(odm.tasks().to_vec(), plan)
        .expect("plan covers tasks")
        .with_server(Box::new(sim_server))
        .with_request_shaper(Box::new(move |t, _| {
            OffloadRequest::new(t.id().0).with_compute_scale(1.5)
        }))
        .run(SimConfig::for_seconds(60, 23))
        .expect("valid config");
    assert_eq!(sim.total_deadline_misses(), 0);
    let success = sim.per_task[0]
        .remote_success_rate()
        .expect("offloaded jobs exist");
    assert!(
        (success - level_prob).abs() < 0.25,
        "promised {level_prob:.2} vs realized {success:.2}"
    );
}

/// The plan's reported density must equal what the analysis layer
/// computes from the same decisions, and the exact test must accept it.
#[test]
fn plan_is_consistent_with_analysis() {
    let odm = OffloadingDecisionManager::new(case_study_system([2.0, 4.0, 1.0, 3.0]))
        .expect("case study valid");
    let plan = odm.decide(&DpSolver::default()).expect("feasible");

    let locals: Vec<&Task> = odm
        .tasks()
        .iter()
        .zip(plan.decisions())
        .filter(|(_, d)| !d.decision.is_offload())
        .map(|(t, _)| t.task())
        .collect();
    let offloaded: Vec<OffloadedTask<'_>> = odm
        .tasks()
        .iter()
        .zip(plan.decisions())
        .filter_map(|(t, d)| match d.decision {
            Decision::Offload {
                response_time,
                setup_wcet,
                compensation_wcet,
                ..
            } => Some(OffloadedTask {
                task: t.task(),
                response_time,
                setup_wcet: Some(setup_wcet),
                compensation_wcet: Some(compensation_wcet),
            }),
            Decision::Local => None,
        })
        .collect();

    let density =
        density_test(locals.iter().copied(), offloaded.iter().copied()).expect("valid entries");
    assert!((density.load - plan.total_density()).abs() < 1e-9);
    assert!(density.schedulable);

    let exact = processor_demand_test(
        locals.iter().copied(),
        offloaded.iter().copied(),
        SplitPolicy::Proportional,
        Duration::from_secs(20),
    )
    .expect("valid entries");
    assert!(exact.schedulable, "exact test contradicts Theorem 3");
}

/// Realized benefit can never exceed the planned benefit (success gives
/// the level value; every failure mode gives less), and with a perfect
/// fast server it reaches the plan exactly.
#[test]
fn realized_benefit_bounded_by_plan() {
    let odm = OffloadingDecisionManager::new(case_study_system([1.0, 2.0, 3.0, 4.0]))
        .expect("case study valid");
    let plan = odm.decide(&DpSolver::default()).expect("feasible");
    // Planned benefit per hyperperiod-second: scale to jobs: each
    // accountable job realizes at most its level value.
    for scenario in Scenario::ALL {
        let report = Simulation::build(odm.tasks().to_vec(), plan.clone())
            .expect("plan covers tasks")
            .with_server(Box::new(scenario.build_server(31).expect("preset")))
            .with_request_shaper(Box::new(shape_request))
            .run(SimConfig::for_seconds(10, 31))
            .expect("valid config");
        for (t, stats) in odm.tasks().iter().zip(&report.per_task) {
            let best = t
                .benefit()
                .points()
                .last()
                .expect("non-empty benefit")
                .value
                * t.weight();
            assert!(
                stats.realized_benefit <= best * stats.accountable as f64 + 1e-9,
                "task {} realized more than its maximum",
                t.task().name()
            );
        }
    }
    // Perfect instant server: every offloaded job succeeds, so realized
    // equals planned scaled by job count.
    let report = Simulation::build(odm.tasks().to_vec(), plan.clone())
        .expect("plan covers tasks")
        .with_server(Box::new(PerfectServer {
            response_time: Duration::ZERO,
        }))
        .run(SimConfig::for_seconds(10, 32))
        .expect("valid config");
    assert_eq!(report.total_compensated(), 0);
    assert_eq!(report.total_deadline_misses(), 0);
}

/// All three solvers produce feasible plans on the §6.2 systems, with
/// the exact DP ≥ HEU-OE in planned benefit and DP = brute force.
///
/// Brute force enumerates every selection, so its leg runs on 6-task
/// systems with 4 probability levels (5⁶ selections); the DP and the
/// heuristic run the paper-sized ones.
#[test]
fn solvers_agree_on_random_systems() {
    for seed in 0..5u64 {
        let tasks = random_system(&RandomSystemParams::default(), &mut Rng::seed_from(seed));
        let odm = OffloadingDecisionManager::new(tasks).expect("valid tasks");
        let dp = odm.decide(&DpSolver::default()).expect("feasible");
        let heu = odm.decide(&HeuOeSolver::new()).expect("feasible");
        // The DP is exact on the real densities: no feasible plan beats it.
        assert!(dp.total_benefit() >= heu.total_benefit());
        assert!(dp.total_density() <= 1.0);
        assert!(heu.total_density() <= 1.0 + 1e-9);

        let small_params = RandomSystemParams {
            num_tasks: 6,
            probability_levels: 4,
            ..Default::default()
        };
        let small = random_system(&small_params, &mut Rng::seed_from(seed + 100));
        let odm = OffloadingDecisionManager::new(small).expect("valid tasks");
        let dp = odm.decide(&DpSolver::default()).expect("feasible");
        let brute = odm.decide(&BruteForceSolver::default()).expect("feasible");
        assert_eq!(
            dp.total_benefit().to_bits(),
            brute.total_benefit().to_bits()
        );
        assert!(dp.total_density() <= 1.0);
    }
}

/// The §3 server-bound extension end to end: a reservation-backed server
/// (`BoundedServer`) lets the ODM budget only post-processing, freeing
/// capacity — and the simulator confirms every response arrives in time.
/// Trusting a bound the server does not honor, however, is dangerous:
/// the same plan against a black hole can miss deadlines.
#[test]
fn server_bound_extension_end_to_end() {
    use rto::server::gpu::BoundedServer;

    let t = Task::builder(0, "bounded")
        .local_wcet(ms(40))
        .setup_wcet(ms(10))
        .compensation_wcet(ms(100))
        .postprocess_wcet(ms(5))
        .period(ms(200))
        .build()
        .expect("valid task");
    let heavy = Task::builder(1, "heavy-local")
        .local_wcet(ms(120))
        .period(ms(200))
        .build()
        .expect("valid task");
    let g = rto::core::benefit::BenefitFunction::from_ms_points(&[(0.0, 1.0), (50.0, 10.0)])
        .expect("valid benefit");
    let g_local =
        rto::core::benefit::BenefitFunction::from_ms_points(&[(0.0, 1.0)]).expect("valid");
    let odm = OffloadingDecisionManager::new(vec![
        OdmTask::new(t, g).with_server_bound(ms(40)),
        OdmTask::new(heavy, g_local),
    ])
    .expect("valid tasks");
    let plan = odm.decide(&DpSolver::default()).expect("feasible");
    assert_eq!(
        plan.num_offloaded(),
        1,
        "the bound should make offloading affordable"
    );

    // Honest server: inner model clamped to the promised 40 ms bound.
    let inner = Scenario::Busy.build_server(51).expect("preset");
    let report = Simulation::build(odm.tasks().to_vec(), plan.clone())
        .expect("plan covers tasks")
        .with_server(Box::new(BoundedServer::new(inner, ms(40))))
        .run(SimConfig::for_seconds(10, 51))
        .expect("valid config");
    assert_eq!(report.total_deadline_misses(), 0);
    assert_eq!(
        report.total_compensated(),
        0,
        "bounded server never times out"
    );
    assert!(report.total_remote() > 0);

    // Dishonest bound: the server vanishes; the timer fires and the REAL
    // 100 ms compensation runs, which the plan never budgeted for — the
    // heavy local partner then loses capacity. This documents why the
    // extension must only be used with genuinely reserved servers.
    let outage = Simulation::build(odm.tasks().to_vec(), plan)
        .expect("plan covers tasks")
        .run(SimConfig::for_seconds(10, 52))
        .expect("valid config");
    assert!(
        outage.total_deadline_misses() > 0,
        "a violated bound must surface as misses, not silence"
    );
}

/// Schedules audited across the facade: run a busy-server case study and
/// audit the trace and the EDF property.
#[test]
fn facade_schedule_audits_clean() {
    let odm = OffloadingDecisionManager::new(case_study_system([3.0, 1.0, 4.0, 2.0]))
        .expect("case study valid");
    let plan = odm.decide(&HeuOeSolver::new()).expect("feasible");
    let report = Simulation::build(odm.tasks().to_vec(), plan)
        .expect("plan covers tasks")
        .with_server(Box::new(Scenario::Busy.build_server(17).expect("preset")))
        .with_request_shaper(Box::new(shape_request))
        .run(
            SimConfig::for_seconds(8, 17)
                .with_exec_time(ExecutionTimeModel::UniformFraction { min_fraction: 0.4 }),
        )
        .expect("valid config");
    assert_eq!(report.total_deadline_misses(), 0);
    let trace = audit_trace(&report);
    assert!(trace.is_empty(), "{trace:?}");
    let edf = audit_edf(&report);
    assert!(edf.is_empty(), "{edf:?}");
}
