//! Byte-identity goldens for the JSON export of a short fixed-seed run.
//!
//! The fixtures were written by the original `Value`-tree serializer;
//! the streaming serializer must reproduce them byte for byte, through
//! `to_string` and `SimReport::write_json` (`to_writer`) alike.

use rto_core::benefit::BenefitFunction;
use rto_core::odm::{OdmTask, OffloadingDecisionManager, OffloadingPlan};
use rto_core::task::Task;
use rto_core::time::Duration;
use rto_mckp::DpSolver;
use rto_obs::{MetricsRegistry, NullSink, Obs};
use rto_server::Scenario;
use rto_sim::prelude::*;
use std::sync::Arc;

const GOLDEN_REPORT: &str = include_str!("golden_sim_report.json");
const GOLDEN_PLAN: &str = include_str!("golden_plan.json");

fn ms(v: u64) -> Duration {
    Duration::from_ms(v)
}

/// Two offloadable tasks on a contended server (so some results come
/// back in time and some are compensated) plus one local-only task.
fn system() -> (Vec<OdmTask>, OffloadingPlan) {
    let offloadable = |id: usize, c: u64, c1: u64, c2: u64, t: u64, r: f64| {
        let task = Task::builder(id, format!("off{id}"))
            .local_wcet(ms(c))
            .setup_wcet(ms(c1))
            .compensation_wcet(ms(c2))
            .period(ms(t))
            .build()
            .expect("valid task");
        let g = BenefitFunction::from_ms_points(&[(0.0, 1.0), (r, 6.0)]).expect("valid benefit");
        OdmTask::new(task, g)
    };
    let local = Task::builder(2, "local")
        .local_wcet(ms(10))
        .period(ms(100))
        .build()
        .expect("valid task");
    let tasks = vec![
        offloadable(0, 20, 4, 20, 200, 120.0),
        offloadable(1, 25, 5, 25, 250, 76.0),
        OdmTask::new(
            local,
            BenefitFunction::from_ms_points(&[(0.0, 1.0)]).expect("valid benefit"),
        ),
    ];
    let odm = OffloadingDecisionManager::new(tasks).expect("valid system");
    let plan = odm.decide(&DpSolver::default()).expect("feasible plan");
    (odm.tasks().to_vec(), plan)
}

fn report() -> SimReport {
    let (tasks, plan) = system();
    let server = Scenario::NotBusy.build_server(5).expect("server builds");
    Simulation::build(tasks, plan)
        .expect("simulation builds")
        .with_server(Box::new(server))
        .with_obs(Obs::new(Arc::new(NullSink), MetricsRegistry::new()))
        .run(
            SimConfig::for_seconds(1, 11)
                .with_exec_time(ExecutionTimeModel::UniformFraction { min_fraction: 0.5 }),
        )
        .expect("simulation runs")
}

#[test]
fn fixture_covers_every_job_path() {
    let report = report();
    let local: usize = report.per_task.iter().map(|t| t.local_jobs).sum();
    assert!(report.total_remote() > 0, "no remote jobs");
    assert!(report.total_compensated() > 0, "no compensated jobs");
    assert!(local > 0, "no local jobs");
    assert!(!report.metrics.is_empty(), "metrics snapshot is empty");
}

#[test]
fn sim_report_matches_golden_bytes() {
    let report = report();
    assert_eq!(serde_json::to_string(&report).unwrap(), GOLDEN_REPORT);
    let mut out = Vec::new();
    report.write_json(&mut out).unwrap();
    assert_eq!(String::from_utf8(out).unwrap(), GOLDEN_REPORT);
}

#[test]
fn sim_report_round_trips() {
    let report = report();
    let back: SimReport = serde_json::from_str(GOLDEN_REPORT).unwrap();
    assert_eq!(back, report);
}

#[test]
fn plan_matches_golden_bytes() {
    let (_, plan) = system();
    assert_eq!(serde_json::to_string_pretty(&plan).unwrap(), GOLDEN_PLAN);
    let back: OffloadingPlan = serde_json::from_str(GOLDEN_PLAN).unwrap();
    assert_eq!(back, plan);
}
