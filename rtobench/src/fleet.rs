//! `fleet_sim` — one ODM decision, then long simulations of a 100-task
//! offloaded fleet against contended servers, then report
//! serialisation.
//!
//! The server is a round-robin [`ServerFleet`] of `Scenario::NotBusy`
//! GPU servers; the task shapes and the request cost are sized so that a
//! large share of offloads fall back to compensation, which runs both
//! the remote-return path and the compensation-timer path of the engine.
//! The DP runs only in set-up. `audit_trace` / `audit_edf` are
//! O(segments × sub-jobs), so they run only on a short-horizon check
//! simulation in the untimed check batch.

use rto_core::benefit::{BenefitFunction, BenefitPoint};
use rto_core::odm::{OdmTask, OffloadingDecisionManager, OffloadingPlan};
use rto_core::task::Task;
use rto_core::time::Duration;
use rto_mckp::DpSolver;
use rto_server::{OffloadRequest, OffloadServer, Routing, Scenario, ServerFleet};
use rto_sim::{ExecutionTimeModel, SimConfig, SimReport, Simulation};
use rto_stats::Rng;

use crate::ledger::{Acc, Digest, Runner, SolverKind};
use crate::Workload;

/// Tasks in the fleet.
const TASKS: usize = 100;
/// Simulations per batch: several per worker, so the pool can even out
/// workers that run at different speeds.
const SIMS: usize = 4;
/// Simulated seconds per timed simulation.
const HORIZON_S: u64 = 100;
/// Simulated seconds of the audited check simulation.
const CHECK_HORIZON_S: u64 = 4;
/// `Scenario::NotBusy` servers behind the fleet.
const SERVERS: usize = 4;
/// GPU cost of one offloaded kernel relative to the nominal one.
const COMPUTE_SCALE: f64 = 0.16;
/// Offload levels: promised response time (ms) and value.
const LEVELS: [(f64, f64); 6] = [
    (15.0, 2.0),
    (25.0, 3.0),
    (40.0, 4.0),
    (60.0, 5.0),
    (90.0, 6.0),
    (130.0, 7.0),
];

pub struct Fleet {
    seed: u64,
    tasks: Vec<OdmTask>,
    plan: OffloadingPlan,
}

/// The fleet's tasks: a fixed multiset of periods (200 … 596 ms, so the
/// job count does not depend on the seed), dealt to tasks in seeded
/// order, with seeded WCETs.
fn fleet_tasks(seed: u64) -> Result<Vec<OdmTask>, rto_core::CoreError> {
    let mut rng = Rng::seed_from(seed);
    let mut periods: Vec<u64> = (0..TASKS as u64).map(|i| 200 + 4 * i).collect();
    for i in (1..periods.len()).rev() {
        let j = rng.u64_below(i as u64 + 1) as usize;
        periods.swap(i, j);
    }
    periods
        .into_iter()
        .enumerate()
        .map(|(i, period)| {
            let c = Duration::from_us(rng.u64_range(2_000, 4_000));
            let c1 = Duration::from_us(rng.u64_range(100, 300));
            let task = Task::builder(i, format!("fleet-{i}"))
                .local_wcet(c)
                .setup_wcet(c1)
                .compensation_wcet(c)
                .period(Duration::from_ms(period))
                .build()?;
            let mut points = vec![BenefitPoint::new(Duration::ZERO, 1.0)];
            for (r_ms, value) in LEVELS {
                points.push(BenefitPoint::new(Duration::from_ms_f64(r_ms)?, value));
            }
            Ok(OdmTask::new(task, BenefitFunction::new(points)?))
        })
        .collect()
}

/// Set-up: generates the fleet and makes its single ODM decision.
pub fn setup(seed: u64, acc: &mut Acc) -> Option<Fleet> {
    let tasks = acc.time("workloads.gen_ms", || fleet_tasks(seed));
    let tasks = acc.op("fleet generation", tasks)?;
    let odm = acc.time("core.odm.build_ms", || {
        OffloadingDecisionManager::new(tasks)
    });
    let odm = acc.op("odm build", odm)?;
    let dp = DpSolver::default();
    let plan = acc.decide(&odm, &dp, SolverKind::ExactDp(dp.resolution()))?;
    Some(Fleet {
        seed,
        tasks: odm.tasks().to_vec(),
        plan,
    })
}

impl Fleet {
    /// Builds the server fleet and the simulation, runs it, and records
    /// the engine's counts.
    fn simulate(&self, seed: u64, horizon_s: u64, acc: &mut Acc) -> Option<SimReport> {
        let built = acc.time("sim.build_ms", || {
            let members = (0..SERVERS as u64)
                .map(|m| {
                    Scenario::NotBusy
                        .build_server(rto_exp::derive_seed(seed, 1, m))
                        .map(|s| Box::new(s) as Box<dyn OffloadServer>)
                })
                .collect::<Result<Vec<_>, _>>()?;
            let server: Box<dyn OffloadServer> =
                Box::new(ServerFleet::new(members, Routing::RoundRobin));
            Ok::<_, Box<dyn std::error::Error>>(server)
        });
        let server = acc.op("server fleet", built)?;
        let sim = acc.time("sim.build_ms", || {
            Simulation::build(self.tasks.clone(), self.plan.clone())
        });
        let sim = acc.op("simulation build", sim)?;
        let (sim, tally) = crate::with_server(acc, sim, server);
        let sim = sim.with_request_shaper(Box::new(|task, _| {
            OffloadRequest::new(task.id().0).with_compute_scale(COMPUTE_SCALE)
        }));
        let config = SimConfig::for_seconds(horizon_s, seed)
            .with_exec_time(ExecutionTimeModel::UniformFraction { min_fraction: 0.5 });
        let report = crate::run_sim(acc, sim, config, tally)?;
        let misses = report.total_deadline_misses();
        acc.check(misses == 0, || {
            format!("fleet simulation missed {misses} deadlines")
        });
        Some(report)
    }

    fn trial(&self, seed: u64, acc: &mut Acc) -> String {
        let mut digest = Digest::default();
        let Some(report) = self.simulate(seed, HORIZON_S, acc) else {
            return digest.hex();
        };
        let bytes = acc.time("report.serialize_ms", || {
            let mut out = Vec::new();
            report.write_json(&mut out).map(|()| out)
        });
        if let Some(bytes) = acc.op("report serialisation", bytes) {
            acc.add("report.bytes", bytes.len() as f64);
            digest.word(bytes.len() as u64);
        }
        crate::digest_report(&mut digest, &report);
        digest.hex()
    }
}

impl Workload for Fleet {
    fn batch(&self, run: &Runner) -> u64 {
        let parts = run.matrix("fleet_sim", self.seed, SIMS, |_, seed, acc| {
            self.trial(seed, acc)
        });
        if run.audit {
            run.serial(|acc| {
                if let Some(report) = self.simulate(self.seed, CHECK_HORIZON_S, acc) {
                    crate::audit(acc, &report);
                }
            });
        }
        Digest::default().strs(&parts).value()
    }
}
