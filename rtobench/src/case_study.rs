//! `case_study` — §6.1 end to end.
//!
//! Each batch regenerates Table 1 (synthetic frames, generated in
//! set-up → degrade → PSNR; proxy measurement campaigns against the idle
//! server → estimator p90), turns it into benefit functions, and for each
//! of the 24 weight permutations × 3 server scenarios decides the plan
//! with the exact DP and simulates it with shaped requests. The only path
//! through `workloads::imaging`, `server::proxy` and `core::estimator`;
//! the simulations are small enough to audit in the check batch.

use rto_core::benefit::{BenefitFunction, BenefitPoint};
use rto_core::odm::{OdmTask, OffloadingDecisionManager, OffloadingPlan};
use rto_core::task::Task;
use rto_core::time::{Duration, Instant};
use rto_exp::{f64_from_hex, f64_hex};
use rto_mckp::DpSolver;
use rto_server::{Scenario, ServerProxy};
use rto_sim::{SimConfig, Simulation};
use rto_stats::Rng;
use rto_workloads::case_study::{
    case_study_tasks, shape_request, table1, weight_permutations, FRAME_HEIGHT, FRAME_WIDTH,
    NUM_TASKS, SCALE_FACTORS,
};
use rto_workloads::imaging::{psnr, synthetic_scene, Image};

use crate::ledger::{Acc, Digest, Runner, SolverKind};
use crate::Workload;

/// Synthetic frames per task for the quality estimate.
const FRAMES: usize = 6;
/// Probes per offloadable level for the timing estimate.
const PROBES: usize = 200;
/// Probe spacing: far apart, so probes do not queue behind each other.
const PROBE_SPACING_S: u64 = 2;
/// The "coarse-grained statistic" the paper estimates response times by.
const QUANTILE: f64 = 0.9;
/// Simulated seconds per (weight set, scenario).
const HORIZON_S: u64 = 10;

pub struct CaseStudy {
    seed: u64,
    tasks: Vec<Task>,
    /// Synthetic camera frames, per task.
    frames: Vec<Vec<Image>>,
    weights: Vec<[f64; 4]>,
    /// Per-level setup WCETs of the shipped Table 1, per task.
    setup_wcets: Vec<Vec<Duration>>,
}

/// Set-up: the case-study task set, its synthetic camera frames, the
/// weight permutations and the per-level setup costs.
pub fn setup(seed: u64, acc: &mut Acc) -> Option<CaseStudy> {
    let (tasks, weights, shipped) = acc.time("workloads.gen_ms", || {
        (case_study_tasks(), weight_permutations(), table1())
    });
    let frames = acc.time("workloads.gen_ms", || {
        (0..NUM_TASKS as u64)
            .map(|t| {
                let mut rng = Rng::seed_from(rto_exp::derive_seed(seed, 2, t));
                (0..FRAMES)
                    .map(|_| synthetic_scene(FRAME_WIDTH, FRAME_HEIGHT, &mut rng))
                    .collect()
            })
            .collect()
    });
    let setup_wcets = shipped
        .iter()
        .map(|g| {
            g.points()
                .iter()
                .map(|p| p.setup_wcet.unwrap_or(Duration::ZERO))
                .collect()
        })
        .collect();
    acc.check(tasks.len() == NUM_TASKS && weights.len() == 24, || {
        "case-study inputs have the wrong shape".to_owned()
    })
    .then_some(CaseStudy {
        seed,
        tasks,
        frames,
        weights,
        setup_wcets,
    })
}

impl CaseStudy {
    /// Table 1 quality of one (task, level): mean PSNR of the degraded
    /// frames against the originals.
    fn quality_trial(&self, task_idx: usize, level: usize, acc: &mut Acc) -> String {
        let frames = &self.frames[task_idx];
        let f = SCALE_FACTORS[level];
        let psnr_db = acc.time("workloads.imaging_ms", || {
            frames
                .iter()
                .map(|frame| psnr(frame, &frame.degrade(f)))
                .sum::<f64>()
                / frames.len() as f64
        });
        f64_hex(psnr_db)
    }

    /// Table 1 timing of one (task, offloadable level): a proxy
    /// measurement campaign against a fresh idle server, then the
    /// estimator's p90 in ms.
    fn timing_trial(&self, task_idx: usize, level: usize, seed: u64, acc: &mut Acc) -> String {
        let request = shape_request(&self.tasks[task_idx], level);
        let report = acc.time("server.proxy.measure_ms", || {
            let server = Scenario::Idle.build_server(seed)?;
            Ok::<_, rto_server::ServerError>(ServerProxy::new(server).measure(
                &request,
                PROBES,
                Instant::ZERO,
                Duration::from_secs(PROBE_SPACING_S),
            ))
        });
        let Some(report) = acc.op("proxy campaign", report) else {
            return String::new();
        };
        let p90 = acc.time("core.estimator.quantile_ms", || {
            report
                .to_estimator()
                .map(|est| est.quantile(QUANTILE).as_ms_f64())
        });
        acc.op("response-time estimate", p90)
            .map_or_else(String::new, f64_hex)
    }

    /// Table 1 → benefit functions (the §6.1.2 workflow): the local point
    /// carries level 0's PSNR, each offloadable level sits at its
    /// measured p90 with its PSNR as the value.
    fn benefits(
        &self,
        psnr_db: &[String],
        p90_ms: &[String],
    ) -> Result<Vec<BenefitFunction>, String> {
        let levels = SCALE_FACTORS.len();
        let num = |s: &String| f64_from_hex(s).ok_or("missing Table 1 entry");
        (0..NUM_TASKS)
            .map(|i| {
                let mut points = vec![BenefitPoint::new(
                    Duration::ZERO,
                    num(&psnr_db[i * levels])?,
                )];
                for level in 1..levels {
                    let ms = num(&p90_ms[i * (levels - 1) + level - 1])?;
                    points.push(BenefitPoint::with_costs(
                        Duration::from_ms_f64(ms).map_err(|e| e.to_string())?,
                        num(&psnr_db[i * levels + level])?,
                        self.setup_wcets[i][level],
                        self.tasks[i].local_wcet(),
                    ));
                }
                BenefitFunction::new(points).map_err(|e| e.to_string())
            })
            .collect()
    }

    fn plan(
        &self,
        benefits: &[BenefitFunction],
        w: [f64; 4],
        acc: &mut Acc,
    ) -> Option<(OffloadingDecisionManager, OffloadingPlan)> {
        let odm = acc.time("core.odm.build_ms", || {
            let tasks = self
                .tasks
                .iter()
                .zip(benefits)
                .zip(w)
                .map(|((t, g), w)| OdmTask::new(t.clone(), g.clone()).with_weight(w))
                .collect();
            OffloadingDecisionManager::new(tasks)
        });
        let odm = acc.op("odm build", odm)?;
        let dp = DpSolver::default();
        let plan = acc.decide(&odm, &dp, SolverKind::ExactDp(dp.resolution()))?;
        Some((odm, plan))
    }

    /// One (weight set, scenario) point: decide the plan with the exact
    /// DP, then simulate it against the scenario's server.
    fn sim_trial(
        &self,
        benefits: &[BenefitFunction],
        i: usize,
        seed: u64,
        audit: bool,
        acc: &mut Acc,
    ) -> String {
        let mut digest = Digest::default();
        let Some((odm, plan)) = self.plan(benefits, self.weights[i / Scenario::ALL.len()], acc)
        else {
            return digest.hex();
        };
        digest.f64(plan.total_benefit());
        let scenario = Scenario::ALL[i % Scenario::ALL.len()];
        let mut digest = Digest::default();
        let sim = acc.time("sim.build_ms", || {
            let server = scenario.build_server(seed).map_err(|e| e.to_string())?;
            let sim =
                Simulation::build(odm.tasks().to_vec(), plan.clone()).map_err(|e| e.to_string())?;
            Ok::<_, String>((sim, Box::new(server)))
        });
        let Some((sim, server)) = acc.op("case-study simulation build", sim) else {
            return digest.hex();
        };
        let (sim, tally) = crate::with_server(acc, sim, server);
        let sim = sim.with_request_shaper(Box::new(shape_request));
        let Some(report) = crate::run_sim(acc, sim, SimConfig::for_seconds(HORIZON_S, seed), tally)
        else {
            return digest.hex();
        };
        let misses = report.total_deadline_misses();
        acc.check(misses == 0, || {
            format!("case study {i} ({scenario}) missed {misses} deadlines")
        });
        if audit {
            crate::audit(acc, &report);
        }
        digest.f64(report.normalized_benefit());
        crate::digest_report(&mut digest, &report);
        digest.hex()
    }
}

impl Workload for CaseStudy {
    fn batch(&self, run: &Runner) -> u64 {
        let levels = SCALE_FACTORS.len();
        let psnr_db = run.matrix(
            "case_study_quality",
            self.seed,
            NUM_TASKS * levels,
            |k, _, acc| self.quality_trial(k / levels, k % levels, acc),
        );
        let p90_ms = run.matrix(
            "case_study_timing",
            self.seed,
            NUM_TASKS * (levels - 1),
            |k, seed, acc| self.timing_trial(k / (levels - 1), k % (levels - 1) + 1, seed, acc),
        );
        let benefits =
            run.serial(|acc| acc.op("benefit functions", self.benefits(&psnr_db, &p90_ms)));
        let Some(benefits) = benefits else {
            return Digest::default().value();
        };
        let n = self.weights.len() * Scenario::ALL.len();
        let sims = run.matrix("case_study_sims", self.seed, n, |i, seed, acc| {
            self.sim_trial(&benefits, i, seed, run.audit, acc)
        });
        Digest::default()
            .strs(&psnr_db)
            .strs(&p90_ms)
            .strs(&sims)
            .value()
    }
}
