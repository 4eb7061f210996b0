//! `estimation_sweep` — Figure 3 in shape.
//!
//! §6.2 30-task systems, each decided at nine estimation distortions
//! `x ∈ {−0.4, …, +0.4}` with the exact DP and with HEU-OE on the *same*
//! distorted instance, plus the `x = 0` DP normaliser, then valued
//! against the true `G_i`. The DP at 10⁴ cells is nearly all of the
//! host time; the engine does nothing here.

use rto_core::odm::{OdmTask, OffloadingDecisionManager, OffloadingPlan};
use rto_exp::{derive_seed, f64_hex};
use rto_mckp::{DpSolver, HeuOeSolver};
use rto_stats::Rng;
use rto_workloads::random::{random_system, RandomSystemParams};

use crate::ledger::{Acc, Digest, Runner, SolverKind};
use crate::Workload;

/// Random systems per batch.
const SYSTEMS: usize = 4;

/// The paper's x-axis.
const RATIOS: [f64; 9] = [-0.4, -0.3, -0.2, -0.1, 0.0, 0.1, 0.2, 0.3, 0.4];

pub struct Estimation {
    seed: u64,
    systems: Vec<Vec<OdmTask>>,
}

/// Set-up: generates the batch's random systems.
pub fn setup(seed: u64, acc: &mut Acc) -> Estimation {
    let params = RandomSystemParams::default();
    let systems = acc.time("workloads.gen_ms", || {
        (0..SYSTEMS)
            .map(|i| random_system(&params, &mut Rng::seed_from(derive_seed(seed, 0, i as u64))))
            .collect()
    });
    Estimation { seed, systems }
}

/// Distorts every benefit function by `ratio` and builds the ODM the
/// estimator would see.
fn distorted_odm(
    truth: &[OdmTask],
    ratio: f64,
    acc: &mut Acc,
) -> Option<OffloadingDecisionManager> {
    let distorted = acc.time("core.benefit.distort_ms", || {
        truth
            .iter()
            .map(|t| {
                t.benefit()
                    .distort(ratio)
                    .map(|g| OdmTask::new(t.task().clone(), g).with_weight(t.weight()))
            })
            .collect::<Result<Vec<_>, _>>()
    });
    let distorted = acc.op("distort", distorted)?;
    let odm = acc.time("core.odm.build_ms", || {
        OffloadingDecisionManager::new(distorted)
    });
    acc.op("odm build", odm)
}

/// Values a plan against the true benefit functions.
fn value(plan: &OffloadingPlan, truth: &[OdmTask], acc: &mut Acc) -> Option<f64> {
    let v = acc.time("core.odm.evaluate_ms", || plan.evaluate_against(truth));
    acc.op("evaluate", v)
}

impl Estimation {
    /// The `x = 0` DP value of system `i`: Figure 3's per-system
    /// normaliser.
    fn normaliser(&self, i: usize, acc: &mut Acc) -> Option<f64> {
        let dp = DpSolver::default();
        let truth = &self.systems[i];
        let odm = distorted_odm(truth, 0.0, acc)?;
        let plan = acc.decide(&odm, &dp, SolverKind::ExactDp(dp.resolution()))?;
        value(&plan, truth, acc)
    }

    /// System `i` decided at distortion `ratio` by the DP and by HEU-OE,
    /// both plans valued against the true benefit functions.
    fn trial(&self, i: usize, ratio: f64, acc: &mut Acc) -> String {
        let dp = DpSolver::default();
        let heu = HeuOeSolver::new();
        let truth = &self.systems[i];
        let mut digest = Digest::default();
        let Some(odm) = distorted_odm(truth, ratio, acc) else {
            return digest.hex();
        };
        let dp_plan = acc.decide(&odm, &dp, SolverKind::ExactDp(dp.resolution()));
        let heu_plan = acc.decide(&odm, &heu, SolverKind::Heu);
        if let (Some(d), Some(h)) = (&dp_plan, &heu_plan) {
            acc.add("_heu_profit", h.total_benefit());
            acc.add("_dp_profit", d.total_benefit());
            acc.check_dp_dominates(
                d.total_benefit(),
                h.total_benefit(),
                h.decisions().iter().map(|e| e.density),
                dp.resolution(),
                || {
                    format!(
                        "system {i} x={ratio}: HEU-OE profit {} beats DP {} on the DP's grid",
                        h.total_benefit(),
                        d.total_benefit()
                    )
                },
            );
        }
        for plan in [dp_plan, heu_plan].iter().flatten() {
            if let Some(v) = value(plan, truth, acc) {
                digest.f64(v);
            }
        }
        digest.hex()
    }
}

impl Workload for Estimation {
    /// One pool phase of small (system, step) trials, which keeps both
    /// workers busy: step 0 is the `x = 0` normaliser, the rest are the
    /// distortions. Degenerate draws are not dropped, so a solver that
    /// returns worthless plans still meets the DP ≥ HEU-OE check.
    fn batch(&self, run: &Runner) -> u64 {
        let steps = RATIOS.len() + 1;
        let n = self.systems.len() * steps;
        let parts = run.matrix("estimation_sweep", self.seed, n, |k, _, acc| {
            let (i, step) = (k / steps, k % steps);
            match step.checked_sub(1) {
                None => self.normaliser(i, acc).map_or_else(String::new, f64_hex),
                Some(r) => self.trial(i, RATIOS[r], acc),
            }
        });
        Digest::default().strs(&parts).value()
    }
}
