//! `admission_sweep` — the ablation in shape.
//!
//! UUniFast offloaded systems across loads go through the density
//! (Theorem 3), suspension-oblivious and processor-demand tests, the
//! last under all three split policies; then 20×8 solver-gap MCKP
//! instances are solved by the exact DP at 10⁵ cells (a 16 MB choice
//! table per solve), a 10³-cell DP, HEU-OE and greedy-only HEU. The
//! only caller of `core::analysis`, and a DP whose choice table does not
//! fit in cache.

use rto_core::analysis::{
    density_test, processor_demand_test, suspension_oblivious_test, OffloadedTask,
};
use rto_core::deadline::SplitPolicy;
use rto_core::task::Task;
use rto_core::time::Duration;
use rto_exp::derive_seed;
use rto_mckp::{DpSolver, HeuOeSolver, Item, MckpInstance, Selection};
use rto_stats::Rng;
use rto_workloads::random::uunifast_offloaded_system;

use crate::ledger::{Acc, Digest, Runner, SolverKind};
use crate::Workload;

/// Target Theorem-3 loads, 0.2 … 1.4.
const LOADS: std::ops::RangeInclusive<u32> = 2..=14;
/// Systems per load and batch.
const SYSTEMS_PER_LOAD: usize = 24;
/// Tasks per system.
const TASKS: usize = 8;
/// Processor-demand test horizon.
const DEMAND_HORIZON_S: u64 = 3;
/// Solver-gap instances per batch.
const GAP_INSTANCES: usize = 6;
/// Fine and coarse DP grids of the solver-gap study.
const FINE_CELLS: usize = 100_000;
const COARSE_CELLS: usize = 1_000;

type System = (Vec<Task>, Vec<Duration>);

pub struct Admission {
    seed: u64,
    systems: Vec<System>,
    gaps: Vec<MckpInstance>,
}

/// One 20-class, 8-item instance with increasing weights and profits.
fn gap_instance(rng: &mut Rng) -> Result<MckpInstance, rto_mckp::SolveError> {
    let classes: Vec<Vec<Item>> = (0..20)
        .map(|_| {
            let mut w = rng.f64() * 0.02;
            let mut p = rng.f64();
            (0..8)
                .map(|_| {
                    w += rng.f64() * 0.02;
                    p += rng.f64();
                    Item::new(w, p)
                })
                .collect()
        })
        .collect();
    MckpInstance::new(classes, 1.0)
}

/// Set-up: generates the batch's systems and solver-gap instances.
pub fn setup(seed: u64, acc: &mut Acc) -> Option<Admission> {
    let systems = acc.time("workloads.gen_ms", || {
        LOADS
            .flat_map(|l| (0..SYSTEMS_PER_LOAD).map(move |k| (l, k)))
            .map(|(l, k)| {
                let mut rng = Rng::seed_from(derive_seed(seed, u64::from(l), k as u64));
                uunifast_offloaded_system(TASKS, f64::from(l) / 10.0, &mut rng)
                    .into_iter()
                    .unzip()
            })
            .collect()
    });
    let gaps = acc.time("workloads.gen_ms", || {
        (0..GAP_INSTANCES)
            .map(|k| gap_instance(&mut Rng::seed_from(derive_seed(seed, 1 << 20, k as u64))))
            .collect::<Result<Vec<_>, _>>()
    });
    let gaps = acc.op("solver-gap instance", gaps)?;
    Some(Admission {
        seed,
        systems,
        gaps,
    })
}

fn verdict(acc: &mut Acc, what: &str, r: Result<bool, rto_core::CoreError>) -> bool {
    acc.add("core.analysis.tests", 1.0);
    acc.op(what, r).unwrap_or(false)
}

impl Admission {
    fn system_trial(&self, i: usize, acc: &mut Acc) -> String {
        let (tasks, responses) = &self.systems[i];
        let entries: Vec<OffloadedTask<'_>> = tasks
            .iter()
            .zip(responses)
            .map(|(t, &r)| OffloadedTask::new(t, r))
            .collect();
        let horizon = Duration::from_secs(DEMAND_HORIZON_S);
        let e = entries.iter().copied();
        let thm3 = acc.time("core.analysis.density_ms", || {
            density_test([], e.clone()).map(|r| r.schedulable)
        });
        let thm3 = verdict(acc, "density test", thm3);
        let naive = acc.time("core.analysis.susp_obl_ms", || {
            suspension_oblivious_test([], e.clone()).map(|r| r.schedulable)
        });
        let naive = verdict(acc, "suspension-oblivious test", naive);
        let mut digest = Digest::default();
        digest.word(u64::from(thm3)).word(u64::from(naive));
        let mut exact = Vec::with_capacity(3);
        for policy in [
            SplitPolicy::Proportional,
            SplitPolicy::EqualSlack,
            SplitPolicy::SetupAll,
        ] {
            let r = acc.time("core.analysis.demand_ms", || {
                processor_demand_test([], e.clone(), policy, horizon)
                    .map(|r| (r.schedulable, r.peak_demand_ratio))
            });
            acc.add("core.analysis.tests", 1.0);
            if let Some((ok, peak)) = acc.op("processor-demand test", r) {
                digest.word(u64::from(ok)).f64(peak);
                exact.push(ok);
            }
        }
        if let Some(&proportional) = exact.first() {
            acc.check(!naive || thm3, || {
                format!("system {i}: suspension-oblivious accepts what Theorem 3 rejects")
            });
            acc.check(!thm3 || proportional, || {
                format!("system {i}: Theorem 3 accepts what the exact test rejects")
            });
        }
        digest.hex()
    }

    fn gap_trial(&self, k: usize, acc: &mut Acc) -> String {
        let inst = &self.gaps[k];
        let profit = |sel: &Selection| inst.selection_profit(sel).unwrap_or(f64::NAN);
        let mut digest = Digest::default();
        let Some(best) = acc.solve(
            inst,
            &DpSolver::with_resolution(FINE_CELLS),
            SolverKind::ExactDp(FINE_CELLS),
        ) else {
            return digest.hex();
        };
        let best = profit(&best);
        digest.f64(best);
        let others = [
            (
                "heu-oe",
                acc.solve(inst, &HeuOeSolver::new(), SolverKind::Heu),
            ),
            (
                "greedy",
                acc.solve(inst, &HeuOeSolver::without_exchange(), SolverKind::Heu),
            ),
            (
                "coarse dp",
                acc.solve(
                    inst,
                    &DpSolver::with_resolution(COARSE_CELLS),
                    SolverKind::CoarseDp(COARSE_CELLS),
                ),
            ),
        ];
        for (name, sel) in others {
            let Some(sel) = sel else { continue };
            let p = profit(&sel);
            if name == "heu-oe" {
                acc.add("_heu_profit", p);
                acc.add("_dp_profit", best);
            }
            digest.f64(p);
            let weights = (0..inst.num_classes()).filter_map(|c| inst.chosen(&sel, c).ok());
            acc.check_dp_dominates(best, p, weights.map(|item| item.weight), FINE_CELLS, || {
                format!("gap instance {k}: {name} profit {p} beats the fine DP {best} on its grid")
            });
        }
        digest.hex()
    }
}

impl Workload for Admission {
    fn batch(&self, run: &Runner) -> u64 {
        let systems = run.matrix(
            "admission_tests",
            self.seed,
            self.systems.len(),
            |i, _, acc| self.system_trial(i, acc),
        );
        let gaps = run.matrix("admission_gaps", self.seed, self.gaps.len(), |k, _, acc| {
            self.gap_trial(k, acc)
        });
        Digest::default().strs(&systems).strs(&gaps).value()
    }
}
