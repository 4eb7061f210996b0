//! Quality ablations for the design choices DESIGN.md calls out:
//!
//! 1. **Schedulability-test acceptance** — the paper's Theorem 3 versus
//!    the suspension-oblivious baseline (naive EDF analysis) versus the
//!    exact processor-demand test, as a function of target load: the
//!    classic acceptance-ratio sweep. Theorem 3 must dominate the naive
//!    test and be dominated by the exact test.
//! 2. **Deadline-split policy** — the proportional split versus
//!    equal-slack and all-slack-to-setup, measured as exact-test
//!    acceptance over random offloaded systems.
//! 3. **Solver optimality** — HEU-OE (with and without the exchange
//!    pass), relative to the exact DP optimum.

use rto_core::analysis::{
    density_test, processor_demand_test, suspension_oblivious_test, OffloadedTask,
};
use rto_core::deadline::SplitPolicy;
use rto_core::task::Task;
use rto_core::time::Duration;
use rto_exp::{f64_from_hex, f64_hex, run_matrix, ExpOptions, MatrixSpec, TrialData};
use rto_mckp::{DpSolver, HeuOeSolver, Item, MckpInstance, Solver};
use rto_stats::Rng;
use rto_workloads::random::uunifast_offloaded_system;
use serde::{Deserialize, Serialize};

/// One random system judged by three accept/reject verdicts — the trial
/// payload shared by the acceptance and split-policy sweeps (the three
/// bits mean different tests per sweep).
#[derive(Debug, Clone, Copy, PartialEq)]
struct VerdictTrial {
    a: bool,
    b: bool,
    c: bool,
}

impl TrialData for VerdictTrial {
    fn encode(&self) -> String {
        format!(
            "{}{}{}",
            u8::from(self.a),
            u8::from(self.b),
            u8::from(self.c)
        )
    }
    fn decode(s: &str) -> Option<Self> {
        let bytes = s.as_bytes();
        if bytes.len() != 3 || !bytes.iter().all(|b| matches!(b, b'0' | b'1')) {
            return None;
        }
        Some(VerdictTrial {
            a: bytes[0] == b'1',
            b: bytes[1] == b'1',
            c: bytes[2] == b'1',
        })
    }
}

/// A random offloaded system with UUniFast-distributed densities summing
/// to the target Theorem-3 load.
fn random_offloaded_system(
    n: usize,
    target_load: f64,
    rng: &mut Rng,
) -> (Vec<Task>, Vec<Duration>) {
    uunifast_offloaded_system(n, target_load, rng)
        .into_iter()
        .unzip()
}

/// One acceptance-ratio data point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AcceptanceRow {
    /// Target Theorem-3 load the systems were generated at.
    pub target_load: f64,
    /// Fraction accepted by Theorem 3.
    pub theorem3: f64,
    /// Fraction accepted by the suspension-oblivious (naive) test.
    pub suspension_oblivious: f64,
    /// Fraction accepted by the exact processor-demand test
    /// (proportional split).
    pub exact: f64,
}

/// Sweeps the acceptance ratio of the three schedulability tests.
pub fn acceptance_sweep(seed: u64, systems_per_point: usize) -> Vec<AcceptanceRow> {
    acceptance_sweep_with(seed, systems_per_point, &ExpOptions::default())
}

/// [`acceptance_sweep`] on the experiment engine: each `(load, system)`
/// cell draws its own seed stream, so the rows are independent of
/// `opts.jobs` (the serial version threaded one `Rng` through every
/// system in sequence, which no parallel schedule could reproduce).
pub fn acceptance_sweep_with(
    seed: u64,
    systems_per_point: usize,
    opts: &ExpOptions,
) -> Vec<AcceptanceRow> {
    let loads: Vec<f64> = (2..=13).map(|k| k as f64 / 10.0).collect();
    let spec = MatrixSpec {
        name: "ablation-acceptance".into(),
        fingerprint: "acceptance-v1\u{1f}n=8".into(),
        base_seed: seed,
        point_keys: loads
            .iter()
            .map(|&l| format!("load={}", f64_hex(l)))
            .collect(),
        trials_per_point: systems_per_point,
    };
    let matrix = run_matrix(&spec, opts, |ctx| {
        let mut rng = Rng::seed_from(ctx.seed);
        let (tasks, responses) = random_offloaded_system(8, loads[ctx.point], &mut rng);
        let entries: Vec<OffloadedTask<'_>> = tasks
            .iter()
            .zip(&responses)
            .map(|(t, &r)| OffloadedTask::new(t, r))
            .collect();
        VerdictTrial {
            a: density_test([], entries.iter().copied())
                .map(|r| r.schedulable)
                .unwrap_or(false),
            b: suspension_oblivious_test([], entries.iter().copied())
                .map(|r| r.schedulable)
                .unwrap_or(false),
            c: processor_demand_test(
                [],
                entries.iter().copied(),
                SplitPolicy::Proportional,
                Duration::from_secs(3),
            )
            .map(|r| r.schedulable)
            .unwrap_or(false),
        }
    });
    loads
        .iter()
        .zip(&matrix.points)
        .map(|(&target, trials)| {
            let f = |x: usize| x as f64 / systems_per_point as f64;
            AcceptanceRow {
                target_load: target,
                theorem3: f(trials.iter().filter(|t| t.a).count()),
                suspension_oblivious: f(trials.iter().filter(|t| t.b).count()),
                exact: f(trials.iter().filter(|t| t.c).count()),
            }
        })
        .collect()
}

/// One split-policy data point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SplitPolicyRow {
    /// Target load.
    pub target_load: f64,
    /// Exact-test acceptance with the proportional split.
    pub proportional: f64,
    /// Exact-test acceptance with the equal-slack split.
    pub equal_slack: f64,
    /// Exact-test acceptance with the all-slack-to-setup split.
    pub setup_all: f64,
}

/// Sweeps exact-test acceptance per deadline-split policy.
pub fn split_policy_sweep(seed: u64, systems_per_point: usize) -> Vec<SplitPolicyRow> {
    split_policy_sweep_with(seed, systems_per_point, &ExpOptions::default())
}

/// [`split_policy_sweep`] on the experiment engine (same per-cell seed
/// streams as [`acceptance_sweep_with`]).
pub fn split_policy_sweep_with(
    seed: u64,
    systems_per_point: usize,
    opts: &ExpOptions,
) -> Vec<SplitPolicyRow> {
    let loads: Vec<f64> = (6..=14).map(|k| k as f64 / 10.0).collect();
    let spec = MatrixSpec {
        name: "ablation-split".into(),
        fingerprint: "split-v1\u{1f}n=8".into(),
        base_seed: seed,
        point_keys: loads
            .iter()
            .map(|&l| format!("load={}", f64_hex(l)))
            .collect(),
        trials_per_point: systems_per_point,
    };
    let matrix = run_matrix(&spec, opts, |ctx| {
        let mut rng = Rng::seed_from(ctx.seed);
        let (tasks, responses) = random_offloaded_system(8, loads[ctx.point], &mut rng);
        let entries: Vec<OffloadedTask<'_>> = tasks
            .iter()
            .zip(&responses)
            .map(|(t, &r)| OffloadedTask::new(t, r))
            .collect();
        let accepted = |policy: SplitPolicy| {
            processor_demand_test([], entries.iter().copied(), policy, Duration::from_secs(3))
                .map(|r| r.schedulable)
                .unwrap_or(false)
        };
        VerdictTrial {
            a: accepted(SplitPolicy::Proportional),
            b: accepted(SplitPolicy::EqualSlack),
            c: accepted(SplitPolicy::SetupAll),
        }
    });
    loads
        .iter()
        .zip(&matrix.points)
        .map(|(&target, trials)| {
            let f = |x: usize| x as f64 / systems_per_point as f64;
            SplitPolicyRow {
                target_load: target,
                proportional: f(trials.iter().filter(|t| t.a).count()),
                equal_slack: f(trials.iter().filter(|t| t.b).count()),
                setup_all: f(trials.iter().filter(|t| t.c).count()),
            }
        })
        .collect()
}

/// Solver-quality summary over random MCKP instances.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SolverGapRow {
    /// Mean profit of HEU-OE relative to the exact DP.
    pub heu_oe: f64,
    /// Mean profit of greedy-only HEU relative to the exact DP.
    pub greedy_only: f64,
    /// Number of instances evaluated.
    pub instances: usize,
}

/// One solver-gap trial: the two optimality ratios of one instance.
#[derive(Debug, Clone, Copy, PartialEq)]
struct GapTrial {
    heu: f64,
    greedy: f64,
}

impl TrialData for GapTrial {
    fn encode(&self) -> String {
        format!("{} {}", f64_hex(self.heu), f64_hex(self.greedy))
    }
    fn decode(s: &str) -> Option<Self> {
        let mut parts = s.split(' ');
        let heu = f64_from_hex(parts.next()?)?;
        let greedy = f64_from_hex(parts.next()?)?;
        if parts.next().is_some() {
            return None;
        }
        Some(GapTrial { heu, greedy })
    }
}

/// Measures mean optimality ratios over `instances` random instances.
pub fn solver_gaps(seed: u64, instances: usize) -> SolverGapRow {
    solver_gaps_with(seed, instances, &ExpOptions::default())
}

/// [`solver_gaps`] on the experiment engine: one trial per instance,
/// each drawing from its own seed stream. A degenerate draw (DP error
/// or zero optimum) redraws *within its own stream* until it finds a
/// usable instance, so trials stay independent of each other and of the
/// job count.
pub fn solver_gaps_with(seed: u64, instances: usize, opts: &ExpOptions) -> SolverGapRow {
    let spec = MatrixSpec {
        name: "ablation-solver-gaps".into(),
        fingerprint: "solver-gaps-v2\u{1f}classes=20x8".into(),
        base_seed: seed,
        point_keys: vec!["gaps".into()],
        trials_per_point: instances,
    };
    let matrix = run_matrix(&spec, opts, |ctx| {
        let exact = DpSolver::default();
        let heu = HeuOeSolver::new();
        let greedy = HeuOeSolver::without_exchange();
        let mut rng = Rng::seed_from(ctx.seed);
        loop {
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
            let inst = MckpInstance::new(classes, 1.0).expect("valid");
            let Ok(best) = exact.solve(&inst) else {
                continue;
            };
            let best_profit = inst.selection_profit(&best).unwrap_or(0.0);
            if best_profit <= 0.0 {
                continue;
            }
            let ratio =
                |sel: &rto_mckp::Selection| inst.selection_profit(sel).unwrap_or(0.0) / best_profit;
            return GapTrial {
                heu: ratio(&heu.solve(&inst).expect("feasible")),
                greedy: ratio(&greedy.solve(&inst).expect("feasible")),
            };
        }
    });
    let trials: Vec<&GapTrial> = matrix.points.iter().flatten().collect();
    let counted = trials.len();
    let mean = |f: fn(&GapTrial) -> f64| {
        if counted == 0 {
            0.0
        } else {
            trials.iter().map(|t| f(t)).sum::<f64>() / counted as f64
        }
    };
    SolverGapRow {
        heu_oe: mean(|t| t.heu),
        greedy_only: mean(|t| t.greedy),
        instances: counted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acceptance_ordering_naive_le_thm3_le_exact() {
        let rows = acceptance_sweep(5, 40);
        for r in &rows {
            assert!(
                r.suspension_oblivious <= r.theorem3 + 1e-9,
                "naive beat Theorem 3 at load {}",
                r.target_load
            );
            assert!(
                r.theorem3 <= r.exact + 1e-9,
                "Theorem 3 beat the exact test at load {}",
                r.target_load
            );
        }
        // Low load: everything accepted; high load: Theorem 3 rejects.
        assert!(rows[0].theorem3 > 0.95);
        assert!(rows.last().unwrap().theorem3 < 0.2);
        // The sweep must show a real gap somewhere.
        assert!(rows
            .iter()
            .any(|r| r.theorem3 > r.suspension_oblivious + 0.2));
    }

    #[test]
    fn proportional_split_dominates() {
        let rows = split_policy_sweep(6, 30);
        let mean =
            |f: fn(&SplitPolicyRow) -> f64| rows.iter().map(f).sum::<f64>() / rows.len() as f64;
        let prop = mean(|r| r.proportional);
        let eq = mean(|r| r.equal_slack);
        let setup = mean(|r| r.setup_all);
        assert!(prop >= eq - 1e-9, "proportional {prop} < equal-slack {eq}");
        assert!(
            prop >= setup - 1e-9,
            "proportional {prop} < setup-all {setup}"
        );
    }

    #[test]
    fn solver_gaps_are_small_and_ordered() {
        let gaps = solver_gaps(7, 20);
        assert_eq!(gaps.instances, 20);
        assert!(gaps.heu_oe > 0.9, "HEU-OE ratio {}", gaps.heu_oe);
        assert!(gaps.heu_oe >= gaps.greedy_only - 1e-9);
        assert!(gaps.heu_oe <= 1.0 + 1e-9);
    }
}
