//! The Offloading Decision Manager (paper §3.3, §5.2).
//!
//! Given every task's benefit function, the ODM decides which tasks to
//! offload and which estimated worst-case response time `R_i` to promise,
//! maximizing total benefit subject to the Theorem-3 schedulability test.
//! The reduction to the multiple-choice knapsack problem is Eq. (5) of the
//! paper:
//!
//! * one **class** per task;
//! * the class's first item is *local execution*: weight `C_i/T_i`,
//!   profit `G_i(0)`;
//! * every offloading level `j > 1` is an item with weight
//!   `(C^j_{i,1}+C^j_{i,2})/(D_i − r_{i,j})` and profit `G_i(r_{i,j})`;
//! * capacity 1.
//!
//! Any [`rto_mckp::Solver`] can be plugged in; the paper evaluates the
//! exact DP and the HEU-OE heuristic.

use crate::analysis::{density_test, OffloadedTask};
use crate::benefit::{BenefitFunction, BenefitPoint};
use crate::deadline::{setup_deadline_with_costs, SplitPolicy};
use crate::error::CoreError;
use crate::task::{Task, TaskId};
use crate::time::Duration;
use rto_mckp::{Item, MckpInstance, Solver};
use serde::{Deserialize, Serialize};

/// A task together with its benefit function and importance weight, as fed
/// to the ODM.
#[derive(Debug, Clone, PartialEq)]
pub struct OdmTask {
    task: Task,
    benefit: BenefitFunction,
    weight: f64,
    server_bound: Option<Duration>,
}

impl OdmTask {
    /// Pairs a task with its benefit function (importance weight 1).
    pub fn new(task: Task, benefit: BenefitFunction) -> Self {
        OdmTask {
            task,
            benefit,
            weight: 1.0,
            server_bound: None,
        }
    }

    /// Sets the importance weight `w_i` (the case study uses 1–4): all
    /// benefit values of this task are multiplied by it.
    pub fn with_weight(mut self, weight: f64) -> Self {
        self.weight = weight;
        self
    }

    /// Declares a pessimistic worst-case response bound for this task's
    /// server (§3's extension): any offloading level whose `r_{i,j}` is
    /// at or beyond the bound is *guaranteed* to receive its result in
    /// time, so its completion budget is the post-processing `C_{i,3}`
    /// instead of the compensation `C_{i,2}` — usually a much lighter
    /// density contribution. Pair with a server that actually honors the
    /// bound (e.g. `rto_server::gpu::BoundedServer`).
    pub fn with_server_bound(mut self, bound: Duration) -> Self {
        self.server_bound = Some(bound);
        self
    }

    /// The declared server response bound, if any.
    pub fn server_bound(&self) -> Option<Duration> {
        self.server_bound
    }

    /// The underlying task.
    pub fn task(&self) -> &Task {
        &self.task
    }

    /// The benefit function.
    pub fn benefit(&self) -> &BenefitFunction {
        &self.benefit
    }

    /// The importance weight.
    pub fn weight(&self) -> f64 {
        self.weight
    }
}

/// What the plan says about one task.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Decision {
    /// Execute locally; no offloading.
    Local,
    /// Offload with the given parameters.
    Offload {
        /// Index into the task's benefit points (≥ 1).
        level: usize,
        /// The promised worst-case response time `R_i`; the compensation
        /// timer fires this long after the setup sub-job completes.
        response_time: Duration,
        /// The setup sub-job's relative deadline `D_{i,1}`.
        setup_deadline: Duration,
        /// Effective `C_{i,1}` at this level.
        setup_wcet: Duration,
        /// The budgeted completion WCET at this level: `C_{i,2}` for a
        /// normal level, `C_{i,3}` for a guaranteed one.
        compensation_wcet: Duration,
        /// Whether this level sits at or beyond the task's declared
        /// server bound (completion is then always post-processing).
        guaranteed: bool,
    },
}

impl Decision {
    /// Whether this is an offloading decision.
    pub fn is_offload(&self) -> bool {
        matches!(self, Decision::Offload { .. })
    }
}

/// The plan entry for one task.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TaskDecision {
    /// Which task this entry is about.
    pub task_id: TaskId,
    /// Local or offload (with parameters).
    pub decision: Decision,
    /// This entry's density contribution to the Theorem-3 sum.
    pub density: f64,
    /// This entry's (weighted) planned benefit.
    pub benefit: f64,
}

/// A complete, Theorem-3-feasible offloading plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OffloadingPlan {
    decisions: Vec<TaskDecision>,
    total_density: f64,
    total_benefit: f64,
}

impl OffloadingPlan {
    /// Per-task decisions, in ODM task order.
    pub fn decisions(&self) -> &[TaskDecision] {
        &self.decisions
    }

    /// Looks up the decision for a task.
    pub fn get(&self, id: TaskId) -> Option<&TaskDecision> {
        self.decisions.iter().find(|d| d.task_id == id)
    }

    /// The Theorem-3 left-hand side of this plan: the chosen densities
    /// summed in task order, which is the weight the MCKP solver held to
    /// the capacity of 1.
    pub fn total_density(&self) -> f64 {
        self.total_density
    }

    /// The total planned (weighted) benefit `Σ G_i(R_i)`.
    pub fn total_benefit(&self) -> f64 {
        self.total_benefit
    }

    /// How many tasks the plan offloads.
    pub fn num_offloaded(&self) -> usize {
        self.decisions
            .iter()
            .filter(|d| d.decision.is_offload())
            .count()
    }

    /// Re-evaluates this plan against a (possibly different) set of
    /// benefit functions — the Figure-3 workflow: decisions are made on
    /// *distorted* estimates, then valued with the *true* functions.
    ///
    /// Each offloaded task contributes `G_true(R̂_i) · w_i` where `R̂_i`
    /// is the response time the plan enforces (the distorted value); each
    /// local task contributes `G_true(0) · w_i`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidTask`] if a planned task is missing
    /// from `tasks`.
    pub fn evaluate_against(&self, tasks: &[OdmTask]) -> Result<f64, CoreError> {
        let mut total = 0.0;
        for entry in &self.decisions {
            let t = tasks
                .iter()
                .find(|t| t.task().id() == entry.task_id)
                .ok_or_else(|| {
                    CoreError::InvalidTask(format!("task {} not provided", entry.task_id))
                })?;
            let value = match entry.decision {
                Decision::Local => t.benefit().local_value(),
                Decision::Offload { response_time, .. } => t.benefit().eval(response_time),
            };
            total += value * t.weight();
        }
        Ok(total)
    }
}

/// The Offloading Decision Manager.
///
/// See the [crate-level example](crate) for usage.
#[derive(Debug, Clone)]
pub struct OffloadingDecisionManager {
    tasks: Vec<OdmTask>,
    policy: SplitPolicy,
}

/// Sentinel weight given to MCKP items that can never be selected (level
/// not offloadable); anything above the capacity of 1 works.
const UNSELECTABLE: f64 = 2.0;

impl OffloadingDecisionManager {
    /// Creates an ODM over the given tasks (proportional split policy).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidTask`] when `tasks` is empty or task
    /// ids collide, and [`CoreError::InvalidBenefit`] when an importance
    /// weight is invalid.
    pub fn new(tasks: Vec<OdmTask>) -> Result<Self, CoreError> {
        if tasks.is_empty() {
            return Err(CoreError::InvalidTask("ODM needs at least one task".into()));
        }
        let mut seen = std::collections::HashSet::new();
        for t in &tasks {
            if !seen.insert(t.task.id()) {
                return Err(CoreError::InvalidTask(format!(
                    "duplicate task id {}",
                    t.task.id()
                )));
            }
            if !t.weight.is_finite() || t.weight < 0.0 {
                return Err(CoreError::InvalidBenefit(format!(
                    "importance weight {} of {} invalid",
                    t.weight,
                    t.task.id()
                )));
            }
        }
        Ok(OffloadingDecisionManager {
            tasks,
            policy: SplitPolicy::Proportional,
        })
    }

    /// Overrides the deadline-split policy (default: the paper's
    /// proportional split).
    pub fn with_policy(mut self, policy: SplitPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The managed tasks.
    pub fn tasks(&self) -> &[OdmTask] {
        &self.tasks
    }

    /// Effective per-level costs for task `t` at benefit point `point`.
    fn level_costs(t: &OdmTask, point: &BenefitPoint) -> (Duration, Duration) {
        (
            point.setup_wcet.unwrap_or_else(|| t.task.setup_wcet()),
            point
                .compensation_wcet
                .unwrap_or_else(|| t.task.compensation_wcet()),
        )
    }

    /// Whether benefit point `point` of task `t` is covered by a declared
    /// server response bound (§3 extension).
    fn is_guaranteed(t: &OdmTask, point: &BenefitPoint) -> bool {
        match t.server_bound {
            Some(bound) => point.response_time >= bound,
            None => false,
        }
    }

    /// The `(setup, completion-budget)` pair actually charged for benefit
    /// point `point`: `(C1, C2)` normally, `(C1, C3)` when the level is
    /// guaranteed by a server bound.
    fn effective_costs(t: &OdmTask, point: &BenefitPoint) -> (Duration, Duration) {
        let (c1, c2) = Self::level_costs(t, point);
        if Self::is_guaranteed(t, point) {
            (c1, t.task.postprocess_wcet())
        } else {
            (c1, c2)
        }
    }

    /// Builds the Eq.-(5) MCKP instance.
    ///
    /// Levels that cannot be offloaded (zero setup WCET, `r ≥ D_i`, or
    /// per-task density above 1) become unselectable items so that index
    /// `j` in each class always corresponds to benefit point `j`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Solver`] only if instance assembly fails,
    /// which validated inputs cannot trigger.
    pub fn build_instance(&self) -> Result<MckpInstance, CoreError> {
        let mut classes = Vec::with_capacity(self.tasks.len());
        for t in &self.tasks {
            let mut class = Vec::with_capacity(t.benefit.num_levels());
            // j = 0: local execution. Charged at density C_i/D_i —
            // identical to the paper's C_i/T_i for implicit deadlines,
            // sound for the constrained-deadline extension.
            class.push(Item::new(
                t.task.local_density(),
                t.benefit.local_value() * t.weight,
            ));
            for point in t.benefit.offload_points() {
                let (c1, completion) = Self::effective_costs(t, point);
                let weight = match t.task.deadline().checked_sub(point.response_time) {
                    Some(slack)
                        if !slack.is_zero() && !c1.is_zero() && c1 + completion <= slack =>
                    {
                        (c1 + completion).ratio(slack)
                    }
                    _ => UNSELECTABLE,
                };
                class.push(Item::new(weight, point.value * t.weight));
            }
            classes.push(class);
        }
        MckpInstance::new(classes, 1.0).map_err(CoreError::from)
    }

    /// Runs the full decision procedure with the given MCKP solver.
    ///
    /// # Errors
    ///
    /// * [`CoreError::Unschedulable`] when not even the all-local plan
    ///   passes Theorem 3 (the MCKP is infeasible);
    /// * [`CoreError::Solver`] for other solver failures.
    pub fn decide(&self, solver: &dyn Solver) -> Result<OffloadingPlan, CoreError> {
        let instance = self.build_instance()?;
        let selection = match solver.solve(&instance) {
            Ok(s) => s,
            Err(rto_mckp::SolveError::Infeasible) => {
                return Err(CoreError::Unschedulable(format!(
                    "total local utilization {:.4} exceeds 1; no plan exists",
                    self.tasks
                        .iter()
                        .map(|t| t.task.local_density())
                        .sum::<f64>()
                )))
            }
            Err(e) => return Err(e.into()),
        };

        let mut decisions = Vec::with_capacity(self.tasks.len());
        // Both totals fold in task order from 0.0, as
        // `MckpInstance::selection_weight`/`selection_profit` do, so the
        // plan's density is bit for bit the weight the solver checked
        // against the capacity.
        let mut total_density = 0.0;
        let mut total_benefit = 0.0;
        for (i, t) in self.tasks.iter().enumerate() {
            let level = selection.choices().get(i).copied().ok_or_else(|| {
                CoreError::Solver(rto_mckp::SolveError::BadInstance(format!(
                    "solver selection covers no class {i}"
                )))
            })?;
            let item = instance.chosen(&selection, i)?;
            let decision = if level == 0 {
                Decision::Local
            } else {
                let point = t.benefit.points().get(level).ok_or_else(|| {
                    CoreError::Solver(rto_mckp::SolveError::BadInstance(format!(
                        "task {}: solver chose level {level} beyond {} benefit points",
                        t.task.id(),
                        t.benefit.num_levels()
                    )))
                })?;
                let guaranteed = Self::is_guaranteed(t, point);
                let (c1, completion) = Self::effective_costs(t, point);
                let d1 = if completion.is_zero() {
                    // Guaranteed level with zero post-processing: the
                    // completion sub-job is instantaneous, so the setup
                    // sub-job gets the entire slack.
                    t.task.deadline() - point.response_time
                } else {
                    setup_deadline_with_costs(
                        t.task.deadline(),
                        c1,
                        completion,
                        point.response_time,
                        self.policy,
                    )?
                };
                Decision::Offload {
                    level,
                    response_time: point.response_time,
                    setup_deadline: d1,
                    setup_wcet: c1,
                    compensation_wcet: completion,
                    guaranteed,
                }
            };
            total_density += item.weight;
            total_benefit += item.profit;
            decisions.push(TaskDecision {
                task_id: t.task.id(),
                decision,
                density: item.weight,
                benefit: item.profit,
            });
        }

        // Cross-check the plan against Theorem 3 directly (belt and
        // braces: the knapsack capacity already enforces it). The test
        // sums locals first, so near an exact fill its load may differ
        // from `total_density` in the last bits; it only guards.
        let locals: Vec<&Task> = self
            .tasks
            .iter()
            .zip(&decisions)
            .filter(|(_, d)| !d.decision.is_offload())
            .map(|(t, _)| &t.task)
            .collect();
        let offloaded: Vec<OffloadedTask<'_>> = self
            .tasks
            .iter()
            .zip(&decisions)
            .filter_map(|(t, d)| match d.decision {
                Decision::Offload {
                    response_time,
                    setup_wcet,
                    compensation_wcet,
                    ..
                } => Some(OffloadedTask {
                    task: &t.task,
                    response_time,
                    setup_wcet: Some(setup_wcet),
                    compensation_wcet: Some(compensation_wcet),
                }),
                Decision::Local => None,
            })
            .collect();
        let check = density_test(locals, offloaded)?;
        if !check.schedulable {
            return Err(CoreError::Unschedulable(format!(
                "internal inconsistency: selected plan has density {:.6}",
                check.load
            )));
        }

        Ok(OffloadingPlan {
            decisions,
            total_density,
            total_benefit,
        })
    }

    /// Like [`OffloadingDecisionManager::decide`], but records the
    /// decision into an observability context: an
    /// [`rto_obs::TraceEvent::OdmDecisionChosen`] trace event carrying
    /// the solver name and the capacity the plan uses (Theorem-3
    /// density, in parts per million of the unit budget), plus an
    /// `odm_decide_ns` latency histogram and an `odm_decisions_total`
    /// counter in the metrics registry.
    ///
    /// The trace event is stamped at `ts_ns = 0`: planning happens
    /// before simulated time starts.
    ///
    /// # Errors
    ///
    /// Exactly as [`OffloadingDecisionManager::decide`] (failed
    /// decisions increment `odm_decide_errors_total` instead of
    /// emitting an event).
    pub fn decide_observed(
        &self,
        solver: &dyn Solver,
        obs: &rto_obs::Obs,
    ) -> Result<OffloadingPlan, CoreError> {
        // Wall-clock reads live in rto-obs (lint L5): the latency below
        // is observational only and never influences the plan.
        let sw = rto_obs::Stopwatch::start();
        let result = self.decide(solver);
        let latency_ns = sw.elapsed_ns();
        let metrics = obs.metrics();
        metrics.histogram("odm_decide_ns").record(latency_ns);
        match &result {
            Ok(plan) => {
                metrics.counter("odm_decisions_total").inc();
                obs.emit_in(
                    0,
                    rto_obs::span::odm_ctx(),
                    rto_obs::TraceEvent::OdmDecisionChosen {
                        solver: solver.name(),
                        offloaded: plan.num_offloaded(),
                        total_tasks: plan.decisions().len(),
                        capacity_used_ppm: (plan.total_density().clamp(0.0, 1.0) * 1e6).round()
                            as u64,
                        latency_ns,
                    },
                );
            }
            Err(_) => metrics.counter("odm_decide_errors_total").inc(),
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rto_mckp::{BruteForceSolver, DpSolver, HeuOeSolver};

    fn ms(v: u64) -> Duration {
        Duration::from_ms(v)
    }

    fn task(id: usize, c: u64, c1: u64, c2: u64, t: u64) -> Task {
        Task::builder(id, format!("t{id}"))
            .local_wcet(ms(c))
            .setup_wcet(ms(c1))
            .compensation_wcet(ms(c2))
            .period(ms(t))
            .build()
            .unwrap()
    }

    fn benefit(points: &[(f64, f64)]) -> BenefitFunction {
        BenefitFunction::from_ms_points(points).unwrap()
    }

    #[test]
    fn single_beneficial_offload() {
        // Local: utilization 0.278, benefit 10. Offloaded with R=100ms:
        // (5+278)/(1000-100) = 0.314, benefit 40. Offloading wins.
        let t = task(0, 278, 5, 278, 1000);
        let g = benefit(&[(0.0, 10.0), (100.0, 40.0)]);
        let odm = OffloadingDecisionManager::new(vec![OdmTask::new(t, g)]).unwrap();
        let plan = odm.decide(&DpSolver::default()).unwrap();
        assert_eq!(plan.num_offloaded(), 1);
        assert!((plan.total_benefit() - 40.0).abs() < 1e-9);
        assert!(plan.total_density() <= 1.0);
        match plan.decisions()[0].decision {
            Decision::Offload {
                level,
                response_time,
                setup_deadline,
                setup_wcet,
                compensation_wcet,
                guaranteed,
            } => {
                assert_eq!(level, 1);
                assert_eq!(response_time, ms(100));
                assert_eq!(setup_wcet, ms(5));
                assert_eq!(compensation_wcet, ms(278));
                // D1 = 5 * 900 / 283 = 15.901... ms
                let expect = ms(900).mul_div_floor(ms(5).as_ns(), ms(283).as_ns());
                assert_eq!(setup_deadline, expect);
                assert!(!guaranteed);
            }
            Decision::Local => panic!("expected offload"),
        }
    }

    #[test]
    fn offload_skipped_when_capacity_tight() {
        // Two heavy tasks: offloading both would exceed density 1; the
        // solver must pick the better one.
        let t1 = task(1, 100, 30, 100, 200); // local 0.5; offload R=50: 130/150 = 0.867
        let t2 = task(2, 80, 30, 80, 200); // local 0.4; offload R=50: 110/150 = 0.733
        let g1 = benefit(&[(0.0, 1.0), (50.0, 50.0)]);
        let g2 = benefit(&[(0.0, 1.0), (50.0, 10.0)]);
        let odm = OffloadingDecisionManager::new(vec![OdmTask::new(t1, g1), OdmTask::new(t2, g2)])
            .unwrap();
        let plan = odm.decide(&DpSolver::default()).unwrap();
        // Offload task 1 (benefit 50), keep task 2 local: 0.867+0.4 > 1?
        // 1.267 > 1 -> infeasible. Local t1 + offload t2: 0.5+0.733=1.233 no.
        // Both local: 0.9 -> feasible, benefit 2. Offload t1 alone needs
        // t2 local: infeasible. So both local is the only plan.
        assert_eq!(plan.num_offloaded(), 0);
        assert!((plan.total_benefit() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn chooses_highest_feasible_level() {
        let t = task(0, 100, 10, 100, 1000);
        let g = benefit(&[(0.0, 1.0), (100.0, 5.0), (400.0, 8.0), (900.0, 9.0)]);
        // Level 3 (r=900): slack 100 < C1+C2=110 -> unselectable.
        // Level 2 (r=400): 110/600 = 0.183, benefit 8. Best.
        let odm = OffloadingDecisionManager::new(vec![OdmTask::new(t, g)]).unwrap();
        let plan = odm.decide(&DpSolver::default()).unwrap();
        match plan.decisions()[0].decision {
            Decision::Offload { level, .. } => assert_eq!(level, 2),
            Decision::Local => panic!("expected offload"),
        }
    }

    #[test]
    fn non_offloadable_task_stays_local() {
        // Zero setup WCET: offload points exist but are unselectable.
        let t = Task::builder(0, "local-only")
            .local_wcet(ms(10))
            .period(ms(100))
            .build()
            .unwrap();
        let g = benefit(&[(0.0, 1.0), (50.0, 99.0)]);
        let odm = OffloadingDecisionManager::new(vec![OdmTask::new(t, g)]).unwrap();
        let plan = odm.decide(&DpSolver::default()).unwrap();
        assert_eq!(plan.num_offloaded(), 0);
        assert_eq!(plan.decisions()[0].decision, Decision::Local);
    }

    #[test]
    fn unschedulable_when_local_overloads() {
        let t1 = task(1, 80, 5, 80, 100);
        let t2 = task(2, 80, 5, 80, 100);
        // No offload points: all-local utilization 1.6 -> infeasible.
        let g = benefit(&[(0.0, 1.0)]);
        let odm =
            OffloadingDecisionManager::new(vec![OdmTask::new(t1, g.clone()), OdmTask::new(t2, g)])
                .unwrap();
        match odm.decide(&DpSolver::default()) {
            Err(CoreError::Unschedulable(_)) => {}
            other => panic!("expected Unschedulable, got {other:?}"),
        }
    }

    #[test]
    fn importance_weights_change_decisions() {
        // Capacity only allows offloading one of two identical tasks; the
        // heavier-weighted one must win. Per task: local 40/200 = 0.2;
        // offloaded with R=20: (30+100)/180 = 0.722. Offloading both
        // (1.444) or none (0.4, benefit 5) loses to offloading exactly the
        // weight-4 task (0.722 + 0.2 = 0.922, benefit 40 + 1 = 41).
        let t1 = task(1, 40, 30, 100, 200);
        let t2 = task(2, 40, 30, 100, 200);
        let g = benefit(&[(0.0, 1.0), (20.0, 10.0)]);
        let odm = OffloadingDecisionManager::new(vec![
            OdmTask::new(t1, g.clone()).with_weight(1.0),
            OdmTask::new(t2, g).with_weight(4.0),
        ])
        .unwrap();
        let plan = odm.decide(&BruteForceSolver::default()).unwrap();
        assert_eq!(plan.num_offloaded(), 1);
        assert!(plan.get(TaskId(2)).unwrap().decision.is_offload());
        assert!(!plan.get(TaskId(1)).unwrap().decision.is_offload());
        assert!((plan.total_benefit() - 41.0).abs() < 1e-9);
    }

    #[test]
    fn dp_and_heuristic_agree_on_easy_instance() {
        let t1 = task(1, 50, 5, 50, 500);
        let t2 = task(2, 60, 5, 60, 500);
        let g1 = benefit(&[(0.0, 2.0), (100.0, 6.0), (200.0, 9.0)]);
        let g2 = benefit(&[(0.0, 1.0), (150.0, 7.0)]);
        let odm = OffloadingDecisionManager::new(vec![OdmTask::new(t1, g1), OdmTask::new(t2, g2)])
            .unwrap();
        let dp = odm.decide(&DpSolver::default()).unwrap();
        let heu = odm.decide(&HeuOeSolver::new()).unwrap();
        assert!(heu.total_benefit() <= dp.total_benefit() + 1e-9);
        assert!(heu.total_benefit() >= 0.9 * dp.total_benefit());
    }

    #[test]
    fn exact_fill_plan_has_density_exactly_one() {
        // Densities 2/92 = 1/46 (task 1 offloaded at R = 108 ms), 7/24
        // and 379/552 (tasks 2 and 3 local) sum to exactly 1.0 in task
        // order, but to 1.0000000000000002 with the locals summed first.
        // Rounded up to 10⁴ grid cells they need 10 001, so only a DP on
        // the real densities finds this, the one feasible plan.
        let odm = OffloadingDecisionManager::new(vec![
            OdmTask::new(task(1, 50, 1, 1, 200), benefit(&[(0.0, 1.0), (108.0, 5.0)])),
            OdmTask::new(task(2, 7, 1, 7, 24), benefit(&[(0.0, 1.0)])),
            OdmTask::new(task(3, 379, 1, 379, 552), benefit(&[(0.0, 1.0)])),
        ])
        .unwrap();
        let plan = odm.decide(&DpSolver::default()).unwrap();
        assert!(plan.get(TaskId(1)).unwrap().decision.is_offload());
        assert_eq!(plan.num_offloaded(), 1);
        assert_eq!(plan.total_density().to_bits(), 1.0f64.to_bits());
        let weight = odm
            .build_instance()
            .unwrap()
            .selection_weight(&rto_mckp::Selection::new(vec![1, 0, 0]))
            .unwrap();
        assert_eq!(plan.total_density().to_bits(), weight.to_bits());
    }

    #[test]
    fn constructor_validation() {
        assert!(OffloadingDecisionManager::new(vec![]).is_err());
        let t = task(0, 10, 1, 10, 100);
        let g = benefit(&[(0.0, 1.0)]);
        let dup = vec![
            OdmTask::new(t.clone(), g.clone()),
            OdmTask::new(t.clone(), g.clone()),
        ];
        assert!(OffloadingDecisionManager::new(dup).is_err());
        let bad_weight = vec![OdmTask::new(t, g).with_weight(-1.0)];
        assert!(OffloadingDecisionManager::new(bad_weight).is_err());
    }

    #[test]
    fn instance_shape_matches_benefit_points() {
        let t = task(0, 10, 1, 10, 100);
        let g = benefit(&[(0.0, 1.0), (20.0, 2.0), (50.0, 3.0)]);
        let odm = OffloadingDecisionManager::new(vec![OdmTask::new(t, g)]).unwrap();
        let inst = odm.build_instance().unwrap();
        assert_eq!(inst.num_classes(), 1);
        assert_eq!(inst.classes()[0].len(), 3);
        // Local item weight = 0.1.
        assert!((inst.classes()[0][0].weight - 0.1).abs() < 1e-12);
        // Level 1 weight = 11/80.
        assert!((inst.classes()[0][1].weight - 11.0 / 80.0).abs() < 1e-12);
    }

    #[test]
    fn server_bound_uses_postprocessing_budget() {
        // Without a bound: (10+100)/(200-50) = 0.733 > the spare capacity
        // left by the heavy local partner (0.4), so the task stays local.
        // With a bound at 40ms <= r = 50ms, the completion budget becomes
        // C3 = 5ms: (10+5)/150 = 0.1 -> offloading fits.
        let t = Task::builder(0, "bounded")
            .local_wcet(ms(40))
            .setup_wcet(ms(10))
            .compensation_wcet(ms(100))
            .postprocess_wcet(ms(5))
            .period(ms(200))
            .build()
            .unwrap();
        let heavy = Task::builder(1, "heavy-local")
            .local_wcet(ms(120))
            .period(ms(200))
            .build()
            .unwrap();
        let g = benefit(&[(0.0, 1.0), (50.0, 10.0)]);
        let g_local = benefit(&[(0.0, 1.0)]);

        let unbounded = OffloadingDecisionManager::new(vec![
            OdmTask::new(t.clone(), g.clone()),
            OdmTask::new(heavy.clone(), g_local.clone()),
        ])
        .unwrap();
        let plan = unbounded.decide(&DpSolver::default()).unwrap();
        assert_eq!(plan.num_offloaded(), 0, "density {}", plan.total_density());

        let bounded = OffloadingDecisionManager::new(vec![
            OdmTask::new(t, g).with_server_bound(ms(40)),
            OdmTask::new(heavy, g_local),
        ])
        .unwrap();
        let plan = bounded.decide(&DpSolver::default()).unwrap();
        assert_eq!(plan.num_offloaded(), 1);
        match plan.decisions()[0].decision {
            Decision::Offload {
                guaranteed,
                compensation_wcet,
                ..
            } => {
                assert!(guaranteed);
                assert_eq!(compensation_wcet, ms(5)); // C3, not C2
            }
            Decision::Local => panic!("expected offload"),
        }
        assert!((plan.decisions()[0].density - 15.0 / 150.0).abs() < 1e-9);
    }

    #[test]
    fn server_bound_only_covers_levels_at_or_beyond_it() {
        // Bound at 100ms: the 50ms level still needs the C2 budget, the
        // 120ms level only C3.
        let t = Task::builder(0, "t")
            .local_wcet(ms(40))
            .setup_wcet(ms(10))
            .compensation_wcet(ms(40))
            .postprocess_wcet(ms(2))
            .period(ms(400))
            .build()
            .unwrap();
        let g = benefit(&[(0.0, 1.0), (50.0, 5.0), (120.0, 6.0)]);
        let odm =
            OffloadingDecisionManager::new(vec![OdmTask::new(t, g).with_server_bound(ms(100))])
                .unwrap();
        let inst = odm.build_instance().unwrap();
        // Level 1 (r=50 < bound): (10+40)/350.
        assert!((inst.classes()[0][1].weight - 50.0 / 350.0).abs() < 1e-9);
        // Level 2 (r=120 >= bound): (10+2)/280.
        assert!((inst.classes()[0][2].weight - 12.0 / 280.0).abs() < 1e-9);
    }

    #[test]
    fn guaranteed_level_with_zero_postprocessing() {
        // C3 = 0: the setup sub-job gets the whole slack.
        let t = Task::builder(0, "t")
            .local_wcet(ms(40))
            .setup_wcet(ms(10))
            .compensation_wcet(ms(40))
            .period(ms(200))
            .build()
            .unwrap();
        let g = benefit(&[(0.0, 1.0), (50.0, 10.0)]);
        let odm =
            OffloadingDecisionManager::new(vec![OdmTask::new(t, g).with_server_bound(ms(50))])
                .unwrap();
        let plan = odm.decide(&DpSolver::default()).unwrap();
        match plan.decisions()[0].decision {
            Decision::Offload {
                guaranteed,
                setup_deadline,
                compensation_wcet,
                ..
            } => {
                assert!(guaranteed);
                assert_eq!(compensation_wcet, Duration::ZERO);
                assert_eq!(setup_deadline, ms(150)); // D - R
            }
            Decision::Local => panic!("expected offload"),
        }
    }

    #[test]
    fn plan_accessors() {
        let t = task(0, 278, 5, 278, 1000);
        let g = benefit(&[(0.0, 10.0), (100.0, 40.0)]);
        let odm = OffloadingDecisionManager::new(vec![OdmTask::new(t, g)]).unwrap();
        assert_eq!(odm.tasks().len(), 1);
        let plan = odm.decide(&DpSolver::default()).unwrap();
        assert!(plan.get(TaskId(0)).is_some());
        assert!(plan.get(TaskId(7)).is_none());
        assert_eq!(plan.decisions().len(), 1);
    }
}
