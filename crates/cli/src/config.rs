//! The JSON system-description format.
//!
//! A config file describes the task set (with benefit functions), the
//! solver, the server scenario, and the simulation parameters. See
//! [`SystemConfig::sample`] (printed by `rto-cli demo`) for a complete
//! example.

use rto_core::benefit::{BenefitFunction, BenefitPoint};
use rto_core::odm::OdmTask;
use rto_core::task::Task;
use rto_core::time::Duration;
use rto_mckp::{DpSolver, HeuOeSolver, Solver};
use rto_server::Scenario;
use serde::{Deserialize, Serialize};

/// One benefit point: `[response_time_ms, value]` or an object with
/// per-level cost overrides.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(untagged)]
pub enum BenefitPointConfig {
    /// `[response_time_ms, value]`.
    Pair(f64, f64),
    /// Full form with optional per-level costs.
    Full {
        /// `r_{i,j}` in milliseconds (0 for the local point).
        response_time_ms: f64,
        /// `G_i(r_{i,j})`.
        value: f64,
        /// Optional per-level setup WCET override (ms).
        #[serde(default)]
        setup_wcet_ms: Option<f64>,
        /// Optional per-level compensation WCET override (ms).
        #[serde(default)]
        compensation_wcet_ms: Option<f64>,
    },
}

/// One task entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskConfig {
    /// Human-readable name.
    pub name: String,
    /// `C_i` in ms.
    pub local_wcet_ms: f64,
    /// `C_{i,1}` in ms (0 = task cannot offload).
    #[serde(default)]
    pub setup_wcet_ms: f64,
    /// `C_{i,2}` in ms (defaults to `C_i`).
    #[serde(default)]
    pub compensation_wcet_ms: Option<f64>,
    /// `C_{i,3}` in ms (defaults to 0).
    #[serde(default)]
    pub postprocess_wcet_ms: f64,
    /// `T_i` in ms.
    pub period_ms: f64,
    /// `D_i` in ms (defaults to the period).
    #[serde(default)]
    pub deadline_ms: Option<f64>,
    /// Importance weight `w_i` (defaults to 1).
    #[serde(default)]
    pub weight: Option<f64>,
    /// The benefit function; first point must be at 0 ms.
    pub benefit: Vec<BenefitPointConfig>,
    /// Optional declared server response bound (ms) — the §3 extension.
    #[serde(default)]
    pub server_bound_ms: Option<f64>,
}

/// Which MCKP solver to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
#[serde(rename_all = "kebab-case")]
pub enum SolverConfig {
    /// Exact Pareto-frontier dynamic programming (the default).
    #[default]
    Dp,
    /// The HEU-OE greedy/exchange heuristic.
    HeuOe,
}

impl SolverConfig {
    /// Instantiates the solver.
    pub fn build(self) -> Box<dyn Solver> {
        match self {
            SolverConfig::Dp => Box::new(DpSolver::default()),
            SolverConfig::HeuOe => Box::new(HeuOeSolver::new()),
        }
    }
}

/// The server scenario (mirrors [`rto_server::Scenario`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
#[serde(rename_all = "kebab-case")]
pub enum ScenarioConfig {
    /// Heavily contended server.
    Busy,
    /// Moderately contended server.
    NotBusy,
    /// Uncontended server (the default).
    #[default]
    Idle,
}

impl From<ScenarioConfig> for Scenario {
    fn from(c: ScenarioConfig) -> Scenario {
        match c {
            ScenarioConfig::Busy => Scenario::Busy,
            ScenarioConfig::NotBusy => Scenario::NotBusy,
            ScenarioConfig::Idle => Scenario::Idle,
        }
    }
}

/// The full system description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// The task set.
    pub tasks: Vec<TaskConfig>,
    /// MCKP solver (default: `dp`).
    #[serde(default)]
    pub solver: SolverConfig,
    /// Server scenario for simulation (default: `idle`).
    #[serde(default)]
    pub scenario: ScenarioConfig,
    /// Simulation horizon in seconds (default: 10).
    #[serde(default = "default_horizon")]
    pub horizon_secs: u64,
    /// RNG seed (default: 2014).
    #[serde(default = "default_seed")]
    pub seed: u64,
}

fn default_horizon() -> u64 {
    10
}

fn default_seed() -> u64 {
    2014
}

impl SystemConfig {
    /// Parses a config from JSON text.
    ///
    /// # Errors
    ///
    /// Returns a message describing the parse or validation failure.
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| format!("config parse error: {e}"))
    }

    /// Builds the validated ODM task list.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending task and the model
    /// violation.
    pub fn build_tasks(&self) -> Result<Vec<OdmTask>, String> {
        if self.tasks.is_empty() {
            return Err("config has no tasks".into());
        }
        let ms = |v: f64| Duration::from_ms_f64(v).map_err(|e| format!("invalid time {v} ms: {e}"));
        self.tasks
            .iter()
            .enumerate()
            .map(|(i, tc)| {
                let mut builder = Task::builder(i, tc.name.clone())
                    .local_wcet(ms(tc.local_wcet_ms)?)
                    .setup_wcet(ms(tc.setup_wcet_ms)?)
                    .postprocess_wcet(ms(tc.postprocess_wcet_ms)?)
                    .period(ms(tc.period_ms)?);
                if let Some(c2) = tc.compensation_wcet_ms {
                    builder = builder.compensation_wcet(ms(c2)?);
                }
                if let Some(d) = tc.deadline_ms {
                    builder = builder.deadline(ms(d)?);
                }
                let task = builder
                    .build()
                    .map_err(|e| format!("task \"{}\": {e}", tc.name))?;

                let points = tc
                    .benefit
                    .iter()
                    .map(|p| {
                        Ok(match *p {
                            BenefitPointConfig::Pair(r, v) => BenefitPoint::new(ms(r)?, v),
                            BenefitPointConfig::Full {
                                response_time_ms,
                                value,
                                setup_wcet_ms,
                                compensation_wcet_ms,
                            } => {
                                let mut bp = BenefitPoint::new(ms(response_time_ms)?, value);
                                if let Some(c1) = setup_wcet_ms {
                                    bp.setup_wcet = Some(ms(c1)?);
                                }
                                if let Some(c2) = compensation_wcet_ms {
                                    bp.compensation_wcet = Some(ms(c2)?);
                                }
                                bp
                            }
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                let benefit = BenefitFunction::new(points)
                    .map_err(|e| format!("task \"{}\": {e}", tc.name))?;

                let mut odm_task =
                    OdmTask::new(task, benefit).with_weight(tc.weight.unwrap_or(1.0));
                if let Some(bound) = tc.server_bound_ms {
                    odm_task = odm_task.with_server_bound(ms(bound)?);
                }
                Ok(odm_task)
            })
            .collect()
    }

    /// A complete, runnable sample configuration (what `rto-cli demo`
    /// prints).
    pub fn sample() -> Self {
        SystemConfig {
            tasks: vec![
                TaskConfig {
                    name: "object-recognition".into(),
                    local_wcet_ms: 278.0,
                    setup_wcet_ms: 5.0,
                    compensation_wcet_ms: None,
                    postprocess_wcet_ms: 2.0,
                    period_ms: 1000.0,
                    deadline_ms: None,
                    weight: Some(2.0),
                    benefit: vec![
                        BenefitPointConfig::Pair(0.0, 10.0),
                        BenefitPointConfig::Pair(120.0, 30.0),
                        BenefitPointConfig::Pair(200.0, 40.0),
                    ],
                    server_bound_ms: None,
                },
                TaskConfig {
                    name: "control-loop".into(),
                    local_wcet_ms: 20.0,
                    setup_wcet_ms: 0.0,
                    compensation_wcet_ms: None,
                    postprocess_wcet_ms: 0.0,
                    period_ms: 100.0,
                    deadline_ms: None,
                    weight: None,
                    benefit: vec![BenefitPointConfig::Pair(0.0, 1.0)],
                    server_bound_ms: None,
                },
            ],
            solver: SolverConfig::Dp,
            scenario: ScenarioConfig::NotBusy,
            horizon_secs: 10,
            seed: 2014,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_round_trips_and_builds() {
        let sample = SystemConfig::sample();
        let json = serde_json::to_string_pretty(&sample).unwrap();
        let parsed = SystemConfig::from_json(&json).unwrap();
        assert_eq!(parsed, sample);
        let tasks = parsed.build_tasks().unwrap();
        assert_eq!(tasks.len(), 2);
        assert_eq!(tasks[0].task().name(), "object-recognition");
        assert_eq!(tasks[0].weight(), 2.0);
        assert_eq!(tasks[0].benefit().num_levels(), 3);
    }

    /// `rto-cli demo` output, byte for byte: covers the untagged
    /// `Pair` form and kebab-case unit variants.
    #[test]
    fn sample_pretty_matches_golden_bytes() {
        let golden = include_str!("../tests/golden_system_config_sample.json");
        let json = serde_json::to_string_pretty(&SystemConfig::sample()).unwrap();
        assert_eq!(json, golden);
    }

    /// The untagged struct variant (`Full`) with `None` and `Some`
    /// overrides, and a multi-word kebab-case variant.
    #[test]
    fn full_form_pretty_matches_golden_bytes() {
        let golden = include_str!("../tests/golden_system_config_full.json");
        let mut cfg = SystemConfig::sample();
        cfg.solver = SolverConfig::HeuOe;
        cfg.tasks[0].benefit[1] = BenefitPointConfig::Full {
            response_time_ms: 120.0,
            value: 30.0,
            setup_wcet_ms: Some(6.5),
            compensation_wcet_ms: None,
        };
        let json = serde_json::to_string_pretty(&cfg).unwrap();
        assert_eq!(json, golden);
        assert_eq!(SystemConfig::from_json(&json).unwrap(), cfg);
    }

    #[test]
    fn minimal_json_with_defaults() {
        let json = r#"{
            "tasks": [{
                "name": "t",
                "local_wcet_ms": 10,
                "period_ms": 100,
                "benefit": [[0, 1.0]]
            }]
        }"#;
        let cfg = SystemConfig::from_json(json).unwrap();
        assert_eq!(cfg.solver, SolverConfig::Dp);
        assert_eq!(cfg.scenario, ScenarioConfig::Idle);
        assert_eq!(cfg.horizon_secs, 10);
        assert_eq!(cfg.seed, 2014);
        let tasks = cfg.build_tasks().unwrap();
        assert_eq!(tasks[0].task().compensation_wcet(), Duration::from_ms(10));
        assert!(tasks[0].task().is_implicit_deadline());
    }

    #[test]
    fn full_benefit_point_form() {
        let json = r#"{
            "tasks": [{
                "name": "t",
                "local_wcet_ms": 10,
                "setup_wcet_ms": 2,
                "period_ms": 100,
                "benefit": [
                    [0, 1.0],
                    {"response_time_ms": 50, "value": 5.0,
                     "setup_wcet_ms": 3, "compensation_wcet_ms": 12}
                ]
            }]
        }"#;
        let tasks = SystemConfig::from_json(json)
            .unwrap()
            .build_tasks()
            .unwrap();
        let p = tasks[0].benefit().offload_points()[0];
        assert_eq!(p.setup_wcet, Some(Duration::from_ms(3)));
        assert_eq!(p.compensation_wcet, Some(Duration::from_ms(12)));
    }

    #[test]
    fn error_messages_name_the_task() {
        let json = r#"{
            "tasks": [{
                "name": "broken",
                "local_wcet_ms": 200,
                "period_ms": 100,
                "benefit": [[0, 1.0]]
            }]
        }"#;
        let err = SystemConfig::from_json(json)
            .unwrap()
            .build_tasks()
            .unwrap_err();
        assert!(err.contains("broken"), "{err}");
    }

    #[test]
    fn rejects_bad_json_and_empty_tasks() {
        assert!(SystemConfig::from_json("{").is_err());
        let empty = SystemConfig {
            tasks: vec![],
            ..SystemConfig::sample()
        };
        assert!(empty.build_tasks().is_err());
    }

    #[test]
    fn server_bound_flows_through() {
        let json = r#"{
            "tasks": [{
                "name": "t",
                "local_wcet_ms": 10,
                "setup_wcet_ms": 2,
                "period_ms": 100,
                "benefit": [[0, 1.0], [50, 5.0]],
                "server_bound_ms": 40
            }]
        }"#;
        let tasks = SystemConfig::from_json(json)
            .unwrap()
            .build_tasks()
            .unwrap();
        assert_eq!(tasks[0].server_bound(), Some(Duration::from_ms(40)));
    }

    #[test]
    fn solver_and_scenario_parse() {
        let json = r#"{
            "tasks": [{"name": "t", "local_wcet_ms": 1, "period_ms": 10,
                       "benefit": [[0, 1.0]]}],
            "solver": "heu-oe",
            "scenario": "busy"
        }"#;
        let cfg = SystemConfig::from_json(json).unwrap();
        assert_eq!(cfg.solver, SolverConfig::HeuOe);
        assert_eq!(cfg.scenario, ScenarioConfig::Busy);
        let _ = cfg.solver.build();
        let s: Scenario = cfg.scenario.into();
        assert_eq!(s, Scenario::Busy);
    }
}
