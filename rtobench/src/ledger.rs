//! Measurement plumbing shared by every workload.
//!
//! * [`Acc`] collects what one trial (or one serial step) did: the
//!   always-on end-to-end tallies (operations attempted and failed,
//!   exact-decision latencies, simulated jobs) and, in a traced run,
//!   the per-layer ledger — wall-clock **self time** and work counts
//!   recorded around calls into each crate's public functions.
//! * [`TimedSolver`] and [`TimedServer`] are bench-local decorators
//!   that give the ledger an outside view of layers the program calls
//!   internally (the ODM calls the MCKP solver; the engine calls the
//!   offload server). They are installed only in traced batches.
//! * [`Runner`] runs one batch: it fans trials out over the
//!   `rto-exp` pool and merges every trial's [`Acc`].

use std::cell::Cell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Mutex;
use std::time::Instant;

use rto_core::analysis::DENSITY_EPSILON;
use rto_core::odm::{OffloadingDecisionManager, OffloadingPlan};
use rto_exp::{run_matrix, ExpOptions, MatrixSpec};
use rto_mckp::{MckpInstance, Selection, SolveError, Solver};
use rto_server::{OffloadRequest, OffloadServer, SubmitOutcome};

/// Per-layer ledger: metric name → accumulated value (milliseconds for
/// `*_ms` keys, plain counts otherwise). Keys starting with `_` are
/// inputs to derived metrics and are never printed.
pub type Ledger = BTreeMap<&'static str, f64>;

/// Keeps at most this many error messages per batch for the report.
const MAX_ERRORS: usize = 8;

/// Slack for profit comparisons between solvers: both sum the same
/// profits, possibly in a different order.
const PROFIT_EPS: f64 = 1e-9;

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Which solver a decision used, and therefore which ledger layer it is
/// charged to.
#[derive(Debug, Clone, Copy)]
pub enum SolverKind {
    /// The exact DP at the workload's decision resolution: its latency
    /// is an end-to-end `decide_*` sample.
    ExactDp(usize),
    /// A DP on a coarser grid (charged to `mckp.dp`, not sampled).
    CoarseDp(usize),
    /// HEU-OE, with or without its exchange pass.
    Heu,
}

impl SolverKind {
    fn layer(self) -> (&'static str, &'static str) {
        match self {
            SolverKind::ExactDp(_) | SolverKind::CoarseDp(_) => {
                ("mckp.dp.solve_ms", "mckp.dp.solves")
            }
            SolverKind::Heu => ("mckp.heu.solve_ms", "mckp.heu.solves"),
        }
    }

    fn cells(self, classes: usize) -> Option<f64> {
        match self {
            SolverKind::ExactDp(res) | SolverKind::CoarseDp(res) => {
                Some(classes as f64 * (res as f64 + 1.0))
            }
            SolverKind::Heu => None,
        }
    }
}

/// What one trial or serial step measured.
#[derive(Debug, Default)]
pub struct Acc {
    traced: bool,
    /// Per-layer ledger (empty unless traced).
    pub ledger: Ledger,
    /// Latency (ms) of every exact DP decision.
    pub decide_ms: Vec<f64>,
    /// Completed ODM `decide` / `Solver::solve` calls.
    pub decisions: u64,
    /// Jobs released inside `Simulation::run`.
    pub sim_jobs: u64,
    /// Host seconds spent inside `Simulation::run`.
    pub sim_secs: f64,
    /// Operations attempted (decisions, tests, simulations, checks).
    pub attempted: u64,
    /// Operations that returned an error or failed their check.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// Host nanoseconds spent inside trial closures.
    pub trial_ns: f64,
    /// Host nanoseconds of serial (non-pool) batch steps.
    pub serial_ns: f64,
    /// Host nanoseconds of `run_matrix` calls, wall clock.
    pub matrix_wall_ns: f64,
    /// Trials run.
    pub trials: u64,
    /// Trials the experiment cache answered (must stay 0).
    pub cache_hits: u64,
}

impl Acc {
    /// An empty accumulator; `traced` turns the per-layer ledger on.
    pub fn new(traced: bool) -> Self {
        Acc {
            traced,
            ..Acc::default()
        }
    }

    /// Whether this accumulator records the per-layer ledger.
    pub fn traced(&self) -> bool {
        self.traced
    }

    /// Adds `v` to ledger entry `key` (traced runs only).
    pub fn add(&mut self, key: &'static str, v: f64) {
        if self.traced {
            *self.ledger.entry(key).or_insert(0.0) += v;
        }
    }

    /// Runs `f`, charging its wall time to `layer` in a traced run.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.traced {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.add(layer, ms_since(start));
        out
    }

    /// Records one operation and whether it succeeded.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.errors.len() < MAX_ERRORS {
                self.errors.push(what());
            }
        }
        ok
    }

    /// Records a fallible operation; `Some` on success.
    pub fn op<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        match r {
            Ok(v) => {
                self.check(true, String::new);
                Some(v)
            }
            Err(e) => {
                self.check(false, || format!("{what}: {e}"));
                None
            }
        }
    }

    /// One ODM decision, checked for Theorem-3 feasibility
    /// (`total_density() ≤ 1`). In a traced run the solver's time is
    /// charged to its `mckp.*` layer and the rest of `decide` (instance
    /// assembly, plan construction, the Theorem-3 cross-check) to
    /// `core.odm.build_ms`.
    pub fn decide(
        &mut self,
        odm: &OffloadingDecisionManager,
        solver: &dyn Solver,
        kind: SolverKind,
    ) -> Option<OffloadingPlan> {
        let timed = TimedSolver::new(solver);
        let start = Instant::now();
        let result = if self.traced {
            odm.decide(&timed)
        } else {
            odm.decide(solver)
        };
        let total_ms = ms_since(start);
        let classes = odm.tasks().len();
        self.record_solve(kind, classes, total_ms, timed.ms());
        let plan = self.op("odm decide", result)?;
        let density = plan.total_density();
        self.check(density <= 1.0 + DENSITY_EPSILON, || {
            format!("plan density {density} exceeds 1")
        })
        .then_some(plan)
    }

    /// One direct `Solver::solve` call, checked for feasibility.
    pub fn solve(
        &mut self,
        instance: &MckpInstance,
        solver: &dyn Solver,
        kind: SolverKind,
    ) -> Option<Selection> {
        let start = Instant::now();
        let result = solver.solve(instance);
        let total_ms = ms_since(start);
        self.record_solve(kind, instance.num_classes(), total_ms, total_ms);
        let sel = self.op("mckp solve", result)?;
        self.check(instance.is_feasible(&sel), || {
            format!("{} returned an infeasible selection", solver.name())
        })
        .then_some(sel)
    }

    /// Checks "DP profit ≥ other profit" on one instance wherever it must
    /// hold — when the other solver's selection (item weights `other_weights`)
    /// fits the DP's grid — and counts the other solver's wins with a
    /// selection off the grid as `mckp.heu.off_grid_wins`.
    pub fn check_dp_dominates(
        &mut self,
        dp_profit: f64,
        other_profit: f64,
        other_weights: impl IntoIterator<Item = f64>,
        resolution: usize,
        what: impl FnOnce() -> String,
    ) {
        let dominated = dp_profit + PROFIT_EPS >= other_profit;
        if fits_grid(other_weights, resolution) {
            self.check(dominated, what);
        } else if !dominated {
            self.add("mckp.heu.off_grid_wins", 1.0);
        }
    }

    fn record_solve(&mut self, kind: SolverKind, classes: usize, total_ms: f64, solve_ms: f64) {
        self.decisions += 1;
        if let SolverKind::ExactDp(_) = kind {
            self.decide_ms.push(total_ms);
        }
        let (ms_key, count_key) = kind.layer();
        self.add(ms_key, solve_ms);
        self.add(count_key, 1.0);
        if let Some(cells) = kind.cells(classes) {
            self.add("mckp.dp.cells", cells);
        }
        self.add("core.odm.build_ms", total_ms - solve_ms);
    }

    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: Acc) {
        for (k, v) in other.ledger {
            *self.ledger.entry(k).or_insert(0.0) += v;
        }
        self.decide_ms.extend(other.decide_ms);
        self.decisions += other.decisions;
        self.sim_jobs += other.sim_jobs;
        self.sim_secs += other.sim_secs;
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = MAX_ERRORS.saturating_sub(self.errors.len());
        self.errors.extend(other.errors.into_iter().take(room));
        self.trial_ns += other.trial_ns;
        self.serial_ns += other.serial_ns;
        self.matrix_wall_ns += other.matrix_wall_ns;
        self.trials += other.trials;
        self.cache_hits += other.cache_hits;
    }
}

/// Whether a selection with these weights (capacity 1) is feasible on
/// the DP's grid at `resolution`: the DP rounds every weight up to the
/// grid, exactly as here, and is exact only over such selections.
fn fits_grid(weights: impl IntoIterator<Item = f64>, resolution: usize) -> bool {
    let res = resolution as f64;
    let units: f64 = weights
        .into_iter()
        .map(|w| if w <= 0.0 { 0.0 } else { (w * res).ceil() })
        .sum();
    units <= res
}

/// Times every `solve` of the wrapped solver.
pub struct TimedSolver<'a> {
    inner: &'a dyn Solver,
    ns: Cell<u128>,
}

impl<'a> TimedSolver<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a dyn Solver) -> Self {
        TimedSolver {
            inner,
            ns: Cell::new(0),
        }
    }

    /// Milliseconds spent in `solve` so far.
    pub fn ms(&self) -> f64 {
        self.ns.get() as f64 / 1e6
    }
}

impl Solver for TimedSolver<'_> {
    fn solve(&self, instance: &MckpInstance) -> Result<Selection, SolveError> {
        let start = Instant::now();
        let out = self.inner.solve(instance);
        self.ns.set(self.ns.get() + start.elapsed().as_nanos());
        out
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// What a [`TimedServer`] saw.
#[derive(Debug, Default, Clone, Copy)]
pub struct ServerTally {
    /// Host nanoseconds inside `submit`.
    pub ns: u128,
    /// `submit` calls.
    pub submits: u64,
    /// Submissions whose outcome was [`SubmitOutcome::Lost`].
    pub lost: u64,
}

/// An [`OffloadServer`] decorator that times and counts `submit` calls
/// and their outcomes. The engine owns its server, so the tally is
/// shared through a handle the caller keeps.
pub struct TimedServer {
    inner: Box<dyn OffloadServer>,
    tally: Rc<Cell<ServerTally>>,
}

impl TimedServer {
    /// Wraps `inner`; the returned handle reads the tally after the run.
    pub fn new(inner: Box<dyn OffloadServer>) -> (Self, Rc<Cell<ServerTally>>) {
        let tally = Rc::new(Cell::new(ServerTally::default()));
        let server = TimedServer {
            inner,
            tally: Rc::clone(&tally),
        };
        (server, tally)
    }
}

impl OffloadServer for TimedServer {
    fn submit(&mut self, request: &OffloadRequest, now: rto_core::time::Instant) -> SubmitOutcome {
        let start = Instant::now();
        let out = self.inner.submit(request, now);
        let mut t = self.tally.get();
        t.ns += start.elapsed().as_nanos();
        t.submits += 1;
        t.lost += u64::from(out == SubmitOutcome::Lost);
        self.tally.set(t);
        out
    }
}

/// Charges a [`ServerTally`] to the `server.*` layer.
pub fn charge_server(acc: &mut Acc, tally: ServerTally) {
    acc.add("server.submit_ms", tally.ns as f64 / 1e6);
    acc.add("server.submits", tally.submits as f64);
    acc.add("server.lost", tally.lost as f64);
}

/// One batch in flight: the worker count, whether it is traced or a
/// check batch, and the merged measurements of its trials.
pub struct Runner {
    /// Worker threads for `run_matrix` (`ExpOptions::jobs`).
    pub jobs: usize,
    /// Whether trials record the per-layer ledger.
    pub traced: bool,
    /// Whether this is the untimed check batch (run the O(n²) audits).
    pub audit: bool,
    acc: Mutex<Acc>,
}

impl Runner {
    /// A fresh batch.
    pub fn new(jobs: usize, traced: bool, audit: bool) -> Self {
        Runner {
            jobs,
            traced,
            audit,
            acc: Mutex::new(Acc::new(traced)),
        }
    }

    fn absorb(&self, acc: Acc) {
        self.acc
            .lock()
            .expect("a trial panicked while merging its measurements")
            .merge(acc);
    }

    /// Runs `n` trials of `f` on the pool and returns their results in
    /// trial order. Each trial gets its index, a seed derived from
    /// `(base_seed, trial)` and its own [`Acc`].
    pub fn matrix<F>(&self, name: &str, base_seed: u64, n: usize, f: F) -> Vec<String>
    where
        F: Fn(usize, u64, &mut Acc) -> String + Sync,
    {
        let spec = MatrixSpec {
            name: name.to_owned(),
            fingerprint: "rtobench-v1".to_owned(),
            base_seed,
            point_keys: vec![name.to_owned()],
            trials_per_point: n,
        };
        let opts = ExpOptions {
            jobs: self.jobs,
            ..ExpOptions::default()
        };
        let run = run_matrix(&spec, &opts, |ctx| {
            let start = Instant::now();
            let mut acc = Acc::new(self.traced);
            let out = f(ctx.trial, ctx.seed, &mut acc);
            acc.trial_ns = start.elapsed().as_nanos() as f64;
            acc.trials = 1;
            self.absorb(acc);
            out
        });
        let mut acc = Acc::new(self.traced);
        acc.matrix_wall_ns = run.stats.wall_ns as f64;
        acc.cache_hits = run.stats.trials_cached as u64;
        self.absorb(acc);
        run.points.into_iter().flatten().collect()
    }

    /// Runs a serial batch step on the caller's thread.
    pub fn serial<T>(&self, f: impl FnOnce(&mut Acc) -> T) -> T {
        let start = Instant::now();
        let mut acc = Acc::new(self.traced);
        let out = f(&mut acc);
        acc.serial_ns = start.elapsed().as_nanos() as f64;
        self.absorb(acc);
        out
    }

    /// The merged measurements of the batch.
    pub fn finish(self) -> Acc {
        self.acc
            .into_inner()
            .expect("a trial panicked while merging its measurements")
    }
}

/// FNV-1a over 64-bit words: the order-sensitive output digest.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mixes in one word.
    pub fn word(&mut self, w: u64) -> &mut Self {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Mixes in a float by its bits.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.word(v.to_bits())
    }

    /// Mixes in every trial result of a batch step, in order.
    pub fn strs(&mut self, parts: &[String]) -> &mut Self {
        for p in parts {
            self.word(rto_exp::fnv64(p.as_bytes()));
        }
        self
    }

    /// The digest as trial output.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}
