//! `rtobench` — the end-to-end benchmark of the rto pipeline.
//!
//! ```text
//! rtobench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run sets the workload up from the seed several times (reporting
//! the median set-up time), runs one untimed warm-up batch, then runs
//! closed batches — a fixed input set processed as fast as the worker
//! pool allows — until `--seconds` have passed, and finally one untimed
//! check batch on a single worker with the expensive audits on. Every
//! batch must produce the same output digest.
//!
//! With `--trace 0` the last line of standard output is a JSON object
//! carrying the end-to-end metrics; with `--trace 1` it carries the
//! per-layer ledger, measured on traced batches interleaved with
//! untraced ones (their wall-time ratio is `trace.overhead_ratio`). The
//! process exits 1 when any correctness check failed and 2 on bad usage.
//! See `NOTES.md` for the metric definitions.

mod admission;
mod case_study;
mod estimation;
mod fleet;
mod ledger;

use std::cell::Cell;
use std::process::ExitCode;
use std::rc::Rc;
use std::time::Instant;

use rto_server::OffloadServer;
use rto_sim::validate::{audit_edf, audit_trace};
use rto_sim::{SimConfig, SimReport, Simulation};

use ledger::{charge_server, Acc, Digest, Ledger, Runner, ServerTally, TimedServer};

/// A benchmark workload after set-up: one call runs one closed batch
/// and returns its output digest.
pub trait Workload: Sync {
    /// Runs one batch on `run`'s worker pool.
    fn batch(&self, run: &Runner) -> u64;
}

const WORKLOADS: [&str; 4] = [
    "estimation_sweep",
    "admission_sweep",
    "fleet_sim",
    "case_study",
];

/// Timed batches per run, at least (per kind, in a traced run).
const MIN_BATCHES: usize = 3;
/// Set-up repetitions after each timed batch: until `SETUP_SLICE_S` of
/// set-up time has accumulated, at most `SETUP_REPS_PER_BATCH`.
const SETUP_REPS_PER_BATCH: usize = 5;
const SETUP_SLICE_S: f64 = 0.01;
/// Fewest exact decisions for which `decide_p95_ms` leaves at least ten
/// samples beyond it.
const P95_MIN_SAMPLES: usize = 200;

const USAGE: &str =
    "usage: rtobench --workload <estimation_sweep|admission_sweep|fleet_sim|case_study> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// The end-to-end metrics every untraced run reports, in order.
const END_TO_END: [(&str, &str); 3] = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// The per-layer metrics every traced run reports, in order.
const PER_LAYER: [(&str, &str); 39] = [
    ("mckp.dp.solve_ms", "ms"),
    ("mckp.dp.solves", "count"),
    ("mckp.dp.cells", "count"),
    ("mckp.dp.ns_per_cell", "ns"),
    ("mckp.heu.solve_ms", "ms"),
    ("mckp.heu.solves", "count"),
    ("mckp.heu.optimality_ratio", "ratio"),
    ("mckp.heu.off_grid_wins", "count"),
    ("core.benefit.distort_ms", "ms"),
    ("core.odm.build_ms", "ms"),
    ("core.odm.evaluate_ms", "ms"),
    ("workloads.gen_ms", "ms"),
    ("core.analysis.density_ms", "ms"),
    ("core.analysis.susp_obl_ms", "ms"),
    ("core.analysis.demand_ms", "ms"),
    ("core.analysis.tests", "count"),
    ("sim.build_ms", "ms"),
    ("sim.run_ms", "ms"),
    ("sim.jobs", "count"),
    ("sim.segments", "count"),
    ("sim.subjobs", "count"),
    ("sim.preemptions", "count"),
    ("sim.ns_per_job", "ns"),
    ("sim.remote_ratio", "ratio"),
    ("server.submit_ms", "ms"),
    ("server.submits", "count"),
    ("server.lost", "count"),
    ("report.serialize_ms", "ms"),
    ("report.bytes", "bytes"),
    ("report.records", "count"),
    ("server.proxy.measure_ms", "ms"),
    ("core.estimator.quantile_ms", "ms"),
    ("workloads.imaging_ms", "ms"),
    ("exp.trial_ms", "ms"),
    ("exp.trials", "count"),
    ("exp.pool_efficiency", "ratio"),
    ("exp.cache_hits", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    jobs: usize,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = WORKLOADS
        .into_iter()
        .find(|w| *w == name)
        .ok_or(format!("unknown workload {name:?}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".to_owned());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let jobs = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        jobs,
    })
}

fn setup(name: &str, seed: u64, acc: &mut Acc) -> Option<Box<dyn Workload>> {
    match name {
        "estimation_sweep" => Some(Box::new(estimation::setup(seed, acc))),
        "admission_sweep" => admission::setup(seed, acc).map(|w| Box::new(w) as _),
        "fleet_sim" => fleet::setup(seed, acc).map(|w| Box::new(w) as _),
        "case_study" => case_study::setup(seed, acc).map(|w| Box::new(w) as _),
        _ => None,
    }
}

/// Installs `server` on `sim`, behind a [`TimedServer`] in a traced run.
pub fn with_server(
    acc: &Acc,
    sim: Simulation,
    server: Box<dyn OffloadServer>,
) -> (Simulation, Option<Rc<Cell<ServerTally>>>) {
    if acc.traced() {
        let (timed, tally) = TimedServer::new(server);
        (sim.with_server(Box::new(timed)), Some(tally))
    } else {
        (sim.with_server(server), None)
    }
}

/// Runs one simulation, recording released jobs and host time; in a
/// traced run also the engine's self time and counts.
pub fn run_sim(
    acc: &mut Acc,
    sim: Simulation,
    config: SimConfig,
    tally: Option<Rc<Cell<ServerTally>>>,
) -> Option<SimReport> {
    let start = Instant::now();
    let result = sim.run(config);
    let secs = start.elapsed().as_secs_f64();
    let report = acc.op("simulation run", result)?;
    let jobs: usize = report.per_task.iter().map(|t| t.released).sum();
    acc.sim_jobs += jobs as u64;
    acc.sim_secs += secs;
    let server_ms = tally.map_or(0.0, |t| {
        let t = t.get();
        charge_server(acc, t);
        t.ns as f64 / 1e6
    });
    acc.add("sim.run_ms", secs * 1e3 - server_ms);
    acc.add("sim.jobs", jobs as f64);
    acc.add("sim.segments", report.trace.len() as f64);
    acc.add("sim.subjobs", report.subjobs.len() as f64);
    acc.add("sim.preemptions", report.preemptions as f64);
    acc.add("_remote", report.total_remote() as f64);
    let offloaded = report.total_remote() + report.total_compensated();
    acc.add("_offloaded", offloaded as f64);
    let records = report.jobs.len() + report.trace.len() + report.subjobs.len();
    acc.add("report.records", records as f64);
    Some(report)
}

/// Mixes a report's aggregates into `digest`.
pub fn digest_report(digest: &mut Digest, report: &SimReport) {
    for t in &report.per_task {
        for n in [
            t.released,
            t.accountable,
            t.completed,
            t.misses,
            t.local_jobs,
            t.remote_jobs,
            t.compensated_jobs,
        ] {
            digest.word(n as u64);
        }
        digest.f64(t.realized_benefit).f64(t.baseline_benefit);
    }
    for n in [
        report.jobs.len(),
        report.trace.len(),
        report.subjobs.len(),
        report.preemptions,
    ] {
        digest.word(n as u64);
    }
    digest.word(report.busy_time.as_ns());
}

/// The simulator's own structural and EDF audits.
pub fn audit(acc: &mut Acc, report: &SimReport) {
    let trace = audit_trace(report);
    acc.check(trace.is_empty(), || format!("audit_trace: {trace:?}"));
    let edf = audit_edf(report);
    acc.check(edf.is_empty(), || format!("audit_edf: {edf:?}"));
}

fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// Nearest-rank percentile.
fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (p * s.len() as f64).ceil().max(1.0) as usize;
    s[rank.min(s.len()) - 1]
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// One timed batch: its wall seconds, measurements and digest.
fn batch(wl: &dyn Workload, jobs: usize, traced: bool, audit: bool) -> (f64, Acc, u64) {
    let run = Runner::new(jobs, traced, audit);
    let start = Instant::now();
    let digest = wl.batch(&run);
    let wall = start.elapsed().as_secs_f64();
    (wall, run.finish(), digest)
}

/// The per-layer ledger of a traced run: per batch, plus one set-up.
fn per_layer(traced: &Acc, batches: usize, setup: &Ledger, jobs: usize, overhead: f64) -> Vec<f64> {
    let n = batches.max(1) as f64;
    let mut l: Ledger = setup.clone();
    for (k, v) in &traced.ledger {
        *l.entry(k).or_insert(0.0) += v / n;
    }
    let get = |k: &str| l.get(k).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let layer_ms: f64 = traced
        .ledger
        .iter()
        .filter(|(k, _)| k.ends_with("_ms"))
        .map(|(_, v)| v)
        .sum();
    let busy_ms = (traced.trial_ns + traced.serial_ns) / 1e6;
    PER_LAYER
        .iter()
        .map(|&(name, _)| match name {
            "mckp.dp.ns_per_cell" => ratio(get("mckp.dp.solve_ms") * 1e6, get("mckp.dp.cells")),
            "mckp.heu.optimality_ratio" => ratio(get("_heu_profit"), get("_dp_profit")),
            "sim.ns_per_job" => ratio(
                (get("sim.run_ms") + get("server.submit_ms")) * 1e6,
                get("sim.jobs"),
            ),
            "sim.remote_ratio" => ratio(get("_remote"), get("_offloaded")),
            "exp.trial_ms" => traced.trial_ns / 1e6 / n,
            "exp.trials" => traced.trials as f64 / n,
            "exp.pool_efficiency" => ratio(traced.trial_ns, traced.matrix_wall_ns * jobs as f64),
            "exp.cache_hits" => traced.cache_hits as f64,
            "trace.coverage" => ratio(layer_ms, busy_ms),
            "trace.overhead_ratio" => overhead,
            _ => get(name),
        })
        .collect()
}

fn json_metrics(names: &[(&str, &str)], values: &[f64]) -> String {
    let body: Vec<String> = names
        .iter()
        .zip(values)
        .map(|(&(name, unit), &v)| {
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rtobench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "rtobench: workload={} seed={} jobs={} trace={} seconds={}",
        args.workload,
        args.seed,
        args.jobs,
        u8::from(args.trace),
        args.seconds
    );

    // Every operation of every phase counts toward `attempted`/`failed`.
    let mut ops = Acc::new(false);
    let mut cold_setup = Vec::new();
    let mut setup_ledger = Ledger::new();
    let mut set_up = |ops: &mut Acc, secs: &mut Vec<f64>| {
        let mut acc = Acc::new(args.trace);
        let start = Instant::now();
        let wl = setup(args.workload, args.seed, &mut acc);
        secs.push(start.elapsed().as_secs_f64());
        setup_ledger = std::mem::take(&mut acc.ledger);
        ops.merge(acc);
        wl
    };
    let Some(wl) = set_up(&mut ops, &mut cold_setup) else {
        eprintln!("rtobench: set-up failed: {:?}", ops.errors);
        println!(
            "{{\"correct\": false, \"attempted\": {}, \"failed\": {}, \"metrics\": {{}}}}",
            ops.attempted.max(1),
            ops.failed.max(1)
        );
        return ExitCode::from(1);
    };

    // Warm up caches and the allocator. The set-up is then repeated after
    // every timed batch, so its samples span the run like the batches do;
    // the reported set-up time is the median of these warm repetitions.
    let (_, warm, reference) = batch(wl.as_ref(), args.jobs, false, false);
    ops.merge(warm);
    let mut warm_setup = Vec::new();
    let mut digests_agree = true;

    // Timed batches. A traced run alternates untraced and traced ones so
    // both see the same machine state.
    let mut plain = Acc::new(false);
    let mut plain_walls = Vec::new();
    let mut traced = Acc::new(true);
    let mut traced_walls = Vec::new();
    let start = Instant::now();
    loop {
        let (wall, acc, digest) = batch(wl.as_ref(), args.jobs, false, false);
        digests_agree &= digest == reference;
        plain_walls.push(wall);
        plain.merge(acc);
        if args.trace {
            let (wall, acc, digest) = batch(wl.as_ref(), args.jobs, true, false);
            digests_agree &= digest == reference;
            traced_walls.push(wall);
            traced.merge(acc);
        }
        let slice_start = warm_setup.len();
        while warm_setup.len() - slice_start < SETUP_REPS_PER_BATCH
            && warm_setup[slice_start..].iter().sum::<f64>() < SETUP_SLICE_S
        {
            set_up(&mut ops, &mut warm_setup);
        }
        if start.elapsed().as_secs_f64() >= args.seconds && plain_walls.len() >= MIN_BATCHES {
            break;
        }
    }
    let setup_s = median(&warm_setup);

    let rss = peak_rss_mb();

    // The check batch: the digest must not depend on the worker count, so
    // one worker must reproduce it; the audits run here, off the timed path.
    let (_, check, serial_digest) = batch(wl.as_ref(), 1, false, true);
    ops.check(serial_digest == reference, || {
        format!("digest at jobs=1 differs from jobs={}", args.jobs)
    });

    let decide_samples = plain.decide_ms.len();
    let p50 = percentile(&plain.decide_ms, 0.5);
    let p95 = percentile(&plain.decide_ms, 0.95);
    let wall_total: f64 = plain_walls.iter().sum();
    let decisions_per_s = plain.decisions as f64 / wall_total;
    let sim_jobs_per_s = if plain.sim_secs > 0.0 {
        plain.sim_jobs as f64 / plain.sim_secs
    } else {
        0.0
    };
    let wall_s = median(&plain_walls);
    let ledger = args.trace.then(|| {
        let overhead = median(&traced_walls) / wall_s;
        per_layer(
            &traced,
            traced_walls.len(),
            &setup_ledger,
            args.jobs,
            overhead,
        )
    });
    let cache_hits = plain.cache_hits + traced.cache_hits + check.cache_hits;
    let batches = (plain_walls.len(), traced_walls.len(), plain.trials);
    ops.merge(plain);
    ops.merge(traced);
    ops.merge(check);

    ops.check(digests_agree, || {
        "batch digests differ between repetitions".to_owned()
    });
    ops.check(cache_hits == 0, || format!("exp.cache_hits = {cache_hits}"));
    ops.check(rss.is_some(), || "VmHWM unavailable".to_owned());
    let peak = rss.unwrap_or(0.0);
    let failed_ops_ratio = ops.failed as f64 / ops.attempted as f64;

    println!(
        "batches: {} untraced, {} traced; {} untraced trials",
        batches.0, batches.1, batches.2
    );
    println!(
        "wall_s = {wall_s:.6} s (median batch; min {:.6}, max {:.6})",
        percentile(&plain_walls, 0.0),
        percentile(&plain_walls, 1.0)
    );
    println!(
        "setup_s = {setup_s:.6} s (median of {} warm; cold {:.6} s)",
        warm_setup.len(),
        cold_setup[0]
    );
    println!("decisions_per_s = {decisions_per_s:.3} 1/s");
    println!("decide_p50_ms = {p50:.4} ms (samples={decide_samples})");
    if decide_samples >= P95_MIN_SAMPLES {
        println!("decide_p95_ms = {p95:.4} ms (samples={decide_samples})");
    } else {
        println!("decide_p95_ms = n/a (samples={decide_samples} < {P95_MIN_SAMPLES})");
    }
    println!("sim_jobs_per_s = {sim_jobs_per_s:.1} 1/s");
    println!("peak_rss_mb = {peak:.3} MB");
    println!(
        "failed_ops_ratio = {failed_ops_ratio} ({} of {} operations)",
        ops.failed, ops.attempted
    );
    if let Some(values) = &ledger {
        for (&(name, unit), v) in PER_LAYER.iter().zip(values) {
            println!("  {name} = {v} {unit}");
        }
    }
    for e in &ops.errors {
        eprintln!("rtobench: failure: {e}");
    }

    let values = ledger.unwrap_or_else(|| vec![wall_s, setup_s, peak]);
    ops.check(values.iter().all(|v| v.is_finite()), || {
        "a metric is not a finite number".to_owned()
    });
    let correct = ops.failed == 0;
    let metrics = if args.trace {
        json_metrics(&PER_LAYER, &values)
    } else {
        json_metrics(&END_TO_END, &values)
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        ops.attempted, ops.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
