//! MCKP DP throughput benchmark: `DpSolver` (the Pareto-frontier DP on
//! the real weights) against a bench-local copy of the original
//! cell-outer grid DP (`RefDp`), measured in the same run.
//!
//! The original loop rounded every weight up onto a grid of
//! `resolution` cells, rescaled it once per (cell, item) pair and kept
//! one `usize` choice row per class. `RefDp` reproduces it verbatim, so
//! the speedup gate keeps measuring the same competitor.
//!
//! Two shapes, both deterministic:
//!
//! * **§6.2** — 30 classes × 11 items at the default resolution of 10⁴
//!   (the Figure 3 decision);
//! * **solver gap** — 20 classes × 8 items at 10⁵ (the ablation's
//!   fine DP).
//!
//! Every instance is checked before timing: the `DpSolver` selection
//! must be feasible, as profitable as `RefDp`'s at least, reached
//! without the grid fallback, and on the brute-force-sized prefix of
//! the instance (its first classes, at most 10⁶ selections) its profit
//! must equal `BruteForceSolver`'s bit for bit. Each shape is timed as
//! the best of three interleaved trials per implementation (a trial
//! solves every instance of the shape once), re-measured for up to two
//! more rounds while under the gate, and reported in µs per solve,
//! with the largest frontier built.
//!
//! Writes a `BENCH_mckp.json` summary and exits nonzero when a check
//! fails or when either shape's speedup is below 10x. The absolute
//! µs/solve figures are trend data only.
//!
//! Usage: `cargo run --release -p rto-bench --bin mckp_bench [--out PATH]`

use rto_core::time::Duration;
use rto_mckp::lp::dominance_filter;
use rto_mckp::{BruteForceSolver, DpSolver, Item, MckpInstance, Selection, SolveError, Solver};
use rto_obs::Stopwatch;
use rto_stats::Rng;
use std::hint::black_box;

/// Same-run speedup the production DP must reach on every shape.
const MIN_SPEEDUP: f64 = 10.0;
/// Timed trials per implementation and round; the fastest is reported.
const TRIALS: usize = 3;
/// Measurement rounds for a shape still under the gate.
const ROUNDS: usize = 3;

/// The original DP, verbatim: grid weights rescaled per (cell, item),
/// cell-outer loops, and one freshly allocated `usize` choice row and
/// DP row per class.
struct RefDp {
    resolution: usize,
}

impl RefDp {
    fn scale(&self, weight: f64, capacity: f64) -> usize {
        if weight <= 0.0 {
            return 0;
        }
        if capacity <= 0.0 || weight > capacity {
            return self.resolution + 1;
        }
        let scaled = (weight / capacity * self.resolution as f64)
            .ceil()
            .clamp(0.0, u32::MAX as f64) as usize;
        scaled.min(self.resolution + 1)
    }

    fn solve(&self, instance: &MckpInstance) -> Result<Selection, SolveError> {
        let res = self.resolution;
        let capacity = instance.capacity();
        let classes = instance.classes();

        let pruned: Vec<Vec<usize>> = classes.iter().map(|c| dominance_filter(c)).collect();

        const NEG: f64 = f64::NEG_INFINITY;
        let mut dp: Vec<f64> = vec![NEG; res + 1];
        let mut choice: Vec<Vec<usize>> = Vec::with_capacity(classes.len());

        {
            let mut ch = vec![usize::MAX; res + 1];
            for (pi, &item_idx) in pruned[0].iter().enumerate() {
                let item = classes[0][item_idx];
                let sw = self.scale(item.weight, capacity);
                if sw > res {
                    continue;
                }
                if item.profit > dp[sw] {
                    dp[sw] = item.profit;
                    ch[sw] = pi;
                }
            }
            for c in 1..=res {
                if dp[c - 1] > dp[c] {
                    dp[c] = dp[c - 1];
                    ch[c] = ch[c - 1];
                }
            }
            choice.push(ch);
        }

        for (k, class) in classes.iter().enumerate().skip(1) {
            let mut next = vec![NEG; res + 1];
            let mut ch = vec![usize::MAX; res + 1];
            for c in 0..=res {
                for (pi, &item_idx) in pruned[k].iter().enumerate() {
                    let item = class[item_idx];
                    let sw = self.scale(item.weight, capacity);
                    if sw > c {
                        break;
                    }
                    let base = dp[c - sw];
                    if base == NEG {
                        continue;
                    }
                    let value = base + item.profit;
                    if value > next[c] {
                        next[c] = value;
                        ch[c] = pi;
                    }
                }
            }
            dp = next;
            choice.push(ch);
        }

        if dp[res] == NEG {
            return Err(SolveError::Infeasible);
        }

        let mut budget = res;
        let mut picks = vec![0usize; classes.len()];
        for k in (0..classes.len()).rev() {
            let pi = choice[k][budget];
            let item_idx = pruned[k][pi];
            picks[k] = item_idx;
            let sw = self.scale(classes[k][item_idx].weight, capacity);
            budget -= sw;
        }
        Ok(Selection::new(picks))
    }
}

/// One benchmarked instance shape.
struct Shape {
    label: &'static str,
    classes: usize,
    items: usize,
    resolution: usize,
    instances: usize,
}

const SHAPES: [Shape; 2] = [
    Shape {
        label: "30x11_1e4",
        classes: 30,
        items: 11,
        resolution: 10_000,
        instances: 8,
    },
    Shape {
        label: "20x8_1e5",
        classes: 20,
        items: 8,
        resolution: 100_000,
        instances: 3,
    },
];

/// A random instance of `classes` classes of `items` items with rising
/// weights and profits, sized so the cheapest selection fits well inside
/// the unit capacity while the upgrades keep the knapsack binding (the
/// generator of the `mckp` criterion bench).
fn instance(classes: usize, items: usize, seed: u64) -> Result<MckpInstance, SolveError> {
    let mut rng = Rng::seed_from(seed);
    let raw: Vec<Vec<Item>> = (0..classes)
        .map(|_| {
            let mut base_w = rng.f64() * 0.5 / classes as f64;
            let mut base_p = rng.f64();
            (0..items)
                .map(|_| {
                    base_w += rng.f64() * 2.0 / (classes * items) as f64;
                    base_p += rng.f64();
                    Item::new(base_w, base_p)
                })
                .collect()
        })
        .collect();
    MckpInstance::new(raw, 1.0)
}

/// Wall time of solving every instance once.
fn time_trial<F>(instances: &[MckpInstance], mut solve: F) -> f64
where
    F: FnMut(&MckpInstance) -> Result<Selection, SolveError>,
{
    let sw = Stopwatch::start();
    for inst in instances {
        let _ = black_box(solve(black_box(inst)));
    }
    Duration::from_ns(sw.elapsed_ns()).as_ns_f64()
}

/// Measured figures for one shape.
struct ShapeResult {
    dp_us_per_solve: f64,
    ref_us_per_solve: f64,
    speedup: f64,
    max_frontier: usize,
}

/// Most selections the brute-force cross-check enumerates.
const BRUTE_COMBINATIONS: u128 = 1_000_000;

/// The longest prefix of `inst`'s classes with at most
/// `BRUTE_COMBINATIONS` selections, as an instance of its own with the
/// prefix's share of the capacity, so the capacity still binds.
fn brute_prefix(inst: &MckpInstance) -> Result<MckpInstance, SolveError> {
    let mut combos = 1u128;
    let classes: Vec<Vec<Item>> = inst
        .classes()
        .iter()
        .take_while(|class| {
            combos *= class.len() as u128;
            combos <= BRUTE_COMBINATIONS
        })
        .cloned()
        .collect();
    let share = classes.len() as f64 / inst.num_classes() as f64;
    MckpInstance::new(classes, inst.capacity() * share)
}

/// The correctness checks on one instance; returns the largest frontier.
fn check(
    label: &str,
    i: usize,
    inst: &MckpInstance,
    dp: &DpSolver,
    reference: &RefDp,
) -> Result<usize, Box<dyn std::error::Error>> {
    let fail = |what: String| format!("{label} instance {i}: {what}");
    let (sel, stats) = dp.solve_with_stats(inst);
    if stats.fell_back {
        return Err(fail(format!("fell back to the grid ({stats:?})")).into());
    }
    let sel = sel.map_err(|e| fail(format!("DpSolver failed: {e}")))?;
    if !inst.is_feasible(&sel) {
        return Err(fail(format!("infeasible selection {sel:?}")).into());
    }
    let profit = inst.selection_profit(&sel)?;
    let grid = reference
        .solve(inst)
        .map_err(|e| fail(format!("reference DP failed: {e}")))?;
    let grid_profit = inst.selection_profit(&grid)?;
    if profit < grid_profit {
        return Err(fail(format!(
            "profit {profit} below the reference DP's {grid_profit}"
        ))
        .into());
    }
    let prefix = brute_prefix(inst)?;
    let exact = BruteForceSolver::with_max_combinations(BRUTE_COMBINATIONS).solve(&prefix);
    let profits = |sel: Result<Selection, SolveError>| {
        sel.and_then(|s| prefix.selection_profit(&s))
            .map(f64::to_bits)
    };
    let (a, b) = (profits(dp.solve(&prefix)), profits(exact));
    if a != b {
        return Err(fail(format!(
            "on its {}-class prefix DpSolver gives {a:?}, brute force {b:?} (profit bits)",
            prefix.num_classes()
        ))
        .into());
    }
    Ok(stats.max_frontier)
}

fn run_shape(shape: &Shape) -> Result<ShapeResult, Box<dyn std::error::Error>> {
    let mut seeds = Rng::seed_from(0xD1CE);
    let instances = (0..shape.instances)
        .map(|_| instance(shape.classes, shape.items, seeds.next_u64()))
        .collect::<Result<Vec<_>, _>>()?;
    let dp = DpSolver::with_resolution(shape.resolution);
    let reference = RefDp {
        resolution: shape.resolution,
    };
    let mut max_frontier = 0;
    for (i, inst) in instances.iter().enumerate() {
        max_frontier = max_frontier.max(check(shape.label, i, inst, &dp, &reference)?);
    }

    let us_per_solve = |ns: f64| ns / 1e3 / shape.instances as f64;
    let mut dp_best = f64::INFINITY;
    let mut ref_best = f64::INFINITY;
    for _ in 0..ROUNDS {
        for _ in 0..TRIALS {
            dp_best = dp_best.min(time_trial(&instances, |inst| dp.solve(inst)));
            ref_best = ref_best.min(time_trial(&instances, |inst| reference.solve(inst)));
        }
        if ref_best / dp_best.max(1e-9) >= MIN_SPEEDUP {
            break;
        }
    }
    Ok(ShapeResult {
        dp_us_per_solve: us_per_solve(dp_best),
        ref_us_per_solve: us_per_solve(ref_best),
        speedup: ref_best / dp_best.max(1e-9),
        max_frontier,
    })
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out = flag_value(&args, "--out").unwrap_or("BENCH_mckp.json");

    let mut fields = String::new();
    let mut slow = Vec::new();
    for shape in &SHAPES {
        let r = run_shape(shape)?;
        eprintln!(
            "mckp_bench: {:<10} dp {:>9.1} us/solve  reference {:>9.1} us/solve  \
             speedup {:.1}x  max frontier {} states (no fallback)",
            shape.label, r.dp_us_per_solve, r.ref_us_per_solve, r.speedup, r.max_frontier
        );
        fields.push_str(&format!(
            concat!(
                "\"dp_us_per_solve_{l}\":{:.3},",
                "\"ref_us_per_solve_{l}\":{:.3},",
                "\"speedup_{l}\":{:.2},",
                "\"max_frontier_{l}\":{},"
            ),
            r.dp_us_per_solve,
            r.ref_us_per_solve,
            r.speedup,
            r.max_frontier,
            l = shape.label,
        ));
        if r.speedup < MIN_SPEEDUP {
            slow.push(format!("{} {:.1}x", shape.label, r.speedup));
        }
    }

    let summary = format!("{{\"name\":\"mckp\",{fields}\"checked\":true}}");
    std::fs::write(out, format!("{summary}\n"))?;
    println!("{summary}");
    eprintln!("mckp_bench: wrote {out}");

    if !slow.is_empty() {
        return Err(format!(
            "DP speedup over the reference loop below {MIN_SPEEDUP}x: {}",
            slow.join(", ")
        )
        .into());
    }
    Ok(())
}
