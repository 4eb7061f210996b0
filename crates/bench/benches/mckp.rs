//! MCKP solver scaling: the exact frontier DP, HEU-OE and the LP
//! relaxation, over instances shaped like the paper's (§6.2: ~30
//! classes × ~11 items) and larger.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rto_mckp::lp::lp_relaxation;
use rto_mckp::{DpSolver, HeuOeSolver, Item, MckpInstance, Solver};
use rto_stats::Rng;

/// A random instance: `classes` classes of `items` items each, weights
/// scaled so that roughly half the classes can take their best item.
fn instance(classes: usize, items: usize, seed: u64) -> MckpInstance {
    let mut rng = Rng::seed_from(seed);
    // Base weights scale with the class count so the cheapest selection
    // always fits well inside the capacity (Σ base ≈ 0.25 on average)
    // while the upgrades keep the knapsack binding.
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
    let inst = MckpInstance::new(raw, 1.0).expect("generated instance is valid");
    assert!(
        inst.has_feasible_selection(),
        "bench instance must be feasible"
    );
    inst
}

fn bench_solvers(c: &mut Criterion) {
    let mut group = c.benchmark_group("mckp-solvers");
    for &(classes, items) in &[(10usize, 5usize), (30, 11), (100, 11)] {
        let inst = instance(classes, items, 42);
        let label = format!("{classes}x{items}");
        group.bench_with_input(BenchmarkId::new("dp", &label), &inst, |b, inst| {
            let solver = DpSolver::default();
            b.iter(|| solver.solve(std::hint::black_box(inst)).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("heu-oe", &label), &inst, |b, inst| {
            let solver = HeuOeSolver::new();
            b.iter(|| solver.solve(std::hint::black_box(inst)).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("lp-relax", &label), &inst, |b, inst| {
            b.iter(|| lp_relaxation(std::hint::black_box(inst)).unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_solvers);
criterion_main!(benches);
