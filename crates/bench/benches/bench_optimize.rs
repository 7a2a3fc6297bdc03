//! E17 timing axis: the verified optimizer and the expression simplifier
//! on mechanically generated inputs of growing size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use st_core::{simplify, Expr, FunctionTable, Time};
use st_net::synth::{synthesize, SynthesisOptions};
use st_opt::{optimize_network, OptOptions};
use std::hint::black_box;

fn random_table(arity: usize, rows: usize, window: u64, seed: u64) -> FunctionTable {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    while out.len() < rows {
        let anchor = rng.random_range(0..arity);
        let pattern: Vec<Time> = (0..arity)
            .map(|i| {
                if i == anchor {
                    Time::ZERO
                } else if rng.random_bool(0.25) {
                    Time::INFINITY
                } else {
                    Time::finite(rng.random_range(0..=window))
                }
            })
            .collect();
        if !seen.insert(pattern.clone()) {
            continue;
        }
        let max_finite = pattern.iter().filter_map(|x| x.value()).max().unwrap_or(0);
        out.push((
            pattern,
            Time::finite(max_finite + rng.random_range(0..=2u64)),
        ));
    }
    FunctionTable::from_rows(arity, out).expect("normal form")
}

fn deep_expr(depth: usize) -> Expr {
    // A deliberately redundant expression: repeated absorption patterns
    // over shared subtrees.
    let mut e = Expr::input(0);
    for i in 0..depth {
        let other = Expr::input(i % 3);
        e = (e.clone() & (e.clone() | other.clone())).inc(0) | (other & Expr::constant(Time::ZERO));
    }
    e
}

fn bench_optimize(c: &mut Criterion) {
    let mut group = c.benchmark_group("network_optimize");
    for &rows in &[8usize, 32, 128] {
        let table = random_table(4, rows, 6, rows as u64);
        let net = synthesize(&table, SynthesisOptions::pure());
        group.bench_with_input(BenchmarkId::new("optimize", rows), &rows, |b, _| {
            b.iter(|| optimize_network(black_box(&net), &OptOptions::default()));
        });
    }
    group.finish();

    let mut group = c.benchmark_group("expr_simplify");
    for &depth in &[4usize, 8, 16] {
        let e = deep_expr(depth);
        group.bench_with_input(BenchmarkId::new("simplify", depth), &depth, |b, _| {
            b.iter(|| simplify(black_box(&e)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_optimize);
criterion_main!(benches);
