//! E12 timing axis: race-logic shortest path (cycle-accurate CMOS sim and
//! algebraic network eval) vs the classical relaxation baseline, across
//! DAG sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use st_core::Time;
use st_grl::alignment::{edit_distance_race, edit_distance_reference};
use st_grl::shortest_path::{shortest_paths_reference, WeightedDag};
use st_grl::{compile_network, GrlSim};
use std::hint::black_box;

fn bench_shortest_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("shortest_path");
    for &n in &[16usize, 64, 256] {
        let dag = WeightedDag::random(n, 4, 0.5, 6, n as u64);
        let network = dag.to_network(0);
        let netlist = compile_network(&network);
        let sim = GrlSim::new();
        group.bench_with_input(BenchmarkId::new("classical_relaxation", n), &n, |b, _| {
            b.iter(|| shortest_paths_reference(black_box(&dag), 0));
        });
        group.bench_with_input(BenchmarkId::new("algebraic_network", n), &n, |b, _| {
            b.iter(|| network.eval(black_box(&[Time::ZERO])).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("grl_cycle_accurate", n), &n, |b, _| {
            b.iter(|| sim.run(&netlist, black_box(&[Time::ZERO])).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("compile_to_cmos", n), &n, |b, _| {
            b.iter(|| compile_network(black_box(&network)));
        });
    }
    group.finish();
}

fn bench_alignment(c: &mut Criterion) {
    let mut group = c.benchmark_group("edit_distance");
    let mut rng = StdRng::seed_from_u64(5);
    let bases = [b'A', b'C', b'G', b'T'];
    for &len in &[8usize, 16, 32] {
        let a: Vec<u8> = (0..len)
            .map(|_| bases[rng.random_range(0..4usize)])
            .collect();
        let b: Vec<u8> = (0..len)
            .map(|_| bases[rng.random_range(0..4usize)])
            .collect();
        group.bench_with_input(BenchmarkId::new("race_logic", len), &len, |bch, _| {
            bch.iter(|| edit_distance_race(black_box(&a), black_box(&b)).unwrap().0);
        });
        group.bench_with_input(BenchmarkId::new("textbook_dp", len), &len, |bch, _| {
            bch.iter(|| edit_distance_reference(black_box(&a), black_box(&b)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_shortest_path, bench_alignment);
criterion_main!(benches);
