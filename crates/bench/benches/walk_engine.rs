//! Micro-benchmarks of walker-order report walks and distribution updates —
//! the per-round cost that backs the Table 3 complexity claims.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use ns_graph::distribution::PositionDistribution;
use ns_graph::generators::random_regular;
use ns_graph::mixing_engine::MixingEngine;
use ns_graph::rng::seeded_rng;
use ns_graph::transition::TransitionMatrix;
use ns_graph::walk::WalkConfig;

fn bench_walk_rounds(c: &mut Criterion) {
    let mut group = c.benchmark_group("walk_round");
    for &n in &[1_000usize, 10_000] {
        let graph = random_regular(n, 8, &mut seeded_rng(1)).expect("graph");
        group.bench_with_input(BenchmarkId::new("one_round_all_reports", n), &n, |b, _| {
            let mut rng = seeded_rng(2);
            b.iter(|| {
                let mut engine = MixingEngine::one_walker_per_node(&graph).expect("engine");
                engine.step(0.0, &mut rng);
                black_box(engine.positions().len())
            });
        });
        group.bench_with_input(BenchmarkId::new("ten_rounds", n), &n, |b, _| {
            let mut rng = seeded_rng(3);
            b.iter(|| {
                let mut engine = MixingEngine::one_walker_per_node(&graph).expect("engine");
                engine.run(WalkConfig::simple(10), &mut rng).expect("run");
                black_box(engine.load_vector())
            });
        });
    }
    group.finish();
}

fn bench_distribution_update(c: &mut Criterion) {
    let mut group = c.benchmark_group("distribution_update");
    for &n in &[1_000usize, 10_000] {
        let graph = random_regular(n, 8, &mut seeded_rng(4)).expect("graph");
        let transition = TransitionMatrix::new(&graph).expect("transition");
        group.bench_with_input(BenchmarkId::new("propagate", n), &n, |b, _| {
            let mut dist = PositionDistribution::point_mass(n, 0).expect("dist");
            b.iter(|| {
                dist.step(&transition);
                black_box(dist.sum_of_squares())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_walk_rounds, bench_distribution_update);
criterion_main!(benches);
