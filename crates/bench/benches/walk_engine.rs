//! Micro-benchmark of one round of a single origin's position distribution
//! — a 1-row `DistributionEnsemble`, which steps through the walk
//! operator's scalar scatter — plus its accounting moments: the per-round
//! cost that backs the Table 3 complexity claims.  Engine rounds are timed
//! by the `mixing_engine` bench and the `roundloop` binary.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use ns_graph::ensemble::DistributionEnsemble;
use ns_graph::generators::random_regular;
use ns_graph::rng::seeded_rng;
use ns_graph::transition::TransitionMatrix;

fn bench_distribution_update(c: &mut Criterion) {
    let mut group = c.benchmark_group("distribution_update");
    for &n in &[1_000usize, 10_000] {
        let graph = random_regular(n, 8, &mut seeded_rng(4)).expect("graph");
        let transition = TransitionMatrix::new(&graph).expect("transition");
        group.bench_with_input(BenchmarkId::new("propagate", n), &n, |b, _| {
            let mut dist = DistributionEnsemble::point_masses(n, &[0]).expect("dist");
            b.iter(|| {
                dist.advance(&transition, 1);
                black_box(dist.row_stats(0).sum_of_squares)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_distribution_update);
criterion_main!(benches);
