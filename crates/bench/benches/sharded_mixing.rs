//! Shard-count sweep of the sharded mixing engine at fixed population.
//!
//! Measures the cost of one exchange-round budget (engine construction plus
//! `ROUNDS` holder-order rounds) as the shard count grows at `n = 100_000`:
//! the sequential sweep isolates the overhead of splitting the decide
//! sweep and the RNG stream across shards versus the monolithic round
//! (`k = 1`, the protocol's holder-order round).  With
//! `--features parallel` the same sweep exercises the threaded sampling
//! phase instead.
//!
//! The allocation audits of these rounds are tier-1 tests: the engines'
//! in `tests/engine_allocations.rs`, the plain and durable coordinator's,
//! on every thread, in `tests/coordinator_allocations.rs`.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use ns_graph::generators::random_regular;
use ns_graph::partition::Partition;
use ns_graph::rng::seeded_rng;
use ns_graph::sharded_engine::ShardedMixingEngine;

const USERS: usize = 100_000;
const DEGREE: usize = 8;
const ROUNDS: usize = 10;

fn bench_shard_count_sweep(c: &mut Criterion) {
    let graph = random_regular(USERS, DEGREE, &mut seeded_rng(1)).expect("graph");
    let mut group = c.benchmark_group("sharded_mixing_100k");
    group.sample_size(10);
    for shards in [1usize, 2, 4, 8] {
        let partition = Partition::new(&graph, shards).expect("partition");
        group.bench_with_input(
            BenchmarkId::new("rounds", shards),
            &partition,
            |b, partition| {
                b.iter(|| {
                    let mut engine = ShardedMixingEngine::one_walker_per_node(&graph, partition, 7)
                        .expect("engine");
                    for _ in 0..ROUNDS {
                        engine.step(0.0, None, &mut ()).expect("round");
                    }
                    black_box(engine.position(0))
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_shard_count_sweep);
criterion_main!(benches);
