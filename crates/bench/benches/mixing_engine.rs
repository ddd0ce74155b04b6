//! Batched mixing engine vs. the seed's per-client round loop.
//!
//! The acceptance bar for the engine refactor: at n = 100_000 users and
//! t = 30 rounds, the batched `run_protocol` must beat the preserved
//! per-client reference loop by at least 2×.  Besides the criterion-style
//! per-path timings, `bench_speedup_ratio` times both paths back to back on
//! identical inputs and prints the ratio directly.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use network_shuffle::simulation::reference::run_protocol_reference;
use network_shuffle::simulation::{run_protocol, SimulationConfig};
use ns_graph::generators::random_regular;
use ns_graph::partition::Partition;
use ns_graph::rng::seeded_rng;
use ns_graph::sharded_engine::ShardedMixingEngine;
use ns_graph::Graph;
use std::time::Instant;

const USERS: usize = 100_000;
const DEGREE: usize = 8;
const ROUNDS: usize = 30;

fn graph() -> Graph {
    random_regular(USERS, DEGREE, &mut seeded_rng(1)).expect("graph")
}

fn bench_protocol_paths(c: &mut Criterion) {
    let graph = graph();
    let mut group = c.benchmark_group("protocol_100k_30r");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("batched_engine", USERS), &graph, |b, g| {
        b.iter(|| {
            let payloads: Vec<u32> = (0..USERS as u32).collect();
            let outcome =
                run_protocol(g, payloads, SimulationConfig::all(ROUNDS, 7), |_| 0).expect("run");
            black_box(outcome.metrics.total_messages())
        });
    });
    group.bench_with_input(
        BenchmarkId::new("reference_per_client", USERS),
        &graph,
        |b, g| {
            b.iter(|| {
                let payloads: Vec<u32> = (0..USERS as u32).collect();
                let outcome =
                    run_protocol_reference(g, payloads, SimulationConfig::all(ROUNDS, 7), |_| 0)
                        .expect("run");
                black_box(outcome.metrics.total_messages())
            });
        },
    );
    group.finish();
}

fn bench_engine_rounds(c: &mut Criterion) {
    let graph = graph();
    let mut group = c.benchmark_group("engine_rounds_100k");
    group.sample_size(10);
    let partition = Partition::single_shard(&graph).expect("partition");
    group.bench_function("holder_order_30r", |b| {
        let mut seed = 4;
        b.iter(|| {
            let mut engine =
                ShardedMixingEngine::one_walker_per_node(&graph, &partition, seed).expect("engine");
            for _ in 0..ROUNDS {
                engine.step(0.0, None, &mut ()).expect("round");
            }
            seed += 1;
            black_box(engine.positions().len())
        });
    });
    group.finish();
}

/// Times both protocol paths back to back and prints the speedup ratio —
/// the number the acceptance criterion asks for.
fn bench_speedup_ratio(_c: &mut Criterion) {
    let graph = graph();
    let time = |f: &dyn Fn() -> usize| {
        // One warm-up, then the best of three timed runs.
        f();
        (0..3)
            .map(|_| {
                let start = Instant::now();
                black_box(f());
                start.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    let batched = time(&|| {
        let payloads: Vec<u32> = (0..USERS as u32).collect();
        run_protocol(&graph, payloads, SimulationConfig::all(ROUNDS, 7), |_| 0)
            .expect("run")
            .metrics
            .total_messages()
    });
    let reference = time(&|| {
        let payloads: Vec<u32> = (0..USERS as u32).collect();
        run_protocol_reference(&graph, payloads, SimulationConfig::all(ROUNDS, 7), |_| 0)
            .expect("run")
            .metrics
            .total_messages()
    });
    println!(
        "speedup: batched engine {batched:.3} s vs reference per-client {reference:.3} s \
         -> {:.2}x (n = {USERS}, rounds = {ROUNDS})",
        reference / batched
    );
}

criterion_group!(
    benches,
    bench_protocol_paths,
    bench_engine_rounds,
    bench_speedup_ratio
);
criterion_main!(benches);
