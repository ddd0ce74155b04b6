//! Shard-count sweeps of the sharded runtime at fixed population.
//!
//! `sharded_mixing_100k/rounds/k` measures the cost of one exchange-round
//! budget (engine construction plus `ROUNDS` holder-order rounds) as the
//! shard count grows at `n = 100_000`: every round samples its shards
//! inline, so the sweep isolates the overhead of splitting the decide sweep
//! and the RNG stream across shards versus the monolithic round (`k = 1`,
//! the protocol's holder-order round).
//!
//! `partition_new_250k/k` times the partitioner (`Partition::new`) on a
//! 250k-user Chung–Lu stand-in with the 1M epoch benchmark's degree profile
//! (irregularity 7.584, mean degree 10): growth and refinement at `k > 1`,
//! the directly built 1-shard partition at `k = 1`.
//!
//! In each sweep the shard counts take turns on the timer, so they share
//! the host's state alike.
//!
//! The allocation audits of these rounds are tier-1 tests: the engines'
//! in `tests/engine_allocations.rs`, the plain and durable coordinator's,
//! on every thread, in `tests/coordinator_allocations.rs`.

use ns_bench::timer::{alternating, report};
use ns_datasets::catalog::generate_with_targets;
use ns_graph::generators::random_regular;
use ns_graph::partition::Partition;
use ns_graph::rng::seeded_rng;
use ns_graph::sharded_engine::ShardedMixingEngine;
use std::hint::black_box;

const USERS: usize = 100_000;
const DEGREE: usize = 8;
const ROUNDS: usize = 10;
const SHARDS: [usize; 4] = [1, 2, 4, 8];
const PARTITIONED_USERS: usize = 250_000;

fn main() {
    let graph = random_regular(USERS, DEGREE, &mut seeded_rng(1)).expect("graph");
    let partitions: Vec<Partition> = SHARDS
        .iter()
        .map(|&shards| Partition::new(&graph, shards).expect("partition"))
        .collect();
    let mut sweeps: Vec<_> = partitions
        .iter()
        .map(|partition| {
            let graph = &graph;
            move || {
                let mut engine =
                    ShardedMixingEngine::one_walker_per_node(graph, partition, 7).expect("engine");
                for _ in 0..ROUNDS {
                    engine.step(0.0, None, &mut ()).expect("round");
                }
                black_box(engine.position(0));
            }
        })
        .collect();
    for (shards, spread) in SHARDS.iter().zip(alternating(&mut sweeps)) {
        report(&format!("sharded_mixing_100k/rounds/{shards}"), &spread);
    }

    let graph = generate_with_targets(PARTITIONED_USERS, 7.584, 10.0, 20220408).expect("graph");
    let mut builds: Vec<_> = SHARDS
        .iter()
        .map(|&shards| {
            let graph = &graph;
            move || {
                black_box(Partition::new(graph, shards).expect("partition"));
            }
        })
        .collect();
    for (shards, spread) in SHARDS.iter().zip(alternating(&mut builds)) {
        report(&format!("partition_new_250k/{shards}"), &spread);
    }
}
