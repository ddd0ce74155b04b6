//! Shard-count sweep of the sharded mixing engine at fixed population.
//!
//! Measures the cost of one exchange-round budget (engine construction plus
//! `ROUNDS` holder-order rounds) as the shard count grows at `n = 100_000`:
//! every round samples its shards inline, so the sweep isolates the
//! overhead of splitting the decide sweep and the RNG stream across shards
//! versus the monolithic round (`k = 1`, the protocol's holder-order
//! round).  The shard counts take turns on the timer, so they share the
//! host's state alike.
//!
//! The allocation audits of these rounds are tier-1 tests: the engines'
//! in `tests/engine_allocations.rs`, the plain and durable coordinator's,
//! on every thread, in `tests/coordinator_allocations.rs`.

use ns_bench::timer::{alternating, report};
use ns_graph::generators::random_regular;
use ns_graph::partition::Partition;
use ns_graph::rng::seeded_rng;
use ns_graph::sharded_engine::ShardedMixingEngine;
use std::hint::black_box;

const USERS: usize = 100_000;
const DEGREE: usize = 8;
const ROUNDS: usize = 10;
const SHARDS: [usize; 4] = [1, 2, 4, 8];

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
}
