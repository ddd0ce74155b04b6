//! The mixing engine's round, against the per-client reference loop and
//! where the round no longer fits in cache.
//!
//! * `protocol_100k_30r`: the acceptance bar of the batched engine.  At
//!   n = 100_000 users and t = 30 rounds, `run_protocol` (on the 1-shard
//!   sharded engine) must beat the preserved per-client reference loop by
//!   at least 2×.  Both paths take turns on the timer, and the `speedup:`
//!   line is the ratio of their medians.
//! * `engine_rounds_100k`: engine construction plus 30 holder-order rounds.
//! * `engine_round_strided_10m`: one 1-shard holder-order round (laziness
//!   0.2) at n = 10M in each draw mode, in M report-moves/s.  The topology
//!   is a degree-8 strided circulant with strides `1` plus three odd
//!   strides near `n/7`, `n/3` and `n/2`, so every CSR row builds in O(1)
//!   but every gather of a neighbour row and every position write lands far
//!   from the last one: the working set is ~200 MB and the round is
//!   DRAM-bound, the regime the `fast` draw mode's lane buffers,
//!   branchless decide, u32 compression and prefetching target.

use network_shuffle::simulation::reference::run_protocol_reference;
use network_shuffle::simulation::{run_protocol, SimulationConfig};
use ns_bench::timer::{alternating, bench, report, Spread};
use ns_graph::generators::{random_regular, strided_circulant};
use ns_graph::partition::Partition;
use ns_graph::rng::seeded_rng;
use ns_graph::round::DrawMode;
use ns_graph::sharded_engine::ShardedMixingEngine;
use std::hint::black_box;

const USERS: usize = 100_000;
const DEGREE: usize = 8;
const ROUNDS: usize = 30;
/// Population of the DRAM-bound round.
const STRIDED_USERS: usize = 10_000_000;

/// Times the batched engine against the per-client reference loop.
fn protocol_paths() {
    let graph = random_regular(USERS, DEGREE, &mut seeded_rng(1)).expect("graph");
    let payloads: Vec<u32> = (0..USERS as u32).collect();
    let mut batched = || {
        let outcome = run_protocol(
            &graph,
            payloads.clone(),
            SimulationConfig::all(ROUNDS, 7),
            |_| 0,
        )
        .expect("run");
        black_box(outcome.metrics.total_messages());
    };
    let mut reference = || {
        let outcome = run_protocol_reference(
            &graph,
            payloads.clone(),
            SimulationConfig::all(ROUNDS, 7),
            |_| 0,
        )
        .expect("run");
        black_box(outcome.metrics.total_messages());
    };
    let spreads = alternating(&mut [&mut batched as &mut dyn FnMut(), &mut reference]);
    let (batched, reference) = (spreads[0], spreads[1]);
    report(
        &format!("protocol_100k_30r/batched_engine/{USERS}"),
        &batched,
    );
    report(
        &format!("protocol_100k_30r/reference_per_client/{USERS}"),
        &reference,
    );
    println!(
        "speedup: batched engine {batched} vs reference per-client {reference} -> {:.2}x \
         (median [quartiles] of alternating runs; n = {USERS}, rounds = {ROUNDS})",
        reference.median / batched.median
    );

    let partition = Partition::single_shard(&graph).expect("partition");
    let mut seed = 4;
    bench("engine_rounds_100k/holder_order_30r", || {
        let mut engine =
            ShardedMixingEngine::one_walker_per_node(&graph, &partition, seed).expect("engine");
        for _ in 0..ROUNDS {
            engine.step(0.0, None, &mut ()).expect("round");
        }
        seed += 1;
        engine.positions().len()
    });
}

/// Times one round on the 10M strided circulant in each draw mode.
fn strided_round() {
    let n = STRIDED_USERS;
    let far = |frac: usize| {
        // Odd, so co-prime with a power-of-two n, and moved off a divisor.
        let mut stride = (n / frac).max(2) | 1;
        if n.is_multiple_of(stride) {
            stride += 2;
        }
        stride
    };
    let graph = strided_circulant(n, &[1, far(7), far(3), far(2)]).expect("graph");
    let partition = Partition::single_shard(&graph).expect("partition");
    // Report-moves per second: quantiles of a decreasing map swap.
    let rate = |seconds: Spread| {
        let per_s = |s: f64| n as f64 / s / 1e6;
        format!(
            "{:.2} [{:.2}–{:.2}] M report-moves/s",
            per_s(seconds.median),
            per_s(seconds.q3),
            per_s(seconds.q1)
        )
    };
    for (mode, name) in [(DrawMode::Compat, "compat"), (DrawMode::Fast, "fast")] {
        let mut engine =
            ShardedMixingEngine::one_walker_per_node(&graph, &partition, 0xB0B).expect("engine");
        engine.set_draw_mode(mode);
        let seconds = alternating(&mut [|| engine.step(0.2, None, &mut ()).expect("round")])[0];
        println!(
            "bench: {:<50} {}",
            format!("engine_round_strided_10m/{name}"),
            rate(seconds)
        );
    }
}

fn main() {
    protocol_paths();
    strided_round();
}
