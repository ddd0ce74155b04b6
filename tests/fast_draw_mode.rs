//! Contracts of the `fast` draw mode.
//!
//! Fast mode replaces compat's rejection-sampled two-draw rule (one `f64`
//! laziness coin, one `gen_range` neighbour index) with exactly one `u64`
//! per walker, split into a 32-bit threshold coin and a 32-bit Lemire
//! neighbour draw.  The streams necessarily differ, so the contract is not
//! bitwise parity with compat but:
//!
//! * **same distribution** — Monte-Carlo return-rate and empty-fraction
//!   statistics on the shared graph zoo must agree between modes within
//!   sampling error;
//! * **same composition laws** — the 1-shard engine is bitwise a plain
//!   holder-order loop drawing one `u64` per walker *in fast mode too*, and
//!   threaded sampling is bitwise sequential sampling, masked or not;
//! * **seed determinism** — same seed, same trajectories; different seed,
//!   different trajectories.
//!
//! Bitwise stream pinning for fast mode itself lives in
//! `tests/golden_round_traces.rs` (`round_traces_fast.txt`).

mod common;

use common::strategies;
use ns_graph::partition::Partition;
use ns_graph::rng::seeded_rng;
use ns_graph::round::DrawMode;
use ns_graph::sharded_engine::ShardedMixingEngine;
use ns_graph::{Graph, NodeId};
use proptest::prelude::*;
use rand::RngCore;

/// Mean return-rate (walkers back at their origin) and empty-fraction
/// (nodes holding no walker) over `trials` independent runs of `rounds`
/// holder-order rounds in the given draw mode.
fn monte_carlo_stats(
    graph: &Graph,
    mode: DrawMode,
    laziness: f64,
    rounds: usize,
    trials: u64,
) -> (f64, f64) {
    let n = graph.node_count();
    let partition = Partition::single_shard(graph).unwrap();
    let (mut returned, mut empty) = (0usize, 0usize);
    for trial in 0..trials {
        let mut engine =
            ShardedMixingEngine::one_walker_per_node(graph, &partition, 0x5EED_0000 + trial)
                .unwrap();
        engine.set_draw_mode(mode);
        for _ in 0..rounds {
            engine.step(laziness, None, &mut ()).unwrap();
        }
        returned += engine
            .positions()
            .iter()
            .enumerate()
            .filter(|&(w, &p)| w == p as usize)
            .count();
        empty += graph
            .nodes()
            .filter(|&u| engine.held_by(u).is_empty())
            .count();
    }
    let scale = (trials as f64) * n as f64;
    (returned as f64 / scale, empty as f64 / scale)
}

/// One fast-mode holder-order round, written out plainly: holders in id
/// order, each bucket in order, one `u64` per walker — the low 32 bits
/// against `floor(laziness · 2^32)` for the lazy stay, the high 32 bits
/// times the degree, shifted down 32, for the neighbour index — and next
/// buckets listing survivors first, then arrivals in send order.
fn reference_fast_round(
    graph: &Graph,
    laziness: f64,
    buckets: &mut Vec<Vec<u32>>,
    rng: &mut impl RngCore,
) {
    let threshold = (laziness * 4_294_967_296.0) as u64;
    let mut next: Vec<Vec<u32>> = vec![Vec::new(); buckets.len()];
    let mut moved: Vec<(NodeId, u32)> = Vec::new();
    for (u, bucket) in buckets.iter().enumerate() {
        let nbrs = graph.neighbors(u);
        for &w in bucket {
            let r = rng.next_u64();
            if (r & 0xFFFF_FFFF) < threshold {
                next[u].push(w);
            } else {
                let index = ((r >> 32) * nbrs.len() as u64) >> 32;
                moved.push((nbrs[index as usize] as NodeId, w));
            }
        }
    }
    for (dest, w) in moved {
        next[dest].push(w);
    }
    *buckets = next;
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Fast and compat draws realize the same walk distribution: on any zoo
    /// graph, the Monte-Carlo return-rate and empty-fraction agree within
    /// sampling error (40 trials of 6 rounds; the tolerance is ~5 standard
    /// errors of the trial means at these sizes).
    #[test]
    fn fast_mode_matches_compat_statistics_on_the_zoo(
        graph in strategies::graph_zoo(60..140),
        laziness_pct in 0usize..50,
    ) {
        prop_assume!(graph.node_count() >= 40);
        let laziness = laziness_pct as f64 / 100.0;
        let (ret_compat, empty_compat) =
            monte_carlo_stats(&graph, DrawMode::Compat, laziness, 6, 40);
        let (ret_fast, empty_fast) =
            monte_carlo_stats(&graph, DrawMode::Fast, laziness, 6, 40);
        prop_assert!(
            (ret_compat - ret_fast).abs() < 0.05,
            "return-rate diverged: compat={ret_compat} fast={ret_fast}"
        );
        prop_assert!(
            (empty_compat - empty_fast).abs() < 0.05,
            "empty-fraction diverged: compat={empty_compat} fast={empty_fast}"
        );
    }

    /// The 1-shard degeneracy holds in fast mode: the engine under a
    /// single-shard partition is bitwise [`reference_fast_round`] drawing
    /// from `seeded_rng(seed)` — bucket orders and stream position.
    #[test]
    fn fast_one_shard_is_bitwise_the_reference_fast_loop(
        graph in strategies::graph_zoo(30..120),
        laziness_pct in 0usize..50,
        rounds in 1usize..8,
        seed in 0u64..1000,
    ) {
        prop_assume!(graph.node_count() >= 10);
        let laziness = laziness_pct as f64 / 100.0;
        let partition = Partition::single_shard(&graph).unwrap();
        let mut engine =
            ShardedMixingEngine::one_walker_per_node(&graph, &partition, seed).unwrap();
        engine.set_draw_mode(DrawMode::Fast);
        let mut buckets: Vec<Vec<u32>> = (0..graph.node_count() as u32).map(|u| vec![u]).collect();
        let mut rng = seeded_rng(seed);
        for _ in 0..rounds {
            engine.step(laziness, None, &mut ()).unwrap();
            reference_fast_round(&graph, laziness, &mut buckets, &mut rng);
        }
        let expected: Vec<Vec<usize>> = buckets
            .iter()
            .map(|b| b.iter().map(|&w| w as usize).collect())
            .collect();
        prop_assert_eq!(engine.walkers_by_holder(), expected);
        prop_assert_eq!(engine.shard_rng_mut(0).next_u64(), rng.next_u64());
    }

    /// Threaded sampling in fast mode (`step` under the `parallel` feature)
    /// is bitwise the sequential fast round, masked or not, for any shard
    /// count — positions, bucket orders and every shard's stream position
    /// (thread-count invariance is inherited: workers only ever touch their
    /// own shard's stream and decide arena).
    #[test]
    fn fast_threaded_rounds_match_sequential(
        graph in strategies::graph_zoo(40..140),
        shards in 1usize..5,
        rounds in 1usize..6,
    ) {
        prop_assume!(graph.node_count() >= 20);
        let partition = if shards == 1 {
            Partition::single_shard(&graph).unwrap()
        } else {
            Partition::new(&graph, shards).unwrap()
        };
        let mut sequential =
            ShardedMixingEngine::one_walker_per_node(&graph, &partition, 9).unwrap();
        sequential.set_draw_mode(DrawMode::Fast);
        let mut threaded =
            ShardedMixingEngine::one_walker_per_node(&graph, &partition, 9).unwrap();
        threaded.set_draw_mode(DrawMode::Fast);
        let n = graph.node_count();
        let mask: Vec<bool> = (0..n).map(|u| !(u * 3 + 1).is_multiple_of(5)).collect();
        let ascending: Vec<usize> = (0..partition.shard_count()).collect();
        for round in 0..rounds {
            let mask = (round % 2 == 1).then_some(mask.as_slice());
            sequential.step_in_order(0.2, mask, &ascending, &mut ()).unwrap();
            threaded.step(0.2, mask, &mut ()).unwrap();
        }
        prop_assert_eq!(sequential.positions(), threaded.positions());
        prop_assert_eq!(sequential.walkers_by_holder(), threaded.walkers_by_holder());
        use rand::Rng;
        for s in 0..partition.shard_count() {
            let a: u64 = sequential.shard_rng_mut(s).gen();
            let b: u64 = threaded.shard_rng_mut(s).gen();
            prop_assert_eq!(a, b, "shard {} stream position diverged", s);
        }
    }
}

/// Seed determinism of fast mode outside proptest (fixed sizes, cheap).
#[test]
fn fast_mode_is_deterministic_in_the_seed() {
    let graph = ns_graph::generators::random_regular(200, 6, &mut seeded_rng(5)).unwrap();
    let partition = Partition::single_shard(&graph).unwrap();
    let run = |seed: u64| {
        let mut engine =
            ShardedMixingEngine::one_walker_per_node(&graph, &partition, seed).unwrap();
        engine.set_draw_mode(DrawMode::Fast);
        for _ in 0..12 {
            engine.step(0.1, None, &mut ()).unwrap();
        }
        engine.positions().to_vec()
    };
    assert_eq!(run(7), run(7));
    assert_ne!(run(7), run(8));
}
