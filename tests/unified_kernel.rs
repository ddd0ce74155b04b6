//! Bitwise-parity properties of the unified round kernel.
//!
//! `ns_graph::round` merged four divergent holder-order round loops into
//! one plan executor, and every holder-order round now runs on the sharded
//! engine.  `tests/golden_round_traces.rs` pins the engines against traces
//! captured from the *pre-refactor* code; this file proves the same
//! contracts property-style on the shared graph zoo:
//!
//! * the 1-shard holder-order round, masked and static, is draw-for-draw
//!   the historical message-passing loop (an independent reference
//!   implementation kept verbatim below);
//! * an all-available mask through the sharded path is bitwise the
//!   unmasked sharded round;
//! * the 1-shard coordinator under a realized outage schedule is bitwise
//!   `run_protocol_under_outages` — the composed service path degenerates
//!   to the monolithic churn path exactly;
//! * the engine's masked round rejects a wrong-length mask with a
//!   classified error before touching any state or any stream.

mod common;

use common::strategies;
use network_shuffle::prelude::*;
use network_shuffle::service::{CoordinatorConfig, ShuffleCoordinator};
use network_shuffle::simulation::{
    run_protocol_under_outages, SimulationConfig, SimulationOutcome,
};
use ns_graph::partition::Partition;
use ns_graph::rng::seeded_rng;
use ns_graph::round::DrawMode;
use ns_graph::sharded_engine::ShardedMixingEngine;
use ns_graph::{Graph, GraphError, NodeId};
use proptest::prelude::*;
use rand::Rng;

/// The historical holder-order round, kept verbatim as an executable
/// reference: nodes in id order, each node's held reports in insertion
/// order, one lazy `f64` then one uniform neighbour index per report, a
/// masked recipient turns the move into a stay, and next-round buckets
/// list survivors first, then arrivals in global send order.
struct ReferenceLoop {
    buckets: Vec<Vec<u32>>,
}

impl ReferenceLoop {
    fn new(n: usize) -> Self {
        ReferenceLoop {
            buckets: (0..n).map(|u| vec![u as u32]).collect(),
        }
    }

    fn step<R: Rng>(
        &mut self,
        graph: &Graph,
        laziness: f64,
        available: Option<&[bool]>,
        rng: &mut R,
    ) {
        let n = graph.node_count();
        let mut kept: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut moved: Vec<(NodeId, u32)> = Vec::new();
        for (u, bucket) in self.buckets.iter().enumerate() {
            for &w in bucket {
                if laziness > 0.0 && rng.gen::<f64>() < laziness {
                    kept[u].push(w);
                    continue;
                }
                let nbrs = graph.neighbors(u);
                let dest = nbrs[rng.gen_range(0..nbrs.len())] as NodeId;
                match available {
                    Some(mask) if !mask[dest] => kept[u].push(w),
                    _ => moved.push((dest, w)),
                }
            }
        }
        self.buckets = kept;
        for (dest, w) in moved {
            self.buckets[dest].push(w);
        }
    }

    fn holders(&self) -> Vec<Vec<usize>> {
        self.buckets
            .iter()
            .map(|b| b.iter().map(|&w| w as usize).collect())
            .collect()
    }
}

/// A rotating ~25%-dark availability mask, deterministic in the round.
fn mask_for_round(n: usize, round: usize) -> Vec<bool> {
    (0..n).map(|u| !(u * 5 + round).is_multiple_of(4)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// (a) The 1-shard holder-order round — static and masked — is
    /// draw-for-draw the historical per-client loop on any zoo graph.
    #[test]
    fn refactored_holder_rounds_match_the_pre_refactor_loop(
        graph in strategies::graph_zoo(20..120),
        laziness_pct in 0usize..60,
        rounds in 1usize..8,
        masked_sel in 0usize..2,
    ) {
        let n = graph.node_count();
        prop_assume!(n >= 8);
        let laziness = laziness_pct as f64 / 100.0;
        let masked = masked_sel == 1;
        let partition = Partition::single_shard(&graph).unwrap();
        let mut engine = ShardedMixingEngine::one_walker_per_node(&graph, &partition, 0xFEED).unwrap();
        let mut reference = ReferenceLoop::new(n);
        let mut reference_rng = seeded_rng(0xFEED);
        for round in 0..rounds {
            let mask = masked.then(|| mask_for_round(n, round));
            engine.step(laziness, mask.as_deref(), &mut ()).unwrap();
            reference.step(&graph, laziness, mask.as_deref(), &mut reference_rng);
        }
        prop_assert_eq!(engine.walkers_by_holder(), reference.holders());
        let a: u64 = engine.shard_rng_mut(0).gen();
        let b: u64 = reference_rng.gen();
        prop_assert_eq!(a, b, "RNG streams diverged");
    }

    /// (c) An all-available mask through the sharded path is bitwise the
    /// unmasked sharded round, for any shard count.
    #[test]
    fn all_available_masks_are_bitwise_the_unmasked_sharded_round(
        graph in strategies::graph_zoo(20..120),
        shards in 1usize..6,
        laziness_pct in 0usize..60,
        rounds in 1usize..8,
    ) {
        let n = graph.node_count();
        prop_assume!(n >= 8);
        let k = shards.min(n);
        let laziness = laziness_pct as f64 / 100.0;
        let partition = Partition::new(&graph, k).unwrap();
        let seed = 0xABBA;
        let mask = vec![true; n];
        let mut masked = ShardedMixingEngine::one_walker_per_node(&graph, &partition, seed).unwrap();
        let mut plain = ShardedMixingEngine::one_walker_per_node(&graph, &partition, seed).unwrap();
        for _ in 0..rounds {
            masked.step(laziness, Some(&mask), &mut ()).unwrap();
            plain.step(laziness, None, &mut ()).unwrap();
        }
        prop_assert_eq!(masked.positions(), plain.positions());
        prop_assert_eq!(masked.walkers_by_holder(), plain.walkers_by_holder());
    }
}

fn curator_view<P: Copy>(outcome: &SimulationOutcome<P>) -> Vec<(usize, usize, bool, P)> {
    outcome
        .collected
        .reports_with_submitter()
        .map(|(s, r)| (s, r.origin, r.is_dummy, r.payload))
        .collect()
}

/// The composed service path degenerates exactly: a 1-shard coordinator
/// under a realized outage schedule reproduces
/// `run_protocol_under_outages` bit for bit — walk, submissions and
/// traffic metrics — for every outage model class.
#[test]
fn one_shard_coordinator_under_outages_is_bitwise_run_protocol_under_outages() {
    let graph = {
        let mut rng = seeded_rng(51);
        ns_graph::generators::random_regular(200, 6, &mut rng).unwrap()
    };
    let n = graph.node_count();
    let partition = Partition::single_shard(&graph).unwrap();
    let rounds = 14;
    let models = [
        OutageModel::Iid {
            dropout_probability: 0.25,
        },
        OutageModel::MarkovOnOff {
            fail: 0.1,
            recover: 0.3,
        },
        OutageModel::RegionBlackout {
            region: (0..n / 4).collect(),
            from_round: 2,
            until_round: 9,
        },
    ];
    for model in models {
        for (protocol, laziness) in [(ProtocolKind::All, 0.0), (ProtocolKind::Single, 0.2)] {
            let seed = 20220408;
            let schedule = model.sample_schedule(n, rounds, 9).unwrap();
            let payloads: Vec<u32> = (0..n as u32).collect();

            let config = SimulationConfig {
                rounds,
                laziness,
                protocol,
                seed,
            };
            let reference =
                run_protocol_under_outages(&graph, payloads.clone(), config, &schedule, |rng| {
                    rng.gen_range(0..5)
                })
                .expect("reference churn run");

            let mut coordinator: ShuffleCoordinator<'_, u32> = ShuffleCoordinator::new(
                &graph,
                &partition,
                CoordinatorConfig {
                    seed,
                    laziness,
                    protocol,
                    tracked_per_shard: 3,
                    draw_mode: DrawMode::Compat,
                },
            )
            .unwrap();
            coordinator.with_outages(schedule).unwrap();
            coordinator.admit_population(payloads).unwrap();
            coordinator.begin_exchange().unwrap();
            coordinator.run_rounds(rounds).unwrap();
            let service = coordinator
                .finalize(|rng| rng.gen_range(0..5))
                .expect("service churn run");

            assert_eq!(
                curator_view(&service),
                curator_view(&reference),
                "submissions diverged for {model:?} / {protocol:?}"
            );
            assert_eq!(service.metrics, reference.metrics);
        }
    }
}

/// A mask whose length is not `n` is a classified error on the masked
/// holder-order round (the 1-shard `ShardedMixingEngine::step`), returned
/// before any state changes or any RNG draw: the round counter, positions,
/// holder buckets and the stream's next draw are exactly what they were.
#[test]
fn wrong_length_masks_are_rejected_before_any_state_changes() {
    let g = ns_graph::generators::random_regular(40, 4, &mut seeded_rng(51)).unwrap();
    let n = g.node_count();
    let partition = Partition::single_shard(&g).unwrap();
    let mut holder = ShardedMixingEngine::one_walker_per_node(&g, &partition, 52).unwrap();
    holder.step(0.2, None, &mut ()).unwrap();
    let round = holder.round();
    let positions = holder.positions().to_vec();
    let holders = holder.walkers_by_holder();
    let mut twin = holder.shard_rng_mut(0).clone();
    for len in [n - 1, n + 1] {
        let mask = vec![true; len];
        let result = holder.step(0.2, Some(&mask), &mut ());
        assert!(
            matches!(result, Err(GraphError::InvalidParameters(_))),
            "a {len}-entry mask over {n} nodes: {result:?}"
        );
        assert_eq!(holder.round(), round);
        assert_eq!(holder.positions(), positions.as_slice());
        assert_eq!(holder.walkers_by_holder(), holders);
    }
    assert_eq!(
        holder.shard_rng_mut(0).gen::<u64>(),
        twin.gen::<u64>(),
        "a rejected holder-order round drew randomness"
    );
}
