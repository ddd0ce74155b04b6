//! Determinism, degeneracy and equivalence tests for the sharded runtime.
//!
//! The sharded engine's contract, at integration level:
//!
//! * every round, at every shard count, masked or not and in both draw
//!   modes, rebuilds the holder buckets and the sent/load statistics
//!   exactly as a model that sees only the pre-round buckets, the
//!   post-round positions and the partition predicts — survivors first,
//!   then arrivals grouped by source shard ascending, each group in that
//!   shard's send order;
//! * under the canonical 1-shard partition the service path on top of it
//!   is **bit for bit** [`run_protocol`]: walk, submissions and
//!   [`TrafficMetrics`];
//! * for `k > 1` the result is a pure function of `(seed, partition)`:
//!   invariant to the order shards are sampled in;
//! * the k-shard stream split is a *different but equally distributed*
//!   realization of the same walk: aggregate mixing statistics agree with
//!   the 1-shard run within Monte-Carlo tolerance.

mod common;

use common::strategies;
use network_shuffle::prelude::*;
use network_shuffle::service::{CoordinatorConfig, ShuffleCoordinator};
use network_shuffle::simulation::{run_protocol, SimulationConfig, SimulationOutcome};
use ns_graph::partition::Partition;
use ns_graph::prelude::{RoundObserver, RoundStats};
use ns_graph::rng::seeded_rng;
use ns_graph::round::DrawMode;
use ns_graph::sharded_engine::ShardedMixingEngine;
use proptest::prelude::*;
use rand::Rng;

fn curator_view<P: Copy>(outcome: &SimulationOutcome<P>) -> Vec<(usize, usize, bool, P)> {
    outcome
        .collected
        .reports_with_submitter()
        .map(|(s, r)| (s, r.origin, r.is_dummy, r.payload))
        .collect()
}

/// 1-shard degeneracy at the service layer: the coordinator reproduces
/// `run_protocol` bit for bit — walk, submissions (including `A_single`
/// picks and dummies) and traffic metrics.
#[test]
fn one_shard_coordinator_is_bitwise_run_protocol() {
    let graph = {
        let mut rng = seeded_rng(2);
        ns_graph::generators::random_regular(300, 6, &mut rng).unwrap()
    };
    let partition = Partition::single_shard(&graph).unwrap();
    for (protocol, laziness) in [
        (ProtocolKind::All, 0.0),
        (ProtocolKind::All, 0.2),
        (ProtocolKind::Single, 0.0),
        (ProtocolKind::Single, 0.2),
    ] {
        let seed = 20220408;
        let rounds = 18;
        let payloads: Vec<u32> = (0..300).collect();

        let config = SimulationConfig {
            rounds,
            laziness,
            protocol,
            seed,
        };
        let reference = run_protocol(&graph, payloads.clone(), config, |rng| rng.gen_range(0..7))
            .expect("reference run");

        let coordinator_config = CoordinatorConfig {
            seed,
            laziness,
            protocol,
            tracked_per_shard: 4,
            draw_mode: DrawMode::Compat,
        };
        let mut coordinator: ShuffleCoordinator<'_, u32> =
            ShuffleCoordinator::new(&graph, &partition, coordinator_config).unwrap();
        coordinator.admit_population(payloads).unwrap();
        coordinator.begin_exchange().unwrap();
        coordinator.run_rounds(rounds).unwrap();
        let service = coordinator
            .finalize(|rng| rng.gen_range(0..7))
            .expect("service run");

        assert_eq!(
            curator_view(&service),
            curator_view(&reference),
            "submissions diverged for {protocol:?} at laziness {laziness}"
        );
        assert_eq!(service.metrics, reference.metrics);
    }
}

/// A_all through a k-shard coordinator delivers every genuine report to the
/// curator exactly once — conservation across the cross-shard exchange.
#[test]
fn multi_shard_coordinator_conserves_reports() {
    let graph = {
        let mut rng = seeded_rng(3);
        ns_graph::generators::random_regular(240, 6, &mut rng).unwrap()
    };
    let partition = Partition::new(&graph, 5).unwrap();
    let mut coordinator: ShuffleCoordinator<'_, u32> =
        ShuffleCoordinator::new(&graph, &partition, CoordinatorConfig::all(21, 3)).unwrap();
    coordinator.admit_population((0..240u32).collect()).unwrap();
    coordinator.begin_exchange().unwrap();
    coordinator.run_rounds(20).unwrap();
    let outcome = coordinator.finalize(|_| 0).unwrap();
    assert_eq!(outcome.collected.report_count(), 240);
    assert_eq!(outcome.collected.dummy_count(), 0);
    let mut origins: Vec<usize> = outcome
        .collected
        .reports_with_submitter()
        .map(|(_, r)| r.origin)
        .collect();
    origins.sort_unstable();
    assert_eq!(origins, (0..240).collect::<Vec<_>>());
    assert_eq!(outcome.metrics.total_messages(), 240 * 20);
}

/// The k-shard split streams realize the *same walk distribution* as the
/// single-stream (1-shard) engine: over many seeds, the return-to-origin
/// rate and the empty-holder fraction after mixing agree within
/// Monte-Carlo tolerance.
#[test]
fn multi_shard_runs_are_statistically_equivalent_to_single_engine_runs() {
    let graph = {
        let mut rng = seeded_rng(4);
        ns_graph::generators::random_regular(400, 8, &mut rng).unwrap()
    };
    let four = Partition::new(&graph, 4).unwrap();
    let one = Partition::single_shard(&graph).unwrap();
    let rounds = 12;
    let trials = 60u64;
    let stats = |sharded: bool| -> (f64, f64) {
        let partition = if sharded { &four } else { &one };
        let (mut returned, mut empty) = (0usize, 0usize);
        for trial in 0..trials {
            let mut engine =
                ShardedMixingEngine::one_walker_per_node(&graph, partition, 1000 + trial).unwrap();
            for _ in 0..rounds {
                engine.step(0.0, None, &mut ()).unwrap();
            }
            let positions = engine.positions();
            returned += positions
                .iter()
                .enumerate()
                .filter(|&(w, &p)| w == p as usize)
                .count();
            let mut load = vec![0usize; 400];
            for &p in positions {
                load[p as usize] += 1;
            }
            empty += load.iter().filter(|&&l| l == 0).count();
        }
        let denom = (400 * trials as usize) as f64;
        (returned as f64 / denom, empty as f64 / denom)
    };
    let (return_sharded, empty_sharded) = stats(true);
    let (return_single, empty_single) = stats(false);
    // Both should sit near 1/n ≈ 0.0025 and e^{-1} ≈ 0.368 respectively.
    assert!(
        (return_sharded - return_single).abs() < 0.01,
        "return rates diverged: sharded {return_sharded}, single {return_single}"
    );
    assert!(
        (empty_sharded - empty_single).abs() < 0.01,
        "empty fractions diverged: sharded {empty_sharded}, single {empty_single}"
    );
    assert!((empty_sharded - (-1.0f64).exp()).abs() < 0.02);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Cross-shard determinism on the graph zoo: a k-shard round sequence
    /// is bitwise invariant to the shard sampling order, and `step` is
    /// bitwise both explicit orders, for any graph family, shard count,
    /// laziness and round budget.
    #[test]
    fn sharded_rounds_are_invariant_to_execution_order(
        graph in strategies::graph_zoo(40..160),
        shards in 1usize..7,
        rounds in 1usize..10,
        laziness_pct in 0usize..60,
    ) {
        let n = graph.node_count();
        prop_assume!(n >= 16);
        let k = shards.min(n);
        let laziness = laziness_pct as f64 / 100.0;
        let partition = Partition::new(&graph, k).unwrap();
        let seed = 0xC0FFEE;

        let mut forward = ShardedMixingEngine::one_walker_per_node(&graph, &partition, seed).unwrap();
        let mut backward = ShardedMixingEngine::one_walker_per_node(&graph, &partition, seed).unwrap();
        let mut stepped = ShardedMixingEngine::one_walker_per_node(&graph, &partition, seed).unwrap();
        let ascending: Vec<usize> = (0..k).collect();
        let reversed: Vec<usize> = (0..k).rev().collect();
        for _ in 0..rounds {
            forward.step_in_order(laziness, None, &ascending, &mut ()).unwrap();
            backward.step_in_order(laziness, None, &reversed, &mut ()).unwrap();
            stepped.step(laziness, None, &mut ()).unwrap();
        }
        prop_assert_eq!(forward.positions(), backward.positions());
        prop_assert_eq!(forward.positions(), stepped.positions());
        prop_assert_eq!(forward.walkers_by_holder(), backward.walkers_by_holder());
        prop_assert_eq!(forward.walkers_by_holder(), stepped.walkers_by_holder());
    }
}

/// Copies each round's sent/load vectors out of the observer hook.
#[derive(Default)]
struct StatsTap {
    sent: Vec<u32>,
    load: Vec<u32>,
}

impl RoundObserver for StatsTap {
    fn on_round(&mut self, stats: &RoundStats<'_>) {
        self.sent = stats.sent.to_vec();
        self.load = stats.load.to_vec();
    }
}

/// A rotating ~25%-dark availability mask, deterministic in the round.
fn mask_for_round(n: usize, round: usize) -> Vec<bool> {
    (0..n).map(|u| !(u * 3 + round).is_multiple_of(4)).collect()
}

/// The round contract, predicted from outside the engine.  Given the
/// pre-round buckets, the post-round positions and the partition (zoo
/// graphs have no self-loops, so a walker moved iff its node changed):
/// `sent[u]` counts `u`'s walkers that left, `load[u]` the walkers at `u`
/// afterwards, and `u`'s next bucket lists its survivors in their previous
/// order, then its arrivals grouped by source shard ascending, each group
/// in that shard's send order (its nodes ascending, each node's bucket in
/// order).
fn predict_round(
    partition: &Partition,
    before: &[Vec<usize>],
    after: &[u32],
) -> (Vec<Vec<usize>>, Vec<u32>, Vec<u32>) {
    let moved = |u: usize, w: usize| after[w] as usize != u;
    let mut buckets: Vec<Vec<usize>> = before
        .iter()
        .enumerate()
        .map(|(u, held)| held.iter().copied().filter(|&w| !moved(u, w)).collect())
        .collect();
    let sent = before
        .iter()
        .enumerate()
        .map(|(u, held)| held.iter().filter(|&&w| moved(u, w)).count() as u32)
        .collect();
    for shard in partition.shards() {
        for &u in shard.nodes() {
            for &w in before[u].iter().filter(|&&w| moved(u, w)) {
                buckets[after[w] as usize].push(w);
            }
        }
    }
    let load = buckets.iter().map(|b| b.len() as u32).collect();
    (buckets, sent, load)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every round, at every shard count, in both draw modes, masked or
    /// not, matches [`predict_round`]: holder buckets, the observer's sent
    /// and load vectors and `sent_counts`.  Moves also stay on the graph
    /// and never reach a dark node.
    #[test]
    fn every_round_matches_the_bucket_model(
        graph in strategies::graph_zoo(20..120),
        shards in 1usize..7,
        rounds in 1usize..6,
        laziness_pct in 0usize..60,
    ) {
        let n = graph.node_count();
        prop_assume!(n >= 8);
        let k = shards.min(n);
        let laziness = laziness_pct as f64 / 100.0;
        let partition = Partition::new(&graph, k).unwrap();
        for mode in [DrawMode::Compat, DrawMode::Fast] {
            for masked in [false, true] {
                let mut engine =
                    ShardedMixingEngine::one_walker_per_node(&graph, &partition, 0x0DE1).unwrap();
                engine.set_draw_mode(mode);
                for round in 0..rounds {
                    let before = engine.walkers_by_holder();
                    let mask = masked.then(|| mask_for_round(n, round));
                    let mut tap = StatsTap::default();
                    engine.step(laziness, mask.as_deref(), &mut tap).unwrap();
                    let after = engine.positions();
                    let (buckets, sent, load) = predict_round(&partition, &before, after);
                    let label = format!("k = {k}, {mode:?}, masked {masked}, round {}", round + 1);
                    prop_assert_eq!(engine.walkers_by_holder(), buckets, "{}", &label);
                    prop_assert_eq!(&tap.sent, &sent, "{}", &label);
                    prop_assert_eq!(engine.sent_counts(), sent.as_slice(), "{}", &label);
                    prop_assert_eq!(&tap.load, &load, "{}", &label);
                    for (u, held) in before.iter().enumerate() {
                        for &w in held {
                            let v = after[w] as usize;
                            if v != u {
                                prop_assert!(graph.neighbors(u).contains(&(v as _)), "{}", &label);
                                prop_assert!(mask.as_ref().is_none_or(|m| m[v]), "{}", &label);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// The coordinator steps the engine on the calling thread while a helper
/// thread advances the streaming accountant.  A serial twin — a hand-built
/// engine, accountant and traffic recorder driven step-then-advance — must
/// match it after every round: positions, RNG clocks, accountant rows,
/// quote bits and traffic metrics, at k ∈ {1, 4}, static and under churn,
/// and across a checkpoint installed into a freshly begun coordinator.
#[test]
fn overlapped_rounds_are_bitwise_the_serial_round() {
    let graph = ns_graph::generators::barabasi_albert(300, 3, &mut seeded_rng(41)).unwrap();
    let n = graph.node_count();
    let params = AccountantParams::with_defaults(n, 1.0).unwrap();
    let rounds = 12;
    let install_at = 5;
    for (shards, mode) in [(1usize, DrawMode::Compat), (4, DrawMode::Fast)] {
        let partition = Partition::new(&graph, shards).unwrap();
        for churn in [false, true] {
            let schedule = churn.then(|| {
                OutageModel::MarkovOnOff {
                    fail: 0.1,
                    recover: 0.3,
                }
                .sample_schedule(n, rounds, 7)
                .unwrap()
            });
            let mut config = CoordinatorConfig::single(29, 3);
            config.laziness = 0.1;
            config.draw_mode = mode;
            let begun = || {
                let mut coordinator: ShuffleCoordinator<'_, u32> =
                    ShuffleCoordinator::new(&graph, &partition, config).unwrap();
                if let Some(schedule) = &schedule {
                    coordinator.with_outages(schedule.clone()).unwrap();
                }
                coordinator
                    .admit_population((0..n as u32).collect())
                    .unwrap();
                coordinator.begin_exchange().unwrap();
                coordinator
            };
            let mut coordinator = begun();

            let mut engine =
                ShardedMixingEngine::with_starts(&graph, &partition, (0..n).collect(), config.seed)
                    .unwrap();
            engine.set_draw_mode(mode);
            let mut accountant = match &schedule {
                Some(schedule) => StreamingAccountant::with_schedule(
                    &graph,
                    &partition,
                    schedule
                        .time_varying_model(&graph, config.laziness)
                        .unwrap(),
                    config.tracked_per_shard,
                ),
                None => StreamingAccountant::new(
                    &graph,
                    &partition,
                    config.laziness,
                    config.tracked_per_shard,
                ),
            }
            .unwrap();
            let mut recorder = TrafficRecorder::with_initial_load(&vec![1; n]);

            for round in 0..rounds {
                if round == install_at {
                    let checkpoint = coordinator.checkpoint().unwrap();
                    coordinator = begun();
                    coordinator.install_checkpoint(&checkpoint).unwrap();
                }
                coordinator.run_rounds(1).unwrap();
                let mask = schedule.as_ref().map(|s| s.mask(round));
                engine.step(config.laziness, mask, &mut recorder).unwrap();
                accountant.advance_round();

                let label = format!("k = {shards}, churn {churn}, round {}", round + 1);
                let live = coordinator.engine().unwrap();
                assert_eq!(live.positions(), engine.positions(), "{label}");
                for shard in 0..shards {
                    assert_eq!(live.rng_clock(shard), engine.rng_clock(shard), "{label}");
                }
                let checkpoint = coordinator.checkpoint().unwrap();
                let rows = |cp: &AccountantCheckpoint| -> Vec<u64> {
                    cp.shards
                        .iter()
                        .flat_map(|s| s.rows.iter().map(|x| x.to_bits()))
                        .collect()
                };
                let serial = accountant.checkpoint().unwrap();
                assert_eq!(checkpoint.accountant.round, serial.round, "{label}");
                assert_eq!(rows(&checkpoint.accountant), rows(&serial), "{label}");
                let (origin, quote) = coordinator.live_quote(&params).unwrap();
                let (want_origin, want) = accountant
                    .worst_quote(ProtocolKind::Single, &params)
                    .unwrap();
                assert_eq!(
                    (origin, quote.epsilon.to_bits(), quote.delta.to_bits()),
                    (want_origin, want.epsilon.to_bits(), want.delta.to_bits()),
                    "{label}"
                );
                assert_eq!(checkpoint.recorder_rounds, recorder.rounds(), "{label}");
                assert_eq!(
                    checkpoint.recorder_messages,
                    recorder.messages_per_user(),
                    "{label}"
                );
                assert_eq!(
                    checkpoint.recorder_peaks,
                    recorder.peak_reports_per_user(),
                    "{label}"
                );
            }
            let outcome = coordinator.finalize(|_| 0).unwrap();
            let metrics = recorder.into_metrics(outcome.collected.report_count());
            assert_eq!(outcome.metrics, metrics, "k = {shards}, churn {churn}");
        }
    }
}
