//! Parity and dominance tests for the distribution-ensemble kernel.
//!
//! The refactor's contract: the blocked multi-origin kernel must agree with
//! the historical single-distribution route bit for bit, and the exact
//! route must relate to the spectral bound the way the theory says.

mod common;

use common::strategies;
use network_shuffle::prelude::*;
use ns_graph::connectivity::largest_connected_component;
use ns_graph::distribution::PositionDistribution;
use ns_graph::ensemble::{self, DistributionEnsemble};
use ns_graph::rng::seeded_rng;
use ns_graph::transition::TransitionMatrix;
use ns_graph::Graph;
use proptest::prelude::*;

/// A small zoo of connected, non-bipartite irregular graphs.
fn irregular_zoo() -> Vec<(&'static str, Graph)> {
    let mut rng = seeded_rng(20220408);
    let weights: Vec<f64> = (0..600)
        .map(|i| 3.0 + 9.0 * ((i % 10) as f64) / 9.0)
        .collect();
    let chung_lu =
        largest_connected_component(&ns_graph::generators::chung_lu(&weights, &mut rng).unwrap()).0;
    let ba = ns_graph::generators::barabasi_albert(600, 3, &mut rng).unwrap();
    let sbm = largest_connected_component(
        &ns_graph::generators::stochastic_block_model(600, 6, 0.05, 0.005, &mut rng).unwrap(),
    )
    .0;
    vec![
        ("chung-lu", chung_lu),
        ("barabasi-albert", ba),
        ("sbm", sbm),
    ]
}

/// `Scenario::Exact` restricted to one row reproduces
/// `PositionDistribution::advance` bit for bit — including rows that sit in
/// the middle of a multi-lane block.
#[test]
fn exact_ensemble_rows_match_position_distribution_bitwise() {
    for (name, graph) in irregular_zoo() {
        let n = graph.node_count();
        let transition = TransitionMatrix::with_laziness(&graph, 0.1).unwrap();
        let mut full = DistributionEnsemble::all_origins(n).unwrap();
        full.advance(&transition, 12);
        // Spot-check a spread of origins, including block boundaries.
        for origin in [0usize, 1, 7, 8, 9, n / 2, n - 2, n - 1] {
            let mut single = PositionDistribution::point_mass(n, origin).unwrap();
            single.advance(&transition, 12);
            assert_eq!(
                full.row(origin),
                single.probabilities(),
                "{name}: origin {origin} diverged from the single-origin route"
            );
            assert_eq!(
                full.row_stats(origin).sum_of_squares,
                single.sum_of_squares(),
                "{name}: origin {origin} stats diverged"
            );
        }
    }
}

/// The accountant's exact scenario agrees with the symmetric scenario
/// origin by origin (same kernel underneath), and the worst-user pair
/// dominates every origin.
#[test]
fn accountant_exact_scenario_is_the_worst_symmetric_origin() {
    let (_, graph) = irregular_zoo().remove(1);
    let accountant = NetworkShuffleAccountant::new(&graph).unwrap();
    let rounds = 9;
    let moments = accountant.exact_moments(rounds).unwrap();
    let (worst_sum_sq, _) = accountant.sum_p_squared(Scenario::Exact, rounds).unwrap();
    let mut max_seen = 0.0f64;
    for origin in (0..graph.node_count()).step_by(41) {
        let (sum_sq, rho) = accountant
            .sum_p_squared(Scenario::Symmetric { origin }, rounds)
            .unwrap();
        assert_eq!(moments[origin].sum_of_squares, sum_sq);
        assert_eq!(moments[origin].support_ratio, rho);
        max_seen = max_seen.max(sum_sq);
    }
    assert!(worst_sum_sq >= max_seen);
}

/// Relationship between the exact route and the Eq. 7 spectral bound on
/// irregular graphs:
///
/// * by the paper's stopping time `t_mix` the worst origin's exact `Σ P²`
///   has dropped to the (clamped) bound and stays there (1% slack for the
///   asymptotic residuals), and both settle at the stationary `Σ π²`;
/// * **pre**-mixing, the bound is not trustworthy per user: low-degree
///   origins concentrate mass (a degree-1 origin's report sits on its only
///   neighbour with probability 1 at `t = 1`) and can exceed the
///   regular-graph-derived bound outright, while well-connected origins sit
///   far below it.  The exact ensemble is the only route that sees this
///   per-user spread — that is its payoff.
#[test]
fn exact_route_vs_spectral_bound_on_irregular_graphs() {
    for (name, graph) in irregular_zoo() {
        let accountant = NetworkShuffleAccountant::new(&graph).unwrap();
        let profile = accountant.mixing_profile();
        let t_mix = accountant.mixing_time();
        let rounds = 2 * t_mix;
        let mut worst = vec![0.0f64; rounds];
        let mut best = vec![f64::INFINITY; rounds];
        ensemble::all_origin_trajectories(accountant.transition(), rounds, |_, trajectory| {
            for row in 0..trajectory.sources() {
                for (index, stats) in trajectory.row(row).iter().enumerate() {
                    worst[index] = worst[index].max(stats.sum_of_squares);
                    best[index] = best[index].min(stats.sum_of_squares);
                }
            }
            Ok::<(), ns_graph::GraphError>(())
        })
        .unwrap();
        // Dominance from the stopping time onwards.
        let dominated_from = (1..=rounds)
            .find(|&t0| {
                (t0..=rounds)
                    .all(|t| worst[t - 1] <= profile.sum_p_squared_bound_clamped(t) * 1.01 + 1e-12)
            })
            .unwrap_or(rounds + 1);
        assert!(
            dominated_from <= t_mix,
            "{name}: bound only dominates from t = {dominated_from}, mixing time {t_mix}"
        );
        // Pre-mixing the exact route resolves a real per-user spread: the
        // best-connected origin is already well below the bound while the
        // worst origin is still far above the stationary value.
        let probe_t = 3.min(t_mix);
        let bound_at_probe = profile.sum_p_squared_bound_clamped(probe_t);
        assert!(
            best[probe_t - 1] < bound_at_probe,
            "{name}: even the best origin ({}) is above the bound {bound_at_probe} at t = {probe_t}",
            best[probe_t - 1]
        );
        assert!(
            worst[probe_t - 1] > best[probe_t - 1] * 1.05,
            "{name}: no per-origin spread at t = {probe_t}"
        );
        // Both settle at the stationary collision probability.
        let stationary = profile.stationary_sum_of_squares;
        assert!(
            (worst[rounds - 1] - stationary).abs() / stationary < 0.01,
            "{name}: exact tail {} far from stationary {stationary}",
            worst[rounds - 1]
        );
    }
}

/// The streaming all-origin driver, which the accountant uses for large
/// graphs, matches the materialized `n × n` ensemble.
#[test]
fn streaming_moments_match_materialized_ensemble() {
    let (_, graph) = irregular_zoo().remove(0);
    let n = graph.node_count();
    let transition = TransitionMatrix::new(&graph).unwrap();
    let moments = ensemble::all_origin_moments(&transition, 7).unwrap();
    let mut full = DistributionEnsemble::all_origins(n).unwrap();
    full.advance(&transition, 7);
    assert_eq!(moments.len(), n);
    for (origin, stats) in moments.iter().enumerate() {
        assert_eq!(*stats, full.row_stats(origin), "origin {origin}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every row's moments — read from the rows, and recorded per round by
    /// a tracked advance from the interleaved block — are bitwise the
    /// single ordered fold over the row in index order.
    #[test]
    fn row_moments_are_bitwise_the_ordered_fold(
        graph in strategies::graph_zoo(60..220),
        rounds in 1usize..6,
        laziness_pct in 0usize..60,
    ) {
        let nodes = graph.node_count();
        let transition =
            TransitionMatrix::with_laziness(&graph, laziness_pct as f64 / 100.0).unwrap();
        let origins: Vec<usize> = (0..nodes).step_by(2).collect();
        let mut ensemble = DistributionEnsemble::point_masses(nodes, &origins).unwrap();
        for t in 1..=rounds {
            let trajectory = ensemble.advance_tracked(&transition, 2);
            for row in 0..origins.len() {
                let mut stepped = DistributionEnsemble::point_masses(nodes, &origins[row..=row])
                    .unwrap();
                stepped.advance(&transition, 2 * t - 1);
                let midway = ordered_fold(stepped.row(0));
                let want = ordered_fold(ensemble.row(row));
                prop_assert_eq!(bits(ensemble.row_stats(row)), bits(want), "row {}", row);
                prop_assert_eq!(bits(trajectory.after(row, 2)), bits(want), "row {}", row);
                prop_assert_eq!(bits(trajectory.after(row, 1)), bits(midway), "row {}", row);
            }
        }
    }
}

/// The moments as one ordered fold over a row in index order — the
/// reference the ensemble's split-chain fold must reproduce bit for bit.
fn ordered_fold(row: &[f64]) -> ensemble::RowStats {
    let mut sum_of_squares = 0.0f64;
    let mut max = f64::NAN;
    let mut min_nonzero = f64::INFINITY;
    for &x in row {
        sum_of_squares += x * x;
        max = max.max(x);
        if x > 0.0 {
            min_nonzero = min_nonzero.min(x);
        }
    }
    let support_ratio = if !max.is_finite() || !min_nonzero.is_finite() || min_nonzero == 0.0 {
        1.0
    } else {
        max / min_nonzero
    };
    ensemble::RowStats {
        sum_of_squares,
        support_ratio,
    }
}

fn bits(stats: ensemble::RowStats) -> (u64, u64) {
    (
        stats.sum_of_squares.to_bits(),
        stats.support_ratio.to_bits(),
    )
}

/// The streaming accountant keeps every shard's tracked origins in one
/// fused ensemble.  It must be bitwise the historical layout — one
/// standalone ensemble per shard — in every quote and checkpoint row: over
/// shard counts whose row totals cross the 8-lane block boundary and over
/// static and scheduled operators.
#[test]
fn fused_streaming_accountant_is_bitwise_the_per_shard_ensembles() {
    use network_shuffle::accountant::{all_protocol_epsilon, single_protocol_epsilon};
    use ns_dp::types::PrivacyGuarantee;
    use ns_graph::dynamic::TimeVaryingModel;
    use ns_graph::partition::Partition;
    use ns_graph::transition::TransitionModel;
    use ns_graph::NodeId;
    use rand::Rng;

    let g = ns_graph::generators::barabasi_albert(72, 2, &mut seeded_rng(41)).unwrap();
    let n = g.node_count();
    let laziness = 0.1;
    let params = AccountantParams::with_defaults(n, 1.0).unwrap();
    let mut rng = seeded_rng(42);
    let mut random_mask =
        |dark: f64| -> Vec<bool> { (0..n).map(|_| rng.gen::<f64>() >= dark).collect() };
    let schedule_masks: Vec<Vec<bool>> = (0..4).map(|_| random_mask(0.2)).collect();
    let dense_rounds = 5;

    for shards in [1usize, 2, 4, 8] {
        let partition = Partition::new(&g, shards).unwrap();
        for tracked in [1usize, 2, 3, usize::MAX] {
            for scheduled in [false, true] {
                let context = format!("k = {shards}, tracked = {tracked}, scheduled = {scheduled}");
                let schedule =
                    TimeVaryingModel::from_availability(&g, laziness, &schedule_masks).unwrap();
                let matrix = TransitionMatrix::with_laziness(&g, laziness).unwrap();
                let mut fused = if scheduled {
                    StreamingAccountant::with_schedule(&g, &partition, schedule.clone(), tracked)
                } else {
                    StreamingAccountant::new(&g, &partition, laziness, tracked)
                }
                .unwrap();
                let held: &dyn TransitionModel = if scheduled { &schedule } else { &matrix };
                // The historical layout: per shard, its lowest-degree origins
                // in one standalone ensemble.
                let mut reference: Vec<(Vec<NodeId>, DistributionEnsemble)> = partition
                    .shards()
                    .iter()
                    .map(|shard| {
                        let mut origins = shard.nodes().to_vec();
                        origins.sort_by_key(|&u| (g.degree(u), u));
                        origins.truncate(tracked.min(origins.len()));
                        let ensemble = DistributionEnsemble::point_masses(n, &origins).unwrap();
                        (origins, ensemble)
                    })
                    .collect();

                let check = |fused: &StreamingAccountant,
                             reference: &[(Vec<NodeId>, DistributionEnsemble)],
                             round: usize| {
                    for protocol in [ProtocolKind::All, ProtocolKind::Single] {
                        let expected: Vec<(NodeId, PrivacyGuarantee)> = reference
                            .iter()
                            .map(|(origins, ensemble)| {
                                let mut worst: Option<(NodeId, PrivacyGuarantee)> = None;
                                for (row, &origin) in origins.iter().enumerate() {
                                    let stats = ensemble.row_stats(row);
                                    let quote = match protocol {
                                        ProtocolKind::All => all_protocol_epsilon(
                                            &params,
                                            stats.sum_of_squares,
                                            stats.support_ratio,
                                        ),
                                        ProtocolKind::Single => {
                                            single_protocol_epsilon(&params, stats.sum_of_squares)
                                        }
                                    }
                                    .unwrap();
                                    if worst.is_none_or(|(_, w)| quote.epsilon > w.epsilon) {
                                        worst = Some((origin, quote));
                                    }
                                }
                                worst.unwrap()
                            })
                            .collect();
                        let quotes = fused.shard_quotes(protocol, &params).unwrap();
                        assert_eq!(quotes.len(), expected.len(), "{context}");
                        for ((o, q), (eo, eq)) in quotes.iter().zip(&expected) {
                            assert_eq!(o, eo, "{context}, round {round}");
                            assert_eq!(
                                q.epsilon.to_bits(),
                                eq.epsilon.to_bits(),
                                "{context}, round {round}"
                            );
                            assert_eq!(
                                q.delta.to_bits(),
                                eq.delta.to_bits(),
                                "{context}, round {round}"
                            );
                        }
                        let (worst_origin, worst) = fused.worst_quote(protocol, &params).unwrap();
                        let (eo, eq) = expected
                            .iter()
                            .fold(
                                None,
                                |best: Option<&(NodeId, PrivacyGuarantee)>, c| match best {
                                    Some(b) if c.1.epsilon <= b.1.epsilon => Some(b),
                                    _ => Some(c),
                                },
                            )
                            .unwrap();
                        assert_eq!(worst_origin, *eo, "{context}, round {round}");
                        assert_eq!(
                            worst.epsilon.to_bits(),
                            eq.epsilon.to_bits(),
                            "{context}, round {round}"
                        );
                    }
                };

                // Dense rounds, with checkpoints.
                for round in 1..=dense_rounds {
                    fused.advance_round();
                    for (_, ensemble) in &mut reference {
                        ensemble.advance(held, 1);
                    }
                    check(&fused, &reference, round);
                    let checkpoint = fused.checkpoint().unwrap();
                    assert_eq!(checkpoint.round, round);
                    assert_eq!(checkpoint.shards.len(), reference.len(), "{context}");
                    for (shard_cp, (origins, ensemble)) in checkpoint.shards.iter().zip(&reference)
                    {
                        assert_eq!(&shard_cp.origins, origins, "{context}");
                        let expected = ensemble.clone().into_flat();
                        assert_eq!(shard_cp.rows.len(), expected.len(), "{context}");
                        assert!(
                            shard_cp
                                .rows
                                .iter()
                                .zip(&expected)
                                .all(|(a, b)| a.to_bits() == b.to_bits()),
                            "{context}: checkpoint rows diverged at round {round}"
                        );
                    }
                }
            }
        }
    }
}
