//! Parity and dominance tests for the distribution-ensemble kernel.
//!
//! The refactor's contract: the blocked multi-origin kernel must agree with
//! the scalar scatter of each origin stepped alone bit for bit, and the
//! exact route must relate to the spectral bound the way the theory says.

mod common;

use common::strategies;
use network_shuffle::prelude::*;
use ns_graph::connectivity::largest_connected_component;
use ns_graph::dynamic::TimeVaryingModel;
use ns_graph::ensemble::{self, DistributionEnsemble};
use ns_graph::rng::seeded_rng;
use ns_graph::transition::{DarkCounts, TransitionMatrix, TransitionModel};
use ns_graph::worker::Worker;
use ns_graph::{Graph, NodeId};
use proptest::prelude::*;
use rand::Rng;
use std::sync::{Condvar, Mutex};

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

/// Point masses on every node, `0..n`: the `n × n` ensemble of
/// `Scenario::Exact`.
fn every_origin(n: usize) -> DistributionEnsemble {
    let origins: Vec<NodeId> = (0..n).collect();
    DistributionEnsemble::point_masses(n, &origins).unwrap()
}

/// `Scenario::Exact` restricted to one row reproduces the scalar scatter
/// (`TransitionModel::propagate_round_into`) of that origin stepped alone,
/// bit for bit — including rows that sit in the middle of a multi-lane
/// block — and so do its moments.
#[test]
fn exact_ensemble_rows_match_the_scalar_scatter_bitwise() {
    for (name, graph) in irregular_zoo() {
        let n = graph.node_count();
        let transition = TransitionMatrix::with_laziness(&graph, 0.1).unwrap();
        let mut full = every_origin(n);
        full.advance(&transition, 12);
        // Spot-check a spread of origins, including block boundaries.
        for origin in [0usize, 1, 7, 8, 9, n / 2, n - 2, n - 1] {
            let mut single = vec![0.0; n];
            single[origin] = 1.0;
            let mut next = vec![0.0; n];
            for round in 0..12 {
                transition.propagate_round_into(round, &single, &mut next);
                std::mem::swap(&mut single, &mut next);
            }
            let row = full.row_groups(&[origin, origin + 1]).concat();
            assert!(
                row.iter()
                    .zip(&single)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "{name}: origin {origin} diverged from the single-origin route"
            );
            assert_eq!(
                bits(full.row_stats(origin)),
                bits(ordered_fold(&single)),
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
    let mut full = every_origin(n);
    full.advance(&transition, 7);
    assert_eq!(moments.len(), n);
    for (origin, stats) in moments.iter().enumerate() {
        assert_eq!(*stats, full.row_stats(origin), "origin {origin}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every row's moments — read from the rows one at a time and all in
    /// one pass, and recorded per round by a tracked advance from the
    /// interleaved block — are bitwise the single ordered fold over the row
    /// in index order.
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
            let mut all = Vec::new();
            ensemble.stats_into(&mut all);
            for row in 0..origins.len() {
                let mut stepped = DistributionEnsemble::point_masses(nodes, &origins[row..=row])
                    .unwrap();
                stepped.advance(&transition, 2 * t - 1);
                let midway = ordered_fold(&stepped.row_groups(&[0, 1]).concat());
                let want = ordered_fold(&ensemble.row_groups(&[row, row + 1]).concat());
                prop_assert_eq!(bits(ensemble.row_stats(row)), bits(want), "row {}", row);
                prop_assert_eq!(bits(all[row]), bits(want), "row {}", row);
                prop_assert_eq!(bits(trajectory.row(row)[1]), bits(want), "row {}", row);
                prop_assert_eq!(bits(trajectory.row(row)[0]), bits(midway), "row {}", row);
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
                        let expected = ensemble.row_groups(&[0, ensemble.sources()]).concat();
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

/// Which thread of a two-thread round sweep runs which unit.
#[derive(Debug, Clone, Copy)]
enum Interleaving {
    /// The worker runs every unit; the caller arrives once it is done.
    WorkerOnly,
    /// The worker runs the first unit (the first block's first range, or
    /// a 1-row block whole); the caller runs every unit after it.
    CallerAfterFirst,
    /// The two take turns, one unit each, the worker first.
    Alternate,
    /// The caller runs first, so it prepares the round (the dark counts)
    /// while the worker waits; from inside the preparation it lets the
    /// worker go, which claims a unit and waits for the counts unless the
    /// preparation has already finished.  Then both run what is left.
    CallerPrepares,
    /// The worker claims the first unit and holds it, unfinished, while
    /// the caller runs every unit after it: every later range of the first
    /// block finishes before the first, so the worker folds them all once
    /// its own range is done, and the worker's fold is the sweep's last.
    WorkerLags,
}

/// A model that hands the baton to the other side from inside the round's
/// preparation ([`Interleaving::CallerPrepares`]) or from inside the
/// sweep's first unit ([`Interleaving::WorkerLags`]), and waits to get it
/// back; otherwise the model it wraps.
#[derive(Debug)]
struct PassesTheBaton<'a> {
    inner: &'a (dyn TransitionModel + Sync),
    in_prepare: Option<&'a Baton>,
    /// Taken by the first unit.
    in_first_unit: Mutex<Option<&'a Baton>>,
}

impl PassesTheBaton<'_> {
    /// The first unit's hand-off: to the caller, and back.
    fn first_unit(&self) {
        let baton = self.in_first_unit.lock().unwrap().take();
        if let Some(baton) = baton {
            baton.pass_to(Baton::CALLER);
            baton.wait_for(Baton::WORKER);
        }
    }
}

impl TransitionModel for PassesTheBaton<'_> {
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn propagate_round_into(&self, round: usize, p: &[f64], out: &mut [f64]) {
        self.first_unit();
        self.inner.propagate_round_into(round, p, out);
    }

    fn prepare_round(&self, round: usize, dark: &mut DarkCounts) {
        if let Some(baton) = self.in_prepare {
            baton.pass_to(Baton::WORKER);
            baton.wait_for(Baton::CALLER);
        }
        self.inner.prepare_round(round, dark);
    }

    fn propagate_round_interleaved_range(
        &self,
        round: usize,
        lanes: usize,
        input: &[f64],
        nodes: std::ops::Range<usize>,
        out: &mut [f64],
        dark: &DarkCounts,
    ) {
        self.first_unit();
        self.inner
            .propagate_round_interleaved_range(round, lanes, input, nodes, out, dark);
    }
}

/// Whose turn it is: the worker's (`false`) or the caller's (`true`).
#[derive(Debug)]
struct Baton {
    turn: Mutex<bool>,
    passed: Condvar,
}

impl Baton {
    const WORKER: bool = false;
    const CALLER: bool = true;

    fn wait_for(&self, side: bool) {
        let turn = self.turn.lock().unwrap();
        drop(self.passed.wait_while(turn, |turn| *turn != side).unwrap());
    }

    fn pass_to(&self, side: bool) {
        *self.turn.lock().unwrap() = side;
        self.passed.notify_all();
    }

    /// Takes turns with the other side, one unit per turn, until no unit
    /// is left.
    fn alternate(&self, side: bool, sweep: impl Fn() -> bool) {
        loop {
            self.wait_for(side);
            let ran = sweep();
            self.pass_to(!side);
            if !ran {
                return;
            }
        }
    }
}

/// Sweeps one round of `ensemble` under `model` on `worker` and this
/// thread, forcing `order` through a baton — never a sleep — and returns
/// the moments the sweep folded.
fn swept_round(
    worker: &mut Worker,
    ensemble: &mut DistributionEnsemble,
    model: &(dyn TransitionModel + Sync),
    order: Interleaving,
) -> Vec<ensemble::RowStats> {
    let caller_prepares = matches!(order, Interleaving::CallerPrepares);
    let baton = Baton {
        turn: Mutex::new(if caller_prepares {
            Baton::CALLER
        } else {
            Baton::WORKER
        }),
        passed: Condvar::new(),
    };
    let model = PassesTheBaton {
        inner: model,
        in_prepare: caller_prepares.then_some(&baton),
        in_first_unit: Mutex::new(matches!(order, Interleaving::WorkerLags).then_some(&baton)),
    };
    let mut stats = Vec::new();
    let sweep = ensemble.round_sweep(&model, &mut stats);
    let job = || match order {
        Interleaving::WorkerOnly => {
            assert!(sweep.run(), "the worker ran the last unit");
            baton.pass_to(Baton::CALLER);
        }
        Interleaving::CallerAfterFirst => {
            assert!(sweep.run_unit());
            baton.pass_to(Baton::CALLER);
        }
        Interleaving::Alternate => baton.alternate(Baton::WORKER, || sweep.run_unit()),
        Interleaving::CallerPrepares => {
            baton.wait_for(Baton::WORKER);
            baton.pass_to(Baton::CALLER);
            sweep.run();
        }
        Interleaving::WorkerLags => assert!(sweep.run(), "the worker folded the last range"),
    };
    worker.join(&job, || match order {
        Interleaving::WorkerOnly => {
            baton.wait_for(Baton::CALLER);
            assert!(!sweep.run_unit(), "the worker left a unit");
        }
        Interleaving::CallerAfterFirst => {
            baton.wait_for(Baton::CALLER);
            sweep.run();
        }
        Interleaving::Alternate => baton.alternate(Baton::CALLER, || sweep.run_unit()),
        Interleaving::CallerPrepares => {
            sweep.run();
            // A 1-row round prepares nothing: let the worker go here.
            baton.pass_to(Baton::WORKER);
        }
        Interleaving::WorkerLags => {
            baton.wait_for(Baton::CALLER);
            assert!(!sweep.run(), "the caller ran ahead of an unfolded range");
            baton.pass_to(Baton::WORKER);
        }
    });
    stats
}

fn stats_bits(stats: &[ensemble::RowStats]) -> Vec<(u64, u64)> {
    stats.iter().copied().map(bits).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// One round swept by two threads — the worker and the caller, in each
    /// forced interleaving — leaves every row bitwise where the serial
    /// `advance(model, 1)` does, and folds moments bitwise what
    /// `stats_into` reads from those rows: over the graph zoo, masked (a
    /// scheduled model at round 2) and unmasked, laziness 0 and 0.3, and
    /// 1..=17 rows, i.e. every lane run of 8, 4, 2 and 1, up to three
    /// blocks, and 1-row remainder blocks.
    #[test]
    fn shared_sweeps_are_bitwise_the_serial_round_in_every_interleaving(
        graph in strategies::graph_zoo(20..90),
        seed in 0u64..1_000,
    ) {
        let n = graph.node_count();
        prop_assume!(n >= 4 && graph.find_isolated_node().is_none());
        let mut rng = seeded_rng(seed);
        let mut worker = Worker::start("sweep-test").unwrap();
        for laziness in [0.0, 0.3] {
            let masks: Vec<Vec<bool>> = (0..3)
                .map(|_| (0..n).map(|_| rng.gen::<f64>() >= 0.3).collect())
                .collect();
            let masked = TimeVaryingModel::from_availability(&graph, laziness, &masks).unwrap();
            let unmasked = TransitionMatrix::with_laziness(&graph, laziness).unwrap();
            let models: [(&str, &(dyn TransitionModel + Sync)); 2] =
                [("unmasked", &unmasked), ("masked", &masked)];
            for (name, model) in models {
                for rows in 1..=17 {
                    let origins: Vec<NodeId> = (0..rows).map(|_| rng.gen_range(0..n)).collect();
                    // Two serial rounds first, so every row is spread out.
                    let mut start = DistributionEnsemble::point_masses(n, &origins).unwrap();
                    start.advance(model, 2);
                    let mut serial = start.clone();
                    serial.advance(model, 1);
                    let mut want = Vec::new();
                    serial.stats_into(&mut want);
                    for order in [
                        Interleaving::WorkerOnly,
                        Interleaving::CallerAfterFirst,
                        Interleaving::Alternate,
                        Interleaving::CallerPrepares,
                        Interleaving::WorkerLags,
                    ] {
                        let mut swept = start.clone();
                        let stats = swept_round(&mut worker, &mut swept, model, order);
                        prop_assert_eq!(
                            stats_bits(&stats),
                            stats_bits(&want),
                            "{} {:?}, laziness {}, {} rows: folded moments diverged",
                            name, order, laziness, rows
                        );
                        prop_assert_eq!(swept.time(), serial.time());
                        for row in 0..rows {
                            let same = swept
                                .row_groups(&[row, row + 1]).concat()
                                .iter()
                                .zip(serial.row_groups(&[row, row + 1]).concat())
                                .all(|(a, b)| a.to_bits() == b.to_bits());
                            prop_assert!(
                                same,
                                "{} {:?}, laziness {}, {} rows: row {} diverged",
                                name, order, laziness, rows, row
                            );
                        }
                    }
                }
            }
        }
    }
}
