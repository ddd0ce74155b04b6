//! Online repartitioning: live cut metrics, bounded label-propagation
//! refinement, the engine's mid-run `migrate` exchange and the accountant's
//! delta-round pricing of churn + migration.
//!
//! The contracts pinned here:
//!
//! * [`Partition::live_cut_edge_count`] / `live_edge_cut_fraction` agree
//!   with a brute-force recount against the live [`DynamicGraph`] and
//!   degenerate to the static metrics before any churn;
//! * [`Partition::refined_assignment`] is bounded (≤ `max_moves`, movers
//!   ascending, assignment differs *exactly* at the movers), never
//!   increases the live cut, and materializes via
//!   [`Partition::from_assignment`];
//! * [`ShardedMixingEngine::migrate`] rebuilds every shard's buckets as a
//!   pure function of `(positions, partition)` — bitwise the buckets of a
//!   fresh engine started from the same positions — while positions, the
//!   round counter, load and the per-shard RNG streams carry over, and a
//!   borrowed and an owned partition are interchangeable;
//! * the [`StreamingAccountant`] delta path (speculate + commit) prices a
//!   churn-plus-migration history **exactly** like the scheduled dense
//!   path: equal [`RowStats`] every round, movers masked for the round
//!   after the exchange.

mod common;

use common::strategies;
use network_shuffle::prelude::*;
use ns_graph::delta::affected_columns;
use ns_graph::dynamic::{DynTransition, DynamicGraph, TimeVaryingModel};
use ns_graph::partition::Partition;
use ns_graph::rng::seeded_rng;
use ns_graph::sharded_engine::ShardedMixingEngine;
use ns_graph::NodeId;
use proptest::prelude::*;
use rand::Rng;
use std::borrow::Cow;
use std::sync::Arc;

/// Applies one deterministic churn wave and returns the touched set (dirty
/// list captured before any snapshot, plus availability flips).
fn churn_wave<R: Rng>(
    dg: &mut DynamicGraph,
    rng: &mut R,
    edge_moves: usize,
    flips: usize,
) -> Vec<NodeId> {
    let n = dg.node_count();
    let mut flipped = Vec::new();
    for _ in 0..edge_moves {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u == v {
            continue;
        }
        if dg.has_edge(u, v) {
            if dg.degree(u) > 1 && dg.degree(v) > 1 {
                dg.remove_edge(u, v).unwrap();
            }
        } else {
            dg.add_edge(u, v).unwrap();
        }
    }
    for _ in 0..flips {
        let u = rng.gen_range(0..n);
        dg.set_available(u, !dg.is_available(u)).unwrap();
        flipped.push(u);
    }
    let mut touched: Vec<NodeId> = dg.dirty_list().to_vec();
    touched.extend(flipped);
    touched
}

/// Brute-force live cut: count `u < v` live edges whose endpoints sit in
/// different shards, straight off the adjacency lists.
fn brute_force_cut(partition: &Partition, dg: &DynamicGraph) -> usize {
    let mut cut = 0;
    for u in 0..dg.node_count() {
        for &v in dg.neighbors(u) {
            if u < v && partition.shard_of(u) != partition.shard_of(v) {
                cut += 1;
            }
        }
    }
    cut
}

#[test]
fn live_cut_metrics_match_brute_force_and_degenerate_to_static() {
    let g = ns_graph::generators::barabasi_albert(150, 3, &mut seeded_rng(40)).unwrap();
    let partition = Partition::new(&g, 4).unwrap();
    let mut dg = DynamicGraph::from_graph(&g).unwrap();
    // Before any churn the live metrics are the static ones.
    assert_eq!(
        partition.live_cut_edge_count(&dg).unwrap(),
        partition.cut_edge_count()
    );
    assert_eq!(
        partition.live_edge_cut_fraction(&dg).unwrap(),
        partition.edge_cut_fraction()
    );
    let mut rng = seeded_rng(41);
    for _ in 0..5 {
        churn_wave(&mut dg, &mut rng, 30, 0);
        let cut = partition.live_cut_edge_count(&dg).unwrap();
        assert_eq!(cut, brute_force_cut(&partition, &dg));
        let fraction = partition.live_edge_cut_fraction(&dg).unwrap();
        assert!((fraction - cut as f64 / dg.edge_count() as f64).abs() == 0.0);
    }
    // Node-count mismatch is rejected.
    let small = ns_graph::generators::random_regular(20, 3, &mut seeded_rng(42)).unwrap();
    let small_dg = DynamicGraph::from_graph(&small).unwrap();
    assert!(partition.live_cut_edge_count(&small_dg).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Refinement invariants on the zoo: bounded, exact mover lists, never
    /// a worse live cut, `max_moves = 0` is the identity.
    #[test]
    fn refined_assignment_is_bounded_and_never_worse(
        graph in strategies::graph_zoo(40..140),
        shards in 2usize..6,
        seed in 0u64..500,
        max_moves in 0usize..20,
    ) {
        let n = graph.node_count();
        prop_assume!(n >= 16);
        prop_assume!(graph.find_isolated_node().is_none());
        let k = shards.min(n / 4);
        prop_assume!(k >= 2);
        let partition = Partition::new(&graph, k).unwrap();
        let mut dg = DynamicGraph::from_graph(&graph).unwrap();
        let mut rng = seeded_rng(seed);
        churn_wave(&mut dg, &mut rng, n / 2, 0);
        let seeds: Vec<NodeId> = (0..n).filter(|_| rng.gen_bool(0.2)).collect();

        let before = partition.live_cut_edge_count(&dg).unwrap();
        let (assignment, movers) = partition.refined_assignment(&dg, &seeds, max_moves).unwrap();
        prop_assert!(movers.len() <= max_moves);
        prop_assert!(movers.windows(2).all(|w| w[0] < w[1]), "movers not ascending");
        for (u, &shard) in assignment.iter().enumerate() {
            let moved = shard as usize != partition.shard_of(u);
            prop_assert_eq!(moved, movers.contains(&u), "mover list wrong at node {}", u);
        }
        let refined = Partition::from_assignment(dg.snapshot(), k, assignment.clone()).unwrap();
        let after = refined.live_cut_edge_count(&dg).unwrap();
        prop_assert!(after <= before, "refinement worsened the cut: {} -> {}", before, after);
        if max_moves == 0 {
            prop_assert!(movers.is_empty());
        }
        // No shard was emptied.
        for s in 0..k {
            prop_assert!(!refined.shard(s).is_empty(), "shard {} emptied", s);
        }
    }
}

/// After `migrate`, the engine's buckets are bitwise the buckets of a
/// *fresh* engine started from the same positions under the new partition
/// (the `with_starts` initial-bucket rule), and positions, round counter
/// and load carry over unchanged.
#[test]
fn migrate_rebuckets_like_a_fresh_engine_and_preserves_state() {
    let g = ns_graph::generators::random_regular(200, 6, &mut seeded_rng(50)).unwrap();
    let old = Partition::new(&g, 4).unwrap();
    let mut engine = ShardedMixingEngine::one_walker_per_node(&g, &old, 99).unwrap();
    for _ in 0..10 {
        engine.step(0.1, None, &mut ()).unwrap();
    }
    let positions_before = engine.positions().to_vec();
    let load_before = engine.load_vector();

    // Perturb the assignment: move a deterministic band of nodes.
    let mut assignment: Vec<u32> = (0..200).map(|u| old.shard_of(u) as u32).collect();
    let mut expected_movers = Vec::new();
    for u in (0..200).step_by(7) {
        let next = ((assignment[u] as usize + 1) % 4) as u32;
        assignment[u] = next;
        expected_movers.push(u);
    }
    let new = Partition::from_assignment(&g, 4, assignment).unwrap();

    let mut movers = Vec::new();
    engine.migrate(Cow::Borrowed(&new), &mut movers).unwrap();
    assert_eq!(movers, expected_movers);
    assert_eq!(engine.positions(), positions_before.as_slice());
    assert_eq!(engine.load_vector(), load_before);
    assert_eq!(engine.round(), 10);
    assert_eq!(engine.partition().shard_count(), 4);

    // The oracle: a fresh engine started at the same positions under the
    // new partition has, by construction, the canonical buckets.
    let fresh = ShardedMixingEngine::with_starts(
        &g,
        &new,
        positions_before.iter().map(|&p| p as usize).collect(),
        99,
    )
    .unwrap();
    assert_eq!(engine.walkers_by_holder(), fresh.walkers_by_holder());
    for u in 0..200 {
        assert_eq!(
            engine.held_by(u),
            fresh.held_by(u),
            "bucket of node {u} diverged"
        );
    }
}

/// A borrowed and an owned partition are interchangeable in `migrate`, and
/// stale `movers` contents are cleared: the same migration three ways
/// leaves three engines bitwise identical through further masked rounds.
#[test]
fn migration_entry_points_are_interchangeable_and_deterministic() {
    let g = ns_graph::generators::barabasi_albert(120, 4, &mut seeded_rng(60)).unwrap();
    let old = Partition::new(&g, 3).unwrap();
    let mut a = ShardedMixingEngine::one_walker_per_node(&g, &old, 7).unwrap();
    let mut b = ShardedMixingEngine::one_walker_per_node(&g, &old, 7).unwrap();
    let mut c = ShardedMixingEngine::one_walker_per_node(&g, &old, 7).unwrap();
    for _ in 0..6 {
        for engine in [&mut a, &mut b, &mut c] {
            engine.step(0.2, None, &mut ()).unwrap();
        }
    }
    let mut assignment: Vec<u32> = (0..120).map(|u| old.shard_of(u) as u32).collect();
    for u in (0..120).step_by(5) {
        assignment[u] = ((assignment[u] as usize + 1) % 3) as u32;
    }
    let new = Partition::from_assignment(&g, 3, assignment).unwrap();

    let mut movers_a = Vec::new();
    a.migrate(Cow::Borrowed(&new), &mut movers_a).unwrap();
    let mut movers_b = Vec::new();
    b.migrate(Cow::Owned(new.clone()), &mut movers_b).unwrap();
    let mut movers_c = vec![usize::MAX; 3]; // stale contents must be cleared
    c.migrate(Cow::Owned(new.clone()), &mut movers_c).unwrap();
    assert_eq!(movers_a, movers_b);
    assert_eq!(movers_a, movers_c);

    // Mask the movers for the exchange round, then run clear rounds.
    let mut mask = vec![true; 120];
    for &u in &movers_a {
        mask[u] = false;
    }
    for engine in [&mut a, &mut b, &mut c] {
        engine.step(0.2, Some(&mask), &mut ()).unwrap();
        for _ in 0..5 {
            engine.step(0.2, None, &mut ()).unwrap();
        }
    }
    assert_eq!(a.positions(), b.positions());
    assert_eq!(a.positions(), c.positions());
    assert_eq!(a.walkers_by_holder(), b.walkers_by_holder());
    assert_eq!(a.walkers_by_holder(), c.walkers_by_holder());
}

#[test]
fn migrate_rejects_mismatched_partitions() {
    let g = ns_graph::generators::random_regular(80, 4, &mut seeded_rng(70)).unwrap();
    let p = Partition::new(&g, 4).unwrap();
    let mut engine = ShardedMixingEngine::one_walker_per_node(&g, &p, 1).unwrap();
    // Wrong node count.
    let small = ns_graph::generators::random_regular(40, 4, &mut seeded_rng(71)).unwrap();
    let wrong_n = Partition::new(&small, 4).unwrap();
    let mut movers = Vec::new();
    assert!(engine.migrate(Cow::Owned(wrong_n), &mut movers).is_err());
    // Wrong shard count (RNG streams are per-shard state).
    let wrong_k = Partition::new(&g, 5).unwrap();
    assert!(engine.migrate(Cow::Owned(wrong_k), &mut movers).is_err());
    // The failed migrations left the engine usable.
    engine.step(0.0, None, &mut ()).unwrap();
    assert_eq!(engine.round(), 1);
}

/// The accountant's tentpole contract: under a churn history with a
/// migration round in the middle (movers masked one round), the delta
/// path — speculate under the held operator, commit with the realized
/// operator and the affected columns — produces **exactly** the
/// [`RowStats`] of the dense scheduled path, round for round.  A third
/// accountant committing without speculation (the dense commit the soak
/// bench's OFF arm uses) agrees too.
#[test]
fn accountant_delta_path_is_exact_under_churn_and_migration() {
    let g = ns_graph::generators::barabasi_albert(90, 3, &mut seeded_rng(80)).unwrap();
    let n = g.node_count();
    let partition = Partition::new(&g, 3).unwrap();
    let laziness = 0.2;
    let rounds = 8;

    // Script the churn history once: realized operators + affected columns.
    let mut dg = DynamicGraph::from_graph(&g).unwrap();
    let mut rng = seeded_rng(81);
    let mut ops: Vec<DynTransition> = Vec::new();
    let mut columns: Vec<Vec<NodeId>> = Vec::new();
    for round in 0..rounds {
        let mut touched = if round == 3 {
            // Migration round: pretend nodes 0..12 migrate; mask them.
            let movers: Vec<NodeId> = (0..12).collect();
            for &u in &movers {
                dg.set_available(u, false).unwrap();
            }
            movers
        } else if round == 4 {
            // Movers come back: the unmasking is itself a delta.
            let movers: Vec<NodeId> = (0..12).collect();
            for &u in &movers {
                dg.set_available(u, true).unwrap();
            }
            movers
        } else {
            Vec::new()
        };
        touched.extend(churn_wave(&mut dg, &mut rng, 8, 1));
        let realized = dg.masked_operator(laziness).unwrap();
        columns.push(affected_columns(dg.snapshot(), &touched));
        ops.push(Arc::new(realized) as DynTransition);
    }

    let schedule = TimeVaryingModel::new(ops.clone()).unwrap();
    let mut scheduled = StreamingAccountant::with_schedule(&g, &partition, schedule, 4).unwrap();
    let held0 = TimeVaryingModel::constant(ops[0].clone()).unwrap();
    let mut delta = StreamingAccountant::with_schedule(&g, &partition, held0.clone(), 4).unwrap();
    let mut dense_commit = StreamingAccountant::with_schedule(&g, &partition, held0, 4).unwrap();
    // Exercise the fallback boundary knob on the way: a zero threshold
    // forces every commit through the dense recompute and must not change
    // the result.
    assert!(dense_commit.set_delta_dense_fraction(0.0).is_ok());
    assert!(delta.set_delta_dense_fraction(1.5).is_err());
    assert!(delta.set_delta_dense_fraction(f64::NAN).is_err());
    assert_eq!(
        delta.delta_dense_fraction(),
        network_shuffle::service::DELTA_DENSE_FRACTION
    );

    for round in 0..rounds {
        scheduled.advance_round();

        // The delta arm speculates off the critical path, then commits.
        delta.speculate_round();
        assert!(delta.is_speculated());
        delta.commit_round(ops[round].clone(), &columns[round]);
        assert!(!delta.is_speculated());

        // The dense arm commits without speculating.
        dense_commit.commit_round(ops[round].clone(), &columns[round]);

        assert_eq!(scheduled.round(), delta.round());
        assert_eq!(
            scheduled.worst_stats(),
            delta.worst_stats(),
            "delta path diverged from the scheduled dense path at round {round}"
        );
        assert_eq!(
            scheduled.worst_stats(),
            dense_commit.worst_stats(),
            "dense commit diverged from the scheduled path at round {round}"
        );
    }
    assert_eq!(scheduled.round(), rounds);
    let _ = n;
}

/// `advance_round_delta` is the one-call form of speculate + commit.
#[test]
fn advance_round_delta_matches_the_two_step_form() {
    let g = ns_graph::generators::random_regular(60, 4, &mut seeded_rng(90)).unwrap();
    let partition = Partition::new(&g, 2).unwrap();
    let mut dg = DynamicGraph::from_graph(&g).unwrap();
    let mut rng = seeded_rng(91);
    let op0: DynTransition = Arc::new(dg.masked_operator(0.1).unwrap());
    let mut one_call = StreamingAccountant::with_schedule(
        &g,
        &partition,
        TimeVaryingModel::constant(op0.clone()).unwrap(),
        3,
    )
    .unwrap();
    let mut two_step = StreamingAccountant::with_schedule(
        &g,
        &partition,
        TimeVaryingModel::constant(op0).unwrap(),
        3,
    )
    .unwrap();
    for _ in 0..5 {
        let touched = churn_wave(&mut dg, &mut rng, 6, 1);
        let realized: DynTransition = Arc::new(dg.masked_operator(0.1).unwrap());
        let columns = affected_columns(dg.snapshot(), &touched);
        one_call.advance_round_delta(realized.clone(), &columns);
        two_step.speculate_round();
        two_step.commit_round(realized, &columns);
        assert_eq!(one_call.worst_stats(), two_step.worst_stats());
        assert_eq!(one_call.round(), two_step.round());
    }
}
