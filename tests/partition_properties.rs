//! Partition invariants over the shared proptest graph zoo.
//!
//! The partitioner's structural contract, checked on every graph family the
//! workspace generates (regular, G(n, p), SBM, Barabási–Albert, Chung–Lu):
//!
//! * every node lands in exactly one shard, and the local remappings are
//!   consistent in both directions;
//! * the cut-edge and cut-isolated counts match a brute-force recount from
//!   the assignment;
//! * one shard is exactly the single-shard assignment;
//! * the quality metrics are well-defined and the partition is
//!   deterministic.

mod common;

use common::strategies;
use ns_graph::partition::{IntraShardTransition, Partition};
use ns_graph::transition::TransitionModel;
use ns_graph::Graph;
use proptest::prelude::*;

/// Checks every structural invariant of one partition.
fn check_partition(graph: &Graph, partition: &Partition) {
    let n = graph.node_count();
    assert_eq!(partition.node_count(), n);

    // Every node in exactly one shard, at the local id its position names.
    let mut seen = vec![false; n];
    for (s, shard) in partition.shards().iter().enumerate() {
        assert!(!shard.is_empty(), "shard {s} is empty");
        for (local, &u) in shard.nodes().iter().enumerate() {
            assert!(!seen[u], "node {u} assigned twice");
            seen[u] = true;
            assert_eq!(partition.shard_of(u), s);
            assert_eq!(shard.global_of(local), u);
        }
        // Local ids preserve global order, and the runs are the same nodes
        // as maximal runs of consecutive ids.
        assert!(shard.nodes().windows(2).all(|w| w[0] < w[1]));
        let expanded: Vec<usize> = shard.runs().iter().cloned().flatten().collect();
        assert_eq!(expanded, shard.nodes(), "shard {s} runs miss or add nodes");
        assert!(shard.runs().iter().all(|run| !run.is_empty()));
        assert!(shard.runs().windows(2).all(|w| w[0].end < w[1].start));
    }
    assert!(seen.iter().all(|&b| b), "some node is unassigned");

    // The cut counts agree with a brute-force recount from `shard_of`.
    let cut = graph
        .edges()
        .filter(|&(u, v)| partition.shard_of(u) != partition.shard_of(v))
        .count();
    assert_eq!(partition.cut_edge_count(), cut);
    let isolated = graph
        .nodes()
        .filter(|&u| {
            let s = partition.shard_of(u);
            graph
                .neighbors(u)
                .iter()
                .all(|&v| partition.shard_of(v as usize) != s)
        })
        .count();
    assert_eq!(partition.cut_isolated_count(), isolated);

    // Metrics are well-defined.
    let cut = partition.edge_cut_fraction();
    assert!((0.0..=1.0).contains(&cut));
    assert!(partition.max_shard_imbalance() >= 1.0 - 1e-12);
    assert_eq!(partition.shard_sizes().iter().sum::<usize>(), n);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The full invariant battery across the mixed-family zoo and a spread
    /// of shard counts.
    #[test]
    fn partition_invariants_hold_on_the_graph_zoo(
        graph in strategies::graph_zoo(40..180),
        shards in 1usize..9,
    ) {
        let n = graph.node_count();
        prop_assume!(n >= 16);
        let k = shards.min(n);
        let partition = Partition::new(&graph, k).unwrap();
        prop_assert_eq!(partition.shard_count(), k);
        check_partition(&graph, &partition);

        // Determinism: the same inputs give the same assignment.
        let again = Partition::new(&graph, k).unwrap();
        for u in 0..n {
            prop_assert_eq!(partition.shard_of(u), again.shard_of(u));
        }

        // One shard is the canonical single-shard assignment, node for node.
        let one = Partition::new(&graph, 1).unwrap();
        let single = Partition::single_shard(&graph).unwrap();
        check_partition(&graph, &one);
        for u in 0..n {
            prop_assert_eq!(one.shard_of(u), single.shard_of(u));
        }
        prop_assert_eq!(one.shard(0).nodes(), single.shard(0).nodes());
    }

    /// The cut-restricted operator conserves mass and confines it to the
    /// origin's shard on any zoo graph.
    #[test]
    fn intra_shard_operator_confines_mass(
        graph in strategies::graph_zoo(40..150),
        shards in 2usize..6,
    ) {
        let n = graph.node_count();
        prop_assume!(n >= 16);
        let k = shards.min(n);
        let partition = Partition::new(&graph, k).unwrap();
        let model = IntraShardTransition::new(&graph, &partition, 0.0).unwrap();
        let origin = n / 2;
        let mut dist = vec![0.0; n];
        dist[origin] = 1.0;
        let mut out = vec![0.0; n];
        for _ in 0..8 {
            model.propagate_into(&dist, &mut out);
            std::mem::swap(&mut dist, &mut out);
        }
        let total: f64 = dist.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        let home = partition.shard_of(origin);
        for (u, &mass) in dist.iter().enumerate() {
            prop_assert!(
                partition.shard_of(u) == home || mass == 0.0,
                "mass {} leaked to node {} outside shard {}", mass, u, home
            );
        }
    }
}

/// The explicit-assignment constructor enforces the same invariants as the
/// built-in partitioner.
#[test]
fn external_assignments_carry_the_same_artifacts() {
    let graph = {
        let mut rng = ns_graph::rng::seeded_rng(20220408);
        ns_graph::generators::random_regular(90, 6, &mut rng).unwrap()
    };
    // Stripe nodes across three shards — a deliberately bad cut.
    let assignment: Vec<u32> = (0..90).map(|u| (u % 3) as u32).collect();
    let partition = Partition::from_assignment(&graph, 3, assignment).unwrap();
    check_partition(&graph, &partition);
    // A striped partition of a random regular graph cuts most edges.
    assert!(partition.edge_cut_fraction() > 0.5);
}
