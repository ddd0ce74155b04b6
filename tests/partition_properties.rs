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
//!   deterministic;
//! * the walk operator masked to a shard is the cut-restricted walk of a
//!   deployment that never crosses the cut.

mod common;

use common::strategies;
use ns_graph::ensemble::DistributionEnsemble;
use ns_graph::partition::Partition;
use ns_graph::rng::seeded_rng;
use ns_graph::transition::TransitionMatrix;
use ns_graph::{Graph, NodeId};
use proptest::prelude::*;
use rand::Rng;

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

    /// A deployment that never crosses the cut walks the walk operator
    /// masked to the shard its report started in.  For every shard, under
    /// the in-shard mask and under its AND with a random availability mask,
    /// the masked operator conserves mass, keeps it inside the shard, never
    /// delivers to a dark node, and stays within 1e-12 of
    /// [`cut_restricted_step`], for a 1-row block (the scatter) and for a
    /// multi-row ensemble (an 8-row and a 3-row block, the pull kernel).
    /// Under one shard the in-shard mask is bitwise the unmasked walk.
    #[test]
    fn shard_masked_walk_is_the_cut_restricted_walk(
        graph in strategies::graph_zoo(40..150),
        shards in 2usize..6,
        seed in 0u64..1_000,
    ) {
        let n = graph.node_count();
        prop_assume!(n >= 16 && graph.find_isolated_node().is_none());
        let partition = Partition::new(&graph, shards.min(n)).unwrap();
        let mut rng = seeded_rng(seed);
        for laziness in [0.0, 0.2] {
            for (s, shard) in partition.shards().iter().enumerate() {
                let in_shard: Vec<bool> = (0..n).map(|u| partition.shard_of(u) == s).collect();
                let up: Vec<bool> = (0..n).map(|_| rng.gen::<f64>() >= 0.3).collect();
                let churned: Vec<bool> = in_shard.iter().zip(&up).map(|(&a, &b)| a && b).collect();
                for (available, mask) in [(vec![true; n], in_shard), (up, churned)] {
                    let op = TransitionMatrix::masked(&graph, mask.clone(), laziness).unwrap();
                    let origins: Vec<NodeId> = (0..11)
                        .map(|_| shard.nodes()[rng.gen_range(0..shard.len())])
                        .collect();
                    let mut naive: Vec<Vec<f64>> = origins
                        .iter()
                        .map(|&origin| {
                            let mut row = vec![0.0; n];
                            row[origin] = 1.0;
                            row
                        })
                        .collect();
                    let mut one_row = DistributionEnsemble::point_masses(n, &origins[..1]).unwrap();
                    let mut rows = DistributionEnsemble::point_masses(n, &origins).unwrap();
                    for round in 1..=6 {
                        one_row.advance(&op, 1);
                        rows.advance(&op, 1);
                        for row in naive.iter_mut() {
                            *row = cut_restricted_step(&graph, &partition, &available, laziness, row);
                        }
                        let one = one_row.row_groups(&[0, 1]).concat();
                        let all = rows.row_groups(&[0, origins.len()]).concat();
                        let walked = one.chunks(n).chain(all.chunks(n));
                        let expected = naive.iter().take(1).chain(&naive);
                        let starts = origins.iter().take(1).chain(&origins);
                        for ((got, want), &origin) in walked.zip(expected).zip(starts) {
                            let total: f64 = got.iter().sum();
                            prop_assert!((total - 1.0).abs() < 1e-12, "round {}: mass {}", round, total);
                            for u in 0..n {
                                prop_assert!(
                                    (got[u] - want[u]).abs() < 1e-12,
                                    "round {}, shard {}: node {} holds {} against {}",
                                    round, s, u, got[u], want[u]
                                );
                                prop_assert!(
                                    partition.shard_of(u) == s || got[u] == 0.0,
                                    "mass {} leaked to node {} outside shard {}", got[u], u, s
                                );
                                // A dark node keeps what it started with and
                                // is never delivered to.
                                prop_assert!(
                                    mask[u] || u == origin || got[u] == 0.0,
                                    "delivered to dark node {}", u
                                );
                            }
                        }
                    }
                }
            }

            // One shard: the in-shard mask is the unmasked walk, bit for bit.
            let single = Partition::single_shard(&graph).unwrap();
            let in_shard: Vec<bool> = (0..n).map(|u| single.shard_of(u) == 0).collect();
            let masked = TransitionMatrix::masked(&graph, in_shard, laziness).unwrap();
            let plain = TransitionMatrix::with_laziness(&graph, laziness).unwrap();
            for sources in [1, 11] {
                let origins: Vec<NodeId> = (0..sources).map(|_| rng.gen_range(0..n)).collect();
                let mut a = DistributionEnsemble::point_masses(n, &origins).unwrap();
                let mut b = a.clone();
                a.advance(&masked, 6);
                b.advance(&plain, 6);
                let bits = |e: DistributionEnsemble| -> Vec<u64> {
                    let rows = e.row_groups(&[0, e.sources()]).concat();
                    rows.iter().map(|x| x.to_bits()).collect()
                };
                prop_assert_eq!(bits(a), bits(b), "{} rows", sources);
            }
        }
    }
}

/// One round of the cut-restricted walk, written out as the deployment runs
/// it: a report at `i` stays with probability `laziness`, else draws a
/// uniform neighbour `j`, and stays too when `j` is in another shard or
/// unavailable.
fn cut_restricted_step(
    graph: &Graph,
    partition: &Partition,
    available: &[bool],
    laziness: f64,
    p: &[f64],
) -> Vec<f64> {
    let mut out = vec![0.0; p.len()];
    for (i, &mass) in p.iter().enumerate() {
        out[i] += laziness * mass;
        let share = (1.0 - laziness) * mass / graph.degree(i) as f64;
        for &j in graph.neighbors(i) {
            let j = j as usize;
            if partition.shard_of(j) == partition.shard_of(i) && available[j] {
                out[j] += share;
            } else {
                out[i] += share;
            }
        }
    }
    out
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
