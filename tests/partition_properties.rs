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
//!   deployment that never crosses the cut;
//! * `Partition::new` is, node for node, the partition of the reference
//!   partitioner in [`reference`]: its full-heap growth, grown node by node
//!   to the last shard, and its full label-propagation sweeps.

mod common;

use common::strategies;
use ns_graph::ensemble::DistributionEnsemble;
use ns_graph::partition::Partition;
use ns_graph::rng::seeded_rng;
use ns_graph::transition::TransitionMatrix;
use ns_graph::{Graph, NodeId};
use proptest::prelude::*;
use rand::Rng;
use std::ops::Range;

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

/// The partitioner as it was before its set-up was tuned, kept verbatim as
/// the oracle of [`check_against_reference`]: growth pushes a
/// `(gain, Reverse(id))` heap entry per frontier edge, grows the last shard
/// node by node and drains every stale entry, and each refinement sweep
/// re-evaluates every node.
mod reference {
    use ns_graph::{Graph, NodeId};

    const REFINEMENT_SWEEPS: usize = 12;
    const BALANCE_TOLERANCE: f64 = 0.15;

    /// Degree-balanced greedy graph growing: shard `s` grows from the
    /// highest-degree unassigned node until it holds its share of the total
    /// degree mass (`(2m + n) / k`), always absorbing the frontier node with
    /// the most edges already inside the shard (ties: smallest id) — the
    /// BFS-with-gain-priority variant that follows community structure instead
    /// of hop distance.  Growth re-seeds when its frontier empties and stops
    /// early when exactly enough nodes remain to seed the shards still to come,
    /// so no shard ends up empty.
    pub fn grow_shards(graph: &Graph, shard_count: usize) -> Vec<u32> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let n = graph.node_count();
        const UNASSIGNED: u32 = u32::MAX;
        let mut shard_of = vec![UNASSIGNED; n];
        let total_weight: usize = (0..n).map(|u| graph.degree(u) + 1).sum();
        let target = total_weight as f64 / shard_count as f64;
        // Seeds are tried in descending degree (ties: ascending id); a cursor
        // walks this order so each re-seed scan is amortized O(n) overall.
        let mut by_degree: Vec<NodeId> = (0..n).collect();
        by_degree.sort_by_key(|&u| (Reverse(graph.degree(u)), u));
        let mut seed_cursor = 0usize;
        let mut unassigned = n;
        // Gain of an unassigned frontier node = edges into the growing shard;
        // the heap carries lazy (gain, node) entries, stale ones are skipped.
        let mut gain = vec![0u32; n];
        let mut frontier: BinaryHeap<(u32, Reverse<u32>)> = BinaryHeap::new();
        for s in 0..shard_count as u32 {
            let shards_after = shard_count as u32 - s - 1;
            let mut load = 0.0;
            frontier.clear();
            // The last shard absorbs everything left.
            while unassigned > shards_after as usize && (load < target || shards_after == 0) {
                let u = match frontier.pop() {
                    Some((g, Reverse(u)))
                        if shard_of[u as usize] == UNASSIGNED && gain[u as usize] == g =>
                    {
                        u
                    }
                    Some(_) => continue, // stale entry
                    None => {
                        while seed_cursor < n && shard_of[by_degree[seed_cursor]] != UNASSIGNED {
                            seed_cursor += 1;
                        }
                        if seed_cursor == n {
                            break;
                        }
                        by_degree[seed_cursor] as u32
                    }
                };
                shard_of[u as usize] = s;
                gain[u as usize] = 0;
                unassigned -= 1;
                load += (graph.degree(u as usize) + 1) as f64;
                for &v in graph.neighbors(u as usize) {
                    let v = v as usize;
                    if shard_of[v] == UNASSIGNED {
                        gain[v] += 1;
                        frontier.push((gain[v], Reverse(v as u32)));
                    }
                }
            }
            // Reset the gains touched by this shard's (now abandoned) frontier.
            for (_, Reverse(v)) in frontier.drain() {
                gain[v as usize] = 0;
            }
        }
        debug_assert!(shard_of.iter().all(|&s| s != UNASSIGNED));
        shard_of
    }

    /// Deterministic label-propagation refinement: sweep nodes in id order and
    /// move each to the neighbouring shard with the strongest adjacency if that
    /// strictly reduces the local cut, respects the balance tolerance and does
    /// not empty the source shard.  Moves apply immediately within a sweep.
    ///
    /// One exemption: a node with **zero** intra-shard neighbours (its whole
    /// neighbourhood is across the cut — under a cut-restricted deployment such
    /// a user would be frozen forever) is rescued into its strongest
    /// neighbouring shard even when that shard is at its balance limit.
    pub fn refine(graph: &Graph, shard_count: usize, shard_of: &mut [u32]) {
        let n = graph.node_count();
        let total_weight: usize = (0..n).map(|u| graph.degree(u) + 1).sum();
        let load_limit = (total_weight as f64 / shard_count as f64) * (1.0 + BALANCE_TOLERANCE);
        let mut loads = vec![0.0f64; shard_count];
        let mut members = vec![0usize; shard_count];
        for (u, &s) in shard_of.iter().enumerate() {
            loads[s as usize] += (graph.degree(u) + 1) as f64;
            members[s as usize] += 1;
        }
        // Sparse per-node adjacency histogram, reset per node via a touched list.
        let mut adjacency = vec![0usize; shard_count];
        let mut touched: Vec<usize> = Vec::with_capacity(shard_count);
        for _ in 0..REFINEMENT_SWEEPS {
            let mut moved = false;
            for u in 0..n {
                let cur = shard_of[u] as usize;
                if members[cur] == 1 {
                    continue;
                }
                touched.clear();
                for &v in graph.neighbors(u) {
                    let t = shard_of[v as usize] as usize;
                    if adjacency[t] == 0 {
                        touched.push(t);
                    }
                    adjacency[t] += 1;
                }
                let mut best = cur;
                let mut best_count = adjacency[cur];
                for &t in &touched {
                    if adjacency[t] > best_count || (adjacency[t] == best_count && t < best) {
                        best = t;
                        best_count = adjacency[t];
                    }
                }
                let weight = (graph.degree(u) + 1) as f64;
                let improves = adjacency[best] > adjacency[cur];
                let fits = loads[best] + weight <= load_limit || adjacency[cur] == 0;
                if best != cur && improves && fits {
                    shard_of[u] = best as u32;
                    loads[cur] -= weight;
                    loads[best] += weight;
                    members[cur] -= 1;
                    members[best] += 1;
                    moved = true;
                }
                for &t in &touched {
                    adjacency[t] = 0;
                }
            }
            if !moved {
                break;
            }
        }
    }
}

/// Checks `Partition::new(graph, shard_count)` node for node against the
/// reference partitioner: the assignment, every shard's node list and runs,
/// and both cut counts (brute force from the reference assignment).  One
/// shard is the all-zero assignment, as it has always been.
fn check_against_reference(graph: &Graph, shard_count: usize) {
    let n = graph.node_count();
    let partition = Partition::new(graph, shard_count).unwrap();
    let expected = if shard_count == 1 {
        vec![0; n]
    } else {
        let mut shard_of = reference::grow_shards(graph, shard_count);
        reference::refine(graph, shard_count, &mut shard_of);
        shard_of
    };
    for (u, &s) in expected.iter().enumerate() {
        assert_eq!(
            partition.shard_of(u),
            s as usize,
            "node {u} at {shard_count} shards"
        );
    }
    assert_eq!(partition.shard_count(), shard_count);
    for (s, shard) in partition.shards().iter().enumerate() {
        let nodes: Vec<NodeId> = (0..n).filter(|&u| expected[u] as usize == s).collect();
        let mut runs: Vec<Range<NodeId>> = Vec::new();
        for &u in &nodes {
            match runs.last_mut() {
                Some(run) if run.end == u => run.end += 1,
                _ => runs.push(u..u + 1),
            }
        }
        assert_eq!(shard.nodes(), nodes, "shard {s} of {shard_count}");
        assert_eq!(shard.runs(), runs, "shard {s} of {shard_count}");
    }
    let same = |u: usize, v: u32| expected[u] == expected[v as usize];
    let cut = (0..n)
        .flat_map(|u| graph.neighbors(u).iter().map(move |&v| (u, v)))
        .filter(|&(u, v)| u < v as usize && !same(u, v))
        .count();
    let isolated = (0..n)
        .filter(|&u| !graph.neighbors(u).iter().any(|&v| same(u, v)))
        .count();
    assert_eq!(partition.cut_edge_count(), cut, "{shard_count} shards");
    assert_eq!(
        partition.cut_isolated_count(),
        isolated,
        "{shard_count} shards"
    );
}

/// The reference oracle on a 20k-user stand-in with the 1M benchmark
/// graph's profile (irregularity 7.584, mean degree 10): hub-heavy growth
/// phases, a long last shard and refinement moves refused for balance.
#[test]
fn partition_matches_the_reference_on_a_benchmark_profile_graph() {
    let graph = ns_datasets::catalog::generate_with_targets(20_000, 7.584, 10.0, 20220408).unwrap();
    for shard_count in [2, 3, 4, 8] {
        check_against_reference(&graph, shard_count);
    }
}

/// The reference oracle at every shard count up to the node count, on
/// graphs the zoo never draws: isolated users, a star, a path and sparse
/// trees, where growth re-seeds and shards of one user are common.
#[test]
fn partition_matches_the_reference_at_every_shard_count_on_small_graphs() {
    let star: Vec<(NodeId, NodeId)> = (1..12).map(|v| (0, v)).collect();
    let path: Vec<(NodeId, NodeId)> = (0..15).map(|v| (v, v + 1)).collect();
    let with_isolated = vec![(0, 1), (1, 2), (2, 0), (5, 6), (6, 7), (9, 10)];
    let mut graphs: Vec<Graph> = [(12, star), (16, path), (13, with_isolated)]
        .into_iter()
        .map(|(n, edges)| Graph::from_edges(n, &edges).unwrap())
        .collect();
    graphs.extend(
        (0..20).map(|seed| {
            ns_graph::generators::barabasi_albert(60, 1, &mut seeded_rng(seed)).unwrap()
        }),
    );
    for graph in &graphs {
        for shard_count in 1..=graph.node_count() {
            check_against_reference(graph, shard_count);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `Partition::new` is the reference partition, node for node, on every
    /// zoo family at every shard count from 1 to 8.
    #[test]
    fn partition_matches_the_reference_on_the_graph_zoo(
        graph in strategies::graph_zoo(40..180),
    ) {
        for shard_count in 1..=graph.node_count().min(8) {
            check_against_reference(&graph, shard_count);
        }
    }

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
