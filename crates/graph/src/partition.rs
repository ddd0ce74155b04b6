//! Deterministic graph partitioning for the sharded shuffle runtime.
//!
//! A single monolithic CSR bounds the whole deployment by one shard's memory
//! and one thread pool's reach.  This module splits the communication graph
//! into `k` shards so that the round loop can run one engine per shard (see
//! [`crate::sharded_engine`]) and a coordinator can account per shard:
//!
//! * every node is assigned to exactly one shard by a **degree-balanced
//!   BFS growth** pass (shards `0..k − 1` grow from high-degree seeds until
//!   they reach their share of the total degree mass; the last shard takes
//!   every node left) followed by a few deterministic **label-propagation
//!   refinement** sweeps that pull nodes toward the shard holding most of
//!   their neighbours without violating the balance tolerance — after the
//!   first, a sweep re-evaluates only the nodes whose decision may have
//!   changed;
//! * each shard lists its nodes in ascending global id (a node's position
//!   in that list is its local id, which the engine's checkpoint layout
//!   uses), and the same nodes as maximal runs of consecutive ids, whose
//!   buckets the engine copies a run at a time.  A partition is only this
//!   assignment: the engine
//!   keeps its buckets over global ids and samples neighbours from the one
//!   global CSR, so no per-shard graph copies are built;
//! * quality is quantified by [`Partition::edge_cut_fraction`] (fraction of
//!   edges whose endpoints land in different shards — every such edge costs
//!   a cross-shard delivery per traversal),
//!   [`Partition::cut_isolated_count`] (nodes with no same-shard
//!   neighbour) and [`Partition::max_shard_imbalance`] (largest shard node
//!   count relative to the perfectly balanced `n / k`).  Both cut counts
//!   come from one pass over the edges at construction; the 1-shard
//!   partition cuts nothing and needs none.
//!
//! Everything is deterministic in `(graph, shard_count)`: no RNG is drawn,
//! ties break toward smaller ids, and refinement sweeps nodes in id order —
//! so a partition can be recomputed anywhere and the sharded engine's
//! seed-only determinism contract extends through it.
//!
//! A deployment whose cross-shard exchange is disabled walks the dropout
//! walk of Section 4.5 with every out-of-shard recipient unavailable: a
//! chosen cut-crossing delivery bounces back to the holder.  So the privacy
//! cost of *not* crossing the cut is the walk operator under a shard's
//! membership mask ([`crate::transition::TransitionMatrix::masked`]),
//! evolved from that shard's origins — the `ablation_shard` experiment,
//! which prices the edge-cut fraction in ε that way.

use crate::error::{GraphError, Result};
use crate::graph::{Graph, NodeId};
use std::ops::Range;

/// How many label-propagation refinement sweeps [`Partition::new`] runs.
const REFINEMENT_SWEEPS: usize = 12;

/// Balance tolerance of refinement: a move is rejected if it would push the
/// receiving shard's degree load above `(1 + tolerance) ×` the ideal share.
const BALANCE_TOLERANCE: f64 = 0.15;

/// One shard of a [`Partition`]: its nodes, whose positions are the
/// shard-local ids.
#[derive(Debug, Clone, Default)]
pub struct Shard {
    /// Global ids of this shard's nodes, ascending; local id = index.
    nodes: Vec<NodeId>,
    /// The same nodes as maximal runs of consecutive ids, ascending.
    runs: Vec<Range<NodeId>>,
}

impl Shard {
    /// Global ids of the shard's nodes, ascending (local id = index).
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The shard's nodes as maximal runs of consecutive global ids,
    /// ascending — a single run `0..n` under the 1-shard partition.  A
    /// run's holder buckets are one contiguous slice, which the engine
    /// counts and copies a run at a time.
    pub fn runs(&self) -> &[Range<NodeId>] {
        &self.runs
    }

    /// Number of nodes in the shard.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the shard is empty (never true for a built [`Partition`]).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Maps a local id back to its global node id.
    ///
    /// # Panics
    ///
    /// Panics if `local` is out of range.
    pub fn global_of(&self, local: usize) -> NodeId {
        self.nodes[local]
    }
}

/// A deterministic `k`-way partition of a communication graph.
///
/// Built by [`Partition::new`]; consumed by
/// [`crate::sharded_engine::ShardedMixingEngine`] (which routes walkers by
/// [`Partition::shard_of`]) and by the service-layer coordinator (which
/// accounts per shard).
#[derive(Debug, Clone)]
pub struct Partition {
    node_count: usize,
    edge_count: usize,
    cut_edge_count: usize,
    cut_isolated_count: usize,
    /// `shard_of[u]` is the shard holding global node `u`.
    shard_of: Vec<u32>,
    shards: Vec<Shard>,
}

impl Partition {
    /// Partitions `graph` into `shard_count` shards: degree-balanced greedy
    /// growth from high-degree seeds, then a bounded number of deterministic
    /// label-propagation refinement sweeps.
    ///
    /// Deterministic in `(graph, shard_count)`; no randomness is used.
    ///
    /// # Errors
    ///
    /// [`GraphError::EmptyGraph`] for the empty graph,
    /// [`GraphError::InvalidParameters`] if `shard_count` is zero or exceeds
    /// the node count.
    pub fn new(graph: &Graph, shard_count: usize) -> Result<Self> {
        let n = graph.node_count();
        if n == 0 {
            return Err(GraphError::EmptyGraph);
        }
        if shard_count == 0 || shard_count > n {
            return Err(GraphError::InvalidParameters(format!(
                "shard count must be in 1..={n}, got {shard_count}"
            )));
        }
        if shard_count == 1 {
            return Self::single_shard(graph);
        }
        let mut shard_of = grow_shards(graph, shard_count);
        refine(graph, shard_count, &mut shard_of);
        Ok(Self::from_assignment_internal(graph, shard_count, shard_of))
    }

    /// The canonical 1-shard partition: every node in shard 0, local id =
    /// global id (also what [`Partition::new`] returns for one shard).
    /// Under this partition the sharded engine runs the monolithic
    /// holder-order round.  No edge is cut, and the only nodes without a
    /// same-shard neighbour are those without any neighbour.
    ///
    /// # Errors
    ///
    /// [`GraphError::EmptyGraph`] for the empty graph.
    pub fn single_shard(graph: &Graph) -> Result<Self> {
        let n = graph.node_count();
        if n == 0 {
            return Err(GraphError::EmptyGraph);
        }
        Ok(Partition {
            node_count: n,
            edge_count: graph.edge_count(),
            cut_edge_count: 0,
            cut_isolated_count: (0..n).filter(|&u| graph.degree(u) == 0).count(),
            shard_of: vec![0; n],
            shards: vec![Shard {
                nodes: (0..n).collect(),
                runs: std::iter::once(0..n).collect(),
            }],
        })
    }

    /// Builds a partition from an explicit node → shard assignment — the
    /// escape hatch for externally computed partitions (METIS files, tests).
    ///
    /// # Errors
    ///
    /// [`GraphError::EmptyGraph`] for the empty graph;
    /// [`GraphError::InvalidParameters`] if the assignment length differs
    /// from the node count, a label is `>= shard_count`, or some shard ends
    /// up empty.
    pub fn from_assignment(graph: &Graph, shard_count: usize, shard_of: Vec<u32>) -> Result<Self> {
        let n = graph.node_count();
        if n == 0 {
            return Err(GraphError::EmptyGraph);
        }
        if shard_of.len() != n {
            return Err(GraphError::InvalidParameters(format!(
                "assignment covers {} nodes but the graph has {n}",
                shard_of.len()
            )));
        }
        if let Some(&bad) = shard_of.iter().find(|&&s| s as usize >= shard_count) {
            return Err(GraphError::InvalidParameters(format!(
                "assignment label {bad} out of range for {shard_count} shards"
            )));
        }
        let mut seen = vec![false; shard_count];
        for &s in &shard_of {
            seen[s as usize] = true;
        }
        if let Some(empty) = seen.iter().position(|&s| !s) {
            return Err(GraphError::InvalidParameters(format!(
                "shard {empty} would be empty"
            )));
        }
        Ok(Self::from_assignment_internal(graph, shard_count, shard_of))
    }

    /// Materializes each shard's node list from a validated assignment and
    /// counts the cut edges and cut-isolated nodes in one pass over the
    /// edges.
    fn from_assignment_internal(graph: &Graph, shard_count: usize, shard_of: Vec<u32>) -> Self {
        let n = graph.node_count();
        let mut shards = vec![Shard::default(); shard_count];
        let mut cut_edge_count = 0usize;
        let mut cut_isolated_count = 0usize;
        for u in 0..n {
            let s = shard_of[u];
            let shard = &mut shards[s as usize];
            shard.nodes.push(u);
            match shard.runs.last_mut() {
                Some(run) if run.end == u => run.end += 1,
                _ => shard.runs.push(u..u + 1),
            }
            let mut has_local_neighbor = false;
            for &v in graph.neighbors(u) {
                if shard_of[v as usize] == s {
                    has_local_neighbor = true;
                } else if u < v as usize {
                    cut_edge_count += 1;
                }
            }
            if !has_local_neighbor {
                cut_isolated_count += 1;
            }
        }
        Partition {
            node_count: n,
            edge_count: graph.edge_count(),
            cut_edge_count,
            cut_isolated_count,
            shard_of,
            shards,
        }
    }

    /// Number of nodes in the partitioned graph.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of shards `k`.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard holding global node `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn shard_of(&self, u: NodeId) -> usize {
        self.shard_of[u] as usize
    }

    /// The shards, in shard-id order.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// One shard by id.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn shard(&self, shard: usize) -> &Shard {
        &self.shards[shard]
    }

    /// Number of undirected edges crossing the cut.
    pub fn cut_edge_count(&self) -> usize {
        self.cut_edge_count
    }

    /// Fraction of the graph's edges that cross the cut — each one costs a
    /// cross-shard delivery whenever a walker traverses it.  `0.0` for a
    /// single shard (or an edgeless graph).
    pub fn edge_cut_fraction(&self) -> f64 {
        if self.edge_count == 0 {
            0.0
        } else {
            self.cut_edge_count as f64 / self.edge_count as f64
        }
    }

    /// Largest shard size relative to the balanced ideal `n / k`; `1.0` is
    /// perfect balance, `2.0` means some shard holds twice its share.
    pub fn max_shard_imbalance(&self) -> f64 {
        let ideal = self.node_count as f64 / self.shards.len() as f64;
        self.shards
            .iter()
            .map(|s| s.len() as f64 / ideal)
            .fold(0.0, f64::max)
    }

    /// Per-shard node counts, in shard-id order.
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.shards.iter().map(Shard::len).collect()
    }

    /// Number of nodes whose **entire** neighbourhood lies across the cut
    /// (no same-shard neighbour).  Under a cut-restricted deployment such
    /// users can never relay, so their reports stay put forever; the
    /// refinement pass rescues them whenever a neighbouring shard exists,
    /// and `ablation_shard` reports the residue.
    pub fn cut_isolated_count(&self) -> usize {
        self.cut_isolated_count
    }
}

/// Total degree mass `Σ (deg(u) + 1) = 2m + n`, which growth splits evenly
/// and refinement's balance limit is measured against.
fn total_weight(graph: &Graph) -> usize {
    (0..graph.node_count()).map(|u| graph.degree(u) + 1).sum()
}

/// Every node in descending degree, ties by ascending id: a counting sort
/// on degree, stable in id.
fn by_descending_degree(graph: &Graph) -> Vec<NodeId> {
    let n = graph.node_count();
    let max_degree = (0..n).map(|u| graph.degree(u)).max().unwrap_or(0);
    // `next[d]`: where the next node of degree `d` goes.
    let mut next = vec![0usize; max_degree + 1];
    for u in 0..n {
        next[graph.degree(u)] += 1;
    }
    let mut start = 0;
    for slot in next.iter_mut().rev() {
        let count = *slot;
        *slot = start;
        start += count;
    }
    let mut order = vec![0; n];
    for u in 0..n {
        let slot = &mut next[graph.degree(u)];
        order[*slot] = u;
        *slot += 1;
    }
    order
}

/// Degree-balanced greedy graph growing: shard `s < k − 1` grows from the
/// highest-degree unassigned node until it holds its share of the total
/// degree mass (`(2m + n) / k`), always absorbing the frontier node with
/// the most edges already inside the shard (ties: smallest id) — the
/// BFS-with-gain-priority variant that follows community structure instead
/// of hop distance.  Growth re-seeds when its frontier empties and stops
/// early when exactly enough nodes remain to seed the shards still to come,
/// so no shard ends up empty.  The last shard takes every node left.
///
/// The frontier is a max-heap of lazy `(gain, node)` entries, each packed
/// into one `u64` — the gain in the high half, `!node` in the low half —
/// so it pops the highest gain first and, among equal gains, the smallest
/// id; an entry whose node was absorbed or whose gain has since risen is
/// stale and skipped.
fn grow_shards(graph: &Graph, shard_count: usize) -> Vec<u32> {
    use std::collections::BinaryHeap;
    let n = graph.node_count();
    const UNASSIGNED: u32 = u32::MAX;
    let mut shard_of = vec![UNASSIGNED; n];
    let target = total_weight(graph) as f64 / shard_count as f64;
    // Seeds are tried in descending degree (ties: ascending id); a cursor
    // walks this order so each re-seed scan is amortized O(n) overall.
    let by_degree = by_descending_degree(graph);
    let mut seed_cursor = 0usize;
    let mut unassigned = n;
    // Gain of an unassigned frontier node = edges into the growing shard.
    let mut gain = vec![0u32; n];
    let mut frontier: BinaryHeap<u64> = BinaryHeap::new();
    let last = shard_count as u32 - 1;
    for s in 0..last {
        let shards_after = (last - s) as usize;
        let mut load = 0.0;
        while unassigned > shards_after && load < target {
            let u = match frontier.pop() {
                Some(key) => {
                    let u = !(key as u32) as usize;
                    if shard_of[u] != UNASSIGNED || gain[u] != (key >> 32) as u32 {
                        continue; // stale entry
                    }
                    u
                }
                None => {
                    // Some node is unassigned (`unassigned > shards_after`),
                    // so the cursor stops before the end.
                    while shard_of[by_degree[seed_cursor]] != UNASSIGNED {
                        seed_cursor += 1;
                    }
                    by_degree[seed_cursor]
                }
            };
            shard_of[u] = s;
            gain[u] = 0;
            unassigned -= 1;
            load += (graph.degree(u) + 1) as f64;
            for &v in graph.neighbors(u) {
                if shard_of[v as usize] == UNASSIGNED {
                    let g = &mut gain[v as usize];
                    *g += 1;
                    frontier.push(u64::from(*g) << 32 | u64::from(!v));
                }
            }
        }
        // Abandon this shard's frontier: the next shard grows from zero.
        frontier.clear();
        gain.fill(0);
    }
    for s in shard_of.iter_mut().filter(|s| **s == UNASSIGNED) {
        *s = last;
    }
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
///
/// A sweep re-evaluates only the nodes whose decision may have changed
/// since their last evaluation (all of them in the first sweep): those with
/// a neighbour that moved since then, those whose move was refused for
/// balance (loads change without a neighbour moving), and those skipped as
/// their shard's last member.  Any other node's last evaluation read only
/// its own shard and its neighbours' shards, none of which has changed, and
/// found no stronger shard or moved to it — so skipping it moves exactly
/// the nodes a full sweep moves, in the same order.
fn refine(graph: &Graph, shard_count: usize, shard_of: &mut [u32]) {
    let n = graph.node_count();
    let load_limit = (total_weight(graph) as f64 / shard_count as f64) * (1.0 + BALANCE_TOLERANCE);
    let mut loads = vec![0.0f64; shard_count];
    let mut members = vec![0usize; shard_count];
    for (u, &s) in shard_of.iter().enumerate() {
        loads[s as usize] += (graph.degree(u) + 1) as f64;
        members[s as usize] += 1;
    }
    // Sparse per-node adjacency histogram, reset per node via a touched list.
    let mut adjacency = vec![0usize; shard_count];
    let mut touched: Vec<usize> = Vec::with_capacity(shard_count);
    let mut dirty = vec![true; n];
    for _ in 0..REFINEMENT_SWEEPS {
        let mut moved = false;
        for u in 0..n {
            let cur = shard_of[u] as usize;
            if !dirty[u] || members[cur] == 1 {
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
            // Only a strictly stronger shard improves, so `best != cur`.
            let improves = adjacency[best] > adjacency[cur];
            let fits = loads[best] + weight <= load_limit || adjacency[cur] == 0;
            dirty[u] = improves && !fits;
            if improves && fits {
                shard_of[u] = best as u32;
                loads[cur] -= weight;
                loads[best] += weight;
                members[cur] -= 1;
                members[best] += 1;
                moved = true;
                for &v in graph.neighbors(u) {
                    dirty[v as usize] = true;
                }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::rng::seeded_rng;

    fn test_graph(n: usize, k: usize, seed: u64) -> Graph {
        generators::random_regular(n, k, &mut seeded_rng(seed)).unwrap()
    }

    #[test]
    fn construction_validates_inputs() {
        let empty = Graph::from_edges(0, &[]).unwrap();
        assert!(Partition::new(&empty, 1).is_err());
        assert!(Partition::single_shard(&empty).is_err());
        let g = test_graph(40, 4, 1);
        assert!(Partition::new(&g, 0).is_err());
        assert!(Partition::new(&g, 41).is_err());
        assert!(Partition::from_assignment(&g, 2, vec![0; 39]).is_err());
        assert!(Partition::from_assignment(&g, 2, vec![2; 40]).is_err());
        // A shard may not be empty.
        assert!(Partition::from_assignment(&g, 2, vec![0; 40]).is_err());
    }

    #[test]
    fn every_node_lands_in_exactly_one_shard() {
        let g = test_graph(200, 6, 2);
        for k in [1, 2, 3, 7] {
            let p = Partition::new(&g, k).unwrap();
            assert_eq!(p.shard_count(), k);
            let mut seen = [false; 200];
            for (s, shard) in p.shards().iter().enumerate() {
                let expanded: Vec<NodeId> = shard.runs().iter().cloned().flatten().collect();
                assert_eq!(expanded, shard.nodes(), "runs must cover exactly the nodes");
                assert!(shard.runs().windows(2).all(|w| w[0].end < w[1].start));
                for (local, &u) in shard.nodes().iter().enumerate() {
                    assert!(!seen[u], "node {u} appears twice");
                    seen[u] = true;
                    assert_eq!(p.shard_of(u), s);
                    assert_eq!(shard.global_of(local), u);
                }
            }
            assert!(seen.iter().all(|&b| b));
            assert_eq!(p.shard_sizes().iter().sum::<usize>(), 200);
        }
    }

    #[test]
    fn single_shard_is_the_identity_partition() {
        let g = test_graph(60, 4, 3);
        let p = Partition::single_shard(&g).unwrap();
        assert_eq!(p.shard_count(), 1);
        assert_eq!(p.cut_edge_count(), 0);
        assert_eq!(p.edge_cut_fraction(), 0.0);
        assert_eq!(p.max_shard_imbalance(), 1.0);
        assert_eq!(p.cut_isolated_count(), 0);
        assert_eq!(p.shard(0).nodes(), (0..60).collect::<Vec<_>>().as_slice());
        assert_eq!(p.shard(0).runs(), std::slice::from_ref(&(0..60)));
        // `new` with one shard is the same assignment, without a growth pass.
        let q = Partition::new(&g, 1).unwrap();
        assert_eq!(q.shard_of, p.shard_of);
    }

    #[test]
    fn cut_counts_match_a_brute_force_recount() {
        let g = generators::barabasi_albert(150, 3, &mut seeded_rng(4)).unwrap();
        let p = Partition::new(&g, 4).unwrap();
        let cut = g
            .edges()
            .filter(|&(u, v)| p.shard_of(u) != p.shard_of(v))
            .count();
        let isolated = g
            .nodes()
            .filter(|&u| {
                g.neighbors(u)
                    .iter()
                    .all(|&v| p.shard_of(v as usize) != p.shard_of(u))
            })
            .count();
        assert_eq!(p.cut_edge_count(), cut);
        assert_eq!(p.cut_isolated_count(), isolated);
        assert!(p.edge_cut_fraction() > 0.0 && p.edge_cut_fraction() < 1.0);
    }

    #[test]
    fn partitioning_is_deterministic_and_reasonably_balanced() {
        let g = test_graph(400, 8, 6);
        let a = Partition::new(&g, 5).unwrap();
        let b = Partition::new(&g, 5).unwrap();
        assert_eq!(a.shard_of, b.shard_of);
        assert!(
            a.max_shard_imbalance() < 1.8,
            "imbalance = {}",
            a.max_shard_imbalance()
        );
        for shard in a.shards() {
            assert!(!shard.is_empty());
        }
    }

    #[test]
    fn refinement_does_not_beat_communities_apart() {
        // A planted 4-community graph: the partitioner should recover a cut
        // far below the random-assignment expectation of 1 - 1/k.
        let g = generators::stochastic_block_model(240, 4, 0.25, 0.01, &mut seeded_rng(7)).unwrap();
        let g = crate::connectivity::largest_connected_component(&g).0;
        let p = Partition::new(&g, 4).unwrap();
        assert!(
            p.edge_cut_fraction() < 0.4,
            "cut fraction = {}",
            p.edge_cut_fraction()
        );
    }
}
