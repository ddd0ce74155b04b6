//! Time-varying topologies: dynamic graphs and per-round operator
//! schedules.
//!
//! The paper's deployment discussion (Section 4.5) folds every form of churn
//! into a single laziness constant.  This module keeps the *realized* network
//! history instead, in two layers over the one walk operator,
//! [`TransitionMatrix`], whose availability-masked form
//! ([`TransitionMatrix::masked`]) is the exact one-round operator under a
//! mask — a report whose *chosen recipient* is unavailable stays put for the
//! round; with an i.i.d. random mask its expectation over masks is the lazy
//! walk with laziness equal to the dropout probability, which is exactly the
//! paper's reduction:
//!
//! * [`DynamicGraph`] — a mutable delta layer over the immutable CSR
//!   [`Graph`]: per-node availability flags plus edge insertions/removals,
//!   materialized back into a CSR snapshot on demand (one pass over the
//!   adjacency lists, cached until the next edge change), and the masked
//!   operator of its current state ([`DynamicGraph::masked_operator`]).
//! * [`TimeVaryingModel`] — a per-round schedule of [`TransitionMatrix`]
//!   operators implementing [`TransitionModel`].  The ensemble kernel
//!   passes its absolute round to every [`TransitionModel`] call, so a
//!   [`crate::ensemble::DistributionEnsemble`] evolves exactly through the
//!   *product of distinct per-round transitions* with no new kernel: the
//!   schedule simply swaps which operator each round applies.  A
//!   one-operator schedule therefore reproduces the static results bitwise
//!   — the degeneracy the tests pin down.
//!
//! The adjacency lists take each edge update in `O(deg)`, and the CSR
//! snapshot is rebuilt only when a snapshot is asked for after an edge
//! changed: availability flips and repeated snapshot calls cost nothing.

use crate::error::{GraphError, Result};
use crate::graph::{Graph, NodeId};
use crate::transition::{DarkCounts, TransitionMatrix, TransitionModel, WalkCsr};
use std::ops::Range;
use std::sync::Arc;

/// A mutable communication network: an undirected graph under edge
/// insertions/removals plus a per-node availability mask.
///
/// The graph of record is a set of sorted adjacency lists (`O(deg)` edge
/// updates); [`DynamicGraph::snapshot`] materializes the current topology as
/// an immutable CSR [`Graph`] for the engines and accountants, rebuilding it
/// only after an edge changed.
#[derive(Debug, Clone)]
pub struct DynamicGraph {
    /// Sorted neighbour list per node — the current truth.
    adjacency: Vec<Vec<NodeId>>,
    /// Availability flags; unavailable nodes still appear in the topology
    /// but cannot *receive* reports (see [`TransitionMatrix::masked`]).
    available: Vec<bool>,
    /// Undirected edge count of `adjacency`.
    edge_count: usize,
    /// CSR materialization of `adjacency` as of the last snapshot call.
    snapshot: Graph,
    /// Whether an edge changed since the last snapshot.
    changed: bool,
}

impl DynamicGraph {
    /// Starts a dynamic graph from a static topology, everyone available.
    ///
    /// # Errors
    ///
    /// [`GraphError::EmptyGraph`] if the graph has no nodes.
    pub fn from_graph(graph: &Graph) -> Result<Self> {
        let n = graph.node_count();
        if n == 0 {
            return Err(GraphError::EmptyGraph);
        }
        let adjacency: Vec<Vec<NodeId>> = graph
            .nodes()
            .map(|u| graph.neighbors(u).iter().map(|&v| v as NodeId).collect())
            .collect();
        Ok(DynamicGraph {
            adjacency,
            available: vec![true; n],
            edge_count: graph.edge_count(),
            snapshot: graph.clone(),
            changed: false,
        })
    }

    /// Number of nodes (fixed for the lifetime of the dynamic graph; churn
    /// is modelled through availability, not node removal, so report
    /// indices stay stable).
    pub fn node_count(&self) -> usize {
        self.adjacency.len()
    }

    /// Current number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Current degree of `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn degree(&self, u: NodeId) -> usize {
        self.adjacency[u].len()
    }

    /// Whether the undirected edge `(u, v)` currently exists
    /// (`O(log deg(u))`; out-of-range endpoints simply yield `false`).
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        u < self.node_count()
            && v < self.node_count()
            && self.adjacency[u].binary_search(&v).is_ok()
    }

    /// Whether node `u` is currently available.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn is_available(&self, u: NodeId) -> bool {
        self.available[u]
    }

    /// The full availability mask.
    pub fn availability(&self) -> &[bool] {
        &self.available
    }

    /// Marks node `u` available/unavailable.  Availability does not touch
    /// the topology (and hence never invalidates the CSR snapshot); it is
    /// consumed by [`DynamicGraph::masked_operator`] and the engine's masked
    /// rounds.
    ///
    /// # Errors
    ///
    /// [`GraphError::NodeOutOfRange`] if `u >= n`.
    pub fn set_available(&mut self, u: NodeId, up: bool) -> Result<()> {
        if u >= self.node_count() {
            return Err(GraphError::NodeOutOfRange {
                node: u,
                node_count: self.node_count(),
            });
        }
        self.available[u] = up;
        Ok(())
    }

    fn check_edge(&self, u: NodeId, v: NodeId) -> Result<()> {
        let n = self.node_count();
        for node in [u, v] {
            if node >= n {
                return Err(GraphError::NodeOutOfRange {
                    node,
                    node_count: n,
                });
            }
        }
        if u == v {
            return Err(GraphError::SelfLoop(u));
        }
        Ok(())
    }

    /// Adds the undirected edge `(u, v)`; returns `false` (and changes
    /// nothing) if it already exists.
    ///
    /// # Errors
    ///
    /// [`GraphError::NodeOutOfRange`] / [`GraphError::SelfLoop`] on
    /// malformed endpoints.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> Result<bool> {
        self.check_edge(u, v)?;
        let Err(slot) = self.adjacency[u].binary_search(&v) else {
            return Ok(false);
        };
        self.adjacency[u].insert(slot, v);
        let slot = self.adjacency[v]
            .binary_search(&u)
            .expect_err("adjacency lists must mirror each other");
        self.adjacency[v].insert(slot, u);
        self.edge_count += 1;
        self.changed = true;
        Ok(true)
    }

    /// Removes the undirected edge `(u, v)`; returns `false` (and changes
    /// nothing) if it does not exist.
    ///
    /// # Errors
    ///
    /// [`GraphError::NodeOutOfRange`] / [`GraphError::SelfLoop`] on
    /// malformed endpoints.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> Result<bool> {
        self.check_edge(u, v)?;
        let Ok(slot) = self.adjacency[u].binary_search(&v) else {
            return Ok(false);
        };
        self.adjacency[u].remove(slot);
        let slot = self.adjacency[v]
            .binary_search(&u)
            .expect("adjacency lists must mirror each other");
        self.adjacency[v].remove(slot);
        self.edge_count -= 1;
        self.changed = true;
        Ok(true)
    }

    /// The current topology as an immutable CSR [`Graph`].
    ///
    /// With no edge change since the last call this is free (the cached
    /// snapshot); otherwise the snapshot is rebuilt from the adjacency
    /// lists in one `O(n + m)` pass.
    pub fn snapshot(&mut self) -> &Graph {
        if self.changed {
            self.snapshot = self.rebuild_csr();
            self.changed = false;
        }
        &self.snapshot
    }

    /// Flattens every adjacency list into a fresh CSR.
    fn rebuild_csr(&self) -> Graph {
        let n = self.node_count();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut neighbors = Vec::with_capacity(2 * self.edge_count);
        offsets.push(0usize);
        for list in &self.adjacency {
            neighbors.extend(list.iter().map(|&v| v as u32));
            offsets.push(neighbors.len());
        }
        Graph::from_csr(offsets, neighbors)
    }

    /// The availability-masked one-round operator of the current topology
    /// and mask.
    ///
    /// # Errors
    ///
    /// Operator construction errors (isolated node, invalid laziness).
    pub fn masked_operator(&mut self, laziness: f64) -> Result<TransitionMatrix> {
        self.snapshot();
        TransitionMatrix::masked(&self.snapshot, self.available.clone(), laziness)
    }
}

/// A per-round schedule of walk operators: the walk applies `operator(0)`
/// between `t = 0` and `t = 1`, `operator(1)` next, and so on, and holds the
/// last operator once the schedule is exhausted ("the outage persists").
///
/// Implements [`TransitionModel`] by handing each round to that round's
/// operator, so the ensemble kernel — and everything built on it (exact
/// per-user accounting, ε-vs-rounds sweeps, trajectory drivers) — evolves
/// distributions through the exact product of per-round operators with no
/// kernel of its own.
#[derive(Debug, Clone)]
pub struct TimeVaryingModel {
    /// Never empty; every operator covers the same nodes.
    schedule: Vec<TransitionMatrix>,
}

impl TimeVaryingModel {
    /// A schedule of `schedule`'s operators, one per round.
    ///
    /// # Errors
    ///
    /// [`GraphError::InvalidParameters`] if the schedule is empty or the
    /// operators disagree on the node count.
    pub fn new(schedule: Vec<TransitionMatrix>) -> Result<Self> {
        let Some(first) = schedule.first() else {
            return Err(GraphError::InvalidParameters(
                "a time-varying model needs at least one scheduled operator".into(),
            ));
        };
        let node_count = first.node_count();
        if let Some(bad) = schedule.iter().position(|m| m.node_count() != node_count) {
            return Err(GraphError::InvalidParameters(format!(
                "scheduled operator {bad} has {} nodes, expected {node_count}",
                schedule[bad].node_count()
            )));
        }
        Ok(TimeVaryingModel { schedule })
    }

    /// A schedule of masked [`TransitionMatrix`] operators
    /// ([`TransitionMatrix::masked`]), one per round, from a sequence of
    /// realized availability masks on a static topology.  Shared masks
    /// (`Arc<[bool]>`) are held, not copied, so the operators and the
    /// schedule they came from keep one copy of each mask.
    ///
    /// # Errors
    ///
    /// Operator construction errors (degenerate graph, bad laziness or mask
    /// shape), or an empty mask sequence.
    pub fn from_availability<M>(graph: &Graph, laziness: f64, masks: &[M]) -> Result<Self>
    where
        M: Clone + Into<Arc<[bool]>>,
    {
        // One shared CSR copy for the whole schedule: each round adds at
        // most its n-bool mask, so a t_mix-length schedule stays
        // O(n + m + t·n) instead of O(t · (n + m)).
        let csr = WalkCsr::of(graph)?;
        let schedule = masks
            .iter()
            .map(|mask| TransitionMatrix::over(Arc::clone(&csr), mask.clone().into(), laziness))
            .collect::<Result<_>>()?;
        Self::new(schedule)
    }

    /// Number of explicitly scheduled rounds.
    pub fn schedule_len(&self) -> usize {
        self.schedule.len()
    }

    /// The operator applied at absolute round `round`.
    pub fn operator(&self, round: usize) -> &TransitionMatrix {
        &self.schedule[round.min(self.schedule.len() - 1)]
    }
}

impl TransitionModel for TimeVaryingModel {
    fn node_count(&self) -> usize {
        self.schedule[0].node_count()
    }

    fn propagate_round_into(&self, round: usize, p: &[f64], out: &mut [f64]) {
        self.operator(round).propagate_round_into(0, p, out);
    }

    fn prepare_round(&self, round: usize, dark: &mut DarkCounts) {
        self.operator(round).prepare_round(0, dark);
    }

    fn propagate_round_interleaved_range(
        &self,
        round: usize,
        lanes: usize,
        input: &[f64],
        nodes: Range<usize>,
        out: &mut [f64],
        dark: &DarkCounts,
    ) {
        self.operator(round)
            .propagate_round_interleaved_range(0, lanes, input, nodes, out, dark);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ensemble::DistributionEnsemble;
    use crate::generators;
    use crate::rng::seeded_rng;

    fn test_graph(seed: u64) -> Graph {
        generators::barabasi_albert(120, 3, &mut seeded_rng(seed)).unwrap()
    }

    #[test]
    fn dynamic_graph_tracks_edge_deltas() {
        let g = test_graph(1);
        let mut dynamic = DynamicGraph::from_graph(&g).unwrap();
        assert_eq!(dynamic.node_count(), g.node_count());
        assert_eq!(dynamic.edge_count(), g.edge_count());
        // Adding an existing edge is a no-op; a new edge changes counts.
        let (u, v) = g.edges().next().unwrap();
        assert!(!dynamic.add_edge(u, v).unwrap());
        let fresh = (0..g.node_count())
            .flat_map(|a| (0..a).map(move |b| (b, a)))
            .find(|&(a, b)| !g.has_edge(a, b))
            .unwrap();
        assert!(dynamic.add_edge(fresh.0, fresh.1).unwrap());
        assert_eq!(dynamic.edge_count(), g.edge_count() + 1);
        assert!(dynamic.remove_edge(fresh.0, fresh.1).unwrap());
        assert!(!dynamic.remove_edge(fresh.0, fresh.1).unwrap());
        assert_eq!(dynamic.edge_count(), g.edge_count());
        // Validation.
        assert!(dynamic.add_edge(0, 0).is_err());
        assert!(dynamic.add_edge(0, 10_000).is_err());
        assert!(dynamic.set_available(10_000, false).is_err());
    }

    #[test]
    fn snapshots_match_a_from_scratch_build_after_small_and_large_edits() {
        let g = test_graph(2);
        let n = g.node_count();
        let mut rng = seeded_rng(3);
        let mut dynamic = DynamicGraph::from_graph(&g).unwrap();
        use rand::Rng;
        use std::collections::BTreeSet;
        // The edge set of record, kept apart from the dynamic graph.
        let mut edges: BTreeSet<(NodeId, NodeId)> = g.edges().collect();
        let from_scratch = |edges: &BTreeSet<(NodeId, NodeId)>| {
            let edges: Vec<_> = edges.iter().copied().collect();
            Graph::from_edges(n, &edges).unwrap()
        };
        // Small wave: a few toggled edges.
        for _ in 0..4 {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u != v {
                let edge = (u.min(v), u.max(v));
                if dynamic.has_edge(u, v) {
                    dynamic.remove_edge(u, v).unwrap();
                    edges.remove(&edge);
                } else {
                    dynamic.add_edge(u, v).unwrap();
                    edges.insert(edge);
                }
            }
        }
        assert_eq!(dynamic.snapshot(), &from_scratch(&edges));
        // Large wave: a new edge at almost every node.
        for u in 0..n {
            let v = (u + 7) % n;
            if !dynamic.has_edge(u, v) {
                dynamic.add_edge(u, v).unwrap();
                edges.insert((u.min(v), u.max(v)));
            }
        }
        let rebuilt = dynamic.snapshot().clone();
        assert_eq!(rebuilt, from_scratch(&edges));
        assert_eq!(rebuilt.edge_count(), dynamic.edge_count());
    }

    #[test]
    fn snapshot_is_cached_until_an_edge_changes() {
        let g = test_graph(4);
        let mut dynamic = DynamicGraph::from_graph(&g).unwrap();
        assert_eq!(dynamic.snapshot(), &g);
        // Availability does not touch the topology snapshot.
        dynamic.set_available(0, false).unwrap();
        assert_eq!(dynamic.snapshot(), &g);
        let (u, v) = g.edges().next().unwrap();
        dynamic.remove_edge(u, v).unwrap();
        assert!(!dynamic.snapshot().has_edge(u, v));
    }

    #[test]
    fn constant_schedule_reproduces_static_ensemble_bitwise() {
        let g = test_graph(9);
        let n = g.node_count();
        let matrix = TransitionMatrix::with_laziness(&g, 0.1).unwrap();
        let schedule = TimeVaryingModel::new(vec![matrix.clone()]).unwrap();
        let origins: Vec<usize> = (0..n).step_by(2).collect();
        let mut static_e = DistributionEnsemble::point_masses(n, &origins).unwrap();
        let static_t = static_e.advance_tracked(&matrix, 11);
        let mut scheduled = DistributionEnsemble::point_masses(n, &origins).unwrap();
        let scheduled_t = scheduled.advance_tracked(&schedule, 11);
        assert_eq!(static_e, scheduled);
        assert_eq!(static_t, scheduled_t);
    }

    #[test]
    fn schedule_applies_distinct_operators_in_round_order() {
        // Round 0 on the path 0-1-2, round 1 on the triangle: a point mass
        // at node 0 must move as the product of the two distinct operators.
        let path = generators::path(3).unwrap();
        let triangle = generators::cycle(3).unwrap();
        let m_path = TransitionMatrix::new(&path).unwrap();
        let m_tri = TransitionMatrix::new(&triangle).unwrap();
        let schedule = TimeVaryingModel::new(vec![m_path.clone(), m_tri.clone()]).unwrap();
        let mut ensemble = DistributionEnsemble::point_masses(3, &[0]).unwrap();
        ensemble.advance(&schedule, 2);
        let mut expected = DistributionEnsemble::point_masses(3, &[0]).unwrap();
        expected.advance(&m_path, 1);
        expected.advance(&m_tri, 1);
        assert_eq!(ensemble, expected);
        // Hold semantics: round 2 keeps applying the triangle operator.
        let mut held = DistributionEnsemble::point_masses(3, &[0]).unwrap();
        held.advance(&schedule, 3);
        expected.advance(&m_tri, 1);
        assert_eq!(held, expected);
    }

    #[test]
    fn time_varying_model_validates_schedules() {
        assert!(TimeVaryingModel::new(Vec::new()).is_err());
        let small = TransitionMatrix::new(&generators::cycle(3).unwrap()).unwrap();
        let large = TransitionMatrix::new(&generators::cycle(5).unwrap()).unwrap();
        assert!(TimeVaryingModel::new(vec![small, large]).is_err());
    }

    #[test]
    fn availability_schedule_interpolates_between_masks() {
        let g = test_graph(10);
        let n = g.node_count();
        let mut blackout = vec![true; n];
        for slot in blackout.iter_mut().take(n / 4) {
            *slot = false;
        }
        let masks = vec![vec![true; n], blackout];
        let model = TimeVaryingModel::from_availability(&g, 0.0, &masks).unwrap();
        assert_eq!(model.schedule_len(), 2);
        assert_eq!(model.node_count(), n);
        // Round 0 is the plain walk; round 1 routes around the blackout.
        let mut ensemble = DistributionEnsemble::point_masses(n, &[n - 1]).unwrap();
        ensemble.advance(&model, 2);
        let sum: f64 = ensemble.row_groups(&[0, 1]).concat().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }
}
