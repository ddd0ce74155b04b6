//! Time-varying topologies: dynamic graphs, availability-masked transitions
//! and per-round operator schedules.
//!
//! The paper's deployment discussion (Section 4.5) folds every form of churn
//! into a single laziness constant.  This module keeps the *realized* network
//! history instead, in three layers:
//!
//! * [`DynamicGraph`] — a mutable delta layer over the immutable CSR
//!   [`Graph`]: per-node availability flags plus edge insertions/removals,
//!   materialized back into a CSR snapshot incrementally (unchanged row
//!   spans are spliced with bulk copies; past [`REBUILD_DIRTY_FRACTION`]
//!   dirty nodes the snapshot is rebuilt outright, which is cheaper than
//!   patching).
//! * [`MaskedTransition`] — the exact one-round operator of the lazy walk on
//!   a graph with an availability mask: a report whose *chosen recipient* is
//!   unavailable stays put for the round.  With every node available this is
//!   bit-for-bit the lazy [`TransitionMatrix`]; with an i.i.d. random mask
//!   its expectation over masks is the lazy walk with laziness equal to the
//!   dropout probability, which is exactly the paper's reduction.
//! * [`TimeVaryingModel`] — a per-round schedule of transition operators
//!   implementing [`TransitionModel`].  The ensemble kernel drives models
//!   through the round-aware entry points
//!   ([`TransitionModel::propagate_round_interleaved`]), so a
//!   [`crate::ensemble::DistributionEnsemble`] evolves exactly through the
//!   *product of distinct per-round transitions* with no new kernel: the
//!   schedule simply swaps which operator each round applies.  A constant
//!   schedule therefore reproduces the static results bitwise — the
//!   degeneracy the tests pin down.
//!
//! Maintaining the structure incrementally instead of re-deriving it from
//! scratch per round follows the updates-under-evaluation pattern of
//! incremental view maintenance (cf. Berkholz et al., "Answering FO+MOD
//! queries under updates").

use crate::error::{GraphError, Result};
use crate::graph::{Graph, NodeId};
use crate::transition::{lane_runs, LaneOut, TransitionMatrix, TransitionModel};
use crate::walk::validate_laziness;
use std::sync::Arc;

/// A shared, type-erased transition operator usable as one schedule entry.
pub type DynTransition = Arc<dyn TransitionModel + Send + Sync>;

/// Dirty-node fraction beyond which [`DynamicGraph`] rebuilds its CSR
/// snapshot from the adjacency lists instead of splicing the old snapshot:
/// with more than a quarter of the rows changed there is little clean span
/// left to bulk-copy, and the patch path's bookkeeping stops paying for
/// itself.
pub const REBUILD_DIRTY_FRACTION: f64 = 0.25;

/// A mutable communication network: an undirected graph under edge
/// insertions/removals plus a per-node availability mask.
///
/// The graph of record is a set of sorted adjacency lists (`O(deg)` edge
/// updates); [`DynamicGraph::snapshot`] materializes the current topology as
/// an immutable CSR [`Graph`] for the engines and accountants, patching the
/// previous snapshot incrementally when few rows changed (see
/// [`REBUILD_DIRTY_FRACTION`]).
#[derive(Debug, Clone)]
pub struct DynamicGraph {
    /// Sorted neighbour list per node — the current truth.
    adjacency: Vec<Vec<NodeId>>,
    /// Availability flags; unavailable nodes still appear in the topology
    /// but cannot *receive* reports (see [`MaskedTransition`]).
    available: Vec<bool>,
    /// Undirected edge count of `adjacency`.
    edge_count: usize,
    /// CSR materialization of `adjacency` as of the last snapshot call.
    snapshot: Graph,
    /// Nodes whose adjacency changed since the last snapshot.
    dirty: Vec<NodeId>,
    dirty_flag: Vec<bool>,
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
            dirty: Vec::new(),
            dirty_flag: vec![false; n],
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
    /// the topology (and hence never dirties the CSR snapshot); it is
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

    fn mark_dirty(&mut self, u: NodeId) {
        if !self.dirty_flag[u] {
            self.dirty_flag[u] = true;
            self.dirty.push(u);
        }
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
        self.mark_dirty(u);
        self.mark_dirty(v);
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
        self.mark_dirty(u);
        self.mark_dirty(v);
        Ok(true)
    }

    /// Number of nodes whose adjacency changed since the last snapshot.
    pub fn dirty_nodes(&self) -> usize {
        self.dirty.len()
    }

    /// The current topology as an immutable CSR [`Graph`].
    ///
    /// With no pending deltas this is free (the cached snapshot).  With a
    /// *small* delta the previous snapshot is patched: clean row spans are
    /// spliced into the new CSR with bulk copies and only dirty rows are
    /// re-read from the adjacency lists.  Past [`REBUILD_DIRTY_FRACTION`]
    /// dirty nodes the snapshot is rebuilt from the adjacency lists
    /// wholesale.  Both paths produce identical graphs (tested).
    pub fn snapshot(&mut self) -> &Graph {
        if !self.dirty.is_empty() {
            let threshold = (self.node_count() as f64 * REBUILD_DIRTY_FRACTION).ceil() as usize;
            self.snapshot = if self.dirty.len() > threshold {
                self.rebuild_csr()
            } else {
                self.patch_csr()
            };
            self.dirty.clear();
            self.dirty_flag.iter_mut().for_each(|f| *f = false);
        }
        &self.snapshot
    }

    /// Full rebuild: flatten every adjacency list.
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

    /// Incremental patch: splice unchanged row spans out of the previous
    /// snapshot and only dirty rows out of the adjacency lists.
    fn patch_csr(&self) -> Graph {
        let n = self.node_count();
        let (old_offsets, old_neighbors) = self.snapshot.csr_parts();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut neighbors = Vec::with_capacity(2 * self.edge_count);
        offsets.push(0usize);
        let mut u = 0;
        while u < n {
            if self.dirty_flag[u] {
                neighbors.extend(self.adjacency[u].iter().map(|&v| v as u32));
                offsets.push(neighbors.len());
                u += 1;
            } else {
                let mut v = u;
                while v < n && !self.dirty_flag[v] {
                    v += 1;
                }
                let start = old_offsets[u];
                neighbors.extend_from_slice(&old_neighbors[start..old_offsets[v]]);
                let shift = offsets[u] as isize - start as isize;
                for w in u..v {
                    offsets.push((old_offsets[w + 1] as isize + shift) as usize);
                }
                u = v;
            }
        }
        Graph::from_csr(offsets, neighbors)
    }

    /// The lazy-walk transition matrix of the *current* topology (ignoring
    /// availability — pair with [`DynamicGraph::masked_operator`] for the
    /// availability-aware operator).
    ///
    /// # Errors
    ///
    /// Matrix construction errors (isolated node, invalid laziness).
    pub fn transition(&mut self, laziness: f64) -> Result<TransitionMatrix> {
        self.snapshot();
        TransitionMatrix::with_laziness(&self.snapshot, laziness)
    }

    /// The availability-masked one-round operator of the current topology
    /// and mask.
    ///
    /// # Errors
    ///
    /// Operator construction errors (isolated node, invalid laziness).
    pub fn masked_operator(&mut self, laziness: f64) -> Result<MaskedTransition> {
        self.snapshot();
        MaskedTransition::new(&self.snapshot, self.available.clone(), laziness)
    }
}

/// The exact one-round operator of a lazy walk under an availability mask.
///
/// Semantics (matching [`crate::mixing_engine::MixingEngine`]'s masked
/// rounds and the paper's dropout story): the holder of a report first stays
/// put with probability `laziness`; otherwise it picks a neighbour uniformly
/// at random, and if that *recipient* is unavailable the report stays put
/// for the round.  Holders always attempt to send — only recipient
/// availability matters — which is what makes the expectation over i.i.d.
/// masks *exactly* the lazy walk (see the laziness-equivalence notes in the
/// core crate's `faults` module).
///
/// With every node available the operator is bit-for-bit
/// [`TransitionMatrix::with_laziness`] on the same graph.
///
/// The CSR topology (plus reciprocal degrees) lives behind an [`Arc`], so a
/// whole schedule of per-round masks over one topology — the common case in
/// [`TimeVaryingModel::from_availability`] — shares a single copy and each
/// additional round costs only its `n`-bool mask.
#[derive(Debug, Clone)]
pub struct MaskedTransition {
    shared: Arc<MaskedCsr>,
    available: Vec<bool>,
    laziness: f64,
}

/// The mask-independent part of a [`MaskedTransition`]: one CSR copy shared
/// by every operator built on the same topology, with `u32` neighbour ids
/// as in [`Graph`].
#[derive(Debug)]
struct MaskedCsr {
    inv_degree: Vec<f64>,
    offsets: Vec<usize>,
    neighbors: Vec<u32>,
}

impl MaskedCsr {
    /// Validates `graph` and copies its CSR once.
    fn of(graph: &Graph) -> Result<Arc<Self>> {
        if graph.node_count() == 0 {
            return Err(GraphError::EmptyGraph);
        }
        if let Some(u) = graph.find_isolated_node() {
            return Err(GraphError::IsolatedNode(u));
        }
        let (offsets, neighbors) = graph.csr_parts();
        Ok(Arc::new(MaskedCsr {
            inv_degree: graph
                .nodes()
                .map(|u| 1.0 / graph.degree(u) as f64)
                .collect(),
            offsets: offsets.to_vec(),
            neighbors: neighbors.to_vec(),
        }))
    }

    /// The sorted neighbour list of `u`.
    fn neighbors(&self, u: NodeId) -> &[u32] {
        &self.neighbors[self.offsets[u]..self.offsets[u + 1]]
    }
}

impl MaskedTransition {
    /// Builds the masked operator for `graph` and `available`.
    ///
    /// # Errors
    ///
    /// * [`GraphError::EmptyGraph`] / [`GraphError::IsolatedNode`] for
    ///   degenerate graphs,
    /// * [`GraphError::InvalidParameters`] if `laziness ∉ [0, 1)` or the
    ///   mask length differs from the node count.
    pub fn new(graph: &Graph, available: Vec<bool>, laziness: f64) -> Result<Self> {
        Self::with_shared(MaskedCsr::of(graph)?, available, laziness)
    }

    /// Builds an operator over an already-validated shared topology.
    fn with_shared(shared: Arc<MaskedCsr>, available: Vec<bool>, laziness: f64) -> Result<Self> {
        validate_laziness(laziness).map_err(GraphError::InvalidParameters)?;
        let n = shared.inv_degree.len();
        if available.len() != n {
            return Err(GraphError::InvalidParameters(format!(
                "availability mask has {} entries for {n} nodes",
                available.len()
            )));
        }
        Ok(MaskedTransition {
            shared,
            available,
            laziness,
        })
    }

    /// The walk's laziness (mask-independent stay probability).
    pub fn laziness(&self) -> f64 {
        self.laziness
    }

    /// The availability mask the operator routes around.
    pub fn availability(&self) -> &[bool] {
        &self.available
    }

    /// Runs the fused pull kernel over every lane of an interleaved block,
    /// one compile-time width at a time (see [`lane_runs`]).
    fn pull_lanes(&self, lanes: usize, input: &[f64], mut out: LaneOut<'_>) {
        for (offset, width) in lane_runs(lanes) {
            match width {
                8 => self.pull::<8>(lanes, offset, input, &mut out),
                4 => self.pull::<4>(lanes, offset, input, &mut out),
                2 => self.pull::<2>(lanes, offset, input, &mut out),
                _ => self.pull::<1>(lanes, offset, input, &mut out),
            }
        }
    }

    /// Pull-form round for lanes `offset..offset + L` of an interleaved
    /// block `lanes` wide: each node `j` gathers its incoming shares into
    /// register accumulators and stores its lanes once, instead of every
    /// source scattering a read-for-ownership write per edge.
    ///
    /// Bit parity with [`MaskedTransition::propagate_into`] per lane: the
    /// scatter form accumulates `out[j]` in ascending source order, adding
    /// `j`'s own stay term (laziness plus one identical share per
    /// unavailable neighbour, accumulated in CSR neighbour order) when the
    /// sweep passes `j`.  The pull form folds that stay term into the
    /// ascending-source gather at `j`'s own position, so it reproduces the
    /// same sequence of adds, and an unavailable `j` receives only its stay
    /// term.  Zero-mass sources, which the scatter form skips, add `+0.0`,
    /// which never changes a non-negative accumulation.
    ///
    /// The gathers go through raw pointers, like
    /// [`TransitionMatrix`]'s fused kernel, relying on the same invariants:
    /// every neighbour id is `< n`, `offset + L <= lanes`, and the caller
    /// asserted the input holds `n * lanes` f64s.
    #[allow(unsafe_code)]
    fn pull<const L: usize>(
        &self,
        lanes: usize,
        offset: usize,
        input: &[f64],
        out: &mut LaneOut<'_>,
    ) {
        /// How many edges ahead source lines are prefetched: twice the
        /// static kernel's look-ahead, which measured faster here at 1M
        /// nodes (the per-node dark-neighbour pass eats into the lead).
        const PREFETCH_DISTANCE: usize = 16;
        let csr = &*self.shared;
        let n = csr.inv_degree.len();
        let move_factor = 1.0 - self.laziness;
        let in_ptr = input.as_ptr();
        let edge_count = csr.neighbors.len();
        for j in 0..n {
            let base = j * lanes + offset;
            let own: &[f64; L] = input[base..base + L].try_into().expect("lane width");
            let mut stay = [0.0f64; L];
            for lane in 0..L {
                stay[lane] = self.laziness * own[lane];
            }
            let dark = csr
                .neighbors(j)
                .iter()
                .filter(|&&k| !self.available[k as usize])
                .count();
            if dark > 0 {
                let inv_degree = csr.inv_degree[j];
                let mut share = [0.0f64; L];
                for lane in 0..L {
                    share[lane] = move_factor * own[lane] * inv_degree;
                }
                for _ in 0..dark {
                    for lane in 0..L {
                        stay[lane] += share[lane];
                    }
                }
            }
            if !self.available[j] {
                out.put::<L>(n, lanes, offset, j, &stay);
                continue;
            }
            let mut acc = [0.0f64; L];
            let mut stay_pending = true;
            for idx in csr.offsets[j]..csr.offsets[j + 1] {
                // SAFETY: see the function docs; `idx` stays inside node
                // `j`'s CSR window, every neighbour id is `< n`, and the
                // prefetch look-ahead is bounds-checked explicitly.
                unsafe {
                    #[cfg(target_arch = "x86_64")]
                    if idx + PREFETCH_DISTANCE < edge_count {
                        let ahead = *csr.neighbors.get_unchecked(idx + PREFETCH_DISTANCE) as usize;
                        std::arch::x86_64::_mm_prefetch(
                            in_ptr.add(ahead * lanes + offset) as *const i8,
                            std::arch::x86_64::_MM_HINT_T0,
                        );
                    }
                    let i = *csr.neighbors.get_unchecked(idx) as usize;
                    if stay_pending && i > j {
                        for lane in 0..L {
                            acc[lane] += stay[lane];
                        }
                        stay_pending = false;
                    }
                    let inv_degree = *csr.inv_degree.get_unchecked(i);
                    let in_i = in_ptr.add(i * lanes + offset);
                    for (lane, acc_lane) in acc.iter_mut().enumerate() {
                        *acc_lane += move_factor * *in_i.add(lane) * inv_degree;
                    }
                }
            }
            if stay_pending {
                for lane in 0..L {
                    acc[lane] += stay[lane];
                }
            }
            out.put::<L>(n, lanes, offset, j, &acc);
        }
    }
}

impl TransitionModel for MaskedTransition {
    fn node_count(&self) -> usize {
        self.shared.inv_degree.len()
    }

    /// Scatter-form update in the same per-node, per-neighbour order as
    /// [`TransitionMatrix::propagate_into`], with each share redirected back
    /// to the sender when the recipient is unavailable.  The self terms of
    /// node `i` (laziness plus redirected shares) land in `out[i]` while the
    /// sweep processes `i`, exactly where the static kernel adds its lazy
    /// term — so with an all-available mask the accumulation sequence, and
    /// hence every rounding, is identical to the static matrix.
    fn propagate_into(&self, p: &[f64], out: &mut [f64]) {
        let n = self.node_count();
        assert_eq!(p.len(), n, "input distribution has wrong length");
        assert_eq!(out.len(), n, "output buffer has wrong length");
        let move_factor = 1.0 - self.laziness;
        out.fill(0.0);
        for i in 0..n {
            let mass = p[i];
            if mass == 0.0 {
                continue;
            }
            let mut stay = self.laziness * mass;
            let share = move_factor * mass * self.shared.inv_degree[i];
            for &j in self.shared.neighbors(i) {
                let j = j as usize;
                if self.available[j] {
                    out[j] += share;
                } else {
                    stay += share;
                }
            }
            out[i] += stay;
        }
    }

    /// Fused interleaved form: a pull kernel (each node gathers its
    /// incoming shares), one CSR sweep per run of up to 8 lanes, each lane
    /// bitwise [`MaskedTransition::propagate_into`].
    fn propagate_interleaved(&self, lanes: usize, input: &[f64], output: &mut [f64]) {
        let n = self.node_count();
        assert_eq!(input.len(), lanes * n, "interleaved input has wrong length");
        assert_eq!(
            output.len(),
            lanes * n,
            "interleaved output has wrong length"
        );
        self.pull_lanes(lanes, input, LaneOut::Interleaved(output));
    }

    fn propagate_round_interleaved_rows(
        &self,
        _round: usize,
        lanes: usize,
        input: &[f64],
        output: &mut [f64],
    ) {
        let n = self.node_count();
        assert_eq!(input.len(), lanes * n, "interleaved input has wrong length");
        assert_eq!(output.len(), lanes * n, "output block has wrong length");
        self.pull_lanes(lanes, input, LaneOut::Rows(output));
    }
}

/// A per-round schedule of transition operators: the walk applies
/// `operator(0)` between `t = 0` and `t = 1`, `operator(1)` next, and so on.
///
/// Implements [`TransitionModel`] by overriding the round-aware entry
/// points, so the existing ensemble kernel — and everything built on it
/// (exact per-user accounting, ε-vs-rounds sweeps, trajectory drivers) —
/// evolves distributions through the exact product of per-round operators
/// with no new kernel code.  Driving a schedule through the *non*-round
/// entry points applies the round-0 operator; the batched drivers always
/// use the round-aware forms.
///
/// After the schedule's last entry the behaviour is either **hold** (keep
/// applying the final operator; the default, matching "the outage persists")
/// or **cycle** (wrap around; for periodic availability patterns).
#[derive(Clone)]
pub struct TimeVaryingModel {
    node_count: usize,
    schedule: Vec<DynTransition>,
    cycle: bool,
}

impl std::fmt::Debug for TimeVaryingModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimeVaryingModel")
            .field("node_count", &self.node_count)
            .field("schedule_len", &self.schedule.len())
            .field("cycle", &self.cycle)
            .finish()
    }
}

impl TimeVaryingModel {
    fn build(schedule: Vec<DynTransition>, cycle: bool) -> Result<Self> {
        let Some(first) = schedule.first() else {
            return Err(GraphError::InvalidParameters(
                "a time-varying model needs at least one scheduled operator".into(),
            ));
        };
        let node_count = first.node_count();
        if node_count == 0 {
            return Err(GraphError::EmptyGraph);
        }
        if let Some(bad) = schedule.iter().position(|m| m.node_count() != node_count) {
            return Err(GraphError::InvalidParameters(format!(
                "scheduled operator {bad} has {} nodes, expected {node_count}",
                schedule[bad].node_count()
            )));
        }
        Ok(TimeVaryingModel {
            node_count,
            schedule,
            cycle,
        })
    }

    /// A schedule that holds its last operator forever once exhausted.
    ///
    /// # Errors
    ///
    /// [`GraphError::InvalidParameters`] if the schedule is empty or the
    /// operators disagree on the node count.
    pub fn new(schedule: Vec<DynTransition>) -> Result<Self> {
        Self::build(schedule, false)
    }

    /// A schedule that repeats periodically.
    ///
    /// # Errors
    ///
    /// Same as [`TimeVaryingModel::new`].
    pub fn cycling(schedule: Vec<DynTransition>) -> Result<Self> {
        Self::build(schedule, true)
    }

    /// The constant schedule: one operator for every round.  This is the
    /// static-degeneracy case — results are bitwise identical to using the
    /// operator directly.
    ///
    /// # Errors
    ///
    /// [`GraphError::EmptyGraph`] if the operator has no nodes.
    pub fn constant(operator: DynTransition) -> Result<Self> {
        Self::build(vec![operator], false)
    }

    /// Convenience: a schedule of owned [`TransitionMatrix`] operators.
    ///
    /// # Errors
    ///
    /// Same as [`TimeVaryingModel::new`].
    pub fn from_matrices(matrices: Vec<TransitionMatrix>) -> Result<Self> {
        Self::new(
            matrices
                .into_iter()
                .map(|m| Arc::new(m) as DynTransition)
                .collect(),
        )
    }

    /// A schedule of [`MaskedTransition`] operators, one per round, from a
    /// sequence of realized availability masks on a static topology.
    ///
    /// # Errors
    ///
    /// Operator construction errors (degenerate graph, bad laziness or mask
    /// shape), or an empty mask sequence.
    pub fn from_availability(graph: &Graph, laziness: f64, masks: &[Vec<bool>]) -> Result<Self> {
        // One shared CSR copy for the whole schedule: each round adds only
        // its n-bool mask, so a t_mix-length schedule stays O(n + m + t·n)
        // instead of O(t · (n + m)).
        let shared = MaskedCsr::of(graph)?;
        let schedule: Vec<DynTransition> = masks
            .iter()
            .map(|mask| {
                MaskedTransition::with_shared(Arc::clone(&shared), mask.clone(), laziness)
                    .map(|op| Arc::new(op) as DynTransition)
            })
            .collect::<Result<_>>()?;
        Self::new(schedule)
    }

    /// Number of explicitly scheduled rounds.
    pub fn schedule_len(&self) -> usize {
        self.schedule.len()
    }

    /// Whether the schedule cycles (vs. holding its last operator).
    pub fn is_cycling(&self) -> bool {
        self.cycle
    }

    /// The operator applied at absolute round `round`.
    pub fn operator(&self, round: usize) -> &(dyn TransitionModel + Send + Sync) {
        let index = if self.cycle {
            round % self.schedule.len()
        } else {
            round.min(self.schedule.len() - 1)
        };
        &*self.schedule[index]
    }
}

impl TransitionModel for TimeVaryingModel {
    fn node_count(&self) -> usize {
        self.node_count
    }

    fn propagate_into(&self, p: &[f64], out: &mut [f64]) {
        self.propagate_round_into(0, p, out);
    }

    fn propagate_interleaved(&self, lanes: usize, input: &[f64], output: &mut [f64]) {
        self.propagate_round_interleaved(0, lanes, input, output);
    }

    fn propagate_round_into(&self, round: usize, p: &[f64], out: &mut [f64]) {
        self.operator(round).propagate_into(p, out);
    }

    fn propagate_round_interleaved(
        &self,
        round: usize,
        lanes: usize,
        input: &[f64],
        output: &mut [f64],
    ) {
        self.operator(round)
            .propagate_interleaved(lanes, input, output);
    }

    fn propagate_round_interleaved_rows(
        &self,
        round: usize,
        lanes: usize,
        input: &[f64],
        output: &mut [f64],
    ) {
        self.operator(round)
            .propagate_round_interleaved_rows(0, lanes, input, output);
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
    fn incremental_patch_matches_full_rebuild() {
        let g = test_graph(2);
        let n = g.node_count();
        let mut rng = seeded_rng(3);
        let mut dynamic = DynamicGraph::from_graph(&g).unwrap();
        use rand::Rng;
        // Small delta: stays below the rebuild threshold -> patch path.
        for _ in 0..4 {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u != v {
                if dynamic.has_edge(u, v) {
                    dynamic.remove_edge(u, v).unwrap();
                } else {
                    dynamic.add_edge(u, v).unwrap();
                }
            }
        }
        assert!(dynamic.dirty_nodes() <= 8);
        let patched = dynamic.snapshot().clone();
        assert_eq!(patched, dynamic.rebuild_csr());
        assert_eq!(dynamic.dirty_nodes(), 0);
        // Large delta: exceeds the threshold -> rebuild path; the snapshot
        // must still equal a from-scratch construction from the edge set.
        for u in 0..n {
            let v = (u + 7) % n;
            if u != v && !dynamic.has_edge(u, v) {
                dynamic.add_edge(u, v).unwrap();
            }
        }
        assert!(dynamic.dirty_nodes() > n / 4);
        let rebuilt = dynamic.snapshot().clone();
        let edges: Vec<_> = rebuilt.edges().collect();
        assert_eq!(rebuilt, Graph::from_edges(n, &edges).unwrap());
        assert_eq!(rebuilt.edge_count(), dynamic.edge_count());
    }

    #[test]
    fn snapshot_is_cached_until_dirty() {
        let g = test_graph(4);
        let mut dynamic = DynamicGraph::from_graph(&g).unwrap();
        assert_eq!(dynamic.snapshot(), &g);
        dynamic.set_available(0, false).unwrap();
        // Availability does not dirty the topology snapshot.
        assert_eq!(dynamic.dirty_nodes(), 0);
        assert_eq!(dynamic.snapshot(), &g);
    }

    #[test]
    fn masked_transition_with_everyone_available_is_the_lazy_matrix_bitwise() {
        let g = test_graph(5);
        let n = g.node_count();
        for laziness in [0.0, 0.3] {
            let matrix = TransitionMatrix::with_laziness(&g, laziness).unwrap();
            let masked = MaskedTransition::new(&g, vec![true; n], laziness).unwrap();
            let mut p = vec![0.0; n];
            p[3] = 0.25;
            p[17] = 0.75;
            for _ in 0..9 {
                let mut a = vec![0.0; n];
                let mut b = vec![0.0; n];
                TransitionModel::propagate_into(&matrix, &p, &mut a);
                masked.propagate_into(&p, &mut b);
                assert_eq!(a, b);
                p = a;
            }
        }
    }

    #[test]
    fn masked_transition_conserves_mass_and_blocks_unavailable_recipients() {
        let g = test_graph(6);
        let n = g.node_count();
        let mut available = vec![true; n];
        for u in (0..n).step_by(3) {
            available[u] = false;
        }
        let masked = MaskedTransition::new(&g, available.clone(), 0.2).unwrap();
        let mut ensemble = DistributionEnsemble::point_masses(n, &[0, 5, n - 1]).unwrap();
        ensemble.advance(&masked, 6);
        for row in 0..3 {
            let sum: f64 = ensemble.row(row).iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "row {row} sums to {sum}");
        }
        // One step from a point mass: unavailable neighbours receive nothing,
        // the redirected shares stay at the origin.
        let origin = 1;
        let mut p = vec![0.0; n];
        p[origin] = 1.0;
        let mut out = vec![0.0; n];
        masked.propagate_into(&p, &mut out);
        let unavailable_nbrs = g
            .neighbors(origin)
            .iter()
            .filter(|&&j| !available[j as usize])
            .count();
        let expected_stay = 0.2 + 0.8 * unavailable_nbrs as f64 / g.degree(origin) as f64;
        assert!((out[origin] - expected_stay).abs() < 1e-12);
        for &j in g.neighbors(origin) {
            if !available[j as usize] {
                assert_eq!(out[j as usize], 0.0);
            }
        }
    }

    #[test]
    fn masked_transition_validates_inputs() {
        let g = test_graph(8);
        let n = g.node_count();
        assert!(MaskedTransition::new(&g, vec![true; n - 1], 0.0).is_err());
        assert!(MaskedTransition::new(&g, vec![true; n], 1.0).is_err());
        let isolated = Graph::from_edges(3, &[(0, 1)]).unwrap();
        assert!(MaskedTransition::new(&isolated, vec![true; 3], 0.0).is_err());
    }

    #[test]
    fn constant_schedule_reproduces_static_ensemble_bitwise() {
        let g = test_graph(9);
        let n = g.node_count();
        let matrix = TransitionMatrix::with_laziness(&g, 0.1).unwrap();
        let schedule = TimeVaryingModel::constant(Arc::new(matrix.clone())).unwrap();
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
        let schedule =
            TimeVaryingModel::from_matrices(vec![m_path.clone(), m_tri.clone()]).unwrap();
        let mut ensemble = DistributionEnsemble::point_masses(3, &[0]).unwrap();
        ensemble.advance(&schedule, 2);
        let step1 = m_path.propagate(&[1.0, 0.0, 0.0]);
        let expected = m_tri.propagate(&step1);
        assert_eq!(ensemble.row(0), expected.as_slice());
        // Hold semantics: round 2 keeps applying the triangle operator.
        let mut held = DistributionEnsemble::point_masses(3, &[0]).unwrap();
        held.advance(&schedule, 3);
        let expected3 = m_tri.propagate(&expected);
        assert_eq!(held.row(0), expected3.as_slice());
        // Cycle semantics wrap back to the path operator.
        let cycling = TimeVaryingModel::cycling(vec![
            Arc::new(m_path.clone()) as DynTransition,
            Arc::new(m_tri) as DynTransition,
        ])
        .unwrap();
        let mut cycled = DistributionEnsemble::point_masses(3, &[0]).unwrap();
        cycled.advance(&cycling, 3);
        let expected_cycle = m_path.propagate(&expected);
        assert_eq!(cycled.row(0), expected_cycle.as_slice());
    }

    #[test]
    fn time_varying_model_validates_schedules() {
        assert!(TimeVaryingModel::new(Vec::new()).is_err());
        let small = TransitionMatrix::new(&generators::cycle(3).unwrap()).unwrap();
        let large = TransitionMatrix::new(&generators::cycle(5).unwrap()).unwrap();
        assert!(TimeVaryingModel::from_matrices(vec![small, large]).is_err());
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
        let sum: f64 = ensemble.row(0).iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }
}
