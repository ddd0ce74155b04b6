//! Holder-order exchange rounds over a partition, with deterministic RNG
//! splitting — the one engine every holder-order caller runs on.
//!
//! [`ShardedMixingEngine`] keeps one set of holder buckets over global
//! node ids ([`crate::round::HolderBuckets`]).  Each round, every shard of a
//! [`crate::partition::Partition`] sweeps its own holders with the round
//! kernel's decide phase ([`crate::round::decide_holder_moves`]), drawing
//! from its own stream into its own arena; one counting-sort merge then
//! rebuilds the buckets from all shards' survivors and deliveries.  Every
//! scenario axis the kernel supports composes here: masked rounds (a
//! delivery to an unavailable recipient bounces back and rejoins its
//! holder's bucket as a survivor) and live topology churn
//! ([`ShardedMixingEngine::retarget`]) run through the one round entry
//! point, [`ShardedMixingEngine::step`].  The design contracts:
//!
//! * **Seed-only determinism.**  Shard `s` draws from its own ChaCha8 stream
//!   ([`shard_stream`]), and a round's result depends only on
//!   `(seed, partition, starts)` — never on the order shards were executed
//!   in ([`ShardedMixingEngine::step_in_order`] is the audit hook).
//! * **Canonical merge order.**  After the sampling phase, each node's
//!   next-round bucket lists its survivors first (in previous bucket order)
//!   and then its arrivals grouped by *source shard id* in ascending order,
//!   each group in that shard's send order.  This is a fixed function of the
//!   per-shard draws, which is what makes the exchange phase
//!   execution-order-free.
//! * **1-shard degeneracy.**  Under [`crate::partition::Partition::single_shard`]
//!   the engine is the classic monolithic holder-order round:
//!   [`shard_stream`]`(seed, 0)` is exactly `SimRng::seed_from_u64(seed)`,
//!   the sweep visits nodes in id order and each node's walkers in bucket
//!   order, and the merge appends arrivals in global send order — draw for
//!   draw the historical message-passing loop (`tests/unified_kernel.rs`,
//!   and the holder scenarios of `tests/golden_round_traces.rs`).  For
//!   `k > 1` the split streams are a *different but equally distributed*
//!   realization of the same walk.
//!
//! Shards share the one immutable global CSR for neighbour sampling — this
//! is a single-box runtime, and a [`Partition`] carries only the node →
//! shard assignment.

use crate::error::{GraphError, Result};
use crate::graph::{Graph, NodeId};
use crate::partition::Partition;
use crate::rng::{mix64, SimRng};
use crate::round::{self, DrawMode, HolderBuckets, RoundArena, RoundPlan};
use crate::telemetry::EngineTelemetry;
use rand_chacha::rand_core::SeedableRng;
use std::borrow::Cow;

/// Per-round measurements streamed to a [`RoundObserver`].
#[derive(Debug)]
pub struct RoundStats<'a> {
    /// 1-based index of the round that just finished.
    pub round: usize,
    /// Messages sent by each node this round (walkers that moved away).
    pub sent: &'a [u32],
    /// Walkers held by each node after the round.
    pub load: &'a [u32],
}

/// Streaming consumer of per-round statistics.
///
/// Implementations accumulate whatever they need (total traffic, peak load,
/// mixing diagnostics) while the engine runs, so no per-client post-hoc pass
/// over the population is required.
pub trait RoundObserver {
    /// Called once per executed round, after all moves of the round.
    fn on_round(&mut self, stats: &RoundStats<'_>);
}

/// The no-op observer: rounds are executed without collecting statistics.
impl RoundObserver for () {
    fn on_round(&mut self, _stats: &RoundStats<'_>) {}
}

impl<O: RoundObserver + ?Sized> RoundObserver for &mut O {
    fn on_round(&mut self, stats: &RoundStats<'_>) {
        (**self).on_round(stats);
    }
}

/// The deterministic RNG stream of shard `shard` under `seed`.
///
/// Shard 0 inherits the base stream `SimRng::seed_from_u64(seed)` — so the
/// canonical 1-shard engine consumes exactly the stream of the historical
/// protocol loop — and every further shard gets a
/// SplitMix64-decorrelated stream of its own.
pub fn shard_stream(seed: u64, shard: usize) -> SimRng {
    if shard == 0 {
        SimRng::seed_from_u64(seed)
    } else {
        SimRng::seed_from_u64(mix64(mix64(seed) ^ shard as u64))
    }
}

/// Per-shard mutable state: the shard's RNG stream and decide scratch.
#[derive(Debug, Clone)]
struct ShardState {
    rng: SimRng,
    /// The kernel's decide scratch (survivors and deliveries in send
    /// order), reused across rounds.
    arena: RoundArena,
}

/// One shard's captured state inside an [`EngineCheckpoint`]: the exact
/// ChaCha8 stream position plus the buckets of the shard's nodes, as a CSR
/// over the shard's local ids (local id = index in
/// [`crate::partition::Shard::nodes`]).
///
/// Bucket CSRs must be captured, not rebuilt: a running engine's bucket
/// order is history-dependent (survivors first, then arrivals grouped by
/// source shard), whereas the initial buckets of
/// [`ShardedMixingEngine::with_starts`] are in walker-id order.  Restoring
/// via a rebuild would be a *distribution-identical but not bitwise*
/// continuation — exactly what the durable runtime's recovery proof
/// forbids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardCheckpoint {
    /// ChaCha8 key words of the shard stream.
    pub rng_key: [u32; 8],
    /// Next block index of the shard stream.
    pub rng_counter: u64,
    /// Next unread word of the current block (16 = exhausted).
    pub rng_cursor: u32,
    /// CSR starts over the shard's local nodes (`local_n + 1` entries).
    pub bucket_starts: Vec<usize>,
    /// Walkers in bucket order.
    pub bucket_walkers: Vec<u32>,
}

/// A complete, self-contained capture of a [`ShardedMixingEngine`]'s
/// round-boundary state: restoring it against the same `(graph, partition)`
/// continues the run **bit for bit** — positions, bucket orders, RNG
/// streams and per-round statistics of every subsequent round coincide
/// with the uninterrupted engine
/// ([`ShardedMixingEngine::restore_checkpoint`]).
///
/// Not captured (and provably not needed at a round boundary): the decide
/// arenas and the merge scratch (cleared at the start of every round), the
/// sent and load vectors (load is the bucket lengths, and both are
/// rewritten every round), and the fast-mode RNG lane buffer (refilled
/// fresh inside every decide call).
#[derive(Debug, Clone, PartialEq)]
pub struct EngineCheckpoint {
    /// `positions[w]` = global node holding walker `w`.
    pub positions: Vec<u32>,
    /// Rounds executed so far.
    pub round: usize,
    /// The draw mode subsequent rounds will use.
    pub draw_mode: DrawMode,
    /// Per-shard stream and bucket state, indexed by shard id.
    pub shards: Vec<ShardCheckpoint>,
}

/// Executor of holder-order exchange rounds over a partition.
///
/// See the [module docs](self) for the determinism and degeneracy contracts.
/// The partition is borrowed; the topology is borrowed for the classic
/// static-lifetime setup and owned where it is produced on the fly — the
/// churn runtime's per-round snapshots ([`ShardedMixingEngine::retarget`]).
#[derive(Debug, Clone)]
pub struct ShardedMixingEngine<'g> {
    graph: Cow<'g, Graph>,
    partition: &'g Partition,
    /// `positions[w]` is the global node currently holding walker `w`,
    /// u32-compressed like the graph's CSR.
    positions: Vec<u32>,
    /// How rounds draw randomness (see [`DrawMode`]); `Compat` by default.
    draw_mode: DrawMode,
    round: usize,
    /// Every node's bucket, over global node ids, with the last round's
    /// per-node sent and load statistics.
    buckets: HolderBuckets,
    shards: Vec<ShardState>,
    /// Attached telemetry (`None` = the no-op path).  Inert by
    /// construction: recording never draws randomness or touches round
    /// state.
    telemetry: Option<EngineTelemetry>,
}

impl<'g> ShardedMixingEngine<'g> {
    /// Creates a sharded engine with one walker per node, walker `i`
    /// starting at node `i` — the initial condition of network shuffling.
    ///
    /// # Errors
    ///
    /// Same as [`ShardedMixingEngine::with_starts`].
    pub fn one_walker_per_node(
        graph: &'g Graph,
        partition: &'g Partition,
        seed: u64,
    ) -> Result<Self> {
        let starts: Vec<NodeId> = graph.nodes().collect();
        Self::with_starts(graph, partition, starts, seed)
    }

    /// Creates a sharded engine with walkers at the given starting nodes.
    ///
    /// Initial buckets group walkers by holder in walker-id order.
    ///
    /// # Errors
    ///
    /// [`GraphError::EmptyGraph`] / [`GraphError::IsolatedNode`] for graphs
    /// the walk cannot run on, [`GraphError::InvalidParameters`] if the
    /// partition does not cover the graph or the id space overflows `u32`,
    /// [`GraphError::NodeOutOfRange`] for a bad start.
    pub fn with_starts(
        graph: &'g Graph,
        partition: &'g Partition,
        starts: Vec<NodeId>,
        seed: u64,
    ) -> Result<Self> {
        let n = graph.node_count();
        if let Some(&bad) = starts.iter().find(|&&s| s >= n) {
            return Err(GraphError::NodeOutOfRange {
                node: bad,
                node_count: n,
            });
        }
        let positions = starts.iter().map(|&s| s as u32).collect();
        let streams = (0..partition.shard_count()).map(|s| shard_stream(seed, s));
        let mut engine = Self::assemble(graph, partition, positions, streams)?;
        engine.buckets = HolderBuckets::from_positions(n, &engine.positions);
        Ok(engine)
    }

    /// The constructor behind [`ShardedMixingEngine::with_starts`] and
    /// [`ShardedMixingEngine::restore_checkpoint`]: checks that the walk can
    /// run on `graph`, that `partition` covers it and that node and walker
    /// ids fit in `u32`, then builds the engine at round 0 in compat mode
    /// with shard `s` drawing from the `s`-th of `streams` and no buckets
    /// yet (the caller installs them).
    fn assemble(
        graph: &'g Graph,
        partition: &'g Partition,
        positions: Vec<u32>,
        streams: impl Iterator<Item = SimRng>,
    ) -> Result<Self> {
        let n = graph.node_count();
        if n == 0 {
            return Err(GraphError::EmptyGraph);
        }
        if partition.node_count() != n {
            return Err(GraphError::InvalidParameters(format!(
                "partition covers {} nodes but the graph has {n}",
                partition.node_count()
            )));
        }
        if let Some(u) = graph.find_isolated_node() {
            return Err(GraphError::IsolatedNode(u));
        }
        if positions.len() > u32::MAX as usize || n > u32::MAX as usize {
            return Err(GraphError::InvalidParameters(format!(
                "sharded engine supports at most 2^32 - 1 walkers and nodes, got {} walkers on {n} nodes",
                positions.len()
            )));
        }
        let shards = streams
            .map(|rng| ShardState {
                rng,
                arena: RoundArena::new(),
            })
            .collect();
        Ok(ShardedMixingEngine {
            graph: Cow::Borrowed(graph),
            partition,
            positions,
            draw_mode: DrawMode::Compat,
            round: 0,
            buckets: HolderBuckets::default(),
            shards,
            telemetry: None,
        })
    }

    /// Attaches (or with `None` detaches) the phase-timing telemetry
    /// bundle.  All recording from here on writes preregistered atomic
    /// slots — steady-state rounds stay allocation-free, and because
    /// telemetry never draws randomness or touches state, instrumented
    /// rounds are bitwise identical to bare ones.
    pub fn set_telemetry(&mut self, telemetry: Option<EngineTelemetry>) {
        self.telemetry = telemetry;
    }

    /// The engine's current draw mode.
    pub fn draw_mode(&self) -> DrawMode {
        self.draw_mode
    }

    /// Selects how subsequent rounds draw randomness.  Switching modes
    /// changes the realization of the walk but not its distribution; both
    /// determinism contracts (seed-only, shard-order-free) hold in both
    /// modes.
    pub fn set_draw_mode(&mut self, mode: DrawMode) {
        self.draw_mode = mode;
    }

    /// The graph the walkers move on.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The partition the engine shards by.
    pub fn partition(&self) -> &'g Partition {
        self.partition
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of walkers being tracked.
    pub fn walker_count(&self) -> usize {
        self.positions.len()
    }

    /// Number of rounds executed so far.
    pub fn round(&self) -> usize {
        self.round
    }

    /// Current position (global node) of walker `w`.
    pub fn position(&self, walker: usize) -> NodeId {
        self.positions[walker] as NodeId
    }

    /// Current positions of all walkers (`positions[w] = holder of w`),
    /// u32-compressed; widen with `as usize` where a [`NodeId`] is needed.
    pub fn positions(&self) -> &[u32] {
        &self.positions
    }

    /// Per-node relay messages sent in the latest completed round
    /// (`sent[u]` for global node `u`; all zeros before the first round).
    pub fn sent_counts(&self) -> &[u32] {
        self.buckets.sent()
    }

    /// Histogram of walkers per global node: entry `L_i` of Lemma 5.1.
    pub fn load_vector(&self) -> Vec<usize> {
        let mut load = vec![0usize; self.graph.node_count()];
        for &node in &self.positions {
            load[node as usize] += 1;
        }
        load
    }

    /// The walkers currently held by global node `u`, in bucket order
    /// (survivors first, then arrivals grouped by source shard).
    pub fn held_by(&self, u: NodeId) -> &[u32] {
        self.buckets.held_by(u)
    }

    /// Groups walkers by their current holder, in bucket order: the
    /// multiset `{s_j}ᵢ` of reports each user holds at the end of the
    /// exchange phase (Figure 2).
    pub fn walkers_by_holder(&self) -> Vec<Vec<usize>> {
        self.graph
            .nodes()
            .map(|u| self.held_by(u).iter().map(|&w| w as usize).collect())
            .collect()
    }

    /// Mutable access to shard `shard`'s RNG stream.
    ///
    /// The final round draws each submitter's choice from her shard's
    /// stream, so a 1-shard run consumes the walk *and* finalization draws
    /// from the one stream `SimRng::seed_from_u64(seed)`.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn shard_rng_mut(&mut self, shard: usize) -> &mut SimRng {
        &mut self.shards[shard].rng
    }

    /// The `(next block, next word)` clock of shard `shard`'s RNG stream —
    /// a cheap consistency fingerprint the durable runtime logs with every
    /// round record: on replay, a clock mismatch means the recovered engine
    /// is *not* re-living the logged history and recovery must abort rather
    /// than silently diverge.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn rng_clock(&self, shard: usize) -> (u64, u32) {
        let (_, counter, cursor) = self.shards[shard].rng.state();
        (counter, cursor)
    }

    /// Captures the engine's complete round-boundary state.  See
    /// [`EngineCheckpoint`] for what is (and deliberately isn't) included.
    pub fn checkpoint(&self) -> EngineCheckpoint {
        EngineCheckpoint {
            positions: self.positions.clone(),
            round: self.round,
            draw_mode: self.draw_mode,
            shards: self
                .shards
                .iter()
                .zip(self.partition.shards())
                .map(|(state, shard)| {
                    let (rng_key, rng_counter, rng_cursor) = state.rng.state();
                    let mut bucket_starts = Vec::with_capacity(shard.len() + 1);
                    bucket_starts.push(0);
                    let mut held = 0;
                    for &u in shard.nodes() {
                        held += self.held_by(u).len();
                        bucket_starts.push(held);
                    }
                    let mut bucket_walkers = Vec::with_capacity(held);
                    for run in shard.runs() {
                        bucket_walkers.extend_from_slice(self.buckets.held_in(run));
                    }
                    ShardCheckpoint {
                        rng_key,
                        rng_counter,
                        rng_cursor,
                        bucket_starts,
                        bucket_walkers,
                    }
                })
                .collect(),
        }
    }

    /// Reconstructs an engine from an [`EngineCheckpoint`] against the same
    /// `(graph, partition)` the checkpointed engine ran on.  The restored
    /// engine continues **bit for bit**: every subsequent round's
    /// positions, bucket orders, statistics and RNG draws equal the
    /// uninterrupted engine's.
    ///
    /// # Errors
    ///
    /// [`GraphError::InvalidParameters`] if the checkpoint's shape is
    /// inconsistent with `(graph, partition)` — wrong shard count, bucket
    /// CSRs that don't cover the shard's local nodes, walkers missing or
    /// duplicated, or a walker bucketed at a node other than its recorded
    /// position (which includes every out-of-range position).  Also the
    /// usual topology errors from [`ShardedMixingEngine::with_starts`]
    /// validation.
    pub fn restore_checkpoint(
        graph: &'g Graph,
        partition: &'g Partition,
        checkpoint: &EngineCheckpoint,
    ) -> Result<Self> {
        let k = partition.shard_count();
        if checkpoint.shards.len() != k {
            return Err(GraphError::InvalidParameters(format!(
                "checkpoint has {} shards but the partition has {k}",
                checkpoint.shards.len()
            )));
        }
        let streams = checkpoint
            .shards
            .iter()
            .map(|cp| SimRng::from_state(cp.rng_key, cp.rng_counter, cp.rng_cursor));
        let mut engine = Self::assemble(graph, partition, checkpoint.positions.clone(), streams)?;
        engine.round = checkpoint.round;
        engine.draw_mode = checkpoint.draw_mode;
        // Scatter the per-shard local CSRs into one global CSR, checking
        // buckets against positions: every walker must appear in exactly
        // one bucket, at the node its position names.
        let n = graph.node_count();
        let mut starts = vec![0usize; n + 1];
        let mut seen = vec![false; checkpoint.positions.len()];
        for (s, (shard_cp, shard)) in checkpoint.shards.iter().zip(partition.shards()).enumerate() {
            let local_n = shard.len();
            let cp_starts = &shard_cp.bucket_starts;
            if cp_starts.len() != local_n + 1
                || cp_starts[0] != 0
                || cp_starts.windows(2).any(|w| w[0] > w[1])
                || cp_starts[local_n] != shard_cp.bucket_walkers.len()
            {
                return Err(GraphError::InvalidParameters(format!(
                    "shard {s} checkpoint buckets do not form a CSR over {local_n} local nodes"
                )));
            }
            for (lu, &u) in shard.nodes().iter().enumerate() {
                let bucket = &shard_cp.bucket_walkers[cp_starts[lu]..cp_starts[lu + 1]];
                for &w in bucket {
                    let valid = (w as usize) < seen.len()
                        && !seen[w as usize]
                        && checkpoint.positions[w as usize] as usize == u;
                    if !valid {
                        return Err(GraphError::InvalidParameters(format!(
                            "shard {s} checkpoint bucket at node {u} holds walker {w}, \
                             which is out of range, duplicated, or positioned elsewhere"
                        )));
                    }
                    seen[w as usize] = true;
                }
                starts[u + 1] = bucket.len();
            }
        }
        if let Some(w) = seen.iter().position(|&s| !s) {
            return Err(GraphError::InvalidParameters(format!(
                "walker {w} has a position but no bucket slot in the checkpoint"
            )));
        }
        for u in 0..n {
            starts[u + 1] += starts[u];
        }
        // A run's buckets are contiguous in both layouts.
        let mut walkers = vec![0u32; starts[n]];
        for (shard_cp, shard) in checkpoint.shards.iter().zip(partition.shards()) {
            let mut local = 0;
            for run in shard.runs() {
                let held = &shard_cp.bucket_walkers
                    [shard_cp.bucket_starts[local]..shard_cp.bucket_starts[local + run.len()]];
                walkers[starts[run.start]..starts[run.end]].copy_from_slice(held);
                local += run.len();
            }
        }
        engine.buckets = HolderBuckets::from_csr(starts, walkers);
        Ok(engine)
    }

    /// Swaps in a new topology for subsequent rounds — the churn runtime's
    /// per-round topology hook, mirroring
    /// [`crate::mixing_engine::MixingEngine::retarget`].  Walker positions,
    /// buckets, RNG streams and the round counter carry over unchanged;
    /// only where walkers can move *next* changes.  The node count must
    /// match (the partition's shard assignment stays valid: users are
    /// stable, churn rewires edges and availability, not identity) and the
    /// new topology must have no isolated nodes.
    ///
    /// Pass [`Cow::Owned`] for a topology with no stable home to borrow
    /// from, such as each round's
    /// [`crate::dynamic::DynamicGraph::snapshot`] clone.
    ///
    /// # Errors
    ///
    /// [`GraphError::InvalidParameters`] on a node-count mismatch,
    /// [`GraphError::IsolatedNode`] if the new topology has one.
    pub fn retarget(&mut self, graph: Cow<'g, Graph>) -> Result<()> {
        if graph.node_count() != self.graph.node_count() {
            return Err(GraphError::InvalidParameters(format!(
                "cannot retarget an engine on {} nodes to a graph with {}",
                self.graph.node_count(),
                graph.node_count()
            )));
        }
        if let Some(u) = graph.find_isolated_node() {
            return Err(GraphError::IsolatedNode(u));
        }
        self.graph = graph;
        Ok(())
    }

    /// Executes one holder-order round across all shards and streams
    /// whole-population statistics to `observer` (pass `&mut ()` to skip).
    ///
    /// With `mask = Some(available)` (global node ids) a walker whose chosen
    /// recipient is unavailable stays put for the round — in a distributed
    /// deployment, a delivery to a dark recipient bounces back to its
    /// holder and rejoins the holder's bucket as a survivor, which is
    /// exactly how the kernel accounts it (not sent, not an arrival).  An
    /// all-available mask is bit-for-bit `None`.
    ///
    /// The sampling phase runs inline, shard by shard in ascending order.
    ///
    /// # Errors
    ///
    /// [`GraphError::InvalidParameters`] if `laziness ∉ [0, 1)` or the mask
    /// length differs from the node count; the engine is unchanged on
    /// error.
    pub fn step<O: RoundObserver>(
        &mut self,
        laziness: f64,
        mask: Option<&[bool]>,
        observer: &mut O,
    ) -> Result<()> {
        self.validate_round(laziness, mask)?;
        self.sample(laziness, mask, None);
        self.merge_round(observer);
        Ok(())
    }

    /// [`ShardedMixingEngine::step`] with the per-shard sampling phase run
    /// inline in an explicit shard order — the determinism audit hook: any
    /// permutation of `0..shard_count` must produce bitwise identical
    /// results, because shards only touch their own stream and arena and
    /// the merge order is canonical.
    ///
    /// # Errors
    ///
    /// As [`ShardedMixingEngine::step`], and
    /// [`GraphError::InvalidParameters`] if `order` is not a permutation of
    /// `0..shard_count`; the engine is unchanged on error.
    pub fn step_in_order<O: RoundObserver>(
        &mut self,
        laziness: f64,
        mask: Option<&[bool]>,
        order: &[usize],
        observer: &mut O,
    ) -> Result<()> {
        self.validate_round(laziness, mask)?;
        let k = self.shards.len();
        // Quadratic in k, but allocation-free; shard counts are small.
        let is_permutation = order.len() == k
            && order
                .iter()
                .enumerate()
                .all(|(i, &s)| s < k && !order[..i].contains(&s));
        if !is_permutation {
            return Err(GraphError::InvalidParameters(format!(
                "shard order {order:?} is not a permutation of 0..{k}"
            )));
        }
        self.sample(laziness, mask, Some(order));
        self.merge_round(observer);
        Ok(())
    }

    /// [`ShardedMixingEngine::step`] without a mask, panicking on error.
    /// Kept only for `epoch_bench/src/traced.rs`; call `step` instead.
    ///
    /// # Panics
    ///
    /// Panics where [`ShardedMixingEngine::step`] returns an error.
    pub fn step_auto<O: RoundObserver>(&mut self, laziness: f64, observer: &mut O) {
        self.step(laziness, None, observer).expect("invalid round");
    }

    /// [`ShardedMixingEngine::step`] under `available`, panicking on
    /// error.  Kept only for `epoch_bench/src/traced.rs`; call `step`
    /// instead.
    ///
    /// # Panics
    ///
    /// Panics where [`ShardedMixingEngine::step`] returns an error.
    pub fn step_masked_auto<O: RoundObserver>(
        &mut self,
        laziness: f64,
        available: &[bool],
        observer: &mut O,
    ) {
        self.step(laziness, Some(available), observer)
            .expect("invalid round");
    }

    /// The round-boundary checks [`ShardedMixingEngine::step`] and
    /// [`ShardedMixingEngine::step_in_order`] make before any state
    /// changes — for a caller that commits other work to a round before
    /// stepping it.
    ///
    /// # Errors
    ///
    /// [`GraphError::InvalidParameters`] if `laziness ∉ [0, 1)` or the mask
    /// length differs from the node count.
    pub fn validate_round(&self, laziness: f64, mask: Option<&[bool]>) -> Result<()> {
        crate::walk::validate_laziness(laziness).map_err(GraphError::InvalidParameters)?;
        let n = self.graph.node_count();
        match mask {
            Some(available) if available.len() != n => Err(GraphError::InvalidParameters(format!(
                "availability mask has {} entries for {n} nodes",
                available.len()
            ))),
            _ => Ok(()),
        }
    }

    /// The sampling phase: every shard's decide sweep, inline in `order`
    /// when one is given, otherwise in ascending shard order.  Each shard
    /// reads the shared buckets and touches only its own stream and arena,
    /// so the order never changes the result.
    fn sample(&mut self, laziness: f64, mask: Option<&[bool]>, order: Option<&[usize]>) {
        let sampling = Sampling {
            plan: RoundPlan {
                graph: &self.graph,
                laziness,
                available: mask,
            },
            partition: self.partition,
            buckets: &self.buckets,
            mode: self.draw_mode,
            telemetry: self.telemetry.as_ref(),
        };
        match order {
            Some(order) => {
                for &s in order {
                    sampling.sample_shard(s, &mut self.shards[s]);
                }
            }
            None => {
                for (s, state) in self.shards.iter_mut().enumerate() {
                    sampling.sample_shard(s, state);
                }
            }
        }
    }

    /// The exchange and merge phases: folds the sampling phase's mask
    /// bounces into the attached telemetry, writes every delivered
    /// walker's new position, rebuilds the buckets and the round's
    /// statistics with one counting sort over all shards' survivors and
    /// deliveries (ascending shard order), and reports the round.
    fn merge_round<O: RoundObserver>(&mut self, observer: &mut O) {
        let telemetry = self.telemetry.as_ref();
        if let Some(t) = telemetry {
            for state in &self.shards {
                t.mask_bounces.add(state.arena.bounced());
            }
        }
        // Record delivered walkers' new positions (each walker appears in
        // exactly one delivery).  The walker ids index the position array
        // essentially at random, so prefetch a few entries ahead.
        {
            let _span = telemetry.map(|t| t.exchange_ns.span(&t.clock));
            for state in &self.shards {
                let (dests, walkers) = state.arena.deliveries();
                for (i, (&dest, &w)) in dests.iter().zip(walkers).enumerate() {
                    if let Some(&wf) = walkers.get(i + 8) {
                        round::prefetch_read(&self.positions, wf as usize);
                    }
                    self.positions[w as usize] = dest;
                }
            }
        }
        {
            let _span = telemetry.map(|t| t.merge_ns.span(&t.clock));
            self.buckets
                .merge(self.shards.iter().map(|state| &state.arena));
        }
        debug_assert_eq!(
            self.buckets
                .load()
                .iter()
                .map(|&l| l as usize)
                .sum::<usize>(),
            self.positions.len(),
            "round conservation violated: survivors + arrivals + bounces must equal the walkers"
        );
        self.round += 1;
        if let Some(t) = telemetry {
            t.rounds.inc();
        }
        observer.on_round(&RoundStats {
            round: self.round,
            sent: self.buckets.sent(),
            load: self.buckets.load(),
        });
    }
}

/// What every shard's sampling sweep of one round reads.
struct Sampling<'a> {
    plan: RoundPlan<'a>,
    partition: &'a Partition,
    buckets: &'a HolderBuckets,
    mode: DrawMode,
    telemetry: Option<&'a EngineTelemetry>,
}

impl Sampling<'_> {
    /// The sampling phase for one shard: the kernel's decide sweep over the
    /// shard's nodes in ascending id order, run by run, drawing every move from the
    /// shard's own stream through the engine-wide sampling rule (compat or
    /// fast).  Survivors — lazy stays *and* masked bounces — and every
    /// delivery, in send order, land in the shard's arena.
    fn sample_shard(&self, shard: usize, state: &mut ShardState) {
        let _span = self.telemetry.map(|t| t.decide_ns.span(&t.clock));
        let holders = self.partition.shard(shard).runs();
        let ShardState { rng, arena } = state;
        match self.mode {
            DrawMode::Compat => {
                round::decide_holder_moves(&self.plan, holders, self.buckets, arena, rng)
            }
            DrawMode::Fast => {
                round::decide_holder_moves_fast(&self.plan, holders, self.buckets, arena, rng)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::rng::seeded_rng;

    fn graph(n: usize, k: usize, seed: u64) -> Graph {
        generators::random_regular(n, k, &mut seeded_rng(seed)).unwrap()
    }

    #[test]
    fn construction_validates_inputs() {
        let g = graph(40, 4, 1);
        let p = Partition::new(&g, 4).unwrap();
        let other = graph(30, 4, 2);
        assert!(ShardedMixingEngine::one_walker_per_node(&other, &p, 7).is_err());
        assert!(ShardedMixingEngine::with_starts(&g, &p, vec![0, 41], 7).is_err());
        let empty = Graph::from_edges(0, &[]).unwrap();
        let p1 = Partition::single_shard(&g).unwrap();
        assert!(ShardedMixingEngine::one_walker_per_node(&empty, &p1, 7).is_err());
        let isolated = Graph::from_edges(40, &[(0, 1)]).unwrap();
        let pi = Partition::single_shard(&isolated).unwrap();
        assert!(ShardedMixingEngine::one_walker_per_node(&isolated, &pi, 7).is_err());
    }

    #[test]
    fn walkers_are_conserved_and_buckets_track_positions() {
        let g = graph(120, 4, 4);
        let p = Partition::new(&g, 3).unwrap();
        let mut engine = ShardedMixingEngine::one_walker_per_node(&g, &p, 5).unwrap();
        for _ in 0..25 {
            engine.step(0.2, None, &mut ()).unwrap();
        }
        assert_eq!(engine.round(), 25);
        let load = engine.load_vector();
        assert_eq!(load.iter().sum::<usize>(), 120);
        for u in g.nodes() {
            assert_eq!(engine.held_by(u).len(), load[u]);
            for &w in engine.held_by(u) {
                assert_eq!(engine.position(w as usize), u);
            }
        }
    }

    /// Any shard order, masked or not: bitwise the same rounds.
    #[test]
    fn shard_sampling_schedule_does_not_change_the_result() {
        let g = graph(300, 6, 5);
        let p = Partition::new(&g, 4).unwrap();
        let mask: Vec<bool> = (0..300).map(|u| u % 5 != 2).collect();
        let mut step = ShardedMixingEngine::one_walker_per_node(&g, &p, 11).unwrap();
        let mut backward = ShardedMixingEngine::one_walker_per_node(&g, &p, 11).unwrap();
        let mut rotated = ShardedMixingEngine::one_walker_per_node(&g, &p, 11).unwrap();
        for round in 0..15 {
            let mask = (round % 3 == 0).then_some(mask.as_slice());
            step.step(0.1, mask, &mut ()).unwrap();
            backward
                .step_in_order(0.1, mask, &[3, 2, 1, 0], &mut ())
                .unwrap();
            rotated
                .step_in_order(0.1, mask, &[2, 3, 0, 1], &mut ())
                .unwrap();
        }
        assert_eq!(step.positions(), backward.positions());
        assert_eq!(step.positions(), rotated.positions());
        assert_eq!(step.walkers_by_holder(), backward.walkers_by_holder());
        assert_eq!(step.walkers_by_holder(), rotated.walkers_by_holder());
    }

    #[test]
    fn malformed_rounds_are_rejected_before_any_state_changes() {
        let g = graph(30, 4, 6);
        let p = Partition::new(&g, 2).unwrap();
        let mut engine = ShardedMixingEngine::one_walker_per_node(&g, &p, 1).unwrap();
        engine.step(0.2, None, &mut ()).unwrap();
        let positions = engine.positions().to_vec();
        let short_mask = vec![true; 29];
        let rejected = [
            engine.step_in_order(0.0, None, &[0, 0], &mut ()),
            engine.step_in_order(0.0, None, &[0, 2], &mut ()),
            engine.step_in_order(0.0, None, &[1], &mut ()),
            engine.step_in_order(0.0, Some(&short_mask), &[0, 1], &mut ()),
            engine.step(0.0, Some(&short_mask), &mut ()),
            engine.step(1.0, None, &mut ()),
        ];
        for result in rejected {
            assert!(matches!(result, Err(GraphError::InvalidParameters(_))));
            assert_eq!(engine.round(), 1);
            assert_eq!(engine.positions(), positions.as_slice());
        }
    }

    #[test]
    fn runs_depend_on_seed_but_not_on_anything_else() {
        let g = graph(100, 6, 7);
        let p = Partition::new(&g, 5).unwrap();
        let run = |seed: u64| {
            let mut engine = ShardedMixingEngine::one_walker_per_node(&g, &p, seed).unwrap();
            for _ in 0..12 {
                engine.step(0.15, None, &mut ()).unwrap();
            }
            engine.positions().to_vec()
        };
        assert_eq!(run(21), run(21));
        assert_ne!(run(21), run(22));
    }

    #[test]
    fn observer_sees_conserved_load_and_round_indices() {
        struct Checker {
            walkers: usize,
            rounds_seen: usize,
        }
        impl RoundObserver for Checker {
            fn on_round(&mut self, stats: &RoundStats<'_>) {
                self.rounds_seen += 1;
                assert_eq!(stats.round, self.rounds_seen);
                let total: u64 = stats.load.iter().map(|&l| l as u64).sum();
                assert_eq!(total as usize, self.walkers);
                let sent: u64 = stats.sent.iter().map(|&s| s as u64).sum();
                assert!(sent as usize <= self.walkers);
            }
        }
        let g = graph(80, 4, 8);
        let p = Partition::new(&g, 3).unwrap();
        let mut engine = ShardedMixingEngine::one_walker_per_node(&g, &p, 9).unwrap();
        let mut checker = Checker {
            walkers: 80,
            rounds_seen: 0,
        };
        for _ in 0..10 {
            engine.step(0.1, None, &mut checker).unwrap();
        }
        assert_eq!(checker.rounds_seen, 10);
    }

    #[test]
    fn all_available_mask_is_bitwise_the_unmasked_sharded_round() {
        let g = graph(120, 4, 11);
        let p = Partition::new(&g, 4).unwrap();
        let mask = vec![true; 120];
        let mut masked = ShardedMixingEngine::one_walker_per_node(&g, &p, 77).unwrap();
        let mut plain = ShardedMixingEngine::one_walker_per_node(&g, &p, 77).unwrap();
        for _ in 0..15 {
            masked.step(0.2, Some(&mask), &mut ()).unwrap();
            plain.step(0.2, None, &mut ()).unwrap();
        }
        assert_eq!(masked.positions(), plain.positions());
        assert_eq!(masked.walkers_by_holder(), plain.walkers_by_holder());
    }

    #[test]
    fn masked_rounds_never_deliver_to_dark_nodes_and_bounces_are_not_sent() {
        let g = graph(100, 4, 12);
        let p = Partition::new(&g, 3).unwrap();
        let mut mask = vec![true; 100];
        for slot in mask.iter_mut().skip(10) {
            *slot = false;
        }
        let mut engine = ShardedMixingEngine::one_walker_per_node(&g, &p, 21).unwrap();
        let before = engine.positions().to_vec();
        engine.step(0.0, Some(&mask), &mut ()).unwrap();
        for (walker, (&now, &was)) in engine.positions().iter().zip(&before).enumerate() {
            assert!(
                mask[now as usize] || now == was,
                "walker {walker} was delivered to dark node {now}"
            );
        }
        // The totally-dark network freezes everyone, and no bounced walker
        // is counted as traffic.
        let dark = vec![false; 100];
        let frozen = engine.positions().to_vec();
        struct NoTraffic;
        impl RoundObserver for NoTraffic {
            fn on_round(&mut self, stats: &RoundStats<'_>) {
                assert_eq!(stats.sent.iter().sum::<u32>(), 0);
            }
        }
        engine.step(0.3, Some(&dark), &mut NoTraffic).unwrap();
        assert_eq!(engine.positions(), frozen.as_slice());
    }

    #[test]
    fn checkpoint_restore_continues_bitwise_in_both_draw_modes() {
        let g = graph(130, 6, 17);
        for k in [1usize, 4] {
            let p = Partition::new(&g, k).unwrap();
            let mask: Vec<bool> = (0..130).map(|u| u % 7 != 3).collect();
            for mode in [DrawMode::Compat, DrawMode::Fast] {
                let mut reference = ShardedMixingEngine::one_walker_per_node(&g, &p, 404).unwrap();
                reference.set_draw_mode(mode);
                for _ in 0..9 {
                    reference.step(0.2, None, &mut ()).unwrap();
                }
                let cp = reference.checkpoint();
                assert_eq!(cp.round, 9);
                assert_eq!(cp.draw_mode, mode);
                let mut restored = ShardedMixingEngine::restore_checkpoint(&g, &p, &cp).unwrap();
                assert_eq!(restored.round(), 9);
                // Mix plain and masked rounds after the restore point.
                for r in 0..10 {
                    let mask = (r % 3 == 0).then_some(mask.as_slice());
                    reference.step(0.2, mask, &mut ()).unwrap();
                    restored.step(0.2, mask, &mut ()).unwrap();
                    assert_eq!(reference.positions(), restored.positions());
                }
                assert_eq!(reference.walkers_by_holder(), restored.walkers_by_holder());
                for s in 0..k {
                    assert_eq!(reference.rng_clock(s), restored.rng_clock(s));
                    use rand::Rng;
                    let a: u64 = reference.shard_rng_mut(s).gen();
                    let b: u64 = restored.shard_rng_mut(s).gen();
                    assert_eq!(a, b, "shard {s} RNG stream diverged after restore");
                }
            }
        }
    }

    #[test]
    fn restore_checkpoint_rejects_inconsistent_state() {
        let g = graph(60, 4, 18);
        let p = Partition::new(&g, 3).unwrap();
        let mut engine = ShardedMixingEngine::one_walker_per_node(&g, &p, 5).unwrap();
        engine.step(0.1, None, &mut ()).unwrap();
        let cp = engine.checkpoint();
        // Wrong shard count.
        let p1 = Partition::single_shard(&g).unwrap();
        assert!(ShardedMixingEngine::restore_checkpoint(&g, &p1, &cp).is_err());
        // Position out of range.
        let mut bad = cp.clone();
        bad.positions[0] = 60;
        assert!(ShardedMixingEngine::restore_checkpoint(&g, &p, &bad).is_err());
        // A walker moved without its bucket slot moving: position/bucket
        // cross-check must catch it.
        let mut bad = cp.clone();
        let w = bad.shards[0].bucket_walkers[0] as usize;
        let old = bad.positions[w];
        bad.positions[w] = if old == 0 { 1 } else { 0 };
        assert!(ShardedMixingEngine::restore_checkpoint(&g, &p, &bad).is_err());
        // Duplicated walker.
        let mut bad = cp.clone();
        let first = bad.shards[0].bucket_walkers[0];
        *bad.shards[0].bucket_walkers.last_mut().unwrap() = first;
        assert!(ShardedMixingEngine::restore_checkpoint(&g, &p, &bad).is_err());
        // Broken CSR.
        let mut bad = cp.clone();
        bad.shards[1].bucket_starts[0] = 1;
        assert!(ShardedMixingEngine::restore_checkpoint(&g, &p, &bad).is_err());
        // The untouched checkpoint still restores.
        assert!(ShardedMixingEngine::restore_checkpoint(&g, &p, &cp).is_ok());
    }

    #[test]
    fn retarget_switches_topology_between_rounds() {
        let ring = generators::cycle(24).unwrap();
        let full = generators::complete(24).unwrap();
        let p = Partition::new(&ring, 3).unwrap();
        let mut engine = ShardedMixingEngine::one_walker_per_node(&ring, &p, 41).unwrap();
        engine.step(0.0, None, &mut ()).unwrap();
        for (walker, &pos) in engine.positions().iter().enumerate() {
            assert!(ring.neighbors(walker).contains(&pos));
        }
        engine.retarget(Cow::Borrowed(&full)).unwrap();
        assert_eq!(engine.round(), 1);
        engine.step(0.0, None, &mut ()).unwrap();
        assert_eq!(engine.round(), 2);
        assert!(engine.positions().iter().all(|&pos| pos < 24));
        // Mismatched node counts and isolated nodes are rejected.
        let small = generators::cycle(5).unwrap();
        assert!(engine.retarget(Cow::Owned(small)).is_err());
        let isolated = Graph::from_edges(24, &[(0, 1)]).unwrap();
        assert!(engine.retarget(Cow::Owned(isolated)).is_err());
    }
}
