//! Batched, struct-of-arrays execution core for exchange rounds.
//!
//! Both the walk engine ([`crate::walk`]) and the full protocol simulation in
//! the core crate ultimately do the same thing: every round, each report held
//! at node `u` moves to a uniformly random neighbour of `u` (staying put with
//! probability `laziness`).  Historically the two layers each had their own
//! round loop — a flat per-walker sweep here, and a per-client object graph in
//! the core crate that allocated an `in_flight` vector of messages and routed
//! them one by one.  This module is the single shared core both drive.
//!
//! State is kept in flat arrays: `positions[w]` is the node holding walker
//! `w`, and an optional CSR bucket structure (`bucket_starts`/`bucket_walkers`)
//! groups walkers by holder for protocols that need per-holder iteration
//! order.  Rounds execute in one of two orders:
//!
//! * **walker order** ([`MixingEngine::step`]) — sweep `positions` once;
//!   the cheapest possible round, used by the walk engine;
//! * **holder order** ([`MixingEngine::step_holder`]) — iterate nodes in id
//!   order and each node's held walkers in insertion order (survivors of the
//!   previous round first, then arrivals in global send order).  This is
//!   draw-for-draw identical to the historical per-client simulation loop,
//!   which lets the core crate replace its object-graph round loop without
//!   changing a single sampled trajectory.  Deliveries are routed by a
//!   counting sort over destinations instead of per-message routing.
//!
//! Per-round statistics stream through [`RoundObserver`], so traffic metrics
//! are computed incrementally instead of post-hoc per client.  With the
//! `parallel` cargo feature, `MixingEngine::run_parallel` executes
//! walker-order rounds across threads in fixed-size chunks with per-chunk
//! deterministic RNG streams (results depend only on the seed, never on the
//! number of threads).
//!
//! Since the unified-kernel refactor, every round form is a thin plan
//! builder over [`crate::round`]: `step_holder` / `step_holder_masked`
//! build a [`RoundPlan`] and hand it to the shared decide/merge routines,
//! and `step` / `step_masked` use the shared walker-order sweep — the same
//! routines the sharded engine executes per shard, which is what makes
//! masked, dynamic (retarget) and sharded rounds compose instead of
//! multiplying loop copies.

use crate::error::{GraphError, Result};
use crate::graph::{Graph, NodeId};
use crate::round::{self, DrawMode, RoundArena, RoundPlan};
use crate::telemetry::EngineTelemetry;
use crate::walk::WalkConfig;
use rand::Rng;

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

/// Shared, batched executor of exchange rounds over struct-of-arrays state.
///
/// Walker `w` is identified by its index in the position array; callers
/// attach meaning (e.g. "report produced by user `w`") externally.
#[derive(Debug, Clone)]
pub struct MixingEngine<'g> {
    graph: &'g Graph,
    /// `positions[w]` is the node currently holding walker `w`,
    /// u32-compressed (node ids fit by the graph's `n < 2^32` bound) so the
    /// position sweep moves half the bytes.
    positions: Vec<u32>,
    /// How rounds draw randomness (see [`DrawMode`]); `Compat` by default.
    draw_mode: DrawMode,
    /// Rounds executed so far.
    round: usize,
    /// CSR bucket structure: walkers held by node `u` are
    /// `bucket_walkers[bucket_starts[u]..bucket_starts[u + 1]]`, in insertion
    /// order.  Maintained by holder-order rounds; rebuilt (in walker-id
    /// order) on demand after walker-order rounds.
    bucket_starts: Vec<usize>,
    bucket_walkers: Vec<u32>,
    buckets_valid: bool,
    /// Per-round statistics, valid after an observed round.
    sent: Vec<u32>,
    load: Vec<u32>,
    /// Counting-sort scratch owned by the plan executor, reused across
    /// rounds (no steady-state allocation).  Also carries the decide
    /// phase's delivery buffers — the engine's single "outbox" — and the
    /// fast draw mode's RNG lane buffer.
    arena: RoundArena,
    /// Attached telemetry (`None` = the no-op path).  Inert by
    /// construction: recording never draws randomness or touches round
    /// state, so instrumented rounds are bitwise the bare rounds.
    telemetry: Option<EngineTelemetry>,
}

impl<'g> MixingEngine<'g> {
    /// Creates an engine with one walker per node, walker `i` starting at
    /// node `i` — the initial condition of network shuffling, where every
    /// user holds exactly her own randomized report.
    ///
    /// # Errors
    ///
    /// [`GraphError::EmptyGraph`] / [`GraphError::IsolatedNode`] for graphs
    /// the walk cannot run on.
    pub fn one_walker_per_node(graph: &'g Graph) -> Result<Self> {
        let starts: Vec<NodeId> = graph.nodes().collect();
        Self::with_starts(graph, starts)
    }

    /// Creates an engine with walkers at the given starting nodes.
    ///
    /// # Errors
    ///
    /// Same as [`MixingEngine::one_walker_per_node`], plus
    /// [`GraphError::NodeOutOfRange`] if a start is out of range and
    /// [`GraphError::InvalidParameters`] if the walker or node count exceeds
    /// the engine's `u32` id space.
    pub fn with_starts(graph: &'g Graph, starts: Vec<NodeId>) -> Result<Self> {
        let n = graph.node_count();
        if n == 0 {
            return Err(GraphError::EmptyGraph);
        }
        if let Some(u) = graph.find_isolated_node() {
            return Err(GraphError::IsolatedNode(u));
        }
        if let Some(&bad) = starts.iter().find(|&&s| s >= n) {
            return Err(GraphError::NodeOutOfRange {
                node: bad,
                node_count: n,
            });
        }
        if starts.len() > u32::MAX as usize || n > u32::MAX as usize {
            return Err(GraphError::InvalidParameters(format!(
                "mixing engine supports at most 2^32 - 1 walkers and nodes, got {} walkers on {n} nodes",
                starts.len()
            )));
        }
        let walkers = starts.len();
        Ok(MixingEngine {
            graph,
            positions: starts.iter().map(|&s| s as u32).collect(),
            draw_mode: DrawMode::Compat,
            round: 0,
            bucket_starts: vec![0; n + 1],
            bucket_walkers: Vec::with_capacity(walkers),
            buckets_valid: false,
            sent: vec![0; n],
            load: vec![0; n],
            arena: RoundArena::new(),
            telemetry: None,
        })
    }

    /// Attaches (or with `None` detaches) the phase-timing telemetry
    /// bundle.  Registration happened when the bundle was built; from
    /// here on every recording is a preregistered atomic slot write, so
    /// steady-state rounds stay allocation-free and — because telemetry
    /// never draws randomness or touches state — bitwise identical to
    /// uninstrumented rounds.
    pub fn set_telemetry(&mut self, telemetry: Option<EngineTelemetry>) {
        self.telemetry = telemetry;
    }

    /// The engine's current draw mode.
    pub fn draw_mode(&self) -> DrawMode {
        self.draw_mode
    }

    /// Selects how subsequent rounds draw randomness.  Switching modes
    /// changes the realization of the walk (fast rounds consume one `u64`
    /// per walker, compat rounds the historical draw sequence) but not its
    /// distribution.
    pub fn set_draw_mode(&mut self, mode: DrawMode) {
        self.draw_mode = mode;
    }

    /// The graph the walkers move on.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// Swaps in a new topology for subsequent rounds — the per-round
    /// topology hook of the churn runtime.  Walker positions, buckets and
    /// the round counter carry over unchanged; only where walkers can move
    /// *next* changes.  The new graph must have the same node count (users
    /// are stable; churn removes availability, not identity) and no
    /// isolated nodes.
    ///
    /// # Errors
    ///
    /// [`GraphError::InvalidParameters`] on a node-count mismatch,
    /// [`GraphError::IsolatedNode`] if the new topology has one.
    pub fn retarget(&mut self, graph: &'g Graph) -> Result<()> {
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

    /// Number of walkers being tracked.
    pub fn walker_count(&self) -> usize {
        self.positions.len()
    }

    /// Number of rounds executed so far.
    pub fn round(&self) -> usize {
        self.round
    }

    /// Current position of walker `w`.
    pub fn position(&self, walker: usize) -> NodeId {
        self.positions[walker] as NodeId
    }

    /// Current positions of all walkers (`positions[w] = holder of w`),
    /// u32-compressed; widen with `as usize` where a [`NodeId`] is needed.
    pub fn positions(&self) -> &[u32] {
        &self.positions
    }

    /// Histogram of walkers per node: entry `L_i` of Lemma 5.1.
    pub fn load_vector(&self) -> Vec<usize> {
        let mut load = vec![0usize; self.graph.node_count()];
        for &node in &self.positions {
            load[node as usize] += 1;
        }
        load
    }

    /// Groups walkers by their current holder: `holders[u]` lists the walker
    /// ids currently at node `u` — the multiset `{s_j}ᵢ` of reports held by
    /// each user at the end of the exchange phase (Figure 2).
    ///
    /// Ordering within a node follows the engine's bucket order when rounds
    /// ran in holder order (survivors first, then arrivals in send order),
    /// and walker-id order otherwise.
    pub fn walkers_by_holder(&self) -> Vec<Vec<usize>> {
        let mut holders = vec![Vec::new(); self.graph.node_count()];
        if self.buckets_valid {
            for u in self.graph.nodes() {
                holders[u] = self.held_by(u).iter().map(|&w| w as usize).collect();
            }
        } else {
            for (walker, &node) in self.positions.iter().enumerate() {
                holders[node as usize].push(walker);
            }
        }
        holders
    }

    /// The walkers currently held by node `u`, in bucket order.
    ///
    /// Requires the bucket structure to be valid; call
    /// [`MixingEngine::ensure_buckets`] first if rounds ran in walker order.
    ///
    /// # Panics
    ///
    /// Panics if the buckets are stale.
    pub fn held_by(&self, u: NodeId) -> &[u32] {
        assert!(
            self.buckets_valid,
            "holder buckets are stale; call ensure_buckets()"
        );
        &self.bucket_walkers[self.bucket_starts[u]..self.bucket_starts[u + 1]]
    }

    /// (Re)builds the holder buckets from the position array, grouping
    /// walkers by node in walker-id order — the kernel's counting-sort
    /// merge with no survivors and the position array as the arrival
    /// stream.
    pub fn ensure_buckets(&mut self) {
        if self.buckets_valid {
            return;
        }
        let n = self.graph.node_count();
        let MixingEngine {
            positions,
            bucket_starts,
            bucket_walkers,
            load,
            arena,
            ..
        } = self;
        arena.kept_nodes.clear();
        arena.kept_walkers.clear();
        round::merge_round_buckets(n, arena, load, bucket_starts, bucket_walkers, |sink| {
            for (walker, &node) in positions.iter().enumerate() {
                sink(node as usize, walker as u32);
            }
        });
        self.buckets_valid = true;
    }

    /// Executes one walker-order round: sweep the position array once, moving
    /// every walker to a uniformly random neighbour of its current node
    /// (staying put with probability `laziness`).
    ///
    /// This is the fastest round form; it does not maintain holder buckets or
    /// per-round statistics.
    pub fn step<R: Rng + ?Sized>(&mut self, laziness: f64, rng: &mut R) {
        self.step_inner(laziness, None, rng);
    }

    /// Executes one walker-order round under an availability mask: a walker
    /// whose chosen recipient is unavailable stays put for the round (the
    /// send never happens).  With an all-available mask this consumes the
    /// RNG and moves walkers exactly like [`MixingEngine::step`].
    ///
    /// # Errors
    ///
    /// [`GraphError::InvalidParameters`] if `available.len()` differs from
    /// the node count, before any state changes or any RNG draw.
    pub fn step_masked<R: Rng + ?Sized>(
        &mut self,
        laziness: f64,
        available: &[bool],
        rng: &mut R,
    ) -> Result<()> {
        self.check_mask(available)?;
        self.step_inner(laziness, Some(available), rng);
        Ok(())
    }

    /// Rejects an availability mask that does not cover every node.
    fn check_mask(&self, available: &[bool]) -> Result<()> {
        let n = self.graph.node_count();
        if available.len() != n {
            return Err(GraphError::InvalidParameters(format!(
                "availability mask has {} entries for {n} nodes",
                available.len()
            )));
        }
        Ok(())
    }

    fn step_inner<R: Rng + ?Sized>(
        &mut self,
        laziness: f64,
        available: Option<&[bool]>,
        rng: &mut R,
    ) {
        let plan = RoundPlan {
            graph: self.graph,
            laziness,
            available,
        };
        {
            // Walker-order rounds fuse decide and position update into
            // one sweep; the whole sweep is the decide phase.
            let _span = self.telemetry.as_ref().map(|t| t.decide_ns.span(&t.clock));
            match self.draw_mode {
                DrawMode::Compat => round::sweep_walker_order(&plan, &mut self.positions, rng),
                DrawMode::Fast => round::sweep_walker_order_fast(
                    &plan,
                    &mut self.positions,
                    &mut self.arena.lane,
                    rng,
                ),
            }
        }
        self.round += 1;
        self.buckets_valid = false;
        if let Some(t) = &self.telemetry {
            t.rounds.inc();
        }
    }

    /// Executes one holder-order round: nodes are visited in id order, each
    /// node's held walkers in insertion order; every walker either stays
    /// (probability `laziness`) or is sent to a uniformly random neighbour.
    /// Deliveries are routed with a counting sort over destinations, so a
    /// node's bucket for the next round lists its survivors first, then its
    /// arrivals in global send order — exactly the order in which a
    /// message-passing simulation would have appended them.
    ///
    /// Statistics for the finished round stream to `observer` (pass
    /// `&mut ()` to skip).
    pub fn step_holder<R: Rng + ?Sized, O: RoundObserver>(
        &mut self,
        laziness: f64,
        rng: &mut R,
        observer: &mut O,
    ) {
        self.step_holder_inner(laziness, None, rng, observer);
    }

    /// [`MixingEngine::step_holder`] under an availability mask: a walker
    /// whose chosen recipient is unavailable stays put (it counts as a
    /// survivor, not a sent message — the delivery never happened).  With an
    /// all-available mask the round is bit-for-bit [`MixingEngine::step_holder`],
    /// RNG stream, bucket order and statistics included.
    ///
    /// # Errors
    ///
    /// [`GraphError::InvalidParameters`] if `available.len()` differs from
    /// the node count, before any state changes or any RNG draw.
    pub fn step_holder_masked<R: Rng + ?Sized, O: RoundObserver>(
        &mut self,
        laziness: f64,
        available: &[bool],
        rng: &mut R,
        observer: &mut O,
    ) -> Result<()> {
        self.check_mask(available)?;
        self.step_holder_inner(laziness, Some(available), rng, observer);
        Ok(())
    }

    fn step_holder_inner<R: Rng + ?Sized, O: RoundObserver>(
        &mut self,
        laziness: f64,
        available: Option<&[bool]>,
        rng: &mut R,
        observer: &mut O,
    ) {
        self.ensure_buckets();
        let n = self.graph.node_count();
        let draw_mode = self.draw_mode;
        let MixingEngine {
            graph,
            positions,
            bucket_starts,
            bucket_walkers,
            sent,
            load,
            arena,
            telemetry,
            ..
        } = self;
        let telemetry = telemetry.as_ref();
        let plan = RoundPlan {
            graph,
            laziness,
            available,
        };
        // Decide: survivors into the arena, deliveries into its delivery
        // buffers in send order.
        {
            let _span = telemetry.map(|t| t.decide_ns.span(&t.clock));
            let holders = (0..n).map(|u| (u, u));
            let buckets = round::HolderBuckets {
                starts: bucket_starts,
                walkers: bucket_walkers,
            };
            match draw_mode {
                DrawMode::Compat => {
                    round::decide_holder_moves(&plan, holders, buckets, sent, arena, rng)
                }
                DrawMode::Fast => {
                    round::decide_holder_moves_fast(&plan, holders, buckets, sent, arena, rng)
                }
            }
        }
        // Replay the deliveries into the position array (each delivered
        // walker appears exactly once), prefetching the randomly-indexed
        // position slots a few entries ahead.
        {
            let _span = telemetry.map(|t| t.exchange_ns.span(&t.clock));
            let (dests, walkers) = arena.deliveries();
            for (i, (&d, &w)) in dests.iter().zip(walkers).enumerate() {
                if let Some(&wf) = walkers.get(i + 8) {
                    round::prefetch_read(positions, wf as usize);
                }
                positions[w as usize] = d;
            }
        }
        // Merge: survivors first, then arrivals in global send order.  The
        // delivery buffers are taken out of the arena for the duration of
        // the merge (a move, not an allocation) because the merge borrows
        // the arena's counting-sort scratch mutably.
        {
            let _span = telemetry.map(|t| t.merge_ns.span(&t.clock));
            let deliver_dests = std::mem::take(&mut arena.deliver_dests);
            let deliver_walkers = std::mem::take(&mut arena.deliver_walkers);
            round::merge_round_buckets(n, arena, load, bucket_starts, bucket_walkers, |sink| {
                for (&d, &w) in deliver_dests.iter().zip(deliver_walkers.iter()) {
                    sink(d as usize, w);
                }
            });
            arena.deliver_dests = deliver_dests;
            arena.deliver_walkers = deliver_walkers;
        }
        if let Some(t) = telemetry {
            // `bounced` is 0 on unmasked rounds by the arena contract.
            t.mask_bounces.add(arena.bounced());
            t.rounds.inc();
        }
        debug_assert_eq!(
            self.bucket_starts[n],
            self.positions.len(),
            "round conservation violated: survivors + arrivals + bounces must equal the walkers"
        );
        self.round += 1;
        observer.on_round(&RoundStats {
            round: self.round,
            sent: &self.sent,
            load: &self.load,
        });
    }

    /// Runs a full walk in walker order.
    ///
    /// # Errors
    ///
    /// Propagates [`WalkConfig::validate`] errors.
    pub fn run<R: Rng + ?Sized>(&mut self, config: WalkConfig, rng: &mut R) -> Result<()> {
        config.validate()?;
        for _ in 0..config.rounds {
            self.step(config.laziness, rng);
        }
        Ok(())
    }

    /// Runs a full walk in holder order, streaming statistics to `observer`.
    ///
    /// # Errors
    ///
    /// Propagates [`WalkConfig::validate`] errors.
    pub fn run_holder_observed<R: Rng + ?Sized, O: RoundObserver>(
        &mut self,
        config: WalkConfig,
        rng: &mut R,
        observer: &mut O,
    ) -> Result<()> {
        config.validate()?;
        for _ in 0..config.rounds {
            self.step_holder(config.laziness, rng, observer);
        }
        Ok(())
    }
}

/// Data-parallel walker-order rounds (enabled by the `parallel` feature).
///
/// Rayon is not available in this build environment, so parallelism is
/// implemented directly on `std::thread::scope`: the position array is split
/// into fixed-size chunks, each chunk is stepped with its own ChaCha8 stream
/// derived from `(seed, round, chunk index)`, and chunks are dealt to threads
/// round-robin.  Because the chunk size and the per-chunk streams are fixed,
/// the result depends only on the seed — never on how many threads ran.
#[cfg(feature = "parallel")]
mod parallel {
    use super::MixingEngine;
    use crate::rng::SimRng;
    use crate::round::{self, DrawMode, RoundPlan};
    use crate::walk::WalkConfig;
    use rand::SeedableRng;

    /// Walkers per deterministic RNG chunk.
    pub const CHUNK_WALKERS: usize = 1 << 16;

    use crate::rng::mix64;

    fn chunk_rng(seed: u64, round: usize, chunk: usize) -> SimRng {
        SimRng::seed_from_u64(mix64(mix64(seed ^ round as u64) ^ chunk as u64))
    }

    impl MixingEngine<'_> {
        /// Runs a full walk with parallel rounds.
        ///
        /// Workers are spawned once for the whole walk, not once per round:
        /// walkers never interact within walker-order rounds, so each thread
        /// advances its chunks through all rounds independently — same
        /// result as round-by-round execution, without per-round thread
        /// churn.
        ///
        /// # Errors
        ///
        /// Propagates [`WalkConfig::validate`] errors.
        pub fn run_parallel(&mut self, config: WalkConfig, seed: u64) -> crate::error::Result<()> {
            config.validate()?;
            self.run_parallel_rounds(config.laziness, seed, config.rounds);
            Ok(())
        }

        fn run_parallel_rounds(&mut self, laziness: f64, seed: u64, rounds: usize) {
            if rounds == 0 {
                return;
            }
            let base_round = self.round;
            let graph = self.graph;
            let draw_mode = self.draw_mode;
            let plan = RoundPlan::new(graph, laziness);
            let threads = std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1);
            let chunks: Vec<(usize, &mut [u32])> = self
                .positions
                .chunks_mut(CHUNK_WALKERS)
                .enumerate()
                .collect();
            let threads = threads.min(chunks.len()).max(1);
            let mut per_thread: Vec<Vec<(usize, &mut [u32])>> =
                (0..threads).map(|_| Vec::new()).collect();
            for (index, chunk) in chunks {
                per_thread[index % threads].push((index, chunk));
            }
            std::thread::scope(|scope| {
                for assignment in per_thread {
                    let plan = &plan;
                    scope.spawn(move || {
                        let mut lane = Vec::new();
                        for (chunk_index, chunk) in assignment {
                            for round in base_round..base_round + rounds {
                                let mut rng = chunk_rng(seed, round, chunk_index);
                                match draw_mode {
                                    DrawMode::Compat => {
                                        round::sweep_walker_order(plan, chunk, &mut rng)
                                    }
                                    DrawMode::Fast => round::sweep_walker_order_fast(
                                        plan, chunk, &mut lane, &mut rng,
                                    ),
                                }
                            }
                        }
                    });
                }
            });
            self.round += rounds;
            self.buckets_valid = false;
        }
    }
}

#[cfg(feature = "parallel")]
pub use parallel::CHUNK_WALKERS;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::rng::seeded_rng;

    /// The historical per-walker loop, kept verbatim as a reference.
    fn naive_step<R: Rng + ?Sized>(
        graph: &Graph,
        positions: &mut [NodeId],
        laziness: f64,
        rng: &mut R,
    ) {
        for pos in positions.iter_mut() {
            if laziness > 0.0 && rng.gen::<f64>() < laziness {
                continue;
            }
            let nbrs = graph.neighbors(*pos);
            *pos = nbrs[rng.gen_range(0..nbrs.len())] as usize;
        }
    }

    #[test]
    fn walker_order_matches_naive_loop_exactly() {
        let g = generators::random_regular(200, 6, &mut seeded_rng(1)).unwrap();
        for laziness in [0.0, 0.35] {
            let mut engine = MixingEngine::one_walker_per_node(&g).unwrap();
            let mut engine_rng = seeded_rng(99);
            let mut naive: Vec<NodeId> = g.nodes().collect();
            let mut naive_rng = seeded_rng(99);
            for _ in 0..25 {
                engine.step(laziness, &mut engine_rng);
                naive_step(&g, &mut naive, laziness, &mut naive_rng);
            }
            let widened: Vec<NodeId> = engine.positions().iter().map(|&p| p as NodeId).collect();
            assert_eq!(widened, naive);
        }
    }

    #[test]
    fn fast_mode_is_statistically_sane_and_deterministic() {
        // Fast rounds must be seed-deterministic, stay on the graph, and
        // differ from compat rounds only in realization.
        let g = generators::random_regular(300, 6, &mut seeded_rng(21)).unwrap();
        let run = |mode: crate::round::DrawMode, seed: u64| {
            let mut engine = MixingEngine::one_walker_per_node(&g).unwrap();
            engine.set_draw_mode(mode);
            let mut rng = seeded_rng(seed);
            for round in 0..12 {
                if round % 2 == 0 {
                    engine.step(0.2, &mut rng);
                } else {
                    engine.step_holder(0.2, &mut rng, &mut ());
                }
            }
            engine.positions().to_vec()
        };
        let fast_a = run(crate::round::DrawMode::Fast, 5);
        let fast_b = run(crate::round::DrawMode::Fast, 5);
        assert_eq!(fast_a, fast_b, "fast mode must be seed-deterministic");
        assert_ne!(
            fast_a,
            run(crate::round::DrawMode::Fast, 6),
            "fast mode must depend on the seed"
        );
        assert!(fast_a.iter().all(|&p| (p as usize) < 300));
    }

    #[test]
    fn fast_holder_rounds_conserve_walkers_and_track_positions() {
        let g = generators::random_regular(150, 4, &mut seeded_rng(22)).unwrap();
        let mask: Vec<bool> = (0..150).map(|u| u % 5 != 0).collect();
        let mut engine = MixingEngine::one_walker_per_node(&g).unwrap();
        engine.set_draw_mode(crate::round::DrawMode::Fast);
        let mut rng = seeded_rng(23);
        for round in 0..20 {
            if round % 2 == 0 {
                engine.step_holder(0.2, &mut rng, &mut ());
            } else {
                engine
                    .step_holder_masked(0.2, &mask, &mut rng, &mut ())
                    .unwrap();
            }
        }
        let load = engine.load_vector();
        assert_eq!(load.iter().sum::<usize>(), 150);
        for u in g.nodes() {
            assert_eq!(engine.held_by(u).len(), load[u]);
            for &w in engine.held_by(u) {
                assert_eq!(engine.position(w as usize), u);
            }
        }
    }

    #[test]
    fn holder_order_conserves_walkers_and_tracks_positions() {
        let g = generators::random_regular(120, 4, &mut seeded_rng(2)).unwrap();
        let mut engine = MixingEngine::one_walker_per_node(&g).unwrap();
        let mut rng = seeded_rng(5);
        for _ in 0..30 {
            engine.step_holder(0.2, &mut rng, &mut ());
        }
        assert_eq!(engine.round(), 30);
        // Buckets and positions agree.
        let load = engine.load_vector();
        assert_eq!(load.iter().sum::<usize>(), 120);
        for u in g.nodes() {
            assert_eq!(engine.held_by(u).len(), load[u]);
            for &w in engine.held_by(u) {
                assert_eq!(engine.position(w as usize), u);
            }
        }
    }

    #[test]
    fn holder_order_buckets_keep_survivors_before_arrivals() {
        // With laziness ~1 nothing moves, so buckets must be stable across
        // rounds (survivors keep their relative order).
        let g = generators::complete(10).unwrap();
        let mut engine = MixingEngine::one_walker_per_node(&g).unwrap();
        let mut rng = seeded_rng(3);
        engine.ensure_buckets();
        let before = engine.walkers_by_holder();
        engine.step_holder(0.999_999, &mut rng, &mut ());
        assert_eq!(engine.walkers_by_holder(), before);
    }

    #[test]
    fn observer_sees_conserved_load_and_sent_counts() {
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
        let g = generators::random_regular(80, 4, &mut seeded_rng(4)).unwrap();
        let mut engine = MixingEngine::one_walker_per_node(&g).unwrap();
        let mut rng = seeded_rng(6);
        let mut checker = Checker {
            walkers: 80,
            rounds_seen: 0,
        };
        engine
            .run_holder_observed(WalkConfig::lazy(12, 0.1), &mut rng, &mut checker)
            .unwrap();
        assert_eq!(checker.rounds_seen, 12);
    }

    #[test]
    fn masked_rounds_with_everyone_available_are_bitwise_static() {
        let g = generators::random_regular(150, 6, &mut seeded_rng(9)).unwrap();
        let mask = vec![true; 150];
        for laziness in [0.0, 0.25] {
            let mut plain = MixingEngine::one_walker_per_node(&g).unwrap();
            let mut masked = MixingEngine::one_walker_per_node(&g).unwrap();
            let mut rng_a = seeded_rng(77);
            let mut rng_b = seeded_rng(77);
            for round in 0..20 {
                if round % 2 == 0 {
                    plain.step(laziness, &mut rng_a);
                    masked.step_masked(laziness, &mask, &mut rng_b).unwrap();
                } else {
                    plain.step_holder(laziness, &mut rng_a, &mut ());
                    masked
                        .step_holder_masked(laziness, &mask, &mut rng_b, &mut ())
                        .unwrap();
                }
            }
            assert_eq!(plain.positions(), masked.positions());
            assert_eq!(plain.walkers_by_holder(), masked.walkers_by_holder());
        }
    }

    #[test]
    fn unavailable_recipients_keep_reports_in_place() {
        let g = generators::random_regular(100, 4, &mut seeded_rng(10)).unwrap();
        // Blackout: only node 0..10 available; walkers can never land on an
        // unavailable node, and walkers already there can only leave toward
        // available nodes (or stay).
        let mut mask = vec![false; 100];
        for slot in mask.iter_mut().take(10) {
            *slot = true;
        }
        let mut engine = MixingEngine::one_walker_per_node(&g).unwrap();
        let before = engine.positions().to_vec();
        let mut rng = seeded_rng(11);
        engine.step_masked(0.0, &mask, &mut rng).unwrap();
        for (walker, (&now, &was)) in engine.positions().iter().zip(&before).enumerate() {
            assert!(
                mask[now as usize] || now == was,
                "walker {walker} was delivered to unavailable node {now}"
            );
        }
        // The totally-dark network freezes everyone.
        let dark = vec![false; 100];
        let frozen = engine.positions().to_vec();
        engine
            .step_holder_masked(0.3, &dark, &mut rng, &mut ())
            .unwrap();
        assert_eq!(engine.positions(), frozen.as_slice());
        // The failed sends were not counted as traffic.
        struct NoTraffic;
        impl RoundObserver for NoTraffic {
            fn on_round(&mut self, stats: &RoundStats<'_>) {
                assert_eq!(stats.sent.iter().sum::<u32>(), 0);
            }
        }
        engine
            .step_holder_masked(0.3, &dark, &mut rng, &mut NoTraffic)
            .unwrap();
    }

    #[test]
    fn retarget_switches_topology_between_rounds() {
        let ring = generators::cycle(12).unwrap();
        let full = generators::complete(12).unwrap();
        let mut engine = MixingEngine::one_walker_per_node(&ring).unwrap();
        let mut rng = seeded_rng(12);
        engine.step(0.0, &mut rng);
        // On the ring every walker is adjacent to its origin.
        for (walker, &pos) in engine.positions().iter().enumerate() {
            assert!(ring.neighbors(walker).contains(&pos));
        }
        engine.retarget(&full).unwrap();
        assert_eq!(engine.round(), 1);
        engine.step(0.0, &mut rng);
        assert_eq!(engine.round(), 2);
        assert!(engine.positions().iter().all(|&p| p < 12));
        // Mismatched node counts and isolated nodes are rejected.
        let small = generators::cycle(5).unwrap();
        assert!(engine.retarget(&small).is_err());
        let isolated = Graph::from_edges(12, &[(0, 1)]).unwrap();
        assert!(engine.retarget(&isolated).is_err());
    }

    #[test]
    fn construction_validates_inputs() {
        let empty = Graph::from_edges(0, &[]).unwrap();
        assert!(MixingEngine::one_walker_per_node(&empty).is_err());
        let isolated = Graph::from_edges(3, &[(0, 1)]).unwrap();
        assert!(MixingEngine::one_walker_per_node(&isolated).is_err());
        let g = generators::cycle(4).unwrap();
        assert!(MixingEngine::with_starts(&g, vec![0, 9]).is_err());
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn parallel_rounds_are_deterministic_and_conserve_walkers() {
        let g = generators::random_regular(5_000, 8, &mut seeded_rng(7)).unwrap();
        let run = |seed: u64| {
            let mut engine = MixingEngine::one_walker_per_node(&g).unwrap();
            engine
                .run_parallel(WalkConfig::lazy(10, 0.2), seed)
                .unwrap();
            engine.positions().to_vec()
        };
        let a = run(11);
        let b = run(11);
        let c = run(12);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|&p| p < 5_000));
    }
}
