//! Walker-order exchange rounds over struct-of-arrays state.
//!
//! [`MixingEngine`] moves walkers (reports) between nodes one round at a
//! time in *walker order*: a round sweeps the position array once, moving
//! walker `w` to a uniformly random neighbour of its node or, with
//! probability `laziness`, leaving it in place.  Walkers do not interact
//! within such a round, so it is the cheapest round form — no holder
//! buckets, no per-round statistics — and the one the Monte-Carlo
//! estimators, the walk-level utility experiments and the walker-order
//! goldens use.  With the `parallel` cargo feature,
//! `MixingEngine::run_parallel` executes walker-order rounds across threads
//! in fixed-size chunks with per-chunk deterministic RNG streams (results
//! depend only on the seed, never on the number of threads).
//!
//! Holder-order rounds — users in id order, each user's reports in arrival
//! order, with per-round traffic statistics — run on
//! [`crate::sharded_engine::ShardedMixingEngine`], whose 1-shard form
//! ([`crate::partition::Partition::single_shard`]) is the monolithic
//! protocol round.  Both engines draw through the one kernel in
//! [`crate::round`], so masked and dynamic (retarget) rounds compose the
//! same way in both.

use crate::error::{GraphError, Result};
use crate::graph::{Graph, NodeId};
use crate::round::{self, DrawMode, RoundPlan};
use crate::telemetry::EngineTelemetry;
use crate::walk::WalkConfig;
use rand::Rng;

/// Batched executor of walker-order exchange rounds over struct-of-arrays
/// state.
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
    /// The fast draw mode's RNG lane buffer, reused across rounds (no
    /// steady-state allocation).
    lane: Vec<u64>,
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
        Ok(MixingEngine {
            graph,
            positions: starts.iter().map(|&s| s as u32).collect(),
            draw_mode: DrawMode::Compat,
            round: 0,
            lane: Vec::new(),
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
    /// topology hook of the churn runtime.  Walker positions and the round
    /// counter carry over unchanged; only where walkers can move *next*
    /// changes.  The new graph must have the same node count (users are
    /// stable; churn removes availability, not identity) and no isolated
    /// nodes.
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
    /// ids currently at node `u`, in walker-id order — the multiset `{s_j}ᵢ`
    /// of reports held by each user at the end of the exchange phase
    /// (Figure 2).
    pub fn walkers_by_holder(&self) -> Vec<Vec<usize>> {
        let mut holders = vec![Vec::new(); self.graph.node_count()];
        for (walker, &node) in self.positions.iter().enumerate() {
            holders[node as usize].push(walker);
        }
        holders
    }

    /// Executes one walker-order round: sweep the position array once, moving
    /// every walker to a uniformly random neighbour of its current node
    /// (staying put with probability `laziness`).
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
        let n = self.graph.node_count();
        if available.len() != n {
            return Err(GraphError::InvalidParameters(format!(
                "availability mask has {} entries for {n} nodes",
                available.len()
            )));
        }
        self.step_inner(laziness, Some(available), rng);
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
                DrawMode::Fast => {
                    round::sweep_walker_order_fast(&plan, &mut self.positions, &mut self.lane, rng)
                }
            }
        }
        self.round += 1;
        if let Some(t) = &self.telemetry {
            t.rounds.inc();
        }
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
        let run = |mode: DrawMode, seed: u64| {
            let mut engine = MixingEngine::one_walker_per_node(&g).unwrap();
            engine.set_draw_mode(mode);
            let mut rng = seeded_rng(seed);
            for _ in 0..12 {
                engine.step(0.2, &mut rng);
            }
            engine.positions().to_vec()
        };
        let fast_a = run(DrawMode::Fast, 5);
        let fast_b = run(DrawMode::Fast, 5);
        assert_eq!(fast_a, fast_b, "fast mode must be seed-deterministic");
        assert_ne!(
            fast_a,
            run(DrawMode::Fast, 6),
            "fast mode must depend on the seed"
        );
        assert!(fast_a.iter().all(|&p| (p as usize) < 300));
    }

    #[test]
    fn load_vector_and_holders_count_every_walker_exactly_once() {
        let g = generators::complete(8).unwrap();
        let mut engine = MixingEngine::one_walker_per_node(&g).unwrap();
        assert!((0..8).all(|w| engine.position(w) == w));
        let mut rng = seeded_rng(3);
        engine.run(WalkConfig::simple(10), &mut rng).unwrap();
        assert_eq!(engine.round(), 10);
        let load = engine.load_vector();
        assert_eq!(load.iter().sum::<usize>(), 8);
        for (u, held) in engine.walkers_by_holder().iter().enumerate() {
            assert_eq!(held.len(), load[u]);
            assert!(held.iter().all(|&w| engine.position(w) == u));
        }
    }

    #[test]
    fn empirical_distribution_matches_uniform_limit_on_complete_graph() {
        let g = generators::complete(10).unwrap();
        let mut rng = seeded_rng(4);
        let mut counts = vec![0usize; 10];
        // Many independent walks of walker 0; final position should be ~uniform.
        for _ in 0..3_000 {
            let mut engine = MixingEngine::with_starts(&g, vec![0]).unwrap();
            engine.run(WalkConfig::simple(6), &mut rng).unwrap();
            counts[engine.position(0)] += 1;
        }
        for &c in &counts {
            let freq = c as f64 / 3_000.0;
            assert!((freq - 0.1).abs() < 0.03, "frequency {freq} far from 0.1");
        }
    }

    #[test]
    fn masked_rounds_with_everyone_available_are_bitwise_static() {
        let g = generators::random_regular(150, 6, &mut seeded_rng(9)).unwrap();
        let mask = vec![true; 150];
        for laziness in [0.0, 0.25] {
            for mode in [DrawMode::Compat, DrawMode::Fast] {
                let mut plain = MixingEngine::one_walker_per_node(&g).unwrap();
                let mut masked = MixingEngine::one_walker_per_node(&g).unwrap();
                plain.set_draw_mode(mode);
                masked.set_draw_mode(mode);
                let mut rng_a = seeded_rng(77);
                let mut rng_b = seeded_rng(77);
                for _ in 0..20 {
                    plain.step(laziness, &mut rng_a);
                    masked.step_masked(laziness, &mask, &mut rng_b).unwrap();
                }
                assert_eq!(plain.positions(), masked.positions());
            }
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
        engine.step_masked(0.3, &dark, &mut rng).unwrap();
        assert_eq!(engine.positions(), frozen.as_slice());
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
