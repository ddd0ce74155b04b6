//! The round-execution kernel: the holder-order decide/merge pair behind
//! [`crate::sharded_engine::ShardedMixingEngine`] and the walker-order
//! sweeps behind [`crate::mixing_engine::MixingEngine`].
//!
//! A holder-order round (Algorithms 1–2 of the paper: users in id order,
//! each user's reports in arrival order, every report forwarded to a
//! uniformly random neighbour) runs in two phases over one
//! [`HolderBuckets`] CSR keyed by global node id:
//!
//! * [`decide_holder_moves`] / [`decide_holder_moves_fast`] — the **decide
//!   phase**: sweep one shard's holders in ascending id order (run by run
//!   of consecutive ids, [`crate::partition::Shard::runs`]), each holder's
//!   bucket in order, drawing every walker's move from the shard's stream
//!   through the one sampling rule of the draw mode.  Survivors (lazy
//!   stays *and* masked bounces) and deliveries (in send order) go to the
//!   shard's [`RoundArena`].  Shards only read the shared buckets and
//!   write their own arena and stream, so they may run in any order.
//! * [`HolderBuckets::merge`] — the **merge phase**: one counting sort over
//!   every node that rebuilds the buckets from every shard's survivors
//!   (first, in previous bucket order) and then every shard's deliveries
//!   in ascending shard id, each in send order.  That canonical order is a
//!   fixed function of the per-shard draws, so a round does not depend on
//!   the order shards were sampled in; under one shard it is the
//!   historical message-passing loop (survivors first, then arrivals in
//!   global send order).  The merge also yields the round's statistics:
//!   `load[u]` is `u`'s new bucket length, and `sent[u]` is what `u` held
//!   at the round's start minus its survivors.
//!
//! [`sweep_walker_order`] is the degenerate walker-order form (no buckets,
//! no statistics) behind `MixingEngine::step` / `step_masked`.
//!
//! # The `RoundPlan` contract
//!
//! A plan is a *view*: the topology may be a static CSR [`Graph`] or a
//! [`crate::dynamic::DynamicGraph`] snapshot (engines re-read their graph
//! every round, so `retarget` composes with every plan).  The mask, when
//! present, must cover every node of that topology.  The kernel
//! guarantees:
//!
//! * **One sampling rule per draw mode.**  In [`DrawMode::Compat`] every
//!   walker consumes the stream identically — one lazy `f64` (only when
//!   `laziness > 0`), then one uniform neighbour index — regardless of
//!   masking or sharding, bit-for-bit the historical loops.  In
//!   [`DrawMode::Fast`] every walker consumes exactly **one `u64`** pulled
//!   through the RNG's bulk lane-buffer path ([`rand::RngCore::fill_u64`],
//!   whole ChaCha8 blocks): the low 32 bits decide laziness by integer
//!   threshold, the high 32 bits pick the neighbour by the multiply-shift
//!   reduction `(hi * deg) >> 32` — no division, no rejection loop, and
//!   the same consumption masked or unmasked.  The two modes sample the
//!   same walk distribution (neighbour bias ≤ `deg / 2^32`) but different
//!   realizations; each has its own golden traces.  A plan with
//!   `available: None` is bit-for-bit a plan with an all-available mask in
//!   both modes.
//! * **Exact compositions.**  Masked × static, masked × dynamic
//!   (retarget) and masked × sharded rounds are all executions of this one
//!   routine, so their degeneracies are exact: all-available masks
//!   reproduce the unmasked round bitwise (RNG stream included), and a
//!   1-shard round is the historical holder-order loop bitwise.
//!   Multi-shard rounds split the RNG into per-shard streams, so *across*
//!   shard counts the walk is statistically equivalent, never bitwise —
//!   the one composition that is statistical rather than exact.
//! * **Conservation.**  In debug builds the merge asserts that the
//!   counting-sort cursors land exactly on their bucket boundaries, and
//!   the engine asserts after the merge that survivors + arrivals (bounced
//!   walkers are survivors) equal its walker count.
//! * **No steady-state allocation.**  The decide scratch lives in each
//!   shard's [`RoundArena`] and the counting-sort scratch in the
//!   [`HolderBuckets`]; both are reused, so after warm-up rounds allocate
//!   nothing (audited by `tests/engine_allocations.rs`).

use crate::graph::{Graph, NodeId};
use rand::Rng;
use std::ops::Range;

/// How a round draws randomness for each walker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DrawMode {
    /// The historical draw-for-draw stream: one `f64` for the lazy decision
    /// (only when `laziness > 0`), then one rejection-sampled uniform index.
    /// Bitwise identical to the pre-refactor engines; gated by the
    /// `golden_round_traces` suite.
    #[default]
    Compat,
    /// The lane-buffered stream: exactly one `u64` per walker, filled in
    /// whole ChaCha8 blocks, decided branchlessly.  Statistically
    /// equivalent to `Compat`, bitwise gated by its own golden traces.
    Fast,
}

/// Walkers per lane-buffer refill in [`DrawMode::Fast`] — 32 KiB of draws,
/// small enough to stay L1-resident while the decide loop consumes it.
const LANE_CHUNK: usize = 1 << 12;

/// The lazy-stay threshold of the fast draw: a walker stays when the low
/// 32 bits of its draw fall below `floor(laziness * 2^32)`.
#[inline]
fn lazy_threshold(laziness: f64) -> u64 {
    (laziness.clamp(0.0, 1.0) * 4_294_967_296.0) as u64
}

/// Software-prefetches the cache line holding `data[idx]` (no-op off
/// x86_64, and for out-of-range `idx`).  The round kernel's gathers are
/// data-dependent random accesses over arrays far larger than cache at the
/// scales that matter, so issuing the loads a few iterations ahead hides
/// most of the DRAM latency the sweep otherwise stalls on.
#[inline(always)]
#[allow(unsafe_code)]
pub(crate) fn prefetch_read<T>(data: &[T], idx: usize) {
    #[cfg(target_arch = "x86_64")]
    if idx < data.len() {
        // Safety: the index is bounds-checked above, and prefetch has no
        // architectural effect — it only warms the cache.
        unsafe {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            _mm_prefetch(data.as_ptr().add(idx) as *const i8, _MM_HINT_T0);
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (data, idx);
    }
}

/// Samples one walker's move at node `at`: `None` to stay (lazy draw), else
/// the uniformly chosen neighbour.
///
/// This is the single definition of the per-walker sampling rule.  Every
/// round form (walker order, holder order, sharded) draws through it, in
/// the same order — one `f64` for the lazy decision (only when
/// `laziness > 0`), then one uniform index — which is what keeps the
/// draw-for-draw parity contract with the historical loops in one place.
#[inline]
pub(crate) fn sample_move<R: Rng + ?Sized>(
    graph: &Graph,
    at: NodeId,
    laziness: f64,
    rng: &mut R,
) -> Option<NodeId> {
    if laziness > 0.0 && rng.gen::<f64>() < laziness {
        return None;
    }
    let nbrs = graph.neighbors(at);
    debug_assert!(
        !nbrs.is_empty(),
        "isolated nodes are rejected at construction"
    );
    Some(nbrs[rng.gen_range(0..nbrs.len())] as NodeId)
}

/// [`sample_move`] under an optional availability mask: the draw sequence
/// is identical (one lazy `f64`, then one uniform index), but a chosen
/// recipient that is unavailable turns the move into a stay — the report
/// could not be delivered this round.  With `None` (or an all-available
/// mask) this is exactly [`sample_move`], so masked rounds degenerate to
/// the static forms bit for bit, RNG stream included.
#[inline]
pub(crate) fn sample_move_masked<R: Rng + ?Sized>(
    graph: &Graph,
    at: NodeId,
    laziness: f64,
    available: Option<&[bool]>,
    rng: &mut R,
) -> Option<NodeId> {
    let dest = sample_move(graph, at, laziness, rng)?;
    match available {
        Some(mask) if !mask[dest] => None,
        _ => Some(dest),
    }
}

/// One round's execution inputs: the topology view, the walk's laziness and
/// an optional availability mask.  See the [module docs](self) for the
/// contract.
#[derive(Debug, Clone, Copy)]
pub struct RoundPlan<'a> {
    /// The topology walkers move on this round — a static CSR or a
    /// [`crate::dynamic::DynamicGraph`] snapshot.
    pub graph: &'a Graph,
    /// Per-round stay probability of the lazy walk.
    pub laziness: f64,
    /// Availability mask (`available[u]` = can node `u` receive this
    /// round?); `None` is bit-for-bit an all-available mask.
    pub available: Option<&'a [bool]>,
}

impl<'a> RoundPlan<'a> {
    /// The fully-available plan.
    pub fn new(graph: &'a Graph, laziness: f64) -> Self {
        RoundPlan {
            graph,
            laziness,
            available: None,
        }
    }
}

/// Decide-phase scratch of one holder range — one per shard.  Buffers grow
/// to their steady-state capacity during the first rounds and are only
/// ever cleared afterwards, so warm rounds perform no heap allocation.
#[derive(Debug, Clone, Default)]
pub struct RoundArena {
    /// Survivors of the decide phase: holder node of each kept walker,
    /// grouped by holder in ascending sweep order.
    pub(crate) kept_nodes: Vec<u32>,
    /// Walker ids parallel to `kept_nodes`.
    pub(crate) kept_walkers: Vec<u32>,
    /// This round's deliveries in send order: destination node
    /// (u32-compressed) of each delivered walker.
    pub(crate) deliver_dests: Vec<u32>,
    /// Walker ids parallel to `deliver_dests`.
    pub(crate) deliver_walkers: Vec<u32>,
    /// Lane buffer of bulk RNG draws ([`DrawMode::Fast`]), refilled in
    /// `LANE_CHUNK`-sized blocks.
    pub(crate) lane: Vec<u64>,
    /// Mask bounces of the last decide phase: walkers whose drawn move
    /// chose an unavailable recipient and therefore stayed.  A lazy stay
    /// is not a bounce (no delivery was attempted); under `None` or an
    /// all-available mask this is always 0.
    pub(crate) bounced: u64,
}

impl RoundArena {
    /// A fresh, empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// The decide phase's deliveries in send order, as parallel
    /// `(destinations, walkers)` slices — valid until the next decide.
    pub fn deliveries(&self) -> (&[u32], &[u32]) {
        (&self.deliver_dests, &self.deliver_walkers)
    }

    /// Mask bounces of the last decide phase (0 when unmasked) — the
    /// telemetry layer's mask-bounce count, derived from accounting the
    /// kernel already performs, never from extra draws.
    pub fn bounced(&self) -> u64 {
        self.bounced
    }
}

/// The holder buckets of a whole population: a CSR over global node ids in
/// which the walkers held by node `u` are `walkers[starts[u]..starts[u +
/// 1]]`, in bucket order, the per-node statistics of the last merge, and
/// the merge's counting-sort scratch.
#[derive(Debug, Clone, Default)]
pub struct HolderBuckets {
    /// CSR offsets, one entry per node plus the terminator.
    starts: Vec<usize>,
    /// Walker ids, bucketed by node.
    walkers: Vec<u32>,
    /// `sent[u]`: walkers `u` held before the last merge minus its
    /// survivors (all zeros before the first merge).
    sent: Vec<u32>,
    /// `load[u]`: the length of `u`'s bucket.
    load: Vec<u32>,
    /// Next-round walker array under construction (swapped in at the end
    /// of the merge).
    next: Vec<u32>,
    /// Per-node scatter cursors of the counting sort.
    cursor: Vec<usize>,
}

impl HolderBuckets {
    /// Buckets over `node_count` nodes with walker `w` held by
    /// `positions[w]`, each bucket in walker-id order.
    ///
    /// # Panics
    ///
    /// Panics if a position is `>= node_count`.
    pub fn from_positions(node_count: usize, positions: &[u32]) -> Self {
        let mut load = vec![0u32; node_count];
        for &p in positions {
            load[p as usize] += 1;
        }
        let mut starts = Vec::with_capacity(node_count + 1);
        let mut end = 0;
        starts.push(end);
        for &l in &load {
            end += l as usize;
            starts.push(end);
        }
        let mut cursor = starts[..node_count].to_vec();
        let mut walkers = vec![0u32; positions.len()];
        for (w, &p) in positions.iter().enumerate() {
            walkers[cursor[p as usize]] = w as u32;
            cursor[p as usize] += 1;
        }
        HolderBuckets {
            starts,
            walkers,
            sent: vec![0; node_count],
            load,
            next: Vec::new(),
            cursor,
        }
    }

    /// Buckets from raw CSR parts, which the caller has validated.
    pub(crate) fn from_csr(starts: Vec<usize>, walkers: Vec<u32>) -> Self {
        debug_assert_eq!(starts.last(), Some(&walkers.len()));
        let load: Vec<u32> = starts.windows(2).map(|w| (w[1] - w[0]) as u32).collect();
        HolderBuckets {
            starts,
            walkers,
            sent: vec![0; load.len()],
            load,
            next: Vec::new(),
            cursor: Vec::new(),
        }
    }

    /// The walkers held by node `u`, in bucket order.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn held_by(&self, u: NodeId) -> &[u32] {
        &self.walkers[self.starts[u]..self.starts[u + 1]]
    }

    /// The walkers held by the nodes of `run`, node by node, each bucket
    /// in order — one contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `run` reaches past the last node.
    #[inline]
    pub fn held_in(&self, run: &Range<NodeId>) -> &[u32] {
        &self.walkers[self.starts[run.start]..self.starts[run.end]]
    }

    /// Per-node sends of the last merge: the walkers each node held before
    /// it minus its survivors (all zeros before the first merge).
    pub fn sent(&self) -> &[u32] {
        &self.sent
    }

    /// Per-node bucket lengths: the walkers each node holds.
    pub fn load(&self) -> &[u32] {
        &self.load
    }

    /// The merge phase of one holder-order round: a counting sort that
    /// rebuilds the buckets from every arena's survivors and then every
    /// arena's deliveries, and updates [`HolderBuckets::sent`] and
    /// [`HolderBuckets::load`].
    ///
    /// `arenas` yields the decide arenas in ascending shard id.  Each
    /// node's next bucket lists its survivors first (all from its own
    /// shard, grouped by node in sweep order — a decide-phase invariant),
    /// then its arrivals grouped by source arena in iteration order, each
    /// group in that arena's send order.  A bounce is a survivor, not a
    /// send.
    pub fn merge<'a>(&mut self, arenas: impl Iterator<Item = &'a RoundArena> + Clone) {
        let n = self.starts.len() - 1;
        // What each node held becomes its sends once its survivors are
        // taken off; its new load counts survivors, then arrivals.
        std::mem::swap(&mut self.sent, &mut self.load);
        let HolderBuckets {
            starts,
            walkers,
            sent,
            load,
            next,
            cursor,
        } = self;
        load.fill(0);
        for arena in arenas.clone() {
            for &u in &arena.kept_nodes {
                load[u as usize] += 1;
                sent[u as usize] -= 1;
            }
        }
        for arena in arenas.clone() {
            for &d in &arena.deliver_dests {
                load[d as usize] += 1;
            }
        }
        // Lay out the new buckets, each scatter cursor at its bucket's
        // start.
        cursor.resize(n, 0);
        for (u, (&l, c)) in load.iter().zip(cursor.iter_mut()).enumerate() {
            *c = starts[u];
            starts[u + 1] = starts[u] + l as usize;
        }
        // Scatter: every survivor, then every arena's deliveries in turn.
        next.resize(starts[n], 0);
        for arena in arenas.clone() {
            for (&u, &w) in arena.kept_nodes.iter().zip(&arena.kept_walkers) {
                next[cursor[u as usize]] = w;
                cursor[u as usize] += 1;
            }
        }
        for arena in arenas {
            for (&d, &w) in arena.deliver_dests.iter().zip(&arena.deliver_walkers) {
                next[cursor[d as usize]] = w;
                cursor[d as usize] += 1;
            }
        }
        debug_assert!(
            cursor.iter().zip(&starts[1..]).all(|(c, s)| c == s),
            "round conservation violated: a counting-sort cursor missed its bucket boundary"
        );
        std::mem::swap(walkers, next);
    }
}

/// The decide phase of one holder-order round over one holder range, in
/// [`DrawMode::Compat`].
///
/// `holders` lists the range's nodes as ascending runs of consecutive ids,
/// swept in that order.  Each holder's bucket is visited in order and
/// every walker draws one move from `rng` through the plan's sampling rule.
/// Survivors — lazy stays *and* masked bounces — are appended to `arena`,
/// and every delivery is appended to the arena's delivery buffers (see
/// [`RoundArena::deliveries`]) in send order.
pub fn decide_holder_moves<R: Rng + ?Sized>(
    plan: &RoundPlan<'_>,
    holders: &[Range<NodeId>],
    buckets: &HolderBuckets,
    arena: &mut RoundArena,
    rng: &mut R,
) {
    arena.kept_nodes.clear();
    arena.kept_walkers.clear();
    arena.deliver_dests.clear();
    arena.deliver_walkers.clear();
    arena.bounced = 0;
    for run in holders {
        for u in run.clone() {
            for &w in buckets.held_by(u) {
                // Same draw sequence as `sample_move_masked`; unrolled so a
                // bounce (move drawn, recipient dark) is distinguishable
                // from a lazy stay (no move drawn) for the bounce count.
                match sample_move(plan.graph, u, plan.laziness, rng) {
                    Some(dest) if plan.available.is_none_or(|mask| mask[dest]) => {
                        arena.deliver_dests.push(dest as u32);
                        arena.deliver_walkers.push(w);
                    }
                    stay => {
                        arena.bounced += stay.is_some() as u64;
                        arena.kept_nodes.push(u as u32);
                        arena.kept_walkers.push(w);
                    }
                }
            }
        }
    }
}

/// The decide phase in [`DrawMode::Fast`]: lane-buffered draws, branchless
/// select.
///
/// The sweep order and the survivor/delivery grouping are identical to
/// [`decide_holder_moves`]; only the per-walker draw differs.  Each walker
/// consumes one `u64` from the lane buffer (refilled from `rng` in whole
/// ChaCha8 blocks, `LANE_CHUNK` draws at a time): laziness is an integer
/// compare on the low 32 bits, the neighbour is the multiply-shift
/// reduction of the high 32 bits over the holder's degree, and the
/// stay/deliver choice is an arithmetic select — both outcome slots are
/// written unconditionally and the matching cursor advances by the flag, so
/// the loop carries no data-dependent branch.  Total stream consumption is
/// the number of walkers the swept holders hold, masked or not — counted
/// run by run before the sweep, so the lane never draws past the last one.
pub fn decide_holder_moves_fast<R: Rng + ?Sized>(
    plan: &RoundPlan<'_>,
    holders: &[Range<NodeId>],
    buckets: &HolderBuckets,
    arena: &mut RoundArena,
    rng: &mut R,
) {
    let total: usize = holders.iter().map(|run| buckets.held_in(run).len()).sum();
    arena.kept_nodes.resize(total, 0);
    arena.kept_walkers.resize(total, 0);
    arena.deliver_dests.resize(total, 0);
    arena.deliver_walkers.resize(total, 0);
    if arena.lane.len() < LANE_CHUNK.min(total) {
        arena.lane.resize(LANE_CHUNK.min(total), 0);
    }
    let (offsets, neighbors) = plan.graph.csr_parts();
    let threshold = lazy_threshold(plan.laziness);
    let mut kept_len = 0usize;
    let mut sent_len = 0usize;
    let mut drawn = 0usize;
    let mut lane_pos = 0usize;
    let mut lane_len = 0usize;
    let mut bounced = 0u64;
    for run in holders {
        for u in run.clone() {
            let row = &neighbors[offsets[u]..offsets[u + 1]];
            let deg = row.len() as u64;
            debug_assert!(deg > 0, "isolated nodes are rejected at construction");
            for &w in buckets.held_by(u) {
                if lane_pos == lane_len {
                    lane_len = LANE_CHUNK.min(total - drawn);
                    rng.fill_u64(&mut arena.lane[..lane_len]);
                    drawn += lane_len;
                    lane_pos = 0;
                }
                let r = arena.lane[lane_pos];
                lane_pos += 1;
                let dest = row[(((r >> 32) * deg) >> 32) as usize];
                let lazy = (r as u32 as u64) < threshold;
                let dark = plan.available.is_some_and(|mask| !mask[dest as usize]);
                let stay = lazy | dark;
                bounced += (!lazy & dark) as u64;
                arena.kept_nodes[kept_len] = u as u32;
                arena.kept_walkers[kept_len] = w;
                kept_len += stay as usize;
                arena.deliver_dests[sent_len] = dest;
                arena.deliver_walkers[sent_len] = w;
                sent_len += !stay as usize;
            }
        }
    }
    debug_assert_eq!(
        kept_len + sent_len,
        total,
        "round conservation violated: every walker must survive or be delivered"
    );
    arena.kept_nodes.truncate(kept_len);
    arena.kept_walkers.truncate(kept_len);
    arena.deliver_dests.truncate(sent_len);
    arena.deliver_walkers.truncate(sent_len);
    arena.bounced = bounced;
}

/// The walker-order round in [`DrawMode::Compat`]: sweep `positions` once,
/// moving every walker through the plan's sampling rule (an unavailable
/// chosen recipient means the walker stays).  No buckets, no statistics —
/// the cheapest round form.
pub fn sweep_walker_order<R: Rng + ?Sized>(
    plan: &RoundPlan<'_>,
    positions: &mut [u32],
    rng: &mut R,
) {
    for pos in positions.iter_mut() {
        if let Some(dest) = sample_move_masked(
            plan.graph,
            *pos as NodeId,
            plan.laziness,
            plan.available,
            rng,
        ) {
            *pos = dest as u32;
        }
    }
}

/// How many iterations ahead the fast sweep prefetches the CSR offset pair
/// of an upcoming position (stage 1 of the software pipeline).
const PF_FAR: usize = 16;
/// How many iterations ahead the fast sweep prefetches the neighbour row an
/// upcoming position gathers from (stage 2 — its offset was prefetched
/// `PF_FAR`` - ``PF_NEAR` iterations earlier, so reading it here is a
/// likely hit).
const PF_NEAR: usize = 8;

/// The walker-order round in [`DrawMode::Fast`]: lane-buffered draws and a
/// two-stage software-prefetched CSR gather.
///
/// Positions are swept in `LANE_CHUNK`-sized chunks; each chunk's draws
/// are filled into `lane` in whole ChaCha8 blocks, then consumed by a loop
/// that prefetches the offset pair of the position `PF_FAR` iterations
/// ahead and the neighbour row of the position `PF_NEAR` iterations ahead
/// — the two dependent random loads of the gather, each issued early enough
/// to overlap DRAM latency with useful work.  Per-walker consumption is one
/// `u64`, identical to the fast holder decide.
pub fn sweep_walker_order_fast<R: Rng + ?Sized>(
    plan: &RoundPlan<'_>,
    positions: &mut [u32],
    lane: &mut Vec<u64>,
    rng: &mut R,
) {
    let total = positions.len();
    if lane.len() < LANE_CHUNK.min(total) {
        lane.resize(LANE_CHUNK.min(total), 0);
    }
    let (offsets, neighbors) = plan.graph.csr_parts();
    let threshold = lazy_threshold(plan.laziness);
    let mut done = 0usize;
    while done < total {
        let chunk_len = LANE_CHUNK.min(total - done);
        rng.fill_u64(&mut lane[..chunk_len]);
        let chunk = &mut positions[done..done + chunk_len];
        for i in 0..chunk_len {
            if i + PF_FAR < chunk_len {
                prefetch_read(offsets, chunk[i + PF_FAR] as usize);
            }
            if i + PF_NEAR < chunk_len {
                prefetch_read(neighbors, offsets[chunk[i + PF_NEAR] as usize]);
            }
            let pos = chunk[i] as usize;
            let r = lane[i];
            let off = offsets[pos];
            let deg = (offsets[pos + 1] - off) as u64;
            let dest = neighbors[off + (((r >> 32) * deg) >> 32) as usize];
            let stay = ((r as u32 as u64) < threshold)
                | plan.available.is_some_and(|mask| !mask[dest as usize]);
            chunk[i] = if stay { chunk[i] } else { dest };
        }
        done += chunk_len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::rng::seeded_rng;

    #[test]
    fn decide_and_merge_compose_into_one_round() {
        // A hand-driven single-range round: decide, apply the deliveries,
        // merge, and check buckets and statistics against a naive
        // re-derivation.
        let g = generators::random_regular(24, 4, &mut seeded_rng(1)).unwrap();
        let n = g.node_count();
        let plan = RoundPlan::new(&g, 0.2);
        let mut arena = RoundArena::new();
        let everyone = 0..n;
        let holders = std::slice::from_ref(&everyone);
        let mut positions: Vec<u32> = (0..n as u32).collect();
        let mut buckets = HolderBuckets::from_positions(n, &positions);
        let mut rng = seeded_rng(2);
        decide_holder_moves(&plan, holders, &buckets, &mut arena, &mut rng);
        let (dests, walkers) = arena.deliveries();
        for (&d, &w) in dests.iter().zip(walkers) {
            positions[w as usize] = d;
        }
        assert_eq!(arena.kept_nodes.len() + dests.len(), n);
        let mut expect_sent = vec![0u32; n];
        for &w in walkers {
            expect_sent[w as usize] += 1;
        }
        buckets.merge(std::iter::once(&arena));
        assert_eq!(
            buckets.sent(),
            expect_sent,
            "one walker per node: sent[u] = did u's walker move"
        );
        assert_eq!(buckets.load().iter().map(|&l| l as usize).sum::<usize>(), n);
        for (u, &l) in buckets.load().iter().enumerate() {
            assert_eq!(buckets.held_by(u).len(), l as usize);
            for &w in buckets.held_by(u) {
                assert_eq!(positions[w as usize] as usize, u);
            }
        }
    }

    #[test]
    fn all_available_mask_is_bitwise_the_unmasked_plan() {
        let g = generators::random_regular(40, 4, &mut seeded_rng(3)).unwrap();
        let mask = vec![true; 40];
        let masked = RoundPlan {
            available: Some(&mask),
            ..RoundPlan::new(&g, 0.3)
        };
        let mut a: Vec<u32> = (0..40).collect();
        let mut b = a.clone();
        let mut rng_a = seeded_rng(4);
        let mut rng_b = seeded_rng(4);
        for _ in 0..10 {
            sweep_walker_order(&RoundPlan::new(&g, 0.3), &mut a, &mut rng_a);
            sweep_walker_order(&masked, &mut b, &mut rng_b);
        }
        assert_eq!(a, b);
        use rand::Rng;
        assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>());
    }

    #[test]
    fn fast_mode_masked_degeneracy_and_consumption_match_unmasked() {
        // All-available mask ≡ unmasked, bitwise, in fast mode too — and
        // both consume exactly one u64 per walker per round.
        let g = generators::random_regular(48, 4, &mut seeded_rng(5)).unwrap();
        let mask = vec![true; 48];
        let masked = RoundPlan {
            available: Some(&mask),
            ..RoundPlan::new(&g, 0.3)
        };
        let mut a: Vec<u32> = (0..48).collect();
        let mut b = a.clone();
        let mut rng_a = seeded_rng(6);
        let mut rng_b = seeded_rng(6);
        let mut reference = seeded_rng(6);
        let mut lane_a = Vec::new();
        let mut lane_b = Vec::new();
        for _ in 0..8 {
            sweep_walker_order_fast(&RoundPlan::new(&g, 0.3), &mut a, &mut lane_a, &mut rng_a);
            sweep_walker_order_fast(&masked, &mut b, &mut lane_b, &mut rng_b);
        }
        assert_eq!(a, b);
        use rand::Rng;
        for _ in 0..8 * 48 {
            reference.gen::<u64>();
        }
        let expect = reference.gen::<u64>();
        assert_eq!(rng_a.gen::<u64>(), expect, "fast sweep over/under-consumed");
        assert_eq!(rng_b.gen::<u64>(), expect, "masked fast sweep diverged");
    }

    #[test]
    fn fast_decide_agrees_with_fast_sweep_on_destinations() {
        // Holder-order fast decide and walker-order fast sweep share the
        // per-walker draw rule; with one walker per node and the holder
        // sweep visiting walkers in node order, round 1 must move walker w
        // to the same destination the sweep computes from the same stream.
        let g = generators::random_regular(32, 4, &mut seeded_rng(7)).unwrap();
        let n = g.node_count();
        let plan = RoundPlan::new(&g, 0.25);
        let mut arena = RoundArena::new();
        let everyone = 0..n;
        let holders = std::slice::from_ref(&everyone);
        let mut positions: Vec<u32> = (0..n as u32).collect();
        let buckets = HolderBuckets::from_positions(n, &positions);
        let mut rng = seeded_rng(8);
        decide_holder_moves_fast(&plan, holders, &buckets, &mut arena, &mut rng);
        let mut lane = Vec::new();
        let mut sweep_rng = seeded_rng(8);
        sweep_walker_order_fast(&plan, &mut positions, &mut lane, &mut sweep_rng);
        let (dests, walkers) = arena.deliveries();
        assert_eq!(
            dests.len() + arena.kept_nodes.len(),
            n,
            "every walker survives or is delivered"
        );
        for (&d, &w) in dests.iter().zip(walkers) {
            assert_eq!(positions[w as usize], d);
        }
        for (&u, &w) in arena.kept_nodes.iter().zip(&arena.kept_walkers) {
            assert_eq!(positions[w as usize], u, "survivor moved");
        }
    }
}
