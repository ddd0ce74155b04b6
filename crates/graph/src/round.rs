//! The round-execution kernel: the holder-order decide/merge pair behind
//! [`crate::sharded_engine::ShardedMixingEngine`], the one engine.
//!
//! A holder-order round (Algorithms 1–2 of the paper: users in id order,
//! each user's reports in arrival order, every report forwarded to a
//! uniformly random neighbour) runs in two phases over one
//! `HolderBuckets` CSR keyed by global node id:
//!
//! * `RoundArena::decide_compat` / `RoundArena::decide_fast` — the
//!   **decide phase**: one sweep of every holder in ascending global id,
//!   each holder's bucket in order (the engine hands the kernel one range
//!   of holders at a time: the whole id space under one shard, else one
//!   node).  Every walker draws its move from its holder's shard's stream
//!   through the one sampling rule of the draw mode, and lands in that
//!   shard's `RoundArena`: survivors (lazy stays *and* masked bounces) and
//!   deliveries (in send order).  An arena keeps its draw cursor from one
//!   range of its shard's holders to the next (`RoundArena::open` and
//!   `close` bracket the phase), so each shard's draws, arena contents and
//!   stream consumption are exactly those of a sweep over that shard's
//!   holders alone.
//! * `HolderBuckets::merge` — the **merge phase**: one counting sort over
//!   every node that rebuilds the buckets from every shard's survivors
//!   (first, in previous bucket order) and then every shard's deliveries
//!   in ascending shard id, each in send order.  That canonical order is a
//!   fixed function of the per-shard draws; under one shard it is the
//!   historical message-passing loop (survivors first, then arrivals in
//!   global send order).  The merge also yields the round's statistics:
//!   `load[u]` is `u`'s new bucket length, and `sent[u]` is what `u` held
//!   at the round's start minus its survivors.
//!
//! These items are crate-private: the engine's `step` checks the laziness
//! and the mask length before it builds a plan, so the kernel's unchecked
//! mask and bucket indexing is reachable only through that validated path.
//! [`DrawMode`] is the kernel's one public item.
//!
//! # The `RoundPlan` contract
//!
//! A plan is a *view*: the topology may be a static CSR [`Graph`] or a
//! [`crate::dynamic::DynamicGraph`] snapshot (the engine re-reads its graph
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
//!   shard's `RoundArena` and the counting-sort scratch in the
//!   `HolderBuckets`; both are reused, so after warm-up rounds allocate
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
/// x86_64, and for out-of-range `idx`).  The engine's exchange phase writes
/// positions at data-dependent random indices, over an array far larger
/// than cache at the scales that matter, so issuing the loads a few
/// iterations ahead hides most of the DRAM latency it otherwise stalls on.
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
/// This is the single definition of the per-walker sampling rule of
/// [`DrawMode::Compat`]: one `f64` for the lazy decision (only when
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

/// One round's execution inputs: the topology view, the walk's laziness and
/// an optional availability mask.  See the [module docs](self) for the
/// contract.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RoundPlan<'a> {
    /// The topology walkers move on this round — a static CSR or a
    /// [`crate::dynamic::DynamicGraph`] snapshot.
    pub graph: &'a Graph,
    /// Per-round stay probability of the lazy walk.
    pub laziness: f64,
    /// Availability mask (`available[u]` = can node `u` receive this
    /// round?); `None` is bit-for-bit an all-available mask.
    pub available: Option<&'a [bool]>,
}

/// Decide-phase scratch of one shard.  Buffers grow
/// to their steady-state capacity during the first rounds and are only
/// ever cleared afterwards, so warm rounds perform no heap allocation.
#[derive(Debug, Clone, Default)]
pub(crate) struct RoundArena {
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
    /// Where the decide phase in progress stands between its runs.
    cursor: DrawCursor,
}

/// The position of a decide phase between two of its runs: the fast draw's
/// lane and stream cursors and the two outcome cursors.  Compat draws use
/// none of it.
#[derive(Debug, Clone, Copy, Default)]
struct DrawCursor {
    /// Walkers the phase decides: the lane never draws past them.
    total: usize,
    /// Values drawn from the stream into the lane so far.
    drawn: usize,
    /// Next unread lane slot, and the slots the last refill filled.
    lane_pos: usize,
    lane_len: usize,
    /// Survivors and deliveries written so far.
    kept: usize,
    sent: usize,
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
pub(crate) struct HolderBuckets {
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

impl RoundArena {
    /// Opens the decide phase of one round over a shard that holds `total`
    /// walkers: empties the survivor and delivery buffers and resets the
    /// bounce count and the draw cursor.  In [`DrawMode::Fast`] the buffers
    /// are sized to `total` (each walker is written to both outcome slots)
    /// and the lane draws exactly `total` values over the phase; compat
    /// draws ignore `total`.
    pub(crate) fn open(&mut self, mode: DrawMode, total: usize) {
        self.bounced = 0;
        self.cursor = DrawCursor {
            total,
            ..DrawCursor::default()
        };
        match mode {
            DrawMode::Compat => {
                self.kept_nodes.clear();
                self.kept_walkers.clear();
                self.deliver_dests.clear();
                self.deliver_walkers.clear();
            }
            DrawMode::Fast => {
                self.kept_nodes.resize(total, 0);
                self.kept_walkers.resize(total, 0);
                self.deliver_dests.resize(total, 0);
                self.deliver_walkers.resize(total, 0);
                if self.lane.len() < LANE_CHUNK.min(total) {
                    self.lane.resize(LANE_CHUNK.min(total), 0);
                }
            }
        }
    }

    /// Closes the decide phase [`RoundArena::open`] began: in
    /// [`DrawMode::Fast`] the outcome buffers are cut to what the sweep
    /// kept and delivered.
    pub(crate) fn close(&mut self, mode: DrawMode) {
        if mode == DrawMode::Fast {
            let DrawCursor {
                total, kept, sent, ..
            } = self.cursor;
            debug_assert_eq!(
                kept + sent,
                total,
                "round conservation violated: every walker must survive or be delivered"
            );
            self.kept_nodes.truncate(kept);
            self.kept_walkers.truncate(kept);
            self.deliver_dests.truncate(sent);
            self.deliver_walkers.truncate(sent);
        }
    }

    /// Decides the walkers held by the nodes `nodes` in
    /// [`DrawMode::Compat`], continuing the phase [`RoundArena::open`]
    /// began.
    ///
    /// Each holder's bucket is visited in order and every walker draws one
    /// move from `rng` through the plan's sampling rule.  Survivors — lazy
    /// stays *and* masked bounces — are appended to the arena, and every
    /// delivery to its delivery buffers (see [`RoundArena::deliveries`]) in
    /// send order.
    pub(crate) fn decide_compat<R: Rng + ?Sized>(
        &mut self,
        plan: &RoundPlan<'_>,
        nodes: Range<NodeId>,
        buckets: &HolderBuckets,
        rng: &mut R,
    ) {
        for u in nodes {
            for &w in buckets.held_by(u) {
                // A bounce (move drawn, recipient dark) is told apart from
                // a lazy stay (no move drawn) for the bounce count.
                match sample_move(plan.graph, u, plan.laziness, rng) {
                    Some(dest) if plan.available.is_none_or(|mask| mask[dest]) => {
                        self.deliver_dests.push(dest as u32);
                        self.deliver_walkers.push(w);
                    }
                    stay => {
                        self.bounced += stay.is_some() as u64;
                        self.kept_nodes.push(u as u32);
                        self.kept_walkers.push(w);
                    }
                }
            }
        }
    }

    /// Decides the walkers held by the nodes `nodes` in
    /// [`DrawMode::Fast`]: lane-buffered draws, branchless select.
    ///
    /// The sweep order and the survivor/delivery grouping are those of
    /// [`RoundArena::decide_compat`]; only the per-walker draw differs.
    /// Each walker consumes one `u64` from the lane buffer (refilled from
    /// `rng` in whole ChaCha8 blocks, `LANE_CHUNK` draws at a time, never
    /// past the `total` walkers the phase was opened for): laziness is an
    /// integer compare on the low 32 bits, the neighbour is the
    /// multiply-shift reduction of the high 32 bits over the holder's
    /// degree, and the stay/deliver choice is an arithmetic select — both
    /// outcome slots are written unconditionally and the matching cursor
    /// advances by the flag, so the loop carries no data-dependent branch.
    /// The cursors live in locals for the call and in the arena between
    /// calls, so a phase's draws are the same however its holders are cut
    /// into ranges.
    pub(crate) fn decide_fast<R: Rng + ?Sized>(
        &mut self,
        plan: &RoundPlan<'_>,
        nodes: Range<NodeId>,
        buckets: &HolderBuckets,
        rng: &mut R,
    ) {
        let (offsets, neighbors) = plan.graph.csr_parts();
        let threshold = lazy_threshold(plan.laziness);
        let DrawCursor {
            total,
            mut drawn,
            mut lane_pos,
            mut lane_len,
            mut kept,
            mut sent,
        } = self.cursor;
        let mut bounced = 0u64;
        for u in nodes {
            let row = &neighbors[offsets[u]..offsets[u + 1]];
            let deg = row.len() as u64;
            debug_assert!(deg > 0, "isolated nodes are rejected at construction");
            for &w in buckets.held_by(u) {
                if lane_pos == lane_len {
                    lane_len = LANE_CHUNK.min(total - drawn);
                    rng.fill_u64(&mut self.lane[..lane_len]);
                    drawn += lane_len;
                    lane_pos = 0;
                }
                let r = self.lane[lane_pos];
                lane_pos += 1;
                let dest = row[(((r >> 32) * deg) >> 32) as usize];
                let lazy = (r as u32 as u64) < threshold;
                let dark = plan.available.is_some_and(|mask| !mask[dest as usize]);
                let stay = lazy | dark;
                bounced += (!lazy & dark) as u64;
                self.kept_nodes[kept] = u as u32;
                self.kept_walkers[kept] = w;
                kept += stay as usize;
                self.deliver_dests[sent] = dest;
                self.deliver_walkers[sent] = w;
                sent += !stay as usize;
            }
        }
        self.bounced += bounced;
        self.cursor = DrawCursor {
            total,
            drawn,
            lane_pos,
            lane_len,
            kept,
            sent,
        };
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
        let plan = RoundPlan {
            graph: &g,
            laziness: 0.2,
            available: None,
        };
        let mut arena = RoundArena::new();
        let mut positions: Vec<u32> = (0..n as u32).collect();
        let mut buckets = HolderBuckets::from_positions(n, &positions);
        let mut rng = seeded_rng(2);
        arena.open(DrawMode::Compat, n);
        arena.decide_compat(&plan, 0..n, &buckets, &mut rng);
        arena.close(DrawMode::Compat);
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

    /// A phase cut into ranges — node by node, as a shard's holders are
    /// between other shards' nodes, or at arbitrary cuts — draws, keeps
    /// and delivers exactly what one range over the same holders does, in
    /// both draw modes and across lane refills.
    #[test]
    fn a_decide_phase_is_the_same_however_its_holders_are_cut() {
        let g = generators::random_regular(3_000, 4, &mut seeded_rng(3)).unwrap();
        let n = g.node_count();
        let mask: Vec<bool> = (0..n).map(|u| u % 7 != 3).collect();
        let plan = RoundPlan {
            graph: &g,
            laziness: 0.3,
            available: Some(&mask),
        };
        // Two walkers per node, so the fast lane refills mid-range.
        let positions: Vec<u32> = (0..2 * n as u32).map(|w| w % n as u32).collect();
        let buckets = HolderBuckets::from_positions(n, &positions);
        let cuts = [0, 1, 2, 700, 701, 2_048, 2_999, n];
        for mode in [DrawMode::Compat, DrawMode::Fast] {
            let decided = |ranges: &[Range<NodeId>]| {
                let mut arena = RoundArena::new();
                let mut rng = seeded_rng(4);
                arena.open(mode, 2 * n);
                for nodes in ranges {
                    match mode {
                        DrawMode::Compat => {
                            arena.decide_compat(&plan, nodes.clone(), &buckets, &mut rng)
                        }
                        DrawMode::Fast => {
                            arena.decide_fast(&plan, nodes.clone(), &buckets, &mut rng)
                        }
                    }
                }
                arena.close(mode);
                let (_, counter, cursor) = rng.state();
                let RoundArena {
                    kept_nodes,
                    kept_walkers,
                    deliver_dests,
                    deliver_walkers,
                    bounced,
                    ..
                } = arena;
                let outcome = (kept_nodes, kept_walkers, deliver_dests, deliver_walkers);
                (outcome, bounced, counter, cursor)
            };
            let whole = decided(std::slice::from_ref(&(0..n)));
            let pieces: Vec<Range<NodeId>> = cuts.windows(2).map(|w| w[0]..w[1]).collect();
            assert_eq!(decided(&pieces), whole, "{mode:?}, cut");
            let nodes: Vec<Range<NodeId>> = (0..n).map(|u| u..u + 1).collect();
            assert_eq!(decided(&nodes), whole, "{mode:?}, node by node");
            assert!(whole.1 > 0, "{mode:?}: the mask bounced nothing");
        }
    }
}
