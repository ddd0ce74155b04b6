//! The random-walk transition operator `M = A B⁻¹` and distribution updates.
//!
//! `M_{ij} = A_{ij} / deg(i)` is the probability that a report held by user
//! `i` is relayed to user `j` in one round.  The position probability
//! distribution evolves as `P(t+1) = Mᵀ P(t)` (Section 4.1).  The matrix is
//! never materialized densely; updates stream over the CSR adjacency so a
//! single round costs `O(n + m)`.
//!
//! [`TransitionMatrix`] is the one walk operator: the lazy walk, and its
//! dropout form under an availability mask (Section 4.5), in which a report
//! sent to an unavailable user stays where it is.  It keeps the graph's CSR
//! with `u32` neighbour ids behind an [`Arc`], shared by every operator over
//! one topology, and has two kernels: a scalar scatter for one distribution
//! ([`TransitionModel::propagate_round_into`]) and a pull kernel for
//! interleaved blocks of distributions.  The pull kernel has one body,
//! generic over the lane vector it keeps in registers and over masked or
//! not, instantiated per call for the host: 8-lane runs take one AVX-512F
//! vector per node where the host has AVX-512F, else two AVX2 vectors; every
//! other width, and hosts without AVX2, take `[f64; W]` lanes in baseline
//! code.  A masked pull reads each node's count of unavailable neighbours
//! from a [`DarkCounts`] buffer, filled once per round by
//! [`TransitionModel::prepare_round`] (scattered from the dark nodes),
//! instead of walking each neighbour list against the mask.  The pull
//! kernel reads a block in the ensemble's interleaved layout and writes the
//! same layout for one destination range of it, as one contiguous chunk
//! ([`TransitionModel::propagate_round_interleaved_range`]; a whole block is
//! the range `0..n`).  Every lane of every instantiation is bitwise the
//! scatter.
//!
//! A deployment that refuses to cross the shard cut, or that loses users to
//! churn, is this same operator under a mask: every out-of-shard or dark
//! recipient is unavailable, so a report sent there stays put.

use crate::error::{GraphError, Result};
use crate::graph::{Graph, NodeId};
#[cfg(target_arch = "x86_64")]
use crate::simd::{Avx2x2, Avx512};
use crate::simd::{Isa, LaneVector};
use crate::walk::validate_laziness;
use std::ops::Range;
use std::sync::Arc;

/// The one-round walk, as the distribution-ensemble kernel
/// ([`crate::ensemble`]) drives it.
///
/// [`TransitionMatrix`] and its per-round schedule
/// ([`crate::dynamic::TimeVaryingModel`]) implement it; it stays a trait so
/// the sweep's tests can substitute models that panic or hand off between
/// threads at chosen points.  Every method takes the absolute round (0-based:
/// the step evolving `P(round)` to `P(round + 1)`), which a static operator
/// ignores and a schedule uses to pick that round's operator: the ensemble
/// threads its own clock through, so one kernel serves static and
/// time-varying walks alike.
pub trait TransitionModel: std::fmt::Debug {
    /// Number of nodes the distributions range over.
    fn node_count(&self) -> usize;

    /// One step of one distribution at round `round`, writing
    /// `P(t+1) = Mᵀ P(t)` into `out`: the scatter a 1-row block runs.  Both
    /// slices have length [`TransitionModel::node_count`].
    fn propagate_round_into(&self, round: usize, p: &[f64], out: &mut [f64]);

    /// Prepares the per-round state the range kernel of round `round`
    /// reads, in `dark`: a masked operator fills its unavailable-neighbour
    /// counts, an unmasked one nothing.  Callers run it once per round,
    /// before any multi-row range of that round.
    fn prepare_round(&self, round: usize, dark: &mut DarkCounts);

    /// The step at round `round` of `lanes` distributions stored
    /// interleaved (`input[i * lanes + l]` is entry `i` of distribution
    /// `l`), for the destinations `nodes` only: entry `j` of lane `l` lands
    /// at `out[(j - nodes.start) * lanes + l]`.  A whole block is the range
    /// `0..n`.  Each lane's entries are bitwise what
    /// [`TransitionModel::propagate_round_into`] produces for that lane
    /// alone (the ensemble kernel's parity guarantees rest on this), and
    /// ranges never interact, so disjoint ranges of one round can run at
    /// once, all reading the `dark` that
    /// [`TransitionModel::prepare_round`] left for this round.
    ///
    /// # Panics
    ///
    /// Panics if `input` does not have length `lanes * n`, `nodes` does not
    /// lie within `0..n`, `out` does not have length
    /// `nodes.len() * lanes`, or the model reads `dark` and it was not
    /// prepared for this round.
    fn propagate_round_interleaved_range(
        &self,
        round: usize,
        lanes: usize,
        input: &[f64],
        nodes: Range<usize>,
        out: &mut [f64],
        dark: &DarkCounts,
    );
}

/// Splits `lanes` interleaved lanes into `(offset, width)` runs of the
/// compile-time widths the fused kernels are instantiated at — 8, then 4,
/// 2 and 1 for the remainder — so any lane count runs on fixed-width
/// accumulators.  Lanes never interact, so the split changes no result.
fn lane_runs(lanes: usize) -> impl Iterator<Item = (usize, usize)> {
    let mut offset = 0;
    std::iter::from_fn(move || {
        let width = match lanes - offset {
            0 => return None,
            left if left >= 8 => 8,
            left if left >= 4 => 4,
            left if left >= 2 => 2,
            _ => 1,
        };
        offset += width;
        Some((offset - width, width))
    })
}

/// The walk operator's topology: the graph's CSR with `u32` neighbour ids,
/// as in [`Graph`], plus reciprocal degrees.  Copied once per graph and
/// shared behind an [`Arc`] by every operator built over that topology —
/// a whole schedule of per-round masks
/// ([`crate::dynamic::TimeVaryingModel::from_availability`]).  The kernels
/// sweep this copy rather than the graph's own arrays, which measured about
/// 20% slower in the scatter.
#[derive(Debug)]
pub(crate) struct WalkCsr {
    /// Reciprocal degrees `1 / deg(i)`.
    inv_degree: Vec<f64>,
    offsets: Vec<usize>,
    neighbors: Vec<u32>,
}

impl WalkCsr {
    /// Validates `graph` (non-empty, no isolated node) and copies its CSR.
    pub(crate) fn of(graph: &Graph) -> Result<Arc<Self>> {
        if graph.node_count() == 0 {
            return Err(GraphError::EmptyGraph);
        }
        if let Some(u) = graph.find_isolated_node() {
            return Err(GraphError::IsolatedNode(u));
        }
        let (offsets, neighbors) = graph.csr_parts();
        Ok(Arc::new(WalkCsr {
            inv_degree: graph
                .nodes()
                .map(|u| 1.0 / graph.degree(u) as f64)
                .collect(),
            offsets: offsets.to_vec(),
            neighbors: neighbors.to_vec(),
        }))
    }

    /// Number of nodes.
    pub(crate) fn node_count(&self) -> usize {
        self.inv_degree.len()
    }

    /// `1 / deg(u)`.
    pub(crate) fn inv_degree(&self, u: NodeId) -> f64 {
        self.inv_degree[u]
    }

    /// The sorted neighbour list of `u`.
    pub(crate) fn neighbors(&self, u: NodeId) -> &[u32] {
        &self.neighbors[self.offsets[u]..self.offsets[u + 1]]
    }
}

/// Each node's count of unavailable neighbours under one round's mask: the
/// per-round state a masked pull reads instead of walking every neighbour
/// list against the mask.
///
/// [`TransitionModel::prepare_round`] fills it.  The first fill, and any
/// fill over another topology, is a refill: one count scattered from each
/// dark node to its neighbours (the CSR is symmetric: `j ∈ N(d)` exactly
/// when `d ∈ N(j)`).  A fill over the topology of the previous one updates
/// the previous counts instead, from the nodes whose availability flipped —
/// plus one per neighbour of a node gone dark, minus one per neighbour of a
/// node back up — whenever fewer nodes flipped than are dark, so a churn
/// schedule whose masks change little from round to round walks few
/// neighbour lists (constant-time maintenance of a counting query under
/// updates).  One pass over the two masks lists the flipped nodes and
/// counts the dark ones; the update then walks the listed nodes' neighbour
/// lists back to back.  A fill for the mask already counted does nothing.
/// Both buffers are sized to the node count by a refill and reused round
/// after round, so only the first fill over a topology allocates.  It
/// remembers the topology and mask it was filled for, and a pull handed
/// counts taken for another operator panics rather than read them.
#[derive(Default)]
pub struct DarkCounts {
    counts: Vec<u32>,
    /// The nodes whose availability flipped since the counted mask, in id
    /// order: scratch of the fill in progress.
    flipped: Vec<u32>,
    /// The CSR and mask the counts were taken over, held to compare by
    /// identity (and, for the mask, to tell which nodes flipped since).
    source: Option<(Arc<WalkCsr>, Arc<[bool]>)>,
}

impl DarkCounts {
    /// Counts, for every node, its neighbours that `mask` marks
    /// unavailable: by delta from the previous fill's mask when that fill
    /// was over `csr` and fewer nodes flipped than are dark, else by a
    /// refill from the dark nodes.
    fn fill(&mut self, csr: &Arc<WalkCsr>, mask: &Arc<[bool]>) {
        if self.counted(csr, mask) {
            return;
        }
        let previous = match self.source.take() {
            Some((counted, previous)) if Arc::ptr_eq(&counted, csr) => Some(previous),
            _ => None,
        };
        let flipped = &mut self.flipped;
        let delta = previous.is_some_and(|previous| {
            flipped.clear();
            let mut dark = 0;
            for (node, (&was, &up)) in previous.iter().zip(mask.iter()).enumerate() {
                if was != up {
                    flipped.push(node as u32);
                }
                dark += !up as usize;
            }
            flipped.len() < dark
        });
        let counts = &mut self.counts;
        if delta {
            // One dense pass over the flipped nodes' neighbour lists, which
            // keeps several lists' misses in flight at once.
            for &node in flipped.iter() {
                let node = node as usize;
                if mask[node] {
                    for &k in csr.neighbors(node) {
                        counts[k as usize] -= 1;
                    }
                } else {
                    for &k in csr.neighbors(node) {
                        counts[k as usize] += 1;
                    }
                }
            }
        } else {
            counts.clear();
            counts.resize(csr.node_count(), 0);
            // A later delta lists at most every node: room for that is
            // made here, so fills after the first allocate nothing.
            flipped.clear();
            flipped.reserve(csr.node_count());
            for (dark, _) in mask.iter().enumerate().filter(|(_, &up)| !up) {
                for &k in csr.neighbors(dark) {
                    counts[k as usize] += 1;
                }
            }
        }
        self.source = Some((Arc::clone(csr), Arc::clone(mask)));
    }

    /// The counts, which must have been filled over `csr` and `mask`.
    ///
    /// # Panics
    ///
    /// Panics if they were filled for another topology or mask, or never.
    fn of(&self, csr: &Arc<WalkCsr>, mask: &Arc<[bool]>) -> &[u32] {
        assert!(
            self.counted(csr, mask),
            "dark counts were not prepared for this operator's mask"
        );
        &self.counts
    }

    /// Whether the counts were taken over exactly `csr` and `mask`.
    fn counted(&self, csr: &Arc<WalkCsr>, mask: &Arc<[bool]>) -> bool {
        self.source
            .as_ref()
            .is_some_and(|(c, m)| Arc::ptr_eq(c, csr) && Arc::ptr_eq(m, mask))
    }
}

/// The one-round operator of the simple (optionally lazy) random walk on a
/// graph, optionally under an availability mask — a sparse, implicit
/// representation of `M = A B⁻¹`.
///
/// The holder of a report stays put with probability `laziness`; otherwise
/// it picks a neighbour uniformly at random.  Under a mask
/// ([`TransitionMatrix::masked`]), a report whose chosen recipient is
/// unavailable stays put for the round (Section 4.5's dropout, matching the
/// engines' masked rounds).  Holders always attempt to send — only
/// recipient availability matters — which is what makes the expectation
/// over i.i.d. masks *exactly* the lazy walk with laziness equal to the
/// dropout probability (see the core crate's `faults` module).  With every
/// node available the masked operator is bit-for-bit the unmasked one.
///
/// The CSR lives behind an [`Arc`], so a schedule of per-round masks over
/// one topology ([`crate::dynamic::TimeVaryingModel::from_availability`])
/// shares a single copy and each additional round costs only its `n`-bool
/// mask.
#[derive(Debug, Clone)]
pub struct TransitionMatrix {
    csr: Arc<WalkCsr>,
    /// Probability of staying put in one round (0 for the simple walk).
    laziness: f64,
    /// `available[u]`: can `u` receive this round?  `None` is everyone.
    /// Shared, so a schedule's per-round operators hold its masks rather
    /// than copies.
    available: Option<Arc<[bool]>>,
}

impl TransitionMatrix {
    /// Builds the transition matrix of the simple random walk on `graph`.
    ///
    /// # Errors
    ///
    /// * [`GraphError::EmptyGraph`] if the graph has no nodes.
    /// * [`GraphError::IsolatedNode`] if some node has degree zero.
    pub fn new(graph: &Graph) -> Result<Self> {
        Self::with_laziness(graph, 0.0)
    }

    /// Builds the transition matrix of a lazy random walk that stays at the
    /// current node with probability `laziness` and otherwise moves to a
    /// uniformly random neighbour.
    ///
    /// Laziness models temporarily unavailable users (Section 4.5) and also
    /// restores ergodicity on bipartite graphs.
    ///
    /// # Errors
    ///
    /// Same as [`TransitionMatrix::new`], plus
    /// [`GraphError::InvalidParameters`] if `laziness` is outside `[0, 1)`.
    pub fn with_laziness(graph: &Graph, laziness: f64) -> Result<Self> {
        validate_laziness(laziness).map_err(GraphError::InvalidParameters)?;
        Ok(TransitionMatrix {
            csr: WalkCsr::of(graph)?,
            laziness,
            available: None,
        })
    }

    /// Builds the lazy walk's operator under the availability mask
    /// `available` (`available[u]`: can `u` receive this round?).
    ///
    /// # Errors
    ///
    /// * [`GraphError::EmptyGraph`] / [`GraphError::IsolatedNode`] for
    ///   degenerate graphs,
    /// * [`GraphError::InvalidParameters`] if `laziness ∉ [0, 1)` or the
    ///   mask length differs from the node count.
    pub fn masked(graph: &Graph, available: Vec<bool>, laziness: f64) -> Result<Self> {
        Self::over(WalkCsr::of(graph)?, available.into(), laziness)
    }

    /// A masked operator over an already-validated shared CSR, holding the
    /// shared mask itself.
    pub(crate) fn over(csr: Arc<WalkCsr>, available: Arc<[bool]>, laziness: f64) -> Result<Self> {
        validate_laziness(laziness).map_err(GraphError::InvalidParameters)?;
        let n = csr.node_count();
        if available.len() != n {
            return Err(GraphError::InvalidParameters(format!(
                "availability mask has {} entries for {n} nodes",
                available.len()
            )));
        }
        Ok(TransitionMatrix {
            csr,
            laziness,
            available: Some(available),
        })
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.csr.node_count()
    }

    /// The laziness (self-loop probability) of the walk.
    pub fn laziness(&self) -> f64 {
        self.laziness
    }

    /// The availability mask the operator routes around; `None` when every
    /// node is available.
    pub fn availability(&self) -> Option<&[bool]> {
        self.available.as_deref()
    }

    /// Transition probability `Pr[next = j | current = i]`.  Under a mask,
    /// a share aimed at an unavailable `j` stays at `i`; `j ≥ n` has
    /// probability 0.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n`.
    pub fn probability(&self, i: usize, j: usize) -> f64 {
        let neighbors = self.csr.neighbors(i);
        let share = (1.0 - self.laziness) * self.csr.inv_degree(i);
        if i == j {
            let dark = self.available.as_deref().map_or(0, |mask| {
                neighbors.iter().filter(|&&k| !mask[k as usize]).count()
            });
            return self.laziness + share * dark as f64;
        }
        let delivers = u32::try_from(j).is_ok_and(|j| neighbors.binary_search(&j).is_ok())
            && self.available.as_deref().is_none_or(|mask| mask[j]);
        if delivers {
            share
        } else {
            0.0
        }
    }

    /// The scalar scatter: node `i` sends `(1 − laziness) · P_i / deg(i)`
    /// to each neighbour and keeps `laziness · P_i`; when `MASKED`, a share
    /// aimed at an unavailable neighbour joins the kept mass instead, one
    /// add per share in CSR neighbour order.  The kept mass lands in
    /// `out[i]` while the sweep processes `i` — neighbour lists hold no
    /// self-loop, so every `out[j]` accumulates in ascending source order,
    /// the sequence the pull kernels reproduce — and with an all-available
    /// mask the adds, hence every rounding, are the unmasked ones.
    ///
    /// The masked form branches on no flag: every `out[j]` gets an add,
    /// of `+0.0` when `j` is dark (a non-negative sum keeps its bits), and
    /// the dark neighbours are counted; the kept mass then takes one
    /// `share` per dark neighbour, the same adds in the same order.
    fn scatter<const MASKED: bool>(&self, mask: &[bool], p: &[f64], out: &mut [f64]) {
        let csr = &*self.csr;
        let move_factor = 1.0 - self.laziness;
        out.fill(0.0);
        for (i, &mass) in p.iter().enumerate() {
            if mass == 0.0 {
                continue;
            }
            let mut stay = self.laziness * mass;
            let share = move_factor * mass * csr.inv_degree(i);
            let mut dark = 0u32;
            for &j in csr.neighbors(i) {
                let j = j as usize;
                if MASKED {
                    let up = mask[j];
                    out[j] += f64::from_bits(share.to_bits() & u64::from(up).wrapping_neg());
                    dark += u32::from(!up);
                } else {
                    out[j] += share;
                }
            }
            for _ in 0..dark {
                stay += share;
            }
            out[i] += stay;
        }
    }

    /// Pulls destinations `nodes` of every lane of the interleaved block
    /// `input` into `out`, their interleaved chunk
    /// (`out[(j - nodes.start) * lanes + l]`), masked or not as the
    /// operator is; a masked pull reads `dark`.
    ///
    /// This is the hot kernel behind
    /// [`crate::ensemble::DistributionEnsemble`]: the offsets/neighbour
    /// arrays — the dominant memory traffic of the scalar scatter
    /// ([`TransitionModel::propagate_round_into`]) — are streamed once per
    /// *block* of lanes instead of once per distribution, and every gathered
    /// share updates `lanes` adjacent f64s (one cache line for 8 lanes)
    /// instead of a single scattered one.  Lane `l`'s result is bit-for-bit
    /// identical to the scatter applied to lane `l` alone.  8-lane runs take
    /// the body compiled for `isa`: the host's widest ([`Isa::detected`]) on
    /// every production path, any the host runs in the tests.
    ///
    /// # Panics
    ///
    /// Panics unless `input` holds `lanes * n` f64s, `nodes` lies within
    /// `0..n`, `out` holds `nodes.len() * lanes` f64s and the host runs
    /// `isa` — what the pull bodies' unchecked loads and stores rely on —
    /// or if the operator is masked and `dark` was not prepared for it.
    fn pull_range(
        &self,
        isa: Isa,
        lanes: usize,
        input: &[f64],
        nodes: Range<usize>,
        out: &mut [f64],
        dark: &DarkCounts,
    ) {
        let n = self.node_count();
        assert_eq!(input.len(), lanes * n, "interleaved input has wrong length");
        assert!(
            nodes.start <= nodes.end && nodes.end <= n,
            "destinations {nodes:?} outside 0..{n}"
        );
        assert_eq!(
            out.len(),
            nodes.len() * lanes,
            "output chunk must cover the destinations exactly"
        );
        assert!(isa <= Isa::detected(), "this host cannot run {isa:?} code");
        // SAFETY: every condition of `pull_runs` was asserted just above.
        #[allow(unsafe_code)]
        unsafe {
            match &self.available {
                None => self.pull_runs::<false>(isa, lanes, input, nodes, out, &[]),
                Some(mask) => {
                    let dark = dark.of(&self.csr, mask);
                    self.pull_runs::<true>(isa, lanes, input, nodes, out, dark);
                }
            }
        }
    }

    /// Runs every lane of an interleaved block through the pull body, one
    /// run of lanes at a time at a compile-time width (see [`lane_runs`]):
    /// 8-lane runs in the body compiled for `isa`, narrower ones in the
    /// portable body, whose fixed trip count lets the compiler unroll the
    /// per-edge loop.  The arithmetic is identical in every arm.
    ///
    /// # Safety
    ///
    /// `input` holds `n * lanes` f64s, `nodes` lies within `0..n`, `out`
    /// holds `nodes.len() * lanes` f64s and the host runs `isa` (what
    /// [`TransitionMatrix::pull_range`] checks).
    #[allow(unsafe_code)]
    unsafe fn pull_runs<const MASKED: bool>(
        &self,
        isa: Isa,
        lanes: usize,
        input: &[f64],
        nodes: Range<usize>,
        out: &mut [f64],
        dark: &[u32],
    ) {
        for (offset, width) in lane_runs(lanes) {
            let nodes = nodes.clone();
            // SAFETY: `lane_runs` keeps `offset + width <= lanes`, and the
            // caller guarantees the rest of `pull`'s contract.
            unsafe {
                match (width, isa) {
                    #[cfg(target_arch = "x86_64")]
                    (8, Isa::Avx512) => {
                        self.pull_avx512::<MASKED>(lanes, offset, input, nodes, out, dark)
                    }
                    #[cfg(target_arch = "x86_64")]
                    (8, Isa::Avx2) => {
                        self.pull_avx2::<MASKED>(lanes, offset, input, nodes, out, dark)
                    }
                    (8, _) => self.pull::<[f64; 8], MASKED>(lanes, offset, input, nodes, out, dark),
                    (4, _) => self.pull::<[f64; 4], MASKED>(lanes, offset, input, nodes, out, dark),
                    (2, _) => self.pull::<[f64; 2], MASKED>(lanes, offset, input, nodes, out, dark),
                    _ => self.pull::<[f64; 1], MASKED>(lanes, offset, input, nodes, out, dark),
                }
            }
        }
    }

    /// The pull body compiled with AVX2: two 4-lane vectors per node.
    ///
    /// # Safety
    ///
    /// The host supports AVX2, and the contract of
    /// [`TransitionMatrix::pull`] holds for 8 lanes.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    #[allow(unsafe_code)]
    unsafe fn pull_avx2<const MASKED: bool>(
        &self,
        lanes: usize,
        offset: usize,
        input: &[f64],
        nodes: Range<usize>,
        out: &mut [f64],
        dark: &[u32],
    ) {
        self.pull::<Avx2x2, MASKED>(lanes, offset, input, nodes, out, dark);
    }

    /// The pull body compiled with AVX-512F: one 8-lane vector per node.
    ///
    /// # Safety
    ///
    /// The host supports AVX-512F, and the contract of
    /// [`TransitionMatrix::pull`] holds for 8 lanes.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    #[allow(unsafe_code)]
    unsafe fn pull_avx512<const MASKED: bool>(
        &self,
        lanes: usize,
        offset: usize,
        input: &[f64],
        nodes: Range<usize>,
        out: &mut [f64],
        dark: &[u32],
    ) {
        self.pull::<Avx512, MASKED>(lanes, offset, input, nodes, out, dark);
    }

    /// The pull body: lanes `offset..offset + W` of the destinations
    /// `nodes` of an interleaved block `lanes` wide, held as one `V` of `W`
    /// lanes per node, under the mask when `MASKED`, stored at
    /// `out[(j - nodes.start) * lanes + offset..]`.
    ///
    /// Instead of scattering each node's share to its neighbours (a random
    /// read-for-ownership per edge, whose miss latency serializes the
    /// loop), each destination `j` gathers `move_factor · mass_i ·
    /// inv_deg_i` from its sorted neighbour list into a register
    /// accumulator and stores its lanes once.  Random memory traffic
    /// becomes plain reads, which the core can keep many of in flight,
    /// helped along by an explicit prefetch a few edges ahead.
    ///
    /// Bit parity with the scatter per lane: the scatter accumulates
    /// `out[j]` in ascending source order, adding `j`'s own stay term
    /// (laziness plus, when masked, one share per unavailable neighbour —
    /// `dark[j]` of them) when the sweep passes `j`.  Neighbour lists are
    /// sorted ascending, so gathering in list order and folding the stay
    /// term in at the first neighbour `> j` reproduces that sequence of adds
    /// — and its roundings — exactly, and an unavailable `j` receives only
    /// its stay term.  Zero-mass sources, which the scatter skips, add
    /// `+0.0`, which never changes a non-negative accumulation.  Each lane
    /// multiplies and adds in that order with no FMA, whatever `V` is.
    /// Unmasked, the dark-count reads and the dark-`j` store compile out.
    ///
    /// # Safety
    ///
    /// The host runs `V`'s instruction set, `V` holds `W` lanes with
    /// `offset + W <= lanes`, `input` holds `n * lanes` f64s, `nodes` lies
    /// within `0..n` and `out` holds `nodes.len() * lanes` f64s.  The loads
    /// also rely on the CSR's construction invariants: every neighbour id is
    /// `< n`, `offsets` has `n + 1` entries and `inv_degree` has `n`.  The
    /// mask and the counts are read with checked indexing.
    #[inline(always)]
    #[allow(unsafe_code)]
    unsafe fn pull<V: LaneVector, const MASKED: bool>(
        &self,
        lanes: usize,
        offset: usize,
        input: &[f64],
        nodes: Range<usize>,
        out: &mut [f64],
        dark: &[u32],
    ) {
        // How many edges ahead source lines are prefetched.  The masked
        // form looks twice as far, which measured faster at 1M nodes.
        let prefetch_distance = if MASKED { 16 } else { 8 };
        let csr = &*self.csr;
        let mask = self.available.as_deref().unwrap_or_default();
        let move_factor = V::splat(1.0 - self.laziness);
        let laziness = V::splat(self.laziness);
        let in_ptr = input.as_ptr();
        let out_ptr = out.as_mut_ptr();
        let edge_count = csr.neighbors.len();
        let start = nodes.start;
        for j in nodes {
            let own = V::load(in_ptr.add(j * lanes + offset));
            let stored = out_ptr.add((j - start) * lanes + offset);
            let mut stay = laziness.mul(own);
            if MASKED {
                let count = dark[j];
                if count > 0 {
                    let share = move_factor.mul(own).mul(V::splat(csr.inv_degree(j)));
                    for _ in 0..count {
                        stay = stay.add(share);
                    }
                }
                if !mask[j] {
                    stay.store(stored);
                    continue;
                }
            }
            let mut acc = V::splat(0.0);
            let mut stay_pending = true;
            for idx in *csr.offsets.get_unchecked(j)..*csr.offsets.get_unchecked(j + 1) {
                #[cfg(target_arch = "x86_64")]
                if idx + prefetch_distance < edge_count {
                    let ahead = *csr.neighbors.get_unchecked(idx + prefetch_distance) as usize;
                    std::arch::x86_64::_mm_prefetch(
                        in_ptr.add(ahead * lanes + offset) as *const i8,
                        std::arch::x86_64::_MM_HINT_T0,
                    );
                }
                let i = *csr.neighbors.get_unchecked(idx) as usize;
                if stay_pending && i > j {
                    acc = acc.add(stay);
                    stay_pending = false;
                }
                let inv_degree = V::splat(*csr.inv_degree.get_unchecked(i));
                let mass = V::load(in_ptr.add(i * lanes + offset));
                acc = acc.add(move_factor.mul(mass).mul(inv_degree));
            }
            if stay_pending {
                acc = acc.add(stay);
            }
            acc.store(stored);
        }
    }
}

impl TransitionModel for TransitionMatrix {
    fn node_count(&self) -> usize {
        TransitionMatrix::node_count(self)
    }

    /// The scalar scatter, masked or not as the operator is.
    ///
    /// # Panics
    ///
    /// Panics if `p` or `out` do not have length `n`.
    fn propagate_round_into(&self, _round: usize, p: &[f64], out: &mut [f64]) {
        let n = self.node_count();
        assert_eq!(p.len(), n, "input distribution has wrong length");
        assert_eq!(out.len(), n, "output buffer has wrong length");
        match self.available.as_deref() {
            None => self.scatter::<false>(&[], p, out),
            Some(mask) => self.scatter::<true>(mask, p, out),
        }
    }

    /// Fills `dark` with this operator's unavailable-neighbour counts when
    /// it has a mask; the unmasked operator reads none.
    fn prepare_round(&self, _round: usize, dark: &mut DarkCounts) {
        if let Some(mask) = &self.available {
            dark.fill(&self.csr, mask);
        }
    }

    /// Runs the pull kernel over `nodes` only — for every lane count,
    /// since a single lane's range cannot take the scatter, which writes
    /// anywhere.
    fn propagate_round_interleaved_range(
        &self,
        _round: usize,
        lanes: usize,
        input: &[f64],
        nodes: Range<usize>,
        out: &mut [f64],
        dark: &DarkCounts,
    ) {
        self.pull_range(Isa::detected(), lanes, input, nodes, out, dark);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ensemble::DistributionEnsemble;
    use crate::generators;
    use crate::rng::seeded_rng;
    use rand::Rng;

    /// One scalar step of `p` under `m`.
    fn scattered(m: &TransitionMatrix, p: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; p.len()];
        m.propagate_round_into(0, p, &mut out);
        out
    }

    /// A point mass on `origin` after `rounds` rounds under `m`, stepped as
    /// a 1-row ensemble.
    fn evolved_point_mass(m: &TransitionMatrix, origin: NodeId, rounds: usize) -> Vec<f64> {
        let mut row = DistributionEnsemble::point_masses(m.node_count(), &[origin]).unwrap();
        row.advance(m, rounds);
        row.row_groups(&[0, 1]).concat()
    }

    #[test]
    fn probabilities_of_simple_walk_on_path() {
        let g = generators::path(3).unwrap(); // 0-1-2
        let m = TransitionMatrix::new(&g).unwrap();
        assert!((m.probability(0, 1) - 1.0).abs() < 1e-12);
        assert!((m.probability(1, 0) - 0.5).abs() < 1e-12);
        assert!((m.probability(1, 2) - 0.5).abs() < 1e-12);
        assert!((m.probability(0, 2) - 0.0).abs() < 1e-12);
        assert!((m.probability(0, 0) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn lazy_walk_probabilities() {
        let g = generators::path(3).unwrap();
        let m = TransitionMatrix::with_laziness(&g, 0.5).unwrap();
        assert!((m.probability(1, 1) - 0.5).abs() < 1e-12);
        assert!((m.probability(1, 0) - 0.25).abs() < 1e-12);
        assert!((m.probability(0, 1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn propagate_preserves_probability_mass() {
        let g = generators::star(6).unwrap();
        let m = TransitionMatrix::new(&g).unwrap();
        let mut p = vec![0.0; 6];
        p[2] = 0.7;
        p[5] = 0.3;
        let q = scattered(&m, &p);
        assert!((q.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(q.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn point_mass_on_star_leaf_moves_to_hub() {
        let g = generators::star(4).unwrap();
        let m = TransitionMatrix::new(&g).unwrap();
        let q = evolved_point_mass(&m, 1, 1); // from a leaf
        assert!((q[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn evolve_converges_towards_stationary_on_odd_cycle() {
        let g = generators::cycle(5).unwrap();
        let m = TransitionMatrix::new(&g).unwrap();
        let p = evolved_point_mass(&m, 0, 500);
        for &x in &p {
            assert!((x - 0.2).abs() < 1e-6);
        }
    }

    #[test]
    fn lazy_walk_mixes_on_bipartite_graph() {
        let g = generators::cycle(4).unwrap();
        let lazy = TransitionMatrix::with_laziness(&g, 0.5).unwrap();
        let p = evolved_point_mass(&lazy, 0, 300);
        for &x in &p {
            assert!((x - 0.25).abs() < 1e-6);
        }
        // The non-lazy walk oscillates and never mixes.
        let simple = TransitionMatrix::new(&g).unwrap();
        let q = evolved_point_mass(&simple, 0, 300);
        assert!((q[0] - 0.5).abs() < 1e-9);
        assert!((q[1] - 0.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_invalid_laziness_and_degenerate_graphs() {
        let g = generators::path(3).unwrap();
        assert!(TransitionMatrix::with_laziness(&g, 1.0).is_err());
        assert!(TransitionMatrix::with_laziness(&g, -0.1).is_err());
        assert!(TransitionMatrix::new(&Graph::from_edges(0, &[]).unwrap()).is_err());
        assert!(TransitionMatrix::new(&Graph::from_edges(2, &[]).unwrap()).is_err());
        assert!(TransitionMatrix::masked(&g, vec![true; 2], 0.0).is_err());
        assert!(TransitionMatrix::masked(&g, vec![true; 3], 1.0).is_err());
        let isolated = Graph::from_edges(3, &[(0, 1)]).unwrap();
        assert!(TransitionMatrix::masked(&isolated, vec![true; 3], 0.0).is_err());
    }

    fn masked_test_graph(seed: u64) -> Graph {
        generators::barabasi_albert(120, 3, &mut crate::rng::seeded_rng(seed)).unwrap()
    }

    #[test]
    fn all_available_mask_is_the_unmasked_operator_bitwise() {
        let g = masked_test_graph(5);
        let n = g.node_count();
        for laziness in [0.0, 0.3] {
            let matrix = TransitionMatrix::with_laziness(&g, laziness).unwrap();
            let masked = TransitionMatrix::masked(&g, vec![true; n], laziness).unwrap();
            assert_eq!(matrix.availability(), None);
            assert_eq!(masked.availability(), Some(&vec![true; n][..]));
            let mut p = vec![0.0; n];
            p[3] = 0.25;
            p[17] = 0.75;
            for _ in 0..9 {
                let a = scattered(&matrix, &p);
                assert_eq!(a, scattered(&masked, &p));
                p = a;
            }
        }
    }

    #[test]
    fn masked_operator_conserves_mass_and_blocks_unavailable_recipients() {
        let g = masked_test_graph(6);
        let n = g.node_count();
        let mut available = vec![true; n];
        for u in (0..n).step_by(3) {
            available[u] = false;
        }
        let masked = TransitionMatrix::masked(&g, available.clone(), 0.2).unwrap();
        let mut ensemble = DistributionEnsemble::point_masses(n, &[0, 5, n - 1]).unwrap();
        ensemble.advance(&masked, 6);
        for (row, dist) in ensemble.row_groups(&[0, 3]).concat().chunks(n).enumerate() {
            let sum: f64 = dist.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "row {row} sums to {sum}");
        }
        // One step from a point mass: unavailable neighbours receive nothing,
        // the redirected shares stay at the origin.
        let origin = 1;
        let out = evolved_point_mass(&masked, origin, 1);
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
    fn masked_probabilities_are_the_rows_of_the_scatter() {
        let g = masked_test_graph(7);
        let n = g.node_count();
        let available: Vec<bool> = (0..n).map(|u| u % 4 != 1).collect();
        let masked = TransitionMatrix::masked(&g, available.clone(), 0.15).unwrap();
        for i in 0..n {
            let row = evolved_point_mass(&masked, i, 1);
            let probabilities: Vec<f64> = (0..n).map(|j| masked.probability(i, j)).collect();
            let sum: f64 = probabilities.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12, "row {i} sums to {sum}");
            for (j, (&p, &q)) in probabilities.iter().zip(&row).enumerate() {
                assert!((p - q).abs() < 1e-12, "entry ({i}, {j}): {p} vs {q}");
                if j != i && !available[j] {
                    assert_eq!(p, 0.0, "dark {j} received a share from {i}");
                }
            }
            assert_eq!(masked.probability(i, n), 0.0);
            assert_eq!(masked.probability(i, u32::MAX as usize + 1 + i), 0.0);
        }
    }

    /// A 400-node graph whose hub 0 has degree 399 (above `u8::MAX`): a
    /// star whose leaves are chained into a path.
    fn hub_graph() -> Graph {
        let n = 400;
        let mut edges: Vec<(NodeId, NodeId)> = (1..n).map(|leaf| (0, leaf)).collect();
        edges.extend((1..n - 1).map(|leaf| (leaf, leaf + 1)));
        Graph::from_edges(n, &edges).unwrap()
    }

    /// `fraction` of the nodes unavailable, drawn at random.
    fn random_mask(n: usize, fraction: f64, rng: &mut impl Rng) -> Vec<bool> {
        (0..n).map(|_| rng.gen::<f64>() >= fraction).collect()
    }

    /// How a fill is expected to have reached its counts.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Fill {
        /// Nothing done: the mask was counted already.
        Kept,
        /// Updated from the flipped nodes.
        Delta,
        /// Scattered afresh from the dark nodes.
        Refill,
    }

    /// One buffer driven through a sequence of masks on one graph and then
    /// on another, as a schedule and a switch of topology would drive it,
    /// matching a brute-force count after every fill.  Before each fill a
    /// sentinel is added to one count: a refill must wipe it, a delta or a
    /// repeat must carry it — which tells which path each fill took.
    #[test]
    fn dark_counts_match_a_brute_force_count() {
        let mut rng = seeded_rng(11);
        let mut counts = DarkCounts::default();
        for g in [hub_graph(), masked_test_graph(8)] {
            let n = g.node_count();
            let csr = WalkCsr::of(&g).unwrap();
            let start: Arc<[bool]> = random_mask(n, 0.2, &mut rng).into();
            // A few flips both ways, the hub (node 0 of the hub graph)
            // among them.
            let dark: Vec<usize> = (1..n).filter(|&u| !start[u]).take(2).collect();
            let up: Vec<usize> = (1..n).filter(|&u| start[u]).take(2).collect();
            let flip = |mask: &[bool], nodes: &[usize]| -> Arc<[bool]> {
                let mut mask = mask.to_vec();
                for &u in nodes {
                    mask[u] = !mask[u];
                }
                mask.into()
            };
            let few = [0, dark[0], dark[1], up[0], up[1]];
            let flipped = flip(&start, &few);
            let complement: Arc<[bool]> = flipped.iter().map(|&up| !up).collect();
            let mut hub_dark = vec![true; n];
            hub_dark[0] = false;
            // Mostly dark but for the hub: one more flip than dark nodes
            // from `hub_dark`.
            let mut mostly_dark = random_mask(n, 0.7, &mut rng);
            mostly_dark[0] = true;
            let steps = [
                // The first fill, or the first over this graph's CSR.
                (Arc::clone(&start), Fill::Refill),
                (Arc::clone(&start), Fill::Kept),
                // Equal contents in another mask: no node flips.
                (start.iter().copied().collect(), Fill::Delta),
                (Arc::clone(&flipped), Fill::Delta),
                // Every node flips, as under i.i.d. dropout.
                (Arc::clone(&complement), Fill::Refill),
                (flip(&complement, &few), Fill::Delta),
                (vec![false; n].into(), Fill::Delta),
                (vec![true; n].into(), Fill::Refill),
                (hub_dark.into(), Fill::Refill),
                (mostly_dark.into(), Fill::Refill),
                (vec![false; n].into(), Fill::Delta),
            ];
            for (step, (mask, fill)) in steps.into_iter().enumerate() {
                let want: Vec<u32> = g
                    .nodes()
                    .map(|j| {
                        g.neighbors(j)
                            .iter()
                            .filter(|&&k| !mask[k as usize])
                            .count() as u32
                    })
                    .collect();
                if let Some(first) = counts.counts.first_mut() {
                    *first += 1_000;
                }
                let op = TransitionMatrix::over(Arc::clone(&csr), mask, 0.1).unwrap();
                op.prepare_round(0, &mut counts);
                let carried = counts.counts.len() == n && counts.counts[0] == want[0] + 1_000;
                assert_eq!(carried, fill != Fill::Refill, "step {step}: not a {fill:?}");
                if carried {
                    counts.counts[0] -= 1_000;
                }
                assert_eq!(counts.counts, want, "step {step} ({fill:?})");
            }
            // Everyone dark, last: the hub counts its whole degree.
            assert_eq!(counts.counts[0] as usize, g.degree(0));
        }
    }

    #[test]
    #[should_panic(expected = "dark counts were not prepared for this operator's mask")]
    fn a_masked_pull_refuses_counts_prepared_for_another_mask() {
        let g = masked_test_graph(9);
        let n = g.node_count();
        let prepared = TransitionMatrix::masked(&g, vec![true; n], 0.0).unwrap();
        let other = TransitionMatrix::masked(&g, vec![true; n], 0.0).unwrap();
        let mut counts = DarkCounts::default();
        prepared.prepare_round(0, &mut counts);
        let input = vec![1.0 / n as f64; 8 * n];
        let mut out = vec![0.0; 8 * n];
        other.propagate_round_interleaved_range(0, 8, &input, 0..n, &mut out, &counts);
    }

    /// Every pull body this host runs, called directly rather than through
    /// the dispatch: each lane of a step is bitwise the scatter, for the
    /// whole block and for ranges of it (empty, the first and the last
    /// node, and one drawn at random), unmasked and at dark fractions 0,
    /// 0.2, 0.7 and 1, laziness 0 and 0.3, over three steps from point
    /// masses (the first one dark) mixed with dense random rows.  Widths
    /// 8, 13 and 16 put the 8-lane body at offsets 0 and 8 beside the
    /// portable 4- and 1-lane runs.
    #[test]
    fn every_pull_body_matches_the_scatter_per_lane() {
        let g = masked_test_graph(10);
        let n = g.node_count();
        let mut rng = seeded_rng(12);
        for isa in Isa::supported() {
            for laziness in [0.0, 0.3] {
                for dark in [None, Some(0.0), Some(0.2), Some(0.7), Some(1.0)] {
                    for lanes in [8, 13, 16] {
                        let origins: Vec<NodeId> =
                            (0..lanes).map(|_| rng.gen_range(0..n)).collect();
                        let op = match dark {
                            None => TransitionMatrix::with_laziness(&g, laziness).unwrap(),
                            Some(fraction) => {
                                let mut mask = random_mask(n, fraction, &mut rng);
                                if fraction > 0.0 {
                                    mask[origins[0]] = false;
                                }
                                TransitionMatrix::masked(&g, mask, laziness).unwrap()
                            }
                        };
                        let mut rows: Vec<Vec<f64>> = origins
                            .iter()
                            .enumerate()
                            .map(|(lane, &origin)| {
                                let mut row = vec![0.0; n];
                                if lane % 2 == 0 {
                                    row[origin] = 1.0;
                                } else {
                                    row.iter_mut().for_each(|x| *x = rng.gen::<f64>());
                                    let total: f64 = row.iter().sum();
                                    row.iter_mut().for_each(|x| *x /= total);
                                }
                                row
                            })
                            .collect();
                        let mut counts = DarkCounts::default();
                        for step in 0..3 {
                            op.prepare_round(step, &mut counts);
                            let input: Vec<f64> = (0..n)
                                .flat_map(|i| rows.iter().map(move |row| row[i]))
                                .collect();
                            let wants: Vec<Vec<f64>> =
                                rows.iter().map(|row| scattered(&op, row)).collect();
                            let (a, b) = (rng.gen_range(0..n + 1), rng.gen_range(0..n + 1));
                            for nodes in [0..n, a..a, 0..1, n - 1..n, a.min(b)..a.max(b)] {
                                let mut out = vec![f64::NAN; nodes.len() * lanes];
                                op.pull_range(isa, lanes, &input, nodes.clone(), &mut out, &counts);
                                for (lane, want) in wants.iter().enumerate() {
                                    for j in nodes.clone() {
                                        assert_eq!(
                                            out[(j - nodes.start) * lanes + lane].to_bits(),
                                            want[j].to_bits(),
                                            "{isa:?}, dark {dark:?}, laziness {laziness}, \
                                             {lanes} lanes, step {step}, destinations \
                                             {nodes:?}: lane {lane} diverged at node {j}"
                                        );
                                    }
                                }
                            }
                            rows = wants;
                        }
                    }
                }
            }
        }
    }
}
