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
//! one topology, and has two kernels: a scalar scatter
//! ([`TransitionMatrix::propagate_into`]) and a pull kernel for interleaved
//! blocks of distributions, generic over lane width and over masked or not,
//! with an AVX2 body for unmasked 8-lane runs.  The pull kernel reads a
//! block in the ensemble's interleaved layout and writes the same layout,
//! for the whole block or for one destination range of it as one
//! contiguous chunk ([`TransitionModel::propagate_round_interleaved_range`]).
//! Every lane of the pull kernel is bitwise the scatter.

use crate::error::{GraphError, Result};
use crate::graph::{Graph, NodeId};
use crate::walk::validate_laziness;
use std::ops::Range;
use std::sync::Arc;

/// A backend that can evolve position distributions by one round.
///
/// The distribution-ensemble kernel ([`crate::ensemble`]) consumes the walk
/// only through this trait.  Implementors only have to provide the
/// single-distribution update: the batched interleaved form has a default
/// that routes each lane through [`TransitionModel::propagate_round_into`]
/// (the path the cut-restricted
/// [`crate::partition::IntraShardTransition`] takes), and
/// [`TransitionMatrix`] overrides it with its fused pull kernel.
pub trait TransitionModel {
    /// Number of nodes the distributions range over.
    fn node_count(&self) -> usize;

    /// One step of the distribution update, writing `P(t+1) = Mᵀ P(t)` into
    /// `out`.  Both slices have length [`TransitionModel::node_count`].
    fn propagate_into(&self, p: &[f64], out: &mut [f64]);

    /// [`TransitionModel::propagate_into`] for the step taken at absolute
    /// round `round` (0-based: the step evolving `P(round)` to
    /// `P(round + 1)`).
    ///
    /// Static backends ignore `round` — the default delegates to
    /// [`TransitionModel::propagate_into`].  Time-varying backends (see
    /// [`crate::dynamic::TimeVaryingModel`]) override this to dispatch to
    /// the operator scheduled for that round.  The ensemble kernel drives
    /// models exclusively through the round-aware entry points, threading
    /// its own absolute clock through, which is what lets one kernel serve
    /// static and dynamic topologies alike.
    fn propagate_round_into(&self, round: usize, p: &[f64], out: &mut [f64]) {
        let _ = round;
        self.propagate_into(p, out);
    }

    /// The step at absolute round `round` applied to `lanes` distributions
    /// stored interleaved: `input[i * lanes + l]` is entry `i` of
    /// distribution `l`, and its next state lands in
    /// `output[i * lanes + l]`.
    ///
    /// Each lane's output must be exactly what
    /// [`TransitionModel::propagate_round_into`] produces for that lane
    /// alone (the ensemble kernel's parity guarantees rest on this).  The
    /// default runs a single lane, which is its own row, in place, and
    /// otherwise gathers each lane into a scratch row and delegates —
    /// correct and allocating; backends that can fuse the lanes override
    /// it.
    ///
    /// # Panics
    ///
    /// Panics if `input` or `output` do not have length `lanes * n`.
    fn propagate_round_interleaved(
        &self,
        round: usize,
        lanes: usize,
        input: &[f64],
        output: &mut [f64],
    ) {
        let n = self.node_count();
        assert_eq!(input.len(), lanes * n, "interleaved input has wrong length");
        assert_eq!(
            output.len(),
            lanes * n,
            "interleaved output has wrong length"
        );
        if lanes == 1 {
            return self.propagate_round_into(round, input, output);
        }
        let mut row_in = vec![0.0; n];
        let mut row_out = vec![0.0; n];
        for lane in 0..lanes {
            for (i, x) in row_in.iter_mut().enumerate() {
                *x = input[i * lanes + lane];
            }
            self.propagate_round_into(round, &row_in, &mut row_out);
            for (i, &x) in row_out.iter().enumerate() {
                output[i * lanes + lane] = x;
            }
        }
    }

    /// Whether [`TransitionModel::propagate_round_interleaved_range`]
    /// computes round `round` for a fraction of the cost of the whole
    /// block, so a caller may split the round by destination range across
    /// threads.  The default (`false`) keeps every block one unit of work.
    fn has_range_kernel(&self, round: usize) -> bool {
        let _ = round;
        false
    }

    /// [`TransitionModel::propagate_round_interleaved`] restricted to the
    /// destinations `nodes`: `out` is those destinations' interleaved
    /// chunk, entry `j` of lane `l` at `out[(j - nodes.start) * lanes + l]`,
    /// bitwise what the whole-block call writes at `j * lanes + l`.  Ranges
    /// never interact, so disjoint ranges of one round can run at once.
    /// The default steps the whole block into a scratch buffer and copies
    /// the range out — correct, allocating, never fast; backends that say
    /// so through [`TransitionModel::has_range_kernel`] override it.
    ///
    /// # Panics
    ///
    /// Panics if `input` does not have length `lanes * n`, `nodes` does not
    /// lie within `0..n`, or `out` does not have length
    /// `nodes.len() * lanes`.
    fn propagate_round_interleaved_range(
        &self,
        round: usize,
        lanes: usize,
        input: &[f64],
        nodes: Range<usize>,
        out: &mut [f64],
    ) {
        let mut block = vec![0.0; input.len()];
        self.propagate_round_interleaved(round, lanes, input, &mut block);
        out.copy_from_slice(&block[nodes.start * lanes..nodes.end * lanes]);
    }

    /// The availability mask this operator routes around, when it applies
    /// a single one; `None` for operators that deliver to everyone (the
    /// default) and for schedules, whose mask changes by round (ask their
    /// per-round operator).
    fn availability(&self) -> Option<&[bool]> {
        None
    }
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
/// a whole schedule of per-round masks, or the cut-restricted operator's
/// rounds ([`crate::partition::IntraShardTransition`]).  The kernels sweep
/// this copy rather than the graph's own arrays, which measured about 20%
/// slower in the scatter.
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

    /// One step of the distribution update: returns `P(t+1) = Mᵀ P(t)`.
    ///
    /// The output is allocated; use [`TransitionMatrix::propagate_into`] to
    /// reuse buffers in hot loops.
    pub fn propagate(&self, p: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; p.len()];
        self.propagate_into(p, &mut out);
        out
    }

    /// One step of the distribution update writing into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `p` or `out` do not have length `n`.
    pub fn propagate_into(&self, p: &[f64], out: &mut [f64]) {
        let n = self.node_count();
        assert_eq!(p.len(), n, "input distribution has wrong length");
        assert_eq!(out.len(), n, "output buffer has wrong length");
        match self.available.as_deref() {
            None => self.scatter::<false>(&[], p, out),
            Some(mask) => self.scatter::<true>(mask, p, out),
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
            for &j in csr.neighbors(i) {
                let j = j as usize;
                if !MASKED || mask[j] {
                    out[j] += share;
                } else {
                    stay += share;
                }
            }
            out[i] += stay;
        }
    }

    /// Pulls destinations `nodes` of every lane of the interleaved block
    /// `input` into `out`, their interleaved chunk
    /// (`out[(j - nodes.start) * lanes + l]`), masked or not as the
    /// operator is.
    ///
    /// This is the hot kernel behind
    /// [`crate::ensemble::DistributionEnsemble`]: the offsets/neighbour
    /// arrays — the dominant memory traffic of
    /// [`TransitionMatrix::propagate_into`] — are streamed once per *block*
    /// of lanes instead of once per distribution, and every gathered share
    /// updates `lanes` adjacent f64s (one cache line for 8 lanes) instead of
    /// a single scattered one.  Lane `l`'s result is bit-for-bit identical
    /// to `propagate_into` applied to lane `l` alone.
    ///
    /// # Panics
    ///
    /// Panics unless `input` holds `lanes * n` f64s, `nodes` lies within
    /// `0..n` and `out` holds `nodes.len() * lanes` f64s — what the pull
    /// bodies' unchecked loads and stores rely on.
    fn pull_range(&self, lanes: usize, input: &[f64], nodes: Range<usize>, out: &mut [f64]) {
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
        match self.available {
            None => self.pull_runs::<false>(lanes, input, nodes, out),
            Some(_) => self.pull_runs::<true>(lanes, input, nodes, out),
        }
    }

    /// Runs every lane of an interleaved block through the pull kernel,
    /// one run of lanes at a time at a compile-time width (see
    /// [`lane_runs`]): a fixed trip count lets the compiler unroll and
    /// vectorize the per-edge loop (8 lanes of f64 = one cache line per
    /// gathered share).  Unmasked 8-lane runs take the AVX2 body on hosts
    /// that have it.  The arithmetic is identical in every arm.
    fn pull_runs<const MASKED: bool>(
        &self,
        lanes: usize,
        input: &[f64],
        nodes: Range<usize>,
        out: &mut [f64],
    ) {
        for (offset, width) in lane_runs(lanes) {
            let nodes = nodes.clone();
            match width {
                8 => {
                    #[cfg(target_arch = "x86_64")]
                    if !MASKED && std::arch::is_x86_feature_detected!("avx2") {
                        // SAFETY: AVX2 was just checked, `lane_runs` keeps
                        // `offset + 8 <= lanes`, and `pull_range` checked
                        // that `input` holds `n * lanes` f64s, that `nodes`
                        // lies within `0..n` and that `out` holds
                        // `nodes.len() * lanes` f64s.
                        #[allow(unsafe_code)]
                        unsafe {
                            self.propagate_gather8_avx2(lanes, offset, input, nodes, out);
                        }
                        continue;
                    }
                    self.pull::<8, MASKED>(lanes, offset, input, nodes, out)
                }
                4 => self.pull::<4, MASKED>(lanes, offset, input, nodes, out),
                2 => self.pull::<2, MASKED>(lanes, offset, input, nodes, out),
                _ => self.pull::<1, MASKED>(lanes, offset, input, nodes, out),
            }
        }
    }

    /// AVX2 instantiation of the unmasked 8-lane pull kernel.
    ///
    /// Emits exactly the portable kernel's arithmetic — per lane, each edge
    /// contributes `(move_factor · mass) · inv_degree` via two `vmulpd`s
    /// and one `vaddpd`, never an FMA — so results stay bitwise identical
    /// to [`TransitionMatrix::pull`] and hence to
    /// [`TransitionMatrix::propagate_into`]; only the instruction-level
    /// parallelism changes (two independent 4-lane accumulator chains).
    ///
    /// # Safety
    ///
    /// The host must support AVX2, `offset + 8 <= lanes`, `input` must
    /// hold `n * lanes` f64s, `nodes` must lie within `0..n` and `out` must
    /// hold `nodes.len() * lanes` f64s; the loads also rely on the CSR's
    /// construction invariants (every neighbour id is `< n`, `inv_degree`
    /// has `n` entries).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    #[allow(unsafe_code)]
    unsafe fn propagate_gather8_avx2(
        &self,
        lanes: usize,
        offset: usize,
        input: &[f64],
        nodes: Range<usize>,
        out: &mut [f64],
    ) {
        use std::arch::x86_64::*;
        const PREFETCH_DISTANCE: usize = 8;
        let csr = &*self.csr;
        let move_factor = _mm256_set1_pd(1.0 - self.laziness);
        let laziness = _mm256_set1_pd(self.laziness);
        let in_ptr = input.as_ptr();
        let out_ptr = out.as_mut_ptr();
        let start = nodes.start;
        let edge_count = csr.neighbors.len();
        for j in nodes {
            let base = j * lanes + offset;
            let in_j0 = _mm256_loadu_pd(in_ptr.add(base));
            let in_j1 = _mm256_loadu_pd(in_ptr.add(base + 4));
            let mut acc0 = _mm256_setzero_pd();
            let mut acc1 = _mm256_setzero_pd();
            let mut lazy_pending = true;
            for idx in *csr.offsets.get_unchecked(j)..*csr.offsets.get_unchecked(j + 1) {
                if idx + PREFETCH_DISTANCE < edge_count {
                    let ahead = *csr.neighbors.get_unchecked(idx + PREFETCH_DISTANCE) as usize;
                    _mm_prefetch(in_ptr.add(ahead * lanes + offset) as *const i8, _MM_HINT_T0);
                }
                let i = *csr.neighbors.get_unchecked(idx) as usize;
                if lazy_pending && i > j {
                    acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(laziness, in_j0));
                    acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(laziness, in_j1));
                    lazy_pending = false;
                }
                let inv_degree = _mm256_set1_pd(*csr.inv_degree.get_unchecked(i));
                let ib = i * lanes + offset;
                let v0 = _mm256_loadu_pd(in_ptr.add(ib));
                let v1 = _mm256_loadu_pd(in_ptr.add(ib + 4));
                acc0 = _mm256_add_pd(
                    acc0,
                    _mm256_mul_pd(_mm256_mul_pd(move_factor, v0), inv_degree),
                );
                acc1 = _mm256_add_pd(
                    acc1,
                    _mm256_mul_pd(_mm256_mul_pd(move_factor, v1), inv_degree),
                );
            }
            if lazy_pending {
                acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(laziness, in_j0));
                acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(laziness, in_j1));
            }
            let ob = (j - start) * lanes + offset;
            _mm256_storeu_pd(out_ptr.add(ob), acc0);
            _mm256_storeu_pd(out_ptr.add(ob + 4), acc1);
        }
    }

    /// The portable pull kernel: lanes `offset..offset + L` of the
    /// destinations `nodes` of an interleaved block `lanes` wide, under the
    /// mask when `MASKED`, stored at `out[(j - nodes.start) * lanes +
    /// offset..]`.
    ///
    /// Instead of scattering each node's share to its neighbours (a random
    /// read-for-ownership per edge, whose miss latency serializes the
    /// loop), each destination `j` gathers `move_factor · mass_i ·
    /// inv_deg_i` from its sorted neighbour list into register
    /// accumulators and stores its lanes once.  Random memory traffic
    /// becomes plain reads, which the core can keep many of in flight,
    /// helped along by an explicit prefetch a few edges ahead.
    ///
    /// Bit parity with [`TransitionMatrix::propagate_into`] per lane: the
    /// scatter accumulates `out[j]` in ascending source order, adding `j`'s
    /// own stay term (laziness plus, when masked, one share per unavailable
    /// neighbour, accumulated in CSR neighbour order) when the sweep passes
    /// `j`.  Neighbour lists are sorted ascending, so gathering in list
    /// order and folding the stay term in at the first neighbour `> j`
    /// reproduces that sequence of adds — and its roundings — exactly, and
    /// an unavailable `j` receives only its stay term.  Zero-mass sources,
    /// which the scatter skips, add `+0.0`, which never changes a
    /// non-negative accumulation.  Unmasked, the dark-neighbour pass and
    /// the dark-`j` store compile out.
    ///
    /// The per-edge loads go through raw pointers because checked indexing
    /// costs more than the arithmetic.  They rely on construction
    /// invariants: every neighbour id is `< n`, `inv_degree` has `n`
    /// entries, `offset + L <= lanes`, and the dispatcher asserted the
    /// input holds `n * lanes` f64s and `nodes` lies within `0..n`.
    #[allow(unsafe_code)]
    fn pull<const L: usize, const MASKED: bool>(
        &self,
        lanes: usize,
        offset: usize,
        input: &[f64],
        nodes: Range<usize>,
        out: &mut [f64],
    ) {
        // How many edges ahead source lines are prefetched.  The masked
        // form looks twice as far, which measured faster at 1M nodes (its
        // per-node dark-neighbour pass eats into the lead).
        let prefetch_distance = if MASKED { 16 } else { 8 };
        let csr = &*self.csr;
        let mask = self.available.as_deref().unwrap_or_default();
        let move_factor = 1.0 - self.laziness;
        let in_ptr = input.as_ptr();
        let edge_count = csr.neighbors.len();
        let start = nodes.start;
        for j in nodes {
            let base = j * lanes + offset;
            let stored = (j - start) * lanes + offset;
            let out = &mut out[stored..stored + L];
            let own: &[f64; L] = input[base..base + L].try_into().expect("lane width");
            let mut stay = [0.0f64; L];
            for lane in 0..L {
                stay[lane] = self.laziness * own[lane];
            }
            if MASKED {
                let dark = csr
                    .neighbors(j)
                    .iter()
                    .filter(|&&k| !mask[k as usize])
                    .count();
                if dark > 0 {
                    let inv_degree = csr.inv_degree(j);
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
                if !mask[j] {
                    out.copy_from_slice(&stay);
                    continue;
                }
            }
            let mut acc = [0.0f64; L];
            let mut stay_pending = true;
            for idx in csr.offsets[j]..csr.offsets[j + 1] {
                // SAFETY: see the function docs; `idx` stays inside node
                // `j`'s CSR window, every neighbour id is `< n`, and the
                // prefetch look-ahead is bounds-checked explicitly.
                unsafe {
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
            out.copy_from_slice(&acc);
        }
    }

    /// Evolves a distribution for `steps` rounds, returning `P(t)`.
    pub fn evolve(&self, p0: &[f64], steps: usize) -> Vec<f64> {
        let mut current = p0.to_vec();
        let mut scratch = vec![0.0; p0.len()];
        for _ in 0..steps {
            self.propagate_into(&current, &mut scratch);
            std::mem::swap(&mut current, &mut scratch);
        }
        current
    }
}

impl TransitionModel for TransitionMatrix {
    fn node_count(&self) -> usize {
        TransitionMatrix::node_count(self)
    }

    fn propagate_into(&self, p: &[f64], out: &mut [f64]) {
        TransitionMatrix::propagate_into(self, p, out);
    }

    /// A single lane is its own row and runs the scatter; wider blocks run
    /// the pull kernel over every destination.
    fn propagate_round_interleaved(
        &self,
        _round: usize,
        lanes: usize,
        input: &[f64],
        output: &mut [f64],
    ) {
        if lanes == 1 {
            self.propagate_into(input, output);
        } else {
            self.pull_range(lanes, input, 0..self.node_count(), output);
        }
    }

    fn has_range_kernel(&self, _round: usize) -> bool {
        true
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
    ) {
        self.pull_range(lanes, input, nodes, out);
    }

    fn availability(&self) -> Option<&[bool]> {
        TransitionMatrix::availability(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

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
        let q = m.propagate(&p);
        assert!((q.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(q.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn point_mass_on_star_leaf_moves_to_hub() {
        let g = generators::star(4).unwrap();
        let m = TransitionMatrix::new(&g).unwrap();
        let mut p = vec![0.0; 4];
        p[1] = 1.0; // a leaf
        let q = m.propagate(&p);
        assert!((q[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn evolve_converges_towards_stationary_on_odd_cycle() {
        let g = generators::cycle(5).unwrap();
        let m = TransitionMatrix::new(&g).unwrap();
        let mut p0 = vec![0.0; 5];
        p0[0] = 1.0;
        let p = m.evolve(&p0, 500);
        for &x in &p {
            assert!((x - 0.2).abs() < 1e-6);
        }
    }

    #[test]
    fn lazy_walk_mixes_on_bipartite_graph() {
        let g = generators::cycle(4).unwrap();
        let lazy = TransitionMatrix::with_laziness(&g, 0.5).unwrap();
        let mut p0 = vec![0.0; 4];
        p0[0] = 1.0;
        let p = lazy.evolve(&p0, 300);
        for &x in &p {
            assert!((x - 0.25).abs() < 1e-6);
        }
        // The non-lazy walk oscillates and never mixes.
        let simple = TransitionMatrix::new(&g).unwrap();
        let q = simple.evolve(&p0, 300);
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
                let a = matrix.propagate(&p);
                assert_eq!(a, masked.propagate(&p));
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
        let mut ensemble =
            crate::ensemble::DistributionEnsemble::point_masses(n, &[0, 5, n - 1]).unwrap();
        ensemble.advance(&masked, 6);
        for (row, dist) in ensemble.row_groups(&[0, 3]).concat().chunks(n).enumerate() {
            let sum: f64 = dist.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "row {row} sums to {sum}");
        }
        // One step from a point mass: unavailable neighbours receive nothing,
        // the redirected shares stay at the origin.
        let origin = 1;
        let mut p = vec![0.0; n];
        p[origin] = 1.0;
        let out = masked.propagate(&p);
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
            let mut point = vec![0.0; n];
            point[i] = 1.0;
            let row = masked.propagate(&point);
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
}
