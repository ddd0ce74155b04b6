//! The random-walk transition matrix `M = A B⁻¹` and distribution updates.
//!
//! `M_{ij} = A_{ij} / deg(i)` is the probability that a report held by user
//! `i` is relayed to user `j` in one round.  The position probability
//! distribution evolves as `P(t+1) = Mᵀ P(t)` (Section 4.1).  The matrix is
//! never materialized densely; updates stream over the CSR adjacency so a
//! single round costs `O(n + m)`.

use crate::error::{GraphError, Result};
use crate::graph::Graph;

/// A backend that can evolve position distributions by one round.
///
/// The distribution-ensemble kernel ([`crate::ensemble`]) consumes the walk
/// only through this trait, so the concrete [`TransitionMatrix`] and
/// black-box backends (dynamic graphs, availability-dependent routing, …)
/// plug in interchangeably.  Implementors only have to provide the
/// single-distribution update; the batched interleaved form has a default
/// implementation that routes each lane through [`TransitionModel::propagate_into`],
/// and backends with structure to exploit (like the CSR matrix) override it
/// with a fused kernel.
pub trait TransitionModel {
    /// Number of nodes the distributions range over.
    fn node_count(&self) -> usize;

    /// One step of the distribution update, writing `P(t+1) = Mᵀ P(t)` into
    /// `out`.  Both slices have length [`TransitionModel::node_count`].
    fn propagate_into(&self, p: &[f64], out: &mut [f64]);

    /// One step applied to `lanes` distributions stored interleaved:
    /// `input[i * lanes + l]` is entry `i` of distribution `l`.
    ///
    /// The contract mirrors [`TransitionModel::propagate_into`] lane by lane:
    /// each lane's output must be exactly what `propagate_into` would have
    /// produced for that lane alone (the ensemble kernel's parity guarantees
    /// rest on this).  The default implementation gathers each lane into a
    /// scratch row and delegates; override it when the backend can fuse the
    /// lanes (see [`TransitionMatrix::propagate_interleaved`]).
    ///
    /// # Panics
    ///
    /// Panics if `input` or `output` do not have length `lanes * n`.
    fn propagate_interleaved(&self, lanes: usize, input: &[f64], output: &mut [f64]) {
        let n = self.node_count();
        assert_eq!(input.len(), lanes * n, "interleaved input has wrong length");
        assert_eq!(
            output.len(),
            lanes * n,
            "interleaved output has wrong length"
        );
        let mut row_in = vec![0.0; n];
        let mut row_out = vec![0.0; n];
        for lane in 0..lanes {
            for i in 0..n {
                row_in[i] = input[i * lanes + lane];
            }
            self.propagate_into(&row_in, &mut row_out);
            for i in 0..n {
                output[i * lanes + lane] = row_out[i];
            }
        }
    }

    /// [`TransitionModel::propagate_into`] for the step taken at absolute
    /// round `round` (0-based: the step evolving `P(round)` to
    /// `P(round + 1)`).
    ///
    /// Static backends ignore `round` — the default delegates to
    /// [`TransitionModel::propagate_into`], so every existing implementor is
    /// unchanged bit for bit.  Time-varying backends (see
    /// [`crate::dynamic::TimeVaryingModel`]) override this to dispatch to
    /// the operator scheduled for that round.  The ensemble kernel drives
    /// models exclusively through the round-aware entry points, threading
    /// its own absolute clock through, which is what lets one kernel serve
    /// static and dynamic topologies alike.
    fn propagate_round_into(&self, round: usize, p: &[f64], out: &mut [f64]) {
        let _ = round;
        self.propagate_into(p, out);
    }

    /// [`TransitionModel::propagate_interleaved`] for the step taken at
    /// absolute round `round`; same contract and default-delegation rules as
    /// [`TransitionModel::propagate_round_into`].
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
        let _ = round;
        self.propagate_interleaved(lanes, input, output);
    }

    /// [`TransitionModel::propagate_round_interleaved`] with a row-major
    /// result: `input[i * lanes + l]` is entry `i` of distribution `l`, and
    /// that distribution's next state lands in `output[l * n..(l + 1) * n]`.
    ///
    /// This is the ensemble's one-buffer round: a block's rows are
    /// transposed into one interleaved scratch and the step writes the
    /// next state straight back into the rows, with no second scratch and
    /// no transpose back.  Same per-lane bitwise contract as
    /// [`TransitionModel::propagate_interleaved`].  The default gathers
    /// each lane into a scratch row and runs
    /// [`TransitionModel::propagate_round_into`] into its output row —
    /// correct, allocating, never fast; fused backends override it.
    ///
    /// # Panics
    ///
    /// Panics if `input` or `output` do not have length `lanes * n`.
    fn propagate_round_interleaved_rows(
        &self,
        round: usize,
        lanes: usize,
        input: &[f64],
        output: &mut [f64],
    ) {
        let n = self.node_count();
        assert_eq!(input.len(), lanes * n, "interleaved input has wrong length");
        assert_eq!(output.len(), lanes * n, "output block has wrong length");
        let mut row_in = vec![0.0; n];
        for (lane, out_row) in output.chunks_mut(n).enumerate() {
            for (i, x) in row_in.iter_mut().enumerate() {
                *x = input[i * lanes + lane];
            }
            self.propagate_round_into(round, &row_in, out_row);
        }
    }
}

/// Where a fused pull kernel stores the lanes it accumulated for one node.
pub(crate) enum LaneOut<'a> {
    /// The input's interleaved layout: lane `l` of node `j` at
    /// `out[j * lanes + l]`.
    Interleaved(&'a mut [f64]),
    /// Row-major: lane `l` of node `j` at `out[l * n + j]`.
    Rows(&'a mut [f64]),
}

impl LaneOut<'_> {
    /// Stores lanes `offset..offset + L` of node `j`.
    #[inline(always)]
    pub(crate) fn put<const L: usize>(
        &mut self,
        n: usize,
        lanes: usize,
        offset: usize,
        j: usize,
        acc: &[f64; L],
    ) {
        match self {
            LaneOut::Interleaved(out) => {
                let base = j * lanes + offset;
                out[base..base + L].copy_from_slice(acc);
            }
            LaneOut::Rows(out) => {
                for (lane, &value) in acc.iter().enumerate() {
                    out[(offset + lane) * n + j] = value;
                }
            }
        }
    }
}

/// Splits `lanes` interleaved lanes into `(offset, width)` runs of the
/// compile-time widths the fused kernels are instantiated at — 8, then 4,
/// 2 and 1 for the remainder — so any lane count runs on fixed-width
/// accumulators.  Lanes never interact, so the split changes no result.
pub(crate) fn lane_runs(lanes: usize) -> impl Iterator<Item = (usize, usize)> {
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

/// A black-box transition backend defined by a closure.
///
/// This is the escape hatch for transition structures that are only
/// available as a simulator — time-varying graphs, availability-dependent
/// routing — which the paper lists as future work.  The closure receives the
/// current distribution and must write the next one; it is used through
/// [`TransitionModel`], so everything built on the ensemble kernel (exact
/// accounting, trajectory sweeps) works unchanged.
#[derive(Debug, Clone)]
pub struct BlackBoxModel<F> {
    node_count: usize,
    update: F,
}

impl<F: Fn(&[f64], &mut [f64])> BlackBoxModel<F> {
    /// Wraps `update` as a transition model over `node_count` nodes.
    ///
    /// # Errors
    ///
    /// [`GraphError::EmptyGraph`] if `node_count == 0`.
    pub fn new(node_count: usize, update: F) -> Result<Self> {
        if node_count == 0 {
            return Err(GraphError::EmptyGraph);
        }
        Ok(BlackBoxModel { node_count, update })
    }
}

impl<F: Fn(&[f64], &mut [f64])> TransitionModel for BlackBoxModel<F> {
    fn node_count(&self) -> usize {
        self.node_count
    }

    fn propagate_into(&self, p: &[f64], out: &mut [f64]) {
        (self.update)(p, out);
    }
}

/// A sparse, implicit representation of the transition matrix of the simple
/// (optionally lazy) random walk on a graph.
#[derive(Debug, Clone)]
pub struct TransitionMatrix {
    /// Reciprocal degrees `1 / deg(i)`.
    inv_degree: Vec<f64>,
    /// Offsets/neighbors copied from the graph (borrowing would tie the
    /// matrix's lifetime to the graph; the copy is 2m + n words and keeps the
    /// API simple).
    offsets: Vec<usize>,
    neighbors: Vec<usize>,
    /// Probability of staying put in one round (0 for the simple walk).
    laziness: f64,
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
        if !(0.0..1.0).contains(&laziness) {
            return Err(GraphError::InvalidParameters(format!(
                "laziness must be in [0, 1), got {laziness}"
            )));
        }
        let n = graph.node_count();
        if n == 0 {
            return Err(GraphError::EmptyGraph);
        }
        if let Some(u) = graph.find_isolated_node() {
            return Err(GraphError::IsolatedNode(u));
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut neighbors = Vec::with_capacity(2 * graph.edge_count());
        offsets.push(0usize);
        for u in graph.nodes() {
            neighbors.extend(graph.neighbors(u).iter().map(|&v| v as usize));
            offsets.push(neighbors.len());
        }
        let inv_degree = graph
            .nodes()
            .map(|u| 1.0 / graph.degree(u) as f64)
            .collect();
        Ok(TransitionMatrix {
            inv_degree,
            offsets,
            neighbors,
            laziness,
        })
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.inv_degree.len()
    }

    /// The laziness (self-loop probability) of the walk.
    pub fn laziness(&self) -> f64 {
        self.laziness
    }

    /// Transition probability `Pr[next = j | current = i]`.
    pub fn probability(&self, i: usize, j: usize) -> f64 {
        let stay = if i == j { self.laziness } else { 0.0 };
        let nbrs = &self.neighbors[self.offsets[i]..self.offsets[i + 1]];
        let move_mass = if nbrs.binary_search(&j).is_ok() {
            (1.0 - self.laziness) * self.inv_degree[i]
        } else {
            0.0
        };
        stay + move_mass
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
        let move_factor = 1.0 - self.laziness;
        for x in out.iter_mut() {
            *x = 0.0;
        }
        // Scatter: node i sends (1-laziness) * P_i / deg(i) to each neighbour
        // and keeps laziness * P_i.
        for i in 0..n {
            let mass = p[i];
            if mass == 0.0 {
                continue;
            }
            out[i] += self.laziness * mass;
            let share = move_factor * mass * self.inv_degree[i];
            for &j in &self.neighbors[self.offsets[i]..self.offsets[i + 1]] {
                out[j] += share;
            }
        }
    }

    /// One step applied to `lanes` interleaved distributions
    /// (`input[i * lanes + l]` is entry `i` of lane `l`) in a single fused
    /// sweep of the CSR structure.
    ///
    /// This is the hot kernel behind [`crate::ensemble::DistributionEnsemble`]:
    /// the offsets/neighbour arrays — the dominant memory traffic of
    /// [`TransitionMatrix::propagate_into`] — are streamed once per *block*
    /// of lanes instead of once per distribution, and every delivered share
    /// updates `lanes` adjacent f64s (one cache line for 8 lanes) instead of
    /// a single scattered one.  Lane `l`'s result is bit-for-bit identical to
    /// `propagate_into` applied to lane `l` alone: the per-node and
    /// per-neighbour iteration order, and the rounding of every intermediate,
    /// are the same.
    ///
    /// # Panics
    ///
    /// Panics if `input` or `output` do not have length `lanes * n`.
    pub fn propagate_interleaved(&self, lanes: usize, input: &[f64], output: &mut [f64]) {
        let n = self.node_count();
        assert_eq!(input.len(), lanes * n, "interleaved input has wrong length");
        assert_eq!(
            output.len(),
            lanes * n,
            "interleaved output has wrong length"
        );
        self.propagate_lanes(lanes, input, LaneOut::Interleaved(output));
    }

    /// Dispatches `lanes` interleaved lanes to the fused kernels, storing
    /// through `out`.  The per-edge inner loop is the hottest code in the
    /// crate, so every run of lanes goes to a compile-time width (see
    /// [`lane_runs`]): a fixed trip count lets the compiler unroll and
    /// vectorize it (8 lanes of f64 = one cache line per gathered share).
    /// The arithmetic is identical in every arm.
    fn propagate_lanes(&self, lanes: usize, input: &[f64], mut out: LaneOut<'_>) {
        if lanes == 1 {
            // Degenerate block: the interleaved layout *is* the row layout.
            let (LaneOut::Interleaved(output) | LaneOut::Rows(output)) = out;
            return self.propagate_into(input, output);
        }
        for (offset, width) in lane_runs(lanes) {
            match width {
                8 => {
                    #[cfg(target_arch = "x86_64")]
                    if std::arch::is_x86_feature_detected!("avx2") {
                        // SAFETY: the AVX2 requirement was just checked.
                        #[allow(unsafe_code)]
                        unsafe {
                            self.propagate_gather8_avx2(lanes, offset, input, &mut out);
                        }
                        continue;
                    }
                    self.propagate_fixed::<8>(lanes, offset, input, &mut out)
                }
                4 => self.propagate_fixed::<4>(lanes, offset, input, &mut out),
                2 => self.propagate_fixed::<2>(lanes, offset, input, &mut out),
                _ => self.propagate_fixed::<1>(lanes, offset, input, &mut out),
            }
        }
    }

    /// AVX2 instantiation of the 8-lane gather kernel.
    ///
    /// Emits exactly the scalar kernel's arithmetic — per lane, each edge
    /// contributes `(move_factor · mass) · inv_degree` via two `vmulpd`s
    /// and one `vaddpd`, never an FMA — so results stay bitwise identical
    /// to [`TransitionMatrix::propagate_fixed`] and hence to
    /// [`TransitionMatrix::propagate_into`]; only the instruction-level
    /// parallelism changes (two independent 4-lane accumulator chains).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    #[allow(unsafe_code)]
    unsafe fn propagate_gather8_avx2(
        &self,
        lanes: usize,
        offset: usize,
        input: &[f64],
        out: &mut LaneOut<'_>,
    ) {
        use std::arch::x86_64::*;
        const PREFETCH_DISTANCE: usize = 8;
        let n = self.node_count();
        let move_factor = _mm256_set1_pd(1.0 - self.laziness);
        let laziness = _mm256_set1_pd(self.laziness);
        let in_ptr = input.as_ptr();
        let edge_count = self.neighbors.len();
        let mut acc = [0.0f64; 8];
        for j in 0..n {
            let base = j * lanes + offset;
            let in_j0 = _mm256_loadu_pd(in_ptr.add(base));
            let in_j1 = _mm256_loadu_pd(in_ptr.add(base + 4));
            let mut acc0 = _mm256_setzero_pd();
            let mut acc1 = _mm256_setzero_pd();
            let mut lazy_pending = true;
            for idx in *self.offsets.get_unchecked(j)..*self.offsets.get_unchecked(j + 1) {
                if idx + PREFETCH_DISTANCE < edge_count {
                    let ahead = *self.neighbors.get_unchecked(idx + PREFETCH_DISTANCE);
                    _mm_prefetch(in_ptr.add(ahead * lanes + offset) as *const i8, _MM_HINT_T0);
                }
                let i = *self.neighbors.get_unchecked(idx);
                if lazy_pending && i > j {
                    acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(laziness, in_j0));
                    acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(laziness, in_j1));
                    lazy_pending = false;
                }
                let inv_degree = _mm256_set1_pd(*self.inv_degree.get_unchecked(i));
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
            _mm256_storeu_pd(acc.as_mut_ptr(), acc0);
            _mm256_storeu_pd(acc.as_mut_ptr().add(4), acc1);
            out.put::<8>(n, lanes, offset, j, &acc);
        }
    }

    /// Fixed-lane-width body of [`TransitionMatrix::propagate_interleaved`]:
    /// lanes `offset..offset + L` of an interleaved block `lanes` wide.
    ///
    /// The kernel is *pull*-based: instead of scattering each node's share
    /// to its neighbours (a random read-for-ownership per edge, whose miss
    /// latency serializes the loop), each destination row gathers
    /// `move_factor · mass_i · inv_deg_i` from its sorted neighbour list
    /// and accumulates in registers, writing each output line exactly once.
    /// Random memory traffic becomes plain reads, which the core can keep
    /// many of in flight (helped along by an explicit prefetch a few edges
    /// ahead).
    ///
    /// Bit parity with [`TransitionMatrix::propagate_into`] per lane:
    /// the push form accumulates `out[j]` in ascending source order over
    /// one sweep (`i = 0..n`), the lazy self-term landing when the sweep
    /// passes `i = j`.  Neighbour lists are sorted ascending, so gathering
    /// in list order and folding the self-term in at the first neighbour
    /// `> j` reproduces that sequence of adds — and its roundings — exactly
    /// (contributions from zero-mass sources, which the push form skips,
    /// add `±0.0`, which never changes a non-negative accumulation).
    ///
    /// This is the one stretch of `unsafe` in the crate: the per-edge loads
    /// go through raw pointers because checked indexing costs more than the
    /// arithmetic.  It relies on construction invariants — every neighbour
    /// id is `< n`, `inv_degree` has `n` entries, `offset + L <= lanes`,
    /// and the dispatcher asserted the input holds `n * lanes` f64s.
    #[allow(unsafe_code)]
    fn propagate_fixed<const L: usize>(
        &self,
        lanes: usize,
        offset: usize,
        input: &[f64],
        out: &mut LaneOut<'_>,
    ) {
        /// How many edges ahead source lines are prefetched.
        const PREFETCH_DISTANCE: usize = 8;
        let n = self.node_count();
        let move_factor = 1.0 - self.laziness;
        let in_ptr = input.as_ptr();
        let edge_count = self.neighbors.len();
        for j in 0..n {
            let base = j * lanes + offset;
            let in_j: &[f64; L] = input[base..base + L].try_into().expect("lane width");
            let mut acc = [0.0f64; L];
            let mut lazy_pending = true;
            for idx in self.offsets[j]..self.offsets[j + 1] {
                // SAFETY: see the function docs; `idx` stays inside node
                // `j`'s CSR window, every neighbour id is `< n`, and the
                // prefetch look-ahead is bounds-checked explicitly.
                unsafe {
                    #[cfg(target_arch = "x86_64")]
                    if idx + PREFETCH_DISTANCE < edge_count {
                        let ahead = *self.neighbors.get_unchecked(idx + PREFETCH_DISTANCE);
                        std::arch::x86_64::_mm_prefetch(
                            in_ptr.add(ahead * lanes + offset) as *const i8,
                            std::arch::x86_64::_MM_HINT_T0,
                        );
                    }
                    let i = *self.neighbors.get_unchecked(idx);
                    if lazy_pending && i > j {
                        for lane in 0..L {
                            acc[lane] += self.laziness * in_j[lane];
                        }
                        lazy_pending = false;
                    }
                    let inv_degree = *self.inv_degree.get_unchecked(i);
                    let in_i = in_ptr.add(i * lanes + offset);
                    for (lane, acc_lane) in acc.iter_mut().enumerate() {
                        *acc_lane += move_factor * *in_i.add(lane) * inv_degree;
                    }
                }
            }
            if lazy_pending {
                for lane in 0..L {
                    acc[lane] += self.laziness * in_j[lane];
                }
            }
            out.put::<L>(n, lanes, offset, j, &acc);
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

    fn propagate_interleaved(&self, lanes: usize, input: &[f64], output: &mut [f64]) {
        TransitionMatrix::propagate_interleaved(self, lanes, input, output);
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
        self.propagate_lanes(lanes, input, LaneOut::Rows(output));
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
    }
}
