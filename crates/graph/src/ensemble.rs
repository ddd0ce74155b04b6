//! Batched evolution of *ensembles* of position distributions.
//!
//! The paper's theorems consume the graph only through `Σ_i P_i^G(t)²` (and
//! the support ratio `ρ*`) of the position distribution of a report.  On
//! vertex-transitive graphs one origin stands for all of them, but on the
//! irregular topologies this repository generates (Chung–Lu, Barabási–Albert,
//! SBM) every origin has its *own* distribution, and answering the per-user
//! question — "what guarantee does user `o` actually get?" — requires
//! evolving many distributions at once.
//!
//! [`DistributionEnsemble`] stores `sources` distributions as one flat
//! row-major `sources × n` buffer and advances all of them with a blocked
//! kernel: rows are processed [`LANES`] at a time, transposed (tiled) into
//! an interleaved `n × lanes` scratch block, and evolved by
//! [`TransitionModel::propagate_round_interleaved`], the last round writing
//! row-major straight back into the rows
//! ([`TransitionModel::propagate_round_interleaved_rows`]).  A one-round
//! advance therefore needs a single scratch block, and the ensemble keeps
//! it across calls, so a caller taking one round per call allocates nothing
//! after its first.  For the CSR-backed
//! [`crate::transition::TransitionMatrix`] this streams the offsets/neighbour
//! arrays once per block instead of once per origin and turns the scattered
//! per-edge updates into contiguous `lanes`-wide gathers, which is where the
//! multi-× speedup over a naive per-origin `propagate` loop comes from
//! (`crates/bench/benches/ensemble.rs`).
//!
//! Every lane reproduces the single-distribution update **bit for bit** (see
//! `TransitionModel::propagate_interleaved`'s contract), so
//! [`crate::distribution::PositionDistribution`] is a thin view over a 1-row
//! ensemble and exact multi-origin accounting agrees with the historical
//! single-origin route exactly.  Blocks run one after another on the
//! calling thread and never interact.
//!
//! The module also provides bounded-memory drivers over *all* `n` origins
//! ([`all_origin_moments`], [`all_origin_trajectories`]): the full ensemble
//! would be an `n × n` matrix (80 GB at `n = 100 000`), so origins are
//! streamed through in batches of [`batch capacity`](DistributionEnsemble)
//! rows and reduced to their accounting moments on the fly.

use crate::error::{GraphError, Result};
use crate::graph::NodeId;
use crate::transition::TransitionModel;
use serde::{Deserialize, Serialize};

/// Rows per kernel block: 8 lanes × 8-byte f64 = one 64-byte cache line per
/// delivered share.
pub const LANES: usize = 8;

/// Per-buffer memory target of the streaming all-origin drivers, in bytes.
const BATCH_TARGET_BYTES: usize = 64 << 20;

/// The accounting moments of one position distribution: exactly the two
/// quantities Theorems 5.3–5.6 consume.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RowStats {
    /// `Σ_i P_i²` — the collision probability of the distribution.
    pub sum_of_squares: f64,
    /// Support ratio `ρ* = max_i P_i / min_{i: P_i > 0} P_i`, with the
    /// accountant's convention of `1.0` when undefined.
    pub support_ratio: f64,
}

impl Default for RowStats {
    fn default() -> Self {
        RowStats {
            sum_of_squares: 0.0,
            support_ratio: 1.0,
        }
    }
}

impl RowStats {
    /// The component-wise worst (largest) of `stats`, folded in order from
    /// the default — a valid input for a guarantee that must cover every
    /// source at once.
    pub fn worst_of(stats: impl IntoIterator<Item = RowStats>) -> RowStats {
        stats
            .into_iter()
            .fold(RowStats::default(), |worst, stats| RowStats {
                sum_of_squares: worst.sum_of_squares.max(stats.sum_of_squares),
                support_ratio: worst.support_ratio.max(stats.support_ratio),
            })
    }
}

/// Independent chains the max and min-positive folds are split across.
const CHAINS: usize = 4;

/// The running fold behind [`RowStats`]: `Σx²` as one chain in index order,
/// the max and the min over positive entries as [`CHAINS`] independent
/// chains (entry `i` feeds chain `i % CHAINS`) merged at the end.
///
/// The split chains are bitwise the single ordered fold: `f64::max`
/// ignores NaN, so the max of the non-NaN entries is the same value in any
/// order up to the sign of a zero; the min skips every non-positive entry,
/// so it has no signed zeros; and a zero max means no entry is positive,
/// where the support ratio is 1 whatever the zero's sign.
struct Moments {
    sum_of_squares: f64,
    max: [f64; CHAINS],
    min_positive: [f64; CHAINS],
}

impl Moments {
    fn new() -> Self {
        Moments {
            sum_of_squares: 0.0,
            max: [f64::NAN; CHAINS],
            min_positive: [f64::INFINITY; CHAINS],
        }
    }

    #[inline(always)]
    fn push(&mut self, chain: usize, x: f64) {
        self.sum_of_squares += x * x;
        self.max[chain] = self.max[chain].max(x);
        if x > 0.0 {
            self.min_positive[chain] = self.min_positive[chain].min(x);
        }
    }

    fn finish(self) -> RowStats {
        let max = self.max.into_iter().fold(f64::NAN, f64::max);
        let min_nonzero = self.min_positive.into_iter().fold(f64::INFINITY, f64::min);
        let support_ratio = if !max.is_finite() || !min_nonzero.is_finite() || min_nonzero == 0.0 {
            1.0
        } else {
            max / min_nonzero
        };
        RowStats {
            sum_of_squares: self.sum_of_squares,
            support_ratio,
        }
    }
}

/// Computes [`RowStats`] from a distribution's entries in index order.
///
/// The results replicate `degree::sum_of_squares` and
/// `PositionDistribution::support_ratio` bit for bit (the `Σx²` fold order
/// is theirs element for element; see [`Moments`] for the max and min), so
/// the stats of an ensemble row are bitwise equal to the single-distribution
/// routes.
fn stats_of(row: &[f64]) -> RowStats {
    lane_stats_of(row, 1, 0)
}

/// [`stats_of`] over lane `lane` of an interleaved block of `lanes` lanes:
/// the entries `block[i * lanes + lane]` in node order.
#[inline]
fn lane_stats_of(block: &[f64], lanes: usize, lane: usize) -> RowStats {
    let mut moments = Moments::new();
    let mut groups = block.chunks_exact(lanes * CHAINS);
    for group in &mut groups {
        for chain in 0..CHAINS {
            moments.push(chain, group[chain * lanes + lane]);
        }
    }
    for (chain, node) in groups.remainder().chunks_exact(lanes).enumerate() {
        moments.push(chain, node[lane]);
    }
    moments.finish()
}

/// Per-round, per-row statistics recorded by
/// [`DistributionEnsemble::advance_tracked`].
///
/// Entry `(row, t)` (with `t` counted `1..=rounds` from the state the
/// ensemble was in when the advance started) is the [`RowStats`] of row
/// `row` *after* `t` of the tracked rounds.
#[derive(Debug, Clone, PartialEq)]
pub struct EnsembleTrajectory {
    sources: usize,
    rounds: usize,
    /// Row-major `[row * rounds + (t - 1)]`.
    stats: Vec<RowStats>,
}

impl EnsembleTrajectory {
    /// Number of tracked rows.
    pub fn sources(&self) -> usize {
        self.sources
    }

    /// Number of tracked rounds.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Stats of `row` after `t` rounds (`t` in `1..=rounds`).
    ///
    /// # Panics
    ///
    /// Panics if `row` or `t` is out of range.
    pub fn after(&self, row: usize, t: usize) -> RowStats {
        assert!(
            (1..=self.rounds).contains(&t),
            "round {t} outside 1..={}",
            self.rounds
        );
        self.stats[row * self.rounds + (t - 1)]
    }

    /// The per-round stats of one row, index `t - 1` holding round `t`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn row(&self, row: usize) -> &[RowStats] {
        &self.stats[row * self.rounds..(row + 1) * self.rounds]
    }
}

/// A batch of position distributions evolved in lockstep under one
/// transition model.
///
/// Rows are stored contiguously (`sources × n`, row-major); row `r` is the
/// distribution of source `r`'s report.  See the [module docs](self) for the
/// kernel design.  Deliberately not (de)serializable: deserialization would
/// bypass the shape/probability invariants the constructors enforce.  The
/// durable runtime instead round-trips ensembles through
/// [`DistributionEnsemble::row`] / [`DistributionEnsemble::from_rows_at`],
/// which re-validates every row and restores the round clock on load.
#[derive(Debug, Clone, PartialEq)]
pub struct DistributionEnsemble {
    sources: usize,
    nodes: usize,
    /// Row-major `sources × nodes` probability buffer.
    data: Vec<f64>,
    /// Rounds applied so far.
    time: usize,
    /// Kernel scratch kept between advances.
    workspace: Workspace,
}

/// The interleaved kernel scratch an ensemble keeps between advances, so a
/// caller taking one round per call (the streaming accountant) allocates
/// nothing after its first call.  Pure scratch, never part of the
/// ensemble's value: clones start empty and equality ignores it.
#[derive(Default)]
struct Workspace(Vec<f64>);

impl Workspace {
    /// The first `len` entries, growing the buffer when it is shorter.
    fn take(&mut self, len: usize) -> &mut [f64] {
        if self.0.len() < len {
            self.0.resize(len, 0.0);
        }
        &mut self.0[..len]
    }
}

impl Clone for Workspace {
    fn clone(&self) -> Self {
        Workspace::default()
    }
}

impl PartialEq for Workspace {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl std::fmt::Debug for Workspace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Workspace({} f64)", self.0.len())
    }
}

/// Scratch needed to advance blocks of up to `lanes` rows of `n` entries by
/// `rounds` rounds: a ping-pong row for 1-row blocks, else one
/// interleaved block, plus a second one when intermediate rounds need
/// somewhere to land.
fn workspace_len(n: usize, lanes: usize, rounds: usize) -> usize {
    match (lanes, rounds) {
        (1, _) => n,
        (_, 1) => lanes * n,
        _ => 2 * lanes * n,
    }
}

impl DistributionEnsemble {
    /// An ensemble of point masses: row `r` starts with all mass on
    /// `origins[r]`, the state of report `r` at `t = 0`.
    ///
    /// # Errors
    ///
    /// [`GraphError::EmptyGraph`] if `n == 0` or no origins are given;
    /// [`GraphError::NodeOutOfRange`] if an origin is `>= n`.
    pub fn point_masses(n: usize, origins: &[NodeId]) -> Result<Self> {
        if n == 0 || origins.is_empty() {
            return Err(GraphError::EmptyGraph);
        }
        if let Some(&bad) = origins.iter().find(|&&o| o >= n) {
            return Err(GraphError::NodeOutOfRange {
                node: bad,
                node_count: n,
            });
        }
        let mut data = vec![0.0; origins.len() * n];
        for (row, &origin) in origins.iter().enumerate() {
            data[row * n + origin] = 1.0;
        }
        Ok(DistributionEnsemble {
            sources: origins.len(),
            nodes: n,
            data,
            time: 0,
            workspace: Workspace::default(),
        })
    }

    /// The full identity ensemble: one point-mass row per node.
    ///
    /// This materializes an `n × n` buffer — fine for analysis-sized graphs,
    /// but for large `n` prefer the streaming [`all_origin_moments`] /
    /// [`all_origin_trajectories`] drivers, which never hold more than a
    /// bounded batch of rows.
    ///
    /// # Errors
    ///
    /// [`GraphError::EmptyGraph`] if `n == 0`.
    pub fn all_origins(n: usize) -> Result<Self> {
        let origins: Vec<NodeId> = (0..n).collect();
        Self::point_masses(n, &origins)
    }

    /// Wraps `sources` explicit distributions given as one flat row-major
    /// buffer.
    ///
    /// # Errors
    ///
    /// [`GraphError::InvalidParameters`] if the buffer shape is inconsistent
    /// or some row is not a probability distribution (finite, non-negative,
    /// summing to 1 within `1e-9`).
    pub fn from_rows(sources: usize, flat: Vec<f64>) -> Result<Self> {
        if sources == 0 || flat.is_empty() || !flat.len().is_multiple_of(sources) {
            return Err(GraphError::InvalidParameters(format!(
                "cannot split a buffer of {} entries into {sources} rows",
                flat.len()
            )));
        }
        let n = flat.len() / sources;
        for (row, chunk) in flat.chunks_exact(n).enumerate() {
            if chunk.iter().any(|&x| x < 0.0 || !x.is_finite()) {
                return Err(GraphError::InvalidParameters(format!(
                    "row {row} has a negative or non-finite entry"
                )));
            }
            let total: f64 = chunk.iter().sum();
            if (total - 1.0).abs() > 1e-9 {
                return Err(GraphError::InvalidParameters(format!(
                    "row {row} sums to {total}, expected 1"
                )));
            }
        }
        Ok(DistributionEnsemble {
            sources,
            nodes: n,
            data: flat,
            time: 0,
            workspace: Workspace::default(),
        })
    }

    /// [`DistributionEnsemble::from_rows`] restored at an explicit round
    /// clock — the durable runtime's snapshot-restore constructor.  A
    /// mid-run ensemble is not at round 0: scheduled operators
    /// ([`crate::dynamic::TimeVaryingModel`]) index their schedule by this
    /// clock, so restoring rows without the clock would silently replay the
    /// wrong operators.  Validation is identical to `from_rows`.
    ///
    /// # Errors
    ///
    /// Same as [`DistributionEnsemble::from_rows`].
    pub fn from_rows_at(sources: usize, flat: Vec<f64>, time: usize) -> Result<Self> {
        let mut ensemble = Self::from_rows(sources, flat)?;
        ensemble.time = time;
        Ok(ensemble)
    }

    /// Wraps distributions whose invariants the caller already guarantees
    /// (used by [`crate::distribution::PositionDistribution`] to avoid
    /// re-validating on every delegated step).
    ///
    /// # Panics
    ///
    /// Panics if the buffer cannot be split into `sources` non-empty rows.
    pub fn from_rows_unchecked(sources: usize, flat: Vec<f64>) -> Self {
        assert!(
            sources > 0 && !flat.is_empty() && flat.len().is_multiple_of(sources),
            "cannot split a buffer of {} entries into {sources} rows",
            flat.len()
        );
        let nodes = flat.len() / sources;
        DistributionEnsemble {
            sources,
            nodes,
            data: flat,
            time: 0,
            workspace: Workspace::default(),
        }
    }

    /// Number of tracked distributions.
    pub fn sources(&self) -> usize {
        self.sources
    }

    /// Number of nodes each distribution ranges over.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Rounds applied so far.
    pub fn time(&self) -> usize {
        self.time
    }

    /// The distribution of source `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row >= sources`.
    pub fn row(&self, row: usize) -> &[f64] {
        &self.data[row * self.nodes..(row + 1) * self.nodes]
    }

    /// Consumes the ensemble, returning the flat row-major buffer.
    pub fn into_flat(self) -> Vec<f64> {
        self.data
    }

    /// The accounting moments (`Σ_i P_i²`, support ratio) of one row.
    ///
    /// # Panics
    ///
    /// Panics if `row >= sources`.
    pub fn row_stats(&self, row: usize) -> RowStats {
        stats_of(self.row(row))
    }

    /// The component-wise worst (largest) moments over all rows — a valid
    /// input for a guarantee that must cover every source at once.
    pub fn worst_stats(&self) -> RowStats {
        RowStats::worst_of((0..self.sources).map(|row| self.row_stats(row)))
    }

    /// Advances every row by `rounds` rounds under `model`.
    ///
    /// # Panics
    ///
    /// Panics if `model.node_count()` differs from the ensemble's.
    pub fn advance<M: TransitionModel + ?Sized>(&mut self, model: &M, rounds: usize) {
        self.advance_blocks(model, rounds, None);
    }

    /// Advances every row by `rounds` rounds, recording the [`RowStats`] of
    /// every row after every round — the incremental form behind
    /// ε-vs-rounds sweeps, which cost one ensemble pass instead of one pass
    /// per round.
    ///
    /// # Panics
    ///
    /// Panics if `model.node_count()` differs from the ensemble's.
    pub fn advance_tracked<M: TransitionModel + ?Sized>(
        &mut self,
        model: &M,
        rounds: usize,
    ) -> EnsembleTrajectory {
        let mut stats = vec![RowStats::default(); self.sources * rounds];
        self.advance_blocks(model, rounds, Some(&mut stats));
        EnsembleTrajectory {
            sources: self.sources,
            rounds,
            stats,
        }
    }

    /// Blocked advance; `stats`, when given, has length `sources * rounds`
    /// laid out `[row * rounds + (t - 1)]`.
    fn advance_blocks<M: TransitionModel + ?Sized>(
        &mut self,
        model: &M,
        rounds: usize,
        stats: Option<&mut [RowStats]>,
    ) {
        assert_eq!(
            model.node_count(),
            self.nodes,
            "transition model and ensemble disagree on the node count"
        );
        let base_round = self.time;
        self.time += rounds;
        if rounds == 0 {
            return;
        }
        let n = self.nodes;
        let scratch = self
            .workspace
            .take(workspace_len(n, LANES.min(self.sources), rounds));
        let mut stats = stats.map(|stats| stats.chunks_mut(LANES * rounds));
        for rows in self.data.chunks_mut(LANES * n) {
            let block_stats = stats.as_mut().and_then(Iterator::next);
            advance_block(model, n, base_round, rounds, rows, scratch, block_stats);
        }
    }
}

/// Advances one block of `rows.len() / n` rows by `rounds` rounds through
/// the interleaved kernel, starting from absolute round `base_round` (the
/// ensemble's clock before the advance; step `t` of the block is executed
/// as `propagate_round_*(base_round + t, …)`, which is what lets
/// time-varying models schedule a distinct operator per round).
///
/// The block is transposed into the interleaved layout once; intermediate
/// rounds ping-pong between two interleaved buffers and the last round
/// writes row-major straight back into `rows`
/// ([`TransitionModel::propagate_round_interleaved_rows`]), so a one-round
/// advance needs a single interleaved buffer.  `scratch` holds at least
/// [`workspace_len`] entries for the block, and `rounds` is at least 1.
/// `block_stats`, when given, has length `lanes * rounds` laid out
/// `[lane * rounds + (t - 1)]`.
fn advance_block<M: TransitionModel + ?Sized>(
    model: &M,
    n: usize,
    base_round: usize,
    rounds: usize,
    rows: &mut [f64],
    scratch: &mut [f64],
    mut block_stats: Option<&mut [RowStats]>,
) {
    let lanes = rows.len() / n;
    if lanes == 1 {
        // Single-row fast path: the row *is* the "interleaved" buffer, so
        // double-buffer against one scratch row directly — no transposes.
        // This keeps `PositionDistribution`'s per-step cost at the
        // historical `propagate` level.
        let mut current: &mut [f64] = rows;
        let mut next: &mut [f64] = &mut scratch[..n];
        for t in 0..rounds {
            model.propagate_round_into(base_round + t, current, next);
            std::mem::swap(&mut current, &mut next);
            if let Some(stats) = block_stats.as_deref_mut() {
                stats[t] = stats_of(current);
            }
        }
        if !rounds.is_multiple_of(2) {
            // The result landed in the scratch buffer; move it home.
            next.copy_from_slice(current);
        }
        return;
    }
    let (interleaved, spare) = scratch.split_at_mut(lanes * n);
    transpose_into(lanes, n, rows, interleaved);
    let mut current: &mut [f64] = interleaved;
    let mut next: &mut [f64] = &mut spare[..if rounds > 1 { lanes * n } else { 0 }];
    for t in 0..rounds - 1 {
        model.propagate_round_interleaved(base_round + t, lanes, current, next);
        std::mem::swap(&mut current, &mut next);
        if let Some(stats) = block_stats.as_deref_mut() {
            for lane in 0..lanes {
                stats[lane * rounds + t] = lane_stats_of(current, lanes, lane);
            }
        }
    }
    model.propagate_round_interleaved_rows(base_round + rounds - 1, lanes, current, rows);
    if let Some(stats) = block_stats {
        for (lane, row) in rows.chunks(n).enumerate() {
            stats[lane * rounds + rounds - 1] = stats_of(row);
        }
    }
}

/// Transposes `rows` row-major rows of length `n` from `src` into the
/// interleaved layout `dst[i * rows + r] = src[r * n + i]`, a buffer of
/// exactly `rows * n` entries.  The pass is tiled over nodes so the strided
/// writes stay within a cache-resident window; it is a pure copy — every
/// destination value is bitwise a source value.
fn transpose_into(rows: usize, n: usize, src: &[f64], dst: &mut [f64]) {
    // Tile width: 128 nodes * 8 bytes = 1 KiB of each row's window, and the
    // write side touches 128 packs at a time — both L1-resident.
    const TILE: usize = 128;
    let mut start = 0;
    while start < n {
        let end = (start + TILE).min(n);
        for (r, row) in src.chunks(n).enumerate() {
            for (i, &x) in row[start..end].iter().enumerate() {
                dst[(start + i) * rows + r] = x;
            }
        }
        start = end;
    }
}

/// Rows per streaming batch: targets [`BATCH_TARGET_BYTES`] of buffer per
/// batch, rounded to whole [`LANES`] blocks.
fn batch_rows(n: usize) -> usize {
    let rows = BATCH_TARGET_BYTES / (std::mem::size_of::<f64>() * n.max(1));
    let rows = rows.clamp(LANES, 4096);
    (rows / LANES) * LANES
}

/// Evolves a point mass from **every** origin `0..n` for `rounds` rounds and
/// returns each origin's final accounting moments, streaming origins through
/// bounded-memory batches: a batch targets 64 MiB of rows but never shrinks
/// below one [`LANES`]-row block, so per-batch memory is tens of MB up to
/// `n ≈ 1M` and grows as `O(LANES · n)` beyond that (plus the same again in
/// kernel scratch).
///
/// This is the exact multi-origin route of the accountant: entry `o` is the
/// exact `(Σ_i P_i^o(t)², ρ*_o)` of user `o`'s report on an arbitrary graph,
/// where the spectral route can only bound the worst case.
///
/// # Errors
///
/// [`GraphError::EmptyGraph`] if the model has no nodes.
pub fn all_origin_moments<M: TransitionModel + ?Sized>(
    model: &M,
    rounds: usize,
) -> Result<Vec<RowStats>> {
    let n = model.node_count();
    if n == 0 {
        return Err(GraphError::EmptyGraph);
    }
    let batch = batch_rows(n);
    let mut out = Vec::with_capacity(n);
    let mut start = 0usize;
    while start < n {
        let end = (start + batch).min(n);
        let origins: Vec<NodeId> = (start..end).collect();
        let mut ensemble = DistributionEnsemble::point_masses(n, &origins)?;
        ensemble.advance(model, rounds);
        for row in 0..ensemble.sources() {
            out.push(ensemble.row_stats(row));
        }
        start = end;
    }
    Ok(out)
}

/// Like [`all_origin_moments`], but tracks the moments after **every** round
/// and hands each batch's [`EnsembleTrajectory`] (with the index of its
/// first origin) to `visit` — the one-pass engine behind incremental
/// ε-vs-rounds sweeps over all origins.
///
/// `visit` may fail; its error aborts the sweep and is returned (any error
/// type convertible from [`GraphError`] works, so callers can propagate
/// their own error enums directly).
///
/// # Errors
///
/// [`GraphError::EmptyGraph`] (converted into `E`) if the model has no
/// nodes, or the first error returned by `visit`.
pub fn all_origin_trajectories<M, E, F>(
    model: &M,
    rounds: usize,
    mut visit: F,
) -> std::result::Result<(), E>
where
    M: TransitionModel + ?Sized,
    E: From<GraphError>,
    F: FnMut(usize, &EnsembleTrajectory) -> std::result::Result<(), E>,
{
    let n = model.node_count();
    if n == 0 {
        return Err(GraphError::EmptyGraph.into());
    }
    let batch = batch_rows(n);
    let mut start = 0usize;
    while start < n {
        let end = (start + batch).min(n);
        let origins: Vec<NodeId> = (start..end).collect();
        let mut ensemble = DistributionEnsemble::point_masses(n, &origins)?;
        let trajectory = ensemble.advance_tracked(model, rounds);
        visit(start, &trajectory)?;
        start = end;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::PositionDistribution;
    use crate::generators;
    use crate::rng::seeded_rng;
    use crate::transition::{BlackBoxModel, TransitionMatrix};
    use crate::Graph;

    fn irregular_graph(seed: u64) -> Graph {
        generators::barabasi_albert(150, 3, &mut seeded_rng(seed)).unwrap()
    }

    /// Reference: evolve each origin independently through the historical
    /// single-distribution route.
    fn naive_rows(t: &TransitionMatrix, origins: &[usize], rounds: usize) -> Vec<Vec<f64>> {
        origins
            .iter()
            .map(|&o| {
                let mut d = PositionDistribution::point_mass(t.node_count(), o).unwrap();
                d.advance(t, rounds);
                d.probabilities().to_vec()
            })
            .collect()
    }

    #[test]
    fn constructors_validate() {
        assert!(DistributionEnsemble::point_masses(0, &[]).is_err());
        assert!(DistributionEnsemble::point_masses(4, &[]).is_err());
        assert!(DistributionEnsemble::point_masses(4, &[4]).is_err());
        assert!(DistributionEnsemble::from_rows(0, vec![]).is_err());
        assert!(DistributionEnsemble::from_rows(2, vec![1.0, 0.0, 0.5]).is_err());
        assert!(DistributionEnsemble::from_rows(1, vec![0.5, 0.6]).is_err());
        assert!(DistributionEnsemble::from_rows(1, vec![-0.5, 1.5]).is_err());
        let ok = DistributionEnsemble::from_rows(2, vec![1.0, 0.0, 0.25, 0.75]).unwrap();
        assert_eq!(ok.sources(), 2);
        assert_eq!(ok.node_count(), 2);
        assert_eq!(ok.row(1), &[0.25, 0.75]);
    }

    #[test]
    fn ensemble_rows_match_single_distribution_evolution_bitwise() {
        let g = irregular_graph(1);
        let t = TransitionMatrix::with_laziness(&g, 0.2).unwrap();
        // 11 origins: one full block of 8 lanes plus a ragged tail of 3.
        let origins: Vec<usize> = (0..11).map(|i| i * 7 % 150).collect();
        let mut ensemble = DistributionEnsemble::point_masses(150, &origins).unwrap();
        ensemble.advance(&t, 13);
        assert_eq!(ensemble.time(), 13);
        let expected = naive_rows(&t, &origins, 13);
        for (row, exp) in expected.iter().enumerate() {
            assert_eq!(ensemble.row(row), exp.as_slice(), "row {row} diverged");
        }
    }

    #[test]
    fn tracked_stats_match_row_stats_after_each_round() {
        let g = irregular_graph(2);
        let t = TransitionMatrix::new(&g).unwrap();
        let origins = [0usize, 5, 9];
        let rounds = 6;
        let mut tracked = DistributionEnsemble::point_masses(150, &origins).unwrap();
        let trajectory = tracked.advance_tracked(&t, rounds);
        assert_eq!(trajectory.sources(), 3);
        assert_eq!(trajectory.rounds(), rounds);
        for t_round in 1..=rounds {
            let mut stepped = DistributionEnsemble::point_masses(150, &origins).unwrap();
            stepped.advance(&t, t_round);
            for row in 0..3 {
                assert_eq!(trajectory.after(row, t_round), stepped.row_stats(row));
            }
        }
        assert_eq!(trajectory.row(1).len(), rounds);
        assert_eq!(trajectory.row(2)[rounds - 1], trajectory.after(2, rounds));
    }

    #[test]
    fn black_box_model_agrees_with_the_matrix_backend() {
        let g = irregular_graph(3);
        let t = TransitionMatrix::new(&g).unwrap();
        let t_for_closure = t.clone();
        let black_box = BlackBoxModel::new(150, move |p: &[f64], out: &mut [f64]| {
            t_for_closure.propagate_into(p, out)
        })
        .unwrap();
        let origins: Vec<usize> = (0..10).collect();
        let mut via_matrix = DistributionEnsemble::point_masses(150, &origins).unwrap();
        via_matrix.advance(&t, 9);
        let mut via_black_box = DistributionEnsemble::point_masses(150, &origins).unwrap();
        via_black_box.advance(&black_box, 9);
        for row in 0..origins.len() {
            assert_eq!(via_matrix.row(row), via_black_box.row(row), "row {row}");
        }
    }

    #[test]
    fn rows_stay_probability_distributions() {
        let g = generators::stochastic_block_model(120, 4, 0.2, 0.02, &mut seeded_rng(4)).unwrap();
        let g = crate::connectivity::largest_connected_component(&g).0;
        let n = g.node_count();
        let t = TransitionMatrix::with_laziness(&g, 0.1).unwrap();
        let mut ensemble = DistributionEnsemble::all_origins(n).unwrap();
        ensemble.advance(&t, 25);
        for row in 0..n {
            let sum: f64 = ensemble.row(row).iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "row {row} sums to {sum}");
            assert!(ensemble.row(row).iter().all(|&x| x >= 0.0));
        }
        let worst = ensemble.worst_stats();
        let best = (0..n).map(|r| ensemble.row_stats(r).sum_of_squares);
        assert!(worst.sum_of_squares >= best.fold(0.0, f64::max) - 1e-15);
    }

    #[test]
    fn all_origin_moments_match_materialized_ensemble() {
        let g = irregular_graph(5);
        let t = TransitionMatrix::new(&g).unwrap();
        let moments = all_origin_moments(&t, 8).unwrap();
        assert_eq!(moments.len(), 150);
        let mut full = DistributionEnsemble::all_origins(150).unwrap();
        full.advance(&t, 8);
        for (origin, stats) in moments.iter().enumerate() {
            assert_eq!(*stats, full.row_stats(origin), "origin {origin}");
        }
    }

    #[test]
    fn all_origin_trajectories_cover_every_origin_and_propagate_errors() {
        let g = irregular_graph(6);
        let t = TransitionMatrix::new(&g).unwrap();
        let mut seen = [false; 150];
        all_origin_trajectories(&t, 3, |first, trajectory| {
            for row in 0..trajectory.sources() {
                assert!(!seen[first + row]);
                seen[first + row] = true;
                assert!(trajectory.after(row, 3).sum_of_squares > 0.0);
            }
            Ok::<(), GraphError>(())
        })
        .unwrap();
        assert!(seen.iter().all(|&s| s));
        let err = all_origin_trajectories(&t, 1, |_, _| {
            Err(GraphError::InvalidParameters("stop".into()))
        });
        assert!(err.is_err());
    }

    #[test]
    fn stats_of_matches_the_historical_helpers() {
        let p = [0.0, 0.2, 0.5, 0.3, 0.0];
        let stats = stats_of(&p);
        assert_eq!(stats.sum_of_squares, crate::degree::sum_of_squares(&p));
        let dist = PositionDistribution::from_probabilities(p.to_vec()).unwrap();
        assert_eq!(stats.support_ratio, dist.support_ratio().unwrap());
        // Degenerate all-zero input falls back to ratio 1.
        assert_eq!(stats_of(&[0.0, 0.0]).support_ratio, 1.0);
    }

    /// The single ordered fold `stats_of` replaced, kept as the reference
    /// its split chains must reproduce bit for bit.
    fn reference_stats_of(values: impl Iterator<Item = f64>) -> RowStats {
        let mut sum_of_squares = 0.0f64;
        let mut max = f64::NAN;
        let mut min_nonzero = f64::INFINITY;
        for x in values {
            sum_of_squares += x * x;
            max = max.max(x);
            if x > 0.0 {
                min_nonzero = min_nonzero.min(x);
            }
        }
        let support_ratio = if !max.is_finite() || !min_nonzero.is_finite() || min_nonzero == 0.0 {
            1.0
        } else {
            max / min_nonzero
        };
        RowStats {
            sum_of_squares,
            support_ratio,
        }
    }

    fn assert_same_bits(got: RowStats, want: RowStats, what: &str) {
        assert_eq!(
            (got.sum_of_squares.to_bits(), got.support_ratio.to_bits()),
            (want.sum_of_squares.to_bits(), want.support_ratio.to_bits()),
            "{what}: {got:?} vs {want:?}"
        );
    }

    #[test]
    fn split_chain_fold_is_bitwise_the_ordered_fold() {
        let tiny = f64::from_bits(1); // the smallest positive subnormal
        let rows: Vec<Vec<f64>> = vec![
            vec![0.0; 7],
            vec![0.0, 0.0, 0.0, 1.0, 0.0],
            vec![1.0],
            vec![f64::NAN; 5],
            vec![0.25, f64::NAN, 0.5, f64::NAN, 0.25, 0.0],
            vec![-0.0, 0.0, -0.0, -0.0, 0.0, -0.0],
            vec![0.0, -0.0, 0.3, -0.0, 0.7, 0.0, -0.0],
            vec![
                tiny,
                0.5,
                2.0 * tiny,
                0.5 - 3.0 * tiny,
                f64::MIN_POSITIVE / 2.0,
            ],
            vec![f64::INFINITY, 0.5, 0.25],
            vec![-1.0, -0.5, 0.125, -0.0],
            vec![f64::NEG_INFINITY, f64::NAN],
        ];
        for row in &rows {
            // Every length, including those not divisible by the chain
            // count, and every rotation so each entry meets every chain.
            for len in 0..=row.len() {
                for shift in 0..len.max(1) {
                    let mut values = row[..len].to_vec();
                    values.rotate_left(shift);
                    let want = reference_stats_of(values.iter().copied());
                    assert_same_bits(stats_of(&values), want, &format!("{values:?}"));
                }
            }
        }
    }
}
