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
//! [`DistributionEnsemble`] stores `sources` distributions in the layout its
//! kernel reads and writes: rows `8b..8b + lanes` form block `b`, one
//! interleaved `n × lanes` block in which entry `i` of the block's lane `l`
//! sits at `i · lanes + l` (a 1-row block is its row).  A round steps each
//! block from one buffer into a second, with no transposes: a multi-row
//! block through [`TransitionModel::propagate_round_interleaved_range`], a
//! 1-row block through [`TransitionModel::propagate_round_into`].  For the
//! CSR-backed [`crate::transition::TransitionMatrix`] this streams the
//! offsets/neighbour arrays once per block instead of once per origin and
//! turns the scattered per-edge updates into contiguous `lanes`-wide
//! gathers, which is where the multi-× speedup over a naive per-origin
//! scatter loop comes from (`crates/bench/benches/ensemble.rs`).  The
//! ensemble keeps the second buffer across calls, so a caller taking one
//! round per call allocates nothing after its first.  Rows come in as point
//! masses ([`DistributionEnsemble::point_masses`]) or, on a restore,
//! row-major ([`DistributionEnsemble::from_rows_at`] transposes them in).
//! They go out row-major through [`DistributionEnsemble::row_groups`], and
//! as accounting moments through [`DistributionEnsemble::row_stats`] and
//! [`DistributionEnsemble::stats_into`], which folds every block's lanes in
//! one pass.
//!
//! Every lane reproduces the scalar scatter of its row **bit for bit** (see
//! [`TransitionModel::propagate_round_interleaved_range`]'s contract), so a
//! single origin is simply a 1-row ensemble, and exact multi-origin
//! accounting agrees with each origin stepped alone exactly.  Blocks never
//! interact.
//!
//! One round can also run as shared work
//! ([`DistributionEnsemble::round_sweep`]): the old state is read from one
//! buffer and the new one written to the other, so the round splits into
//! independent units — 64 near-equal destination ranges per multi-lane
//! block, and each 1-row block whole — that any thread calling
//! [`RoundSweep::run`] claims in turn.  Every destination's
//! adds keep their order and their code whichever thread runs its unit, so
//! the rows are bitwise the serial advance.  The sweep also folds every
//! row's moments as its ranges finish, in node order, so they are bitwise
//! [`DistributionEnsemble::stats_into`] over the new rows without a pass
//! after the round.
//!
//! The module also provides bounded-memory drivers over *all* `n` origins
//! ([`all_origin_moments`], [`all_origin_trajectories`]): the full ensemble
//! would be an `n × n` matrix (80 GB at `n = 100 000`), so origins are
//! streamed through in batches of [`batch capacity`](DistributionEnsemble)
//! rows and reduced to their accounting moments on the fly.

use crate::error::{GraphError, Result};
use crate::graph::NodeId;
use crate::simd::Isa;
use crate::transition::{DarkCounts, TransitionModel};
use serde::{Deserialize, Serialize};
use std::iter::Zip;
use std::ops::Range;
use std::slice::{Chunks, ChunksMut};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// Rows per kernel block: 8 lanes × 8-byte f64 = one 64-byte cache line per
/// delivered share.
pub const LANES: usize = 8;

/// Per-buffer memory target of the streaming all-origin drivers, in bytes.
const BATCH_TARGET_BYTES: usize = 64 << 20;

/// Destination ranges each multi-lane block of a [`RoundSweep`] is split
/// into (one per node on graphs with fewer nodes): enough that threads
/// claiming them in turn finish within one small range of each other.
const SWEEP_RANGES: usize = 64;

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

/// Independent chains a 1-lane block's max and min-positive folds are split
/// across.
const CHAINS: usize = 4;

/// The running fold behind [`RowStats`] over the `L` lanes of an
/// interleaved block: per lane, `Σx²` as one chain in node order, and the
/// max and the min over positive entries as `C` independent chains (node `i`
/// feeds chain `i % C`) merged at the end.  The max and the min are select
/// forms — `x > max` from −∞, and `x < min` over positive `x` from +∞ —
/// which compile to one vector compare or max/min per lane group.
///
/// Every form is bitwise the single ordered fold of each lane (`f64::max`
/// from NaN, `f64::min` over positive entries): `Σx²` keeps its order;
/// both maxima skip NaN, so they are the max of the non-NaN entries in any
/// order up to the sign of a zero, and differ otherwise only where no entry
/// is a number (NaN against −∞, both non-finite, so the support ratio is 1
/// either way); the min skips every non-positive entry, so it has no
/// signed zeros; and a zero max means no entry is positive, where the
/// support ratio is 1 whatever the zero's sign.  A 1-lane block splits its
/// max and min over [`CHAINS`] chains so they do not serialize; wider
/// blocks get that parallelism from their lanes and keep one chain each.
///
/// This is the register form of one fold call; between calls the state
/// rests in a [`RunningMoments`], so a block may be folded a destination
/// range at a time, in node order, with the bits of one pass.
struct Moments<const L: usize, const C: usize> {
    sum_of_squares: [f64; L],
    max: [[f64; L]; C],
    min_positive: [[f64; L]; C],
}

impl<const L: usize, const C: usize> Moments<L, C> {
    /// The fold where `running` left it.
    #[inline(always)]
    fn resume(running: &RunningMoments) -> Self {
        const { assert!(L * C <= LANES) };
        Moments {
            sum_of_squares: std::array::from_fn(|lane| running.sum_of_squares[lane]),
            max: std::array::from_fn(|chain| {
                std::array::from_fn(|lane| running.max[chain * L + lane])
            }),
            min_positive: std::array::from_fn(|chain| {
                std::array::from_fn(|lane| running.min_positive[chain * L + lane])
            }),
        }
    }

    /// Leaves the fold in `running`.
    #[inline(always)]
    fn suspend(&self, running: &mut RunningMoments) {
        running.sum_of_squares[..L].copy_from_slice(&self.sum_of_squares);
        for chain in 0..C {
            running.max[chain * L..][..L].copy_from_slice(&self.max[chain]);
            running.min_positive[chain * L..][..L].copy_from_slice(&self.min_positive[chain]);
        }
    }

    /// Folds one node's `L` lanes into chain `chain`.
    #[inline(always)]
    fn push(&mut self, chain: usize, node: &[f64]) {
        for (lane, &x) in node[..L].iter().enumerate() {
            self.sum_of_squares[lane] += x * x;
            self.max[chain][lane] = select_max(self.max[chain][lane], x);
            let positive = if x > 0.0 { x } else { f64::INFINITY };
            self.min_positive[chain][lane] = select_min(self.min_positive[chain][lane], positive);
        }
    }
}

/// A block's [`Moments`] between fold calls, at run-time width: lane `l` of
/// chain `c` at `c · lanes + l` (one chain per lane of a multi-lane block,
/// [`CHAINS`] of a 1-lane one).
#[derive(Debug, Clone, Copy)]
struct RunningMoments {
    sum_of_squares: [f64; LANES],
    max: [f64; LANES],
    min_positive: [f64; LANES],
}

impl RunningMoments {
    /// The fold of no node.
    fn new() -> Self {
        RunningMoments {
            sum_of_squares: [0.0; LANES],
            max: [f64::NEG_INFINITY; LANES],
            min_positive: [f64::INFINITY; LANES],
        }
    }

    /// The [`RowStats`] of a block `lanes` wide whose every node is
    /// folded, one per entry of `out`: each lane's chains merged, then its
    /// support ratio.
    fn finish(&self, lanes: usize, out: &mut [RowStats]) {
        let chains = if lanes == 1 { CHAINS } else { 1 };
        for (lane, stats) in out.iter_mut().enumerate() {
            let max = (0..chains)
                .map(|chain| self.max[chain * lanes + lane])
                .fold(f64::NEG_INFINITY, select_max);
            let min_nonzero = (0..chains)
                .map(|chain| self.min_positive[chain * lanes + lane])
                .fold(f64::INFINITY, select_min);
            let support_ratio =
                if !max.is_finite() || !min_nonzero.is_finite() || min_nonzero == 0.0 {
                    1.0
                } else {
                    max / min_nonzero
                };
            *stats = RowStats {
                sum_of_squares: self.sum_of_squares[lane],
                support_ratio,
            };
        }
    }
}

/// `x` if it exceeds `max`, else `max`: never NaN unless `max` is.
#[inline(always)]
fn select_max(max: f64, x: f64) -> f64 {
    if x > max {
        x
    } else {
        max
    }
}

/// `x` if it is below `min`, else `min`: never NaN unless `min` is.
#[inline(always)]
fn select_min(min: f64, x: f64) -> f64 {
    if x < min {
        x
    } else {
        min
    }
}

/// [`fold_in`] at a compile-time lane count `L` and `C` chains.
#[inline(always)]
fn fold_block<const L: usize, const C: usize>(nodes: &[f64], running: &mut RunningMoments) {
    let mut moments = Moments::<L, C>::resume(running);
    let mut groups = nodes.chunks_exact(L * C);
    for group in &mut groups {
        for chain in 0..C {
            moments.push(chain, &group[chain * L..]);
        }
    }
    for (chain, node) in groups.remainder().chunks_exact(L).enumerate() {
        moments.push(chain, node);
    }
    moments.suspend(running);
}

/// Every lane's [`RowStats`] of an interleaved block `lanes` wide, in one
/// pass over the block; `out` has `lanes` entries.  The fold is compiled
/// for the host's widest instruction set ([`Isa::detected`]).
///
/// The results replicate the single ordered fold of each lane bit for bit
/// (`Σx²` in node order, element for element as `degree::sum_of_squares`
/// adds it; see [`Moments`] for the max and min), so a row's stats are the
/// same whichever block it sits in and whichever instruction set folds
/// them.
fn block_stats(block: &[f64], lanes: usize, out: &mut [RowStats]) {
    block_stats_in(Isa::detected(), block, lanes, out);
}

/// [`block_stats`] compiled for `isa`.
///
/// # Panics
///
/// Panics if the host cannot run `isa`.
fn block_stats_in(isa: Isa, block: &[f64], lanes: usize, out: &mut [RowStats]) {
    let mut running = RunningMoments::new();
    fold_in(isa, block, lanes, &mut running);
    running.finish(lanes, out);
}

/// Folds `nodes`, whole nodes of an interleaved block `lanes` wide, into
/// `running`, in node order, compiled for `isa`.  Folding a block's
/// destination ranges in node order, one call each, is bitwise one call
/// over the block: every chain of a multi-lane block is one chain.
///
/// # Panics
///
/// Panics if the host cannot run `isa`.
#[allow(unsafe_code)]
fn fold_in(isa: Isa, nodes: &[f64], lanes: usize, running: &mut RunningMoments) {
    assert!(isa <= Isa::detected(), "this host cannot run {isa:?} code");
    match isa {
        // SAFETY: the host runs `isa`, just checked.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => unsafe { fold_avx512(nodes, lanes, running) },
        // SAFETY: as above.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { fold_avx2(nodes, lanes, running) },
        _ => fold_lanes(nodes, lanes, running),
    }
}

/// [`fold_lanes`] compiled with AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn fold_avx512(nodes: &[f64], lanes: usize, running: &mut RunningMoments) {
    fold_lanes(nodes, lanes, running);
}

/// [`fold_lanes`] compiled with AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn fold_avx2(nodes: &[f64], lanes: usize, running: &mut RunningMoments) {
    fold_lanes(nodes, lanes, running);
}

/// [`fold_block`] at the block's lane count, inlined into each
/// instruction set's caller.
#[inline(always)]
fn fold_lanes(nodes: &[f64], lanes: usize, running: &mut RunningMoments) {
    match lanes {
        1 => fold_block::<1, CHAINS>(nodes, running),
        2 => fold_block::<2, 1>(nodes, running),
        3 => fold_block::<3, 1>(nodes, running),
        4 => fold_block::<4, 1>(nodes, running),
        5 => fold_block::<5, 1>(nodes, running),
        6 => fold_block::<6, 1>(nodes, running),
        7 => fold_block::<7, 1>(nodes, running),
        8 => fold_block::<8, 1>(nodes, running),
        _ => unreachable!("a block holds 1..={LANES} lanes, not {lanes}"),
    }
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
/// Row `r` is the distribution of source `r`'s report, stored in its
/// block's interleaved layout; see the [module docs](self).  Deliberately
/// not (de)serializable: deserialization would bypass the shape/probability
/// invariants the constructors enforce.  The durable runtime instead
/// round-trips ensembles through [`DistributionEnsemble::row_groups`] /
/// [`DistributionEnsemble::from_rows_at`], which re-validates every row and
/// restores the round clock on load.
#[derive(Debug, Clone, PartialEq)]
pub struct DistributionEnsemble {
    sources: usize,
    nodes: usize,
    /// The rows, [`LANES`] to a block, each block interleaved: row `r`'s
    /// entry `i` at `(r - l)·n + i·lanes + l`, where `l = r % LANES` and
    /// `lanes` is the block's row count.
    data: Vec<f64>,
    /// Rounds applied so far.
    time: usize,
    /// The second buffer, kept between advances.
    spare: Spare,
}

/// The buffers an ensemble keeps between advances: the second buffer of
/// rows — one block of scratch for an offline advance, every row's
/// previous state for a shared round — the per-round dark-neighbour
/// counts its masked rounds read ([`TransitionModel::prepare_round`]), and
/// a shared round's fold bookkeeping (see [`RoundSweep`]).  Pure scratch,
/// never part of the ensemble's value: clones start empty and equality
/// ignores it.
#[derive(Default)]
struct Spare {
    rows: Vec<f64>,
    dark: DarkCounts,
    folds: Vec<BlockFold>,
    /// The allocation of a sweep's `Claims::done`, kept between sweeps.
    done: Vec<Option<&'static [f64]>>,
}

impl Clone for Spare {
    fn clone(&self) -> Self {
        Spare::default()
    }
}

impl PartialEq for Spare {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl std::fmt::Debug for Spare {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Spare({} f64)", self.rows.len())
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
        for (block, origins) in data.chunks_mut(LANES * n).zip(origins.chunks(LANES)) {
            for (lane, &origin) in origins.iter().enumerate() {
                block[origin * origins.len() + lane] = 1.0;
            }
        }
        Ok(DistributionEnsemble {
            sources: origins.len(),
            nodes: n,
            data,
            time: 0,
            spare: Spare::default(),
        })
    }

    /// Restores an ensemble from its rows, one slice each, at an explicit
    /// round clock — the durable runtime's snapshot-restore constructor.
    /// Every row must be a probability distribution (finite, non-negative,
    /// summing to 1 within `1e-9`), and the rows are transposed straight
    /// into the blocks, so a restore from a checkpoint's per-shard rows
    /// makes no flat copy of them.  A mid-run ensemble is not at round 0:
    /// scheduled operators ([`crate::dynamic::TimeVaryingModel`]) index
    /// their schedule by this clock, so restoring rows without the clock
    /// would silently replay the wrong operators.
    ///
    /// # Errors
    ///
    /// [`GraphError::InvalidParameters`] if no rows are given, the rows are
    /// empty or differ in length, or some row is not a probability
    /// distribution.
    pub fn from_rows_at(rows: &[&[f64]], time: usize) -> Result<Self> {
        let n = rows.first().map_or(0, |row| row.len());
        if n == 0 || rows.iter().any(|row| row.len() != n) {
            return Err(GraphError::InvalidParameters(format!(
                "cannot restore {} rows that are empty or differ in length",
                rows.len()
            )));
        }
        for (index, row) in rows.iter().enumerate() {
            if row.iter().any(|&x| x < 0.0 || !x.is_finite()) {
                return Err(GraphError::InvalidParameters(format!(
                    "row {index} has a negative or non-finite entry"
                )));
            }
            let total: f64 = row.iter().sum();
            if (total - 1.0).abs() > 1e-9 {
                return Err(GraphError::InvalidParameters(format!(
                    "row {index} sums to {total}, expected 1"
                )));
            }
        }
        let mut ensemble = Self::interleaved(rows, n);
        ensemble.time = time;
        Ok(ensemble)
    }

    /// An ensemble at round 0 holding `rows` (`n` entries each), transposed
    /// into blocks, unchecked.
    fn interleaved(rows: &[&[f64]], n: usize) -> Self {
        let mut data = vec![0.0; rows.len() * n];
        for (rows, block) in rows.chunks(LANES).zip(data.chunks_mut(LANES * n)) {
            transpose(rows, block);
        }
        DistributionEnsemble {
            sources: rows.len(),
            nodes: n,
            data,
            time: 0,
            spare: Spare::default(),
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

    /// The blocks of [`LANES`] rows (the last may be shorter), each
    /// interleaved.
    fn blocks(&self) -> Chunks<'_, f64> {
        self.data.chunks(LANES * self.nodes)
    }

    /// The rows copied out row-major in consecutive groups: group `k`
    /// holds rows `bounds[k]..bounds[k + 1]`, row after row (`n` entries
    /// each).  One tiled pass over each block the groups cover, however
    /// they cut it — a checkpoint taking every shard's rows reads the rows
    /// once.
    ///
    /// # Panics
    ///
    /// Panics unless `bounds` is non-decreasing and at most `sources`.
    pub fn row_groups(&self, bounds: &[usize]) -> Vec<Vec<f64>> {
        assert!(
            bounds.windows(2).all(|pair| pair[0] <= pair[1])
                && bounds.last().is_none_or(|&end| end <= self.sources),
            "row bounds {bounds:?} must rise within 0..={}",
            self.sources
        );
        let n = self.nodes;
        let mut groups: Vec<Vec<f64>> = bounds
            .windows(2)
            .map(|pair| vec![0.0; (pair[1] - pair[0]) * n])
            .collect();
        let start = bounds.first().copied().unwrap_or(0);
        let end = bounds.last().copied().unwrap_or(0);
        // One output row per row copied, in row order.
        let mut rows: Vec<&mut [f64]> = groups.iter_mut().flat_map(|g| g.chunks_mut(n)).collect();
        for (index, block) in self.blocks().enumerate() {
            let (first, lanes) = (index * LANES, block.len() / n);
            let take = start.clamp(first, first + lanes)..end.clamp(first, first + lanes);
            if !take.is_empty() {
                let out = &mut rows[take.start - start..take.end - start];
                untranspose(block, lanes, take.start - first..take.end - first, out);
            }
        }
        groups
    }

    /// The accounting moments (`Σ_i P_i²`, support ratio) of one row — a
    /// one-row query that folds the row's whole block; use
    /// [`DistributionEnsemble::stats_into`] for every row.
    ///
    /// # Panics
    ///
    /// Panics if `row >= sources`.
    pub fn row_stats(&self, row: usize) -> RowStats {
        assert!(row < self.sources, "row {row} outside 0..{}", self.sources);
        let block = self.blocks().nth(row / LANES).expect("row is in range");
        let lanes = block.len() / self.nodes;
        let mut stats = [RowStats::default(); LANES];
        block_stats(block, lanes, &mut stats[..lanes]);
        stats[row % LANES]
    }

    /// Every row's accounting moments, in row order, written over `out`:
    /// one pass per block.  Reuses `out`'s allocation.
    pub fn stats_into(&self, out: &mut Vec<RowStats>) {
        out.clear();
        let mut stats = [RowStats::default(); LANES];
        for block in self.blocks() {
            let lanes = block.len() / self.nodes;
            block_stats(block, lanes, &mut stats[..lanes]);
            out.extend_from_slice(&stats[..lanes]);
        }
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

    /// One round of every row under `model`, set up as shared work that
    /// any number of threads may join by calling [`RoundSweep::run`] on the
    /// returned sweep, and each row's moments after the round, folded
    /// inside the sweep into `stats` (resized to one entry per row).  Once
    /// the sweep has run to the end, the rows and the clock are bitwise
    /// what [`DistributionEnsemble::advance`]`(model, 1)` leaves and
    /// `stats` is bitwise what [`DistributionEnsemble::stats_into`] then
    /// reads, whichever threads ran which part.  The clock moves and the
    /// two buffers swap when the sweep is made — the rows read as the new
    /// state only once every unit has run — and the ensemble and `stats`
    /// stay borrowed until the sweep is dropped.
    ///
    /// # Panics
    ///
    /// Panics if `model.node_count()` differs from the ensemble's.
    pub fn round_sweep<'a, M>(
        &'a mut self,
        model: &'a M,
        stats: &'a mut Vec<RowStats>,
    ) -> RoundSweep<'a, M>
    where
        M: TransitionModel + Sync + ?Sized,
    {
        assert_eq!(
            model.node_count(),
            self.nodes,
            "transition model and ensemble disagree on the node count"
        );
        let n = self.nodes;
        let round = self.time;
        self.time += 1;
        // The old state stays in the spare buffer, read by every unit; the
        // units write the new state into `data`.
        let Spare {
            rows,
            dark,
            folds,
            done,
        } = &mut self.spare;
        rows.resize(self.data.len(), 0.0);
        std::mem::swap(&mut self.data, rows);
        let input: &'a [f64] = rows;
        let units = input
            .chunks(LANES * n)
            .map(|block| ranges_of(block.len() / n, n))
            .sum();
        folds.clear();
        let mut finished_units = std::mem::take(done);
        finished_units.resize(units, None);
        stats.resize(self.sources, RowStats::default());
        RoundSweep {
            model,
            round,
            claims: Mutex::new(Claims {
                n,
                blocks: input.chunks(LANES * n).zip(self.data.chunks_mut(LANES * n)),
                current: None,
                handed: 0,
                unfinished: units,
                unprepared: Some(dark),
                stats,
                folds,
                done: finished_units,
                home: done,
            }),
            dark: OnceLock::new(),
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
        let Spare { rows, dark, .. } = &mut self.spare;
        let len = LANES.min(self.sources) * n;
        if rows.len() < len {
            rows.resize(len, 0.0);
        }
        let scratch = &mut rows[..len];
        let mut stats = stats.map(|stats| stats.chunks_mut(LANES * rounds));
        for block in self.data.chunks_mut(LANES * n) {
            let trajectory = stats.as_mut().and_then(Iterator::next);
            let rounds = base_round..base_round + rounds;
            advance_block(model, n, rounds, block, scratch, dark, trajectory);
        }
    }
}

/// The units a block is cut into: 64 destination ranges (one per node on
/// graphs with fewer nodes) for a multi-lane block, else the whole block —
/// a 1-row block keeps its scatter.
fn ranges_of(lanes: usize, n: usize) -> usize {
    if lanes > 1 {
        SWEEP_RANGES.min(n)
    } else {
        1
    }
}

/// One round of a [`DistributionEnsemble`] as shared work
/// ([`DistributionEnsemble::round_sweep`]), with every row's moments folded
/// as the round's ranges finish.
///
/// Every unit reads the old state and writes its own disjoint chunk of the
/// new one: one destination range of a multi-row block, written as one
/// contiguous interleaved chunk, or a whole 1-row block.  Units are claimed
/// in order from one lock and never wait for each other, so a unit that
/// panics strands no one: the other threads finish what is left.  The one
/// exception is the round's preparation ([`TransitionModel::prepare_round`]):
/// the first unit that needs it runs it, and a unit claimed meanwhile on
/// another thread waits for it.
///
/// The moments fold rides along.  A 1-row block is folded by the thread
/// that ran its scatter, right after it.  A multi-row block's fold is one
/// chain per lane in node order, so it is folded range by range, in node
/// order, as its ranges finish: the thread that finishes the block's next
/// range to fold folds it and then every finished successor, while a range
/// that finishes early is left, recorded, to that thread.  Each block's
/// [`RowStats`] land once its last range is folded, bitwise what
/// [`DistributionEnsemble::stats_into`] reads from the finished rows.  The
/// fold's bookkeeping lives in buffers the ensemble keeps between sweeps,
/// so a settled round allocates nothing.
pub struct RoundSweep<'a, M: ?Sized> {
    model: &'a M,
    /// The absolute round the sweep applies.
    round: usize,
    claims: Mutex<Claims<'a>>,
    /// The round's dark counts, once the first unit that reads them has
    /// prepared them.
    dark: OnceLock<&'a DarkCounts>,
}

/// The claim and fold state of a [`RoundSweep`].
struct Claims<'a> {
    n: usize,
    /// Each block not yet started: its old state beside the chunk of the
    /// new state it writes.
    blocks: Zip<Chunks<'a, f64>, ChunksMut<'a, f64>>,
    /// The block whose ranges are being handed out.
    current: Option<Block<'a>>,
    /// Units handed out so far.
    handed: usize,
    /// Units not yet folded.
    unfinished: usize,
    /// The buffer the round's dark counts are prepared into, until the
    /// first unit that reads them takes it.
    unprepared: Option<&'a mut DarkCounts>,
    /// Every row's moments, written block by block as each block's fold
    /// completes.
    stats: &'a mut [RowStats],
    /// Each started block's fold, in block order.
    folds: &'a mut Vec<BlockFold>,
    /// Each unit's new state, in unit order, from when it has run until it
    /// is folded.
    done: Vec<Option<&'a [f64]>>,
    /// Where `done`'s allocation goes back once the sweep completes.
    home: &'a mut Vec<Option<&'static [f64]>>,
}

/// A block being handed out range by range, in node order.
struct Block<'a> {
    input: &'a [f64],
    lanes: usize,
    /// The output not handed out yet.
    tail: &'a mut [f64],
    /// Ranges in the block, and how many were handed out.
    count: usize,
    taken: usize,
}

/// One block's moments fold during a [`RoundSweep`].
#[derive(Debug, Clone, Copy)]
struct BlockFold {
    lanes: usize,
    /// Units in the block, and the index of its first in unit order.
    ranges: usize,
    first: usize,
    /// Ranges folded so far, in node order.
    folded: usize,
    /// Whether a thread is folding the block's ranges now.
    folding: bool,
    moments: RunningMoments,
}

/// One claimed unit: destinations `nodes` of block `block`, whose next
/// state lands in `out` (`out[(j − nodes.start)·lanes + l]`); `index`
/// counts units in claim order.
struct Unit<'a> {
    input: &'a [f64],
    lanes: usize,
    nodes: Range<usize>,
    out: &'a mut [f64],
    block: usize,
    index: usize,
}

impl<'a> Claims<'a> {
    /// The next unit in order, or `None` once every unit is handed out.
    fn next_unit(&mut self) -> Option<Unit<'a>> {
        let n = self.n;
        loop {
            if let Some(block) = self.current.as_mut().filter(|b| b.taken < b.count) {
                // Range `r` covers `r·n/count .. (r+1)·n/count`: never
                // empty, as `count <= n`.
                let start = block.taken * n / block.count;
                block.taken += 1;
                let end = block.taken * n / block.count;
                let (out, tail) =
                    std::mem::take(&mut block.tail).split_at_mut((end - start) * block.lanes);
                block.tail = tail;
                self.handed += 1;
                return Some(Unit {
                    input: block.input,
                    lanes: block.lanes,
                    nodes: start..end,
                    out,
                    block: self.folds.len() - 1,
                    index: self.handed - 1,
                });
            }
            let (input, tail) = self.blocks.next()?;
            let lanes = input.len() / n;
            let count = ranges_of(lanes, n);
            self.current = Some(Block {
                input,
                lanes,
                tail,
                count,
                taken: 0,
            });
            self.folds.push(BlockFold {
                lanes,
                ranges: count,
                first: self.handed,
                folded: 0,
                folding: false,
                moments: RunningMoments::new(),
            });
        }
    }

    /// The next range of `block` to fold, if it has run; it is taken.
    fn next_to_fold(&mut self, block: usize) -> Option<&'a [f64]> {
        let fold = &self.folds[block];
        if fold.folded == fold.ranges {
            return None;
        }
        self.done[fold.first + fold.folded].take()
    }

    /// Counts one unit folded; whether it was the sweep's last.  The last
    /// one hands the sweep's bookkeeping back to the ensemble.
    fn count_folded(&mut self) -> bool {
        self.unfinished -= 1;
        let last = self.unfinished == 0;
        if last {
            *self.home = recycled(std::mem::take(&mut self.done));
        }
        last
    }
}

/// `slots`, emptied, as a buffer for borrows of another lifetime: the
/// buffer that keeps a sweep's finished chunks goes back to the ensemble
/// between sweeps this way.  Collecting an emptied vector through `map`
/// into one of an element of the same layout reuses its allocation in
/// place, which the allocation audits pin (`tests/accountant_allocations.rs`,
/// `tests/coordinator_allocations.rs`).
fn recycled<'b>(mut slots: Vec<Option<&[f64]>>) -> Vec<Option<&'b [f64]>> {
    slots.clear();
    slots.into_iter().map(|_| None).collect()
}

impl<'a, M: TransitionModel + Sync + ?Sized> RoundSweep<'a, M> {
    /// Claims and runs units until none is left to claim.  Returns `true`
    /// on exactly one call per completed sweep: the one that folded its
    /// last range, after which every unit has run and every row's moments
    /// are written (what a caller timing the sweep keys on).  A sweep one
    /// of whose units panicked never completes.
    pub fn run(&self) -> bool {
        let mut finished = false;
        while let Some(last) = self.run_one() {
            finished |= last;
        }
        finished
    }

    /// Claims and runs one unit, and folds what it can; `false` when no
    /// unit was left to claim.  Lets a caller choose which thread runs
    /// which unit.
    pub fn run_unit(&self) -> bool {
        self.run_one().is_some()
    }

    /// Runs the next unit and folds what it can; `None` when no unit was
    /// left, else whether the sweep completed here.
    fn run_one(&self) -> Option<bool> {
        let Unit {
            input,
            lanes,
            nodes,
            out,
            block,
            index,
        } = self.lock().next_unit()?;
        let (model, round) = (self.model, self.round);
        if lanes > 1 {
            let dark = self.dark();
            model.propagate_round_interleaved_range(round, lanes, input, nodes, out, dark);
            Some(self.fold_ranges(block, index, out))
        } else {
            // A 1-row block is its row, folded whole here.
            model.propagate_round_into(round, input, out);
            let mut stats = [RowStats::default()];
            block_stats(out, 1, &mut stats);
            let mut claims = self.lock();
            claims.stats[block * LANES] = stats[0];
            claims.folds[block].folded = 1;
            Some(claims.count_folded())
        }
    }

    /// Records unit `index`, a range of multi-row `block`, as run with new
    /// state `out`, then — unless another thread is folding `block` —
    /// folds every range of `block` that is next in node order and has
    /// run.  Returns whether the sweep completed here.
    fn fold_ranges(&self, block: usize, index: usize, out: &'a [f64]) -> bool {
        let mut claims = self.lock();
        claims.done[index] = Some(out);
        if claims.folds[block].folding {
            return false;
        }
        claims.folds[block].folding = true;
        let mut completed = false;
        while let Some(chunk) = claims.next_to_fold(block) {
            let BlockFold {
                lanes, mut moments, ..
            } = claims.folds[block];
            drop(claims);
            fold_in(Isa::detected(), chunk, lanes, &mut moments);
            claims = self.lock();
            let fold = &mut claims.folds[block];
            fold.moments = moments;
            fold.folded += 1;
            if fold.folded == fold.ranges {
                moments.finish(lanes, &mut claims.stats[block * LANES..][..lanes]);
            }
            completed |= claims.count_folded();
        }
        claims.folds[block].folding = false;
        completed
    }

    /// The round's dark counts: prepared by the first call, which every
    /// other caller waits for.
    fn dark(&self) -> &'a DarkCounts {
        self.dark.get_or_init(|| {
            let dark = self
                .lock()
                .unprepared
                .take()
                .expect("the round's preparation panicked on another thread");
            self.model.prepare_round(self.round, dark);
            dark
        })
    }
}

impl<'a, M: ?Sized> RoundSweep<'a, M> {
    fn lock(&self) -> MutexGuard<'_, Claims<'a>> {
        // No code under the lock panics; a poisoned lock still holds
        // consistent claims.
        self.claims.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Advances one interleaved block through the absolute rounds `rounds`
/// (starting from the ensemble's clock before the advance, which is what
/// lets time-varying models schedule a distinct operator per round): a
/// 1-row block, which is its row, through
/// [`TransitionModel::propagate_round_into`], a wider one through
/// [`TransitionModel::propagate_round_interleaved_range`] over every
/// destination after preparing each round into `dark`.
///
/// Rounds ping-pong between the block and `scratch` (at least the block's
/// length), and the result is copied home when the round count is odd.
/// `trajectory`, when given, has length `lanes * rounds.len()` laid out
/// `[lane * rounds.len() + (t - 1)]`.
fn advance_block<M: TransitionModel + ?Sized>(
    model: &M,
    n: usize,
    rounds: Range<usize>,
    block: &mut [f64],
    scratch: &mut [f64],
    dark: &mut DarkCounts,
    mut trajectory: Option<&mut [RowStats]>,
) {
    let lanes = block.len() / n;
    let count = rounds.len();
    let mut current: &mut [f64] = block;
    let mut next: &mut [f64] = &mut scratch[..lanes * n];
    let mut stats = [RowStats::default(); LANES];
    for (t, round) in rounds.enumerate() {
        if lanes == 1 {
            model.propagate_round_into(round, current, next);
        } else {
            model.prepare_round(round, dark);
            model.propagate_round_interleaved_range(round, lanes, current, 0..n, next, dark);
        }
        std::mem::swap(&mut current, &mut next);
        if let Some(trajectory) = trajectory.as_deref_mut() {
            block_stats(current, lanes, &mut stats[..lanes]);
            for (lane, stats) in stats[..lanes].iter().enumerate() {
                trajectory[lane * count + t] = *stats;
            }
        }
    }
    if !count.is_multiple_of(2) {
        // The result landed in the scratch buffer; move it home.
        next.copy_from_slice(current);
    }
}

/// Tile width of the (un)transposes: 128 nodes × 8 bytes = 1 KiB of each
/// row's window, and the strided side touches 128 nodes at a time — both
/// L1-resident.
const TILE: usize = 128;

/// Transposes `rows` (`n` entries each) into the interleaved block `dst`:
/// `dst[i * lanes + r] = rows[r][i]`, where `lanes = rows.len()`.  The pass
/// is tiled over nodes so the strided writes stay within a cache-resident
/// window; it is a pure copy — every destination value is bitwise a source
/// value.
fn transpose(rows: &[&[f64]], dst: &mut [f64]) {
    if let [row] = rows {
        return dst.copy_from_slice(row);
    }
    let lanes = rows.len();
    let n = dst.len() / lanes;
    let mut start = 0;
    while start < n {
        let end = (start + TILE).min(n);
        let tile = &mut dst[start * lanes..end * lanes];
        for (lane, row) in rows.iter().enumerate() {
            for (node, &x) in tile.chunks_exact_mut(lanes).zip(&row[start..end]) {
                node[lane] = x;
            }
        }
        start = end;
    }
}

/// Copies lanes `take` of an interleaved block `lanes` wide out row-major,
/// lane `l` into `out[l - take.start]`: `out[l - take.start][i] =
/// block[i * lanes + l]`.  Tiled like [`transpose`], and as pure a copy.
fn untranspose(block: &[f64], lanes: usize, take: Range<usize>, out: &mut [&mut [f64]]) {
    if let (1, [row]) = (lanes, &mut *out) {
        return row.copy_from_slice(block);
    }
    let n = block.len() / lanes;
    let mut start = 0;
    while start < n {
        let end = (start + TILE).min(n);
        let tile = &block[start * lanes..end * lanes];
        for (row, lane) in out.iter_mut().zip(take.clone()) {
            for (x, node) in row[start..end].iter_mut().zip(tile.chunks_exact(lanes)) {
                *x = node[lane];
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
/// `n ≈ 1M` and grows as `O(LANES · n)` beyond that (plus one block of
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
    let mut stats = Vec::with_capacity(batch);
    let mut start = 0usize;
    while start < n {
        let end = (start + batch).min(n);
        let origins: Vec<NodeId> = (start..end).collect();
        let mut ensemble = DistributionEnsemble::point_masses(n, &origins)?;
        ensemble.advance(model, rounds);
        ensemble.stats_into(&mut stats);
        out.extend_from_slice(&stats);
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
    use crate::generators;
    use crate::rng::seeded_rng;
    use crate::transition::{TransitionMatrix, TransitionModel};
    use crate::Graph;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    fn irregular_graph(seed: u64) -> Graph {
        generators::barabasi_albert(150, 3, &mut seeded_rng(seed)).unwrap()
    }

    /// Reference: evolve each origin alone through the scalar scatter.
    fn naive_rows(t: &TransitionMatrix, origins: &[usize], rounds: usize) -> Vec<Vec<f64>> {
        let n = t.node_count();
        origins
            .iter()
            .map(|&o| {
                let mut row = vec![0.0; n];
                row[o] = 1.0;
                let mut next = vec![0.0; n];
                for round in 0..rounds {
                    t.propagate_round_into(round, &row, &mut next);
                    std::mem::swap(&mut row, &mut next);
                }
                row
            })
            .collect()
    }

    /// Point masses on every node, `0..n`.
    fn every_origin(n: usize) -> DistributionEnsemble {
        let origins: Vec<usize> = (0..n).collect();
        DistributionEnsemble::point_masses(n, &origins).unwrap()
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn constructors_validate() {
        assert!(DistributionEnsemble::point_masses(0, &[]).is_err());
        assert!(DistributionEnsemble::point_masses(4, &[]).is_err());
        assert!(DistributionEnsemble::point_masses(4, &[4]).is_err());
        assert!(DistributionEnsemble::from_rows_at(&[], 0).is_err());
        assert!(DistributionEnsemble::from_rows_at(&[&[]], 0).is_err());
        assert!(DistributionEnsemble::from_rows_at(&[&[1.0, 0.0], &[1.0]], 0).is_err());
        assert!(DistributionEnsemble::from_rows_at(&[&[0.5, 0.6]], 0).is_err());
        assert!(DistributionEnsemble::from_rows_at(&[&[-0.5, 1.5]], 0).is_err());
        assert!(DistributionEnsemble::from_rows_at(&[&[f64::NAN, 1.0]], 0).is_err());
        let ok = DistributionEnsemble::from_rows_at(&[&[1.0, 0.0], &[0.25, 0.75]], 3).unwrap();
        assert_eq!(ok.sources(), 2);
        assert_eq!(ok.node_count(), 2);
        assert_eq!(ok.time(), 3);
        assert_eq!(ok.row_groups(&[1, 2]).concat(), [0.25, 0.75]);
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
            assert_eq!(
                ensemble.row_groups(&[row, row + 1]).concat(),
                *exp,
                "row {row} diverged"
            );
        }
    }

    #[test]
    fn rows_round_trip_through_the_interleaved_layout_bitwise() {
        let g = irregular_graph(9);
        let t = TransitionMatrix::with_laziness(&g, 0.1).unwrap();
        // Every block shape up to three blocks, the last one ragged.
        for sources in 1..=17 {
            let origins: Vec<usize> = (0..sources).map(|i| i * 17 % 150).collect();
            let mut evolved = DistributionEnsemble::point_masses(150, &origins).unwrap();
            evolved.advance(&t, 5);
            let flat = evolved.row_groups(&[0, sources]).concat();
            let rows: Vec<&[f64]> = flat.chunks(150).collect();
            let restored = DistributionEnsemble::from_rows_at(&rows, 5).unwrap();
            assert_eq!(restored.time(), 5);
            assert_eq!(restored, evolved, "{sources} rows");
            for start in 0..=sources {
                for end in start..=sources {
                    assert_eq!(
                        bits(&restored.row_groups(&[start, end]).concat()),
                        bits(&flat[start * 150..end * 150]),
                        "{sources} rows, copy-out of {start}..{end}"
                    );
                }
            }
            let every_row: Vec<usize> = (0..=sources).collect();
            let copied = restored.row_groups(&every_row);
            assert_eq!(
                bits(&copied.concat()),
                bits(&flat),
                "{sources} rows, one group per row"
            );
            let rows: Vec<&[f64]> = copied.iter().map(Vec::as_slice).collect();
            let again = DistributionEnsemble::from_rows_at(&rows, 5).unwrap();
            assert_eq!(again, restored, "{sources} rows");
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
                assert_eq!(trajectory.row(row)[t_round - 1], stepped.row_stats(row));
            }
        }
        assert_eq!(trajectory.row(1).len(), rounds);
    }

    #[test]
    fn rows_stay_probability_distributions() {
        let g = generators::stochastic_block_model(120, 4, 0.2, 0.02, &mut seeded_rng(4)).unwrap();
        let g = crate::connectivity::largest_connected_component(&g).0;
        let n = g.node_count();
        let t = TransitionMatrix::with_laziness(&g, 0.1).unwrap();
        let mut ensemble = every_origin(n);
        ensemble.advance(&t, 25);
        for (row, dist) in ensemble.row_groups(&[0, n]).concat().chunks(n).enumerate() {
            let sum: f64 = dist.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "row {row} sums to {sum}");
            assert!(dist.iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn all_origin_moments_match_materialized_ensemble() {
        let g = irregular_graph(5);
        let t = TransitionMatrix::new(&g).unwrap();
        let moments = all_origin_moments(&t, 8).unwrap();
        assert_eq!(moments.len(), 150);
        let mut full = every_origin(150);
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
                assert!(trajectory.row(row)[2].sum_of_squares > 0.0);
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
    fn row_stats_match_the_historical_helpers() {
        let p = [0.0, 0.2, 0.5, 0.3, 0.0];
        let stats = DistributionEnsemble::from_rows_at(&[&p], 0)
            .unwrap()
            .row_stats(0);
        assert_same_bits(stats, reference_stats_of(p.iter().copied()), "one row");
        // The support ratio skips the zero entries: 0.5 / 0.2.
        assert!((stats.support_ratio - 2.5).abs() < 1e-12);
        // Degenerate all-zero input falls back to ratio 1.
        let zero = DistributionEnsemble::interleaved(&[&[0.0, 0.0]], 2);
        assert_eq!(zero.row_stats(0).support_ratio, 1.0);
    }

    fn stats_bits(stats: &[RowStats]) -> Vec<(u64, u64)> {
        stats
            .iter()
            .map(|s| (s.sum_of_squares.to_bits(), s.support_ratio.to_bits()))
            .collect()
    }

    /// Two threads share each sweep; exactly one `run` reports it finished,
    /// and only once the last unit has run and the last range is folded:
    /// at that moment every block's fold is complete and the moments it
    /// wrote are bitwise `stats_into` over the serial round's rows.
    #[test]
    fn exactly_one_run_reports_the_finished_sweep() {
        let g = irregular_graph(7);
        let t = TransitionMatrix::with_laziness(&g, 0.2).unwrap();
        for rows in [1usize, 8, 13, 17] {
            let origins: Vec<usize> = (0..rows).map(|i| i * 11 % 150).collect();
            let mut serial = DistributionEnsemble::point_masses(150, &origins).unwrap();
            let mut swept = serial.clone();
            serial.advance(&t, 1);
            let mut want = Vec::new();
            serial.stats_into(&mut want);
            let mut stats = vec![RowStats::default(); 3];
            let sweep = swept.round_sweep(&t, &mut stats);
            let run = || {
                let finished = sweep.run();
                if finished {
                    let claims = sweep.lock();
                    assert!(claims.folds.iter().all(|f| f.folded == f.ranges));
                    assert_eq!(stats_bits(claims.stats), stats_bits(&want), "{rows} rows");
                }
                finished
            };
            let finished = std::thread::scope(|scope| {
                let other = scope.spawn(run);
                let here = run();
                [other.join().unwrap(), here]
            });
            assert_eq!(finished.iter().filter(|&&f| f).count(), 1, "{rows} rows");
            assert!(!sweep.run(), "a finished sweep has nothing left");
            assert_eq!(swept, serial, "{rows} rows");
            assert_eq!(stats_bits(&stats), stats_bits(&want), "{rows} rows");
        }
    }

    /// The walk operator whose first destination range panics; counts the
    /// ranges it finishes.
    #[derive(Debug)]
    struct PanicsOnce {
        inner: TransitionMatrix,
        armed: AtomicBool,
        finished: AtomicUsize,
    }

    impl TransitionModel for PanicsOnce {
        fn node_count(&self) -> usize {
            self.inner.node_count()
        }

        fn propagate_round_into(&self, round: usize, p: &[f64], out: &mut [f64]) {
            self.inner.propagate_round_into(round, p, out);
        }

        fn prepare_round(&self, round: usize, dark: &mut DarkCounts) {
            self.inner.prepare_round(round, dark);
        }

        fn propagate_round_interleaved_range(
            &self,
            round: usize,
            lanes: usize,
            input: &[f64],
            nodes: Range<usize>,
            out: &mut [f64],
            dark: &DarkCounts,
        ) {
            if self.armed.swap(false, Ordering::SeqCst) {
                panic!("the first range panics");
            }
            self.inner
                .propagate_round_interleaved_range(round, lanes, input, nodes, out, dark);
            self.finished.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn a_panicking_unit_leaves_every_other_unit_to_the_other_thread() {
        // An 8-lane and a 4-lane block: 128 ranges, none waiting on
        // another.  Whichever thread runs the first range panics; the other
        // must run every range left, and the sweep never completes.
        let origins: Vec<usize> = (0..12).map(|i| i * 13 % 150).collect();
        let mut ensemble = DistributionEnsemble::point_masses(150, &origins).unwrap();
        let model = PanicsOnce {
            inner: TransitionMatrix::new(&irregular_graph(8)).unwrap(),
            armed: AtomicBool::new(true),
            finished: AtomicUsize::new(0),
        };
        let mut stats = Vec::new();
        let sweep = ensemble.round_sweep(&model, &mut stats);
        let outcomes = std::thread::scope(|scope| {
            let threads = [scope.spawn(|| sweep.run()), scope.spawn(|| sweep.run())];
            threads.map(|thread| thread.join())
        });
        assert_eq!(
            outcomes.iter().filter(|outcome| outcome.is_err()).count(),
            1
        );
        assert!(
            outcomes.iter().all(|outcome| !matches!(outcome, Ok(true))),
            "a sweep with a panicked unit never completes"
        );
        assert_eq!(model.finished.load(Ordering::SeqCst), 2 * SWEEP_RANGES - 1);
        assert!(!sweep.run_unit(), "every unit was handed out");
    }

    /// The single ordered fold the block folds replaced, kept as the
    /// reference they must reproduce bit for bit.
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

    /// Every fold instantiation this host runs, called directly — the
    /// 1-lane split chains and every block width — against the ordered
    /// fold, over rows of NaN, ±0, subnormals, ±∞ and negatives.
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
            vec![-0.0, f64::NEG_INFINITY, -0.0, f64::NEG_INFINITY],
            vec![f64::NAN, 0.0, f64::INFINITY, tiny, -0.0],
        ];
        let mut stats = [RowStats::default(); LANES];
        for row in &rows {
            // The 1-lane fold's split chains in every instantiation: every
            // length, including those not divisible by the chain count, and
            // every rotation so each entry meets every chain.
            for len in 0..=row.len() {
                for shift in 0..len.max(1) {
                    let mut values = row[..len].to_vec();
                    values.rotate_left(shift);
                    let want = reference_stats_of(values.iter().copied());
                    for isa in Isa::supported() {
                        block_stats_in(isa, &values, 1, &mut stats[..1]);
                        assert_same_bits(stats[0], want, &format!("{isa:?}: {values:?}"));
                    }
                }
            }
            // The fused block fold: ensembles of 1..=9 rows (every block
            // width, then a ragged second block), row `r` holding the row
            // rotated by `r`, so each entry meets every lane.
            for sources in 1..=9 {
                let lanes: Vec<Vec<f64>> = (0..sources)
                    .map(|r| {
                        let mut values = row.clone();
                        values.rotate_left(r % row.len());
                        values
                    })
                    .collect();
                let slices: Vec<&[f64]> = lanes.iter().map(Vec::as_slice).collect();
                let ensemble = DistributionEnsemble::interleaved(&slices, row.len());
                let mut all = Vec::new();
                ensemble.stats_into(&mut all);
                assert_eq!(all.len(), sources);
                for (r, values) in lanes.iter().enumerate() {
                    let want = reference_stats_of(values.iter().copied());
                    let what = format!("row {r} of {sources}: {values:?}");
                    assert_same_bits(all[r], want, &what);
                    assert_same_bits(ensemble.row_stats(r), want, &what);
                }
                // Every instantiation of the fused fold, block by block.
                for isa in Isa::supported() {
                    for (b, block) in ensemble.blocks().enumerate() {
                        let width = block.len() / row.len();
                        block_stats_in(isa, block, width, &mut stats[..width]);
                        for (lane, got) in stats[..width].iter().enumerate() {
                            let values = &lanes[b * LANES + lane];
                            let want = reference_stats_of(values.iter().copied());
                            let what = format!("{isa:?}: lane {lane} of {width}: {values:?}");
                            assert_same_bits(*got, want, &what);
                        }
                    }
                }
                let copied = ensemble.row_groups(&[0, sources]).concat();
                assert_eq!(bits(&copied), bits(&lanes.concat()));
            }
        }
    }
}
