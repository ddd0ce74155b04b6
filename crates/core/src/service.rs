//! The sharded shuffle service: a coordinator with a streaming online
//! accountant.
//!
//! Everything below the service layer answers *offline* questions — run a
//! whole protocol, then account for it.  A deployment asks the *online*
//! form: reports arrive in batches, rounds execute shard by shard, and an
//! operator wants to know, **mid-run**, "what is the current worst user's
//! `(ε, δ)` if uploads happened right now?" so uploads can be gated on a
//! target budget instead of a precomputed round count.
//!
//! [`ShuffleCoordinator`] owns that loop:
//!
//! 1. **Admission** — reports are admitted in batches
//!    ([`ShuffleCoordinator::admit`] /
//!    [`ShuffleCoordinator::admit_population`]), sealed once for the curator
//!    in a flat arena, and released into the exchange phase together
//!    ([`ShuffleCoordinator::begin_exchange`]).
//! 2. **Rounds** — each round is executed by the multi-shard engine
//!    ([`ns_graph::sharded_engine::ShardedMixingEngine`]) with per-shard
//!    deterministic streams, traffic metrics streaming into a
//!    [`TrafficRecorder`], while the streaming accountant advances its
//!    tracked distributions by one round as shared work
//!    ([`ns_graph::ensemble::RoundSweep`]).  The sweep reads the old rows
//!    from one buffer and writes the new ones into the other, so its units
//!    (destination ranges of a multi-row block, or a whole 1-row block)
//!    never wait for each other: a persistent worker thread starts claiming
//!    them during the engine step, and the calling thread claims the rest
//!    once its step returns.  The engine never reads the accountant, every
//!    round's operator is fixed before round 0, and every destination's
//!    adds keep their order whichever thread runs them, so the round is
//!    bitwise the serial step-then-advance.
//! 3. **Quotes & gating** — [`ShuffleCoordinator::live_quote`] returns the
//!    worst tracked user's current guarantee without stopping the run, in
//!    O(tracked rows): each advance folds every tracked row's moments once,
//!    inside its sweep, and quotes (the live quote, the durable runtime's per-round
//!    trace quote, the admission audit) read them;
//!    [`ShuffleCoordinator::run_until_epsilon`] keeps exchanging until a
//!    target ε is met (or a round budget runs out).
//! 4. **Finalization** — [`ShuffleCoordinator::finalize`] applies the
//!    protocol's submission rule per user, drawing each user's choice from
//!    her *shard's* stream, and hands the curator's collection plus metrics
//!    back.
//!
//! The streaming accountant ([`StreamingAccountant`]) tracks each shard's
//! origins (all of them, or the lowest-degree ones — the slowest mixers and
//! therefore the worst-ε candidates) in one [`DistributionEnsemble`] shared
//! by all shards, each shard owning a contiguous row range, and advances it
//! one round per protocol round through the exact batched kernel — one
//! sweep of the operator per round for every shard.  With every origin
//! tracked, the live quote equals
//! [`crate::accountant::NetworkShuffleAccountant::worst_user_guarantee`] at
//! the same round — the offline and online accountants cannot drift
//! (`tests/sharded_engine.rs`).  Every round's operator is known before
//! the round runs (the static walk, or an outage schedule attached before
//! round 0), so each round is one dense advance under it.
//!
//! **Churn composes.**  Attaching a realized [`OutageSchedule`]
//! ([`ShuffleCoordinator::with_outages`] /
//! [`ShuffleCoordinator::sample_outages`]) switches every exchange round to
//! the engine's masked form (an unavailable recipient bounces the delivery
//! back through the return exchange; the walker stays, uncounted) *and*
//! rebuilds the streaming accountant around the same per-round masked
//! operators — so batch admission, live quotes and
//! [`ShuffleCoordinator::run_until_epsilon`] upload gating all run against
//! the schedule the deployment actually realized.  Both runtimes execute
//! the one round kernel of [`ns_graph::round`], which is what makes the
//! composition exact rather than approximate.
//!
//! **Degeneracy contract.**  Under the canonical 1-shard partition with a
//! full population, the coordinator reproduces
//! [`crate::simulation::run_protocol`] bit for bit — same walk, same
//! submissions, same [`TrafficMetrics`] — because shard 0's stream *is* the
//! protocol RNG and finalization draws continue it in submitter order.
//! With an outage schedule attached, the same 1-shard path is bit for bit
//! [`crate::simulation::run_protocol_under_outages`] on that schedule, and
//! a fully-available schedule degenerates to the static path.

use crate::accountant::closed_form::{guarantee_from_stats, AccountantParams};
use crate::crypto::Envelope;
use crate::error::{Error, Result};
use crate::faults::{OutageModel, OutageSchedule};
use crate::metrics::{TrafficMetrics, TrafficRecorder};
use crate::protocol::ProtocolKind;
use crate::report::Report;
use crate::server::Curator;
use crate::simulation::{collect_final_round, SimulationOutcome};
use crate::telemetry::{AccountantTelemetry, CoordinatorTelemetry, ObservedRounds};
use ns_dp::types::PrivacyGuarantee;
use ns_graph::dynamic::TimeVaryingModel;
use ns_graph::ensemble::{DistributionEnsemble, RowStats};
use ns_graph::partition::Partition;
use ns_graph::rng::SimRng;
use ns_graph::round::DrawMode;
use ns_graph::sharded_engine::{EngineCheckpoint, ShardedMixingEngine};
use ns_graph::transition::{TransitionMatrix, TransitionModel};
use ns_graph::walk::validate_laziness;
use ns_graph::worker::Worker;
use ns_graph::{Graph, NodeId};
use std::sync::Arc;

/// Configuration of a sharded shuffle deployment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoordinatorConfig {
    /// Base seed; shard `s` draws from
    /// [`ns_graph::sharded_engine::shard_stream`]`(seed, s)`.
    pub seed: u64,
    /// Per-round stay probability of the exchange walk (0 for the plain
    /// protocol).
    pub laziness: f64,
    /// The reporting protocol users run at finalization.
    pub protocol: ProtocolKind,
    /// How many origins per shard the streaming accountant tracks exactly
    /// (`usize::MAX` tracks every origin).  Tracked origins are each shard's
    /// lowest-degree users — the slowest mixers.
    pub tracked_per_shard: usize,
    /// How the exchange engine draws randomness
    /// ([`ns_graph::round::DrawMode`]); applied when the exchange phase
    /// starts.  `Compat` is bitwise the classic protocol realization;
    /// `Fast` is a different, equally distributed realization.
    pub draw_mode: DrawMode,
}

impl CoordinatorConfig {
    /// A plain `A_all` deployment tracking `tracked_per_shard` origins.
    pub fn all(seed: u64, tracked_per_shard: usize) -> Self {
        CoordinatorConfig {
            seed,
            laziness: 0.0,
            protocol: ProtocolKind::All,
            tracked_per_shard,
            draw_mode: DrawMode::Compat,
        }
    }

    /// A plain `A_single` deployment tracking `tracked_per_shard` origins.
    pub fn single(seed: u64, tracked_per_shard: usize) -> Self {
        CoordinatorConfig {
            seed,
            laziness: 0.0,
            protocol: ProtocolKind::Single,
            tracked_per_shard,
            draw_mode: DrawMode::Compat,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfiguration`] if `laziness ∉ [0, 1)`.
    pub fn validate(&self) -> Result<()> {
        validate_laziness(self.laziness).map_err(Error::InvalidConfiguration)
    }
}

/// The per-round operator the streaming accountant evolves through: the
/// static lazy walk ([`TransitionMatrix`]), or the realized per-round
/// schedule of a churning deployment ([`TimeVaryingModel`]), whose round
/// `t` applies `schedule.operator(t)` exactly like the offline
/// [`crate::accountant::NetworkShuffleAccountant::with_schedule`] route.
type Operator = Arc<dyn TransitionModel + Send + Sync>;

/// The tracked state behind a [`StreamingAccountant`]: origin ids shard
/// after shard, each shard's first row (plus the end), and the rows.
type Tracked = (Vec<NodeId>, Vec<usize>, DistributionEnsemble);

/// The `count` lowest `(degree, id)` of `nodes`, in that order: a selection
/// puts them first, and only they are sorted.
fn lowest_degree(graph: &Graph, nodes: &[NodeId], count: usize) -> Vec<NodeId> {
    let key = |&u: &NodeId| (graph.degree(u), u);
    let mut lowest = nodes.to_vec();
    if count < lowest.len() {
        lowest.select_nth_unstable_by_key(count, key);
        lowest.truncate(count);
    }
    lowest.sort_unstable_by_key(key);
    lowest
}

/// Streaming exact accounting over per-shard tracked origins.
///
/// The accountant evolves the tracked origins' position distributions under
/// the deployment's *realized* per-round operator — the static (lazy) walk,
/// or, under churn, the round's actual masked operator — one round per call
/// to [`StreamingAccountant::advance_round`], through the batched ensemble
/// kernel.  Each advance also folds every tracked row's [`RowStats`] inside
/// its sweep, so a quote at the engine's current round costs O(tracked
/// rows), and the
/// evolution is bitwise the offline ensemble route (static or
/// [`crate::accountant::NetworkShuffleAccountant::with_schedule`])
/// restricted to the tracked rows — so with every origin tracked the live
/// quote is **exact under churn**, not a static approximation.
///
/// Every shard's tracked origins live in **one** [`DistributionEnsemble`],
/// shard `s` owning a contiguous row range, so each round sweeps the
/// operator once for all shards rather than once per shard.  Rows never
/// interact, so the fused layout is bitwise the per-shard one.
#[derive(Debug, Clone)]
pub struct StreamingAccountant {
    operator: Operator,
    /// Global ids of the tracked origins, shard after shard; within a
    /// shard in tracking order (degree ascending, ties by id).
    origins: Vec<NodeId>,
    /// Shard `s` owns rows `shard_starts[s]..shard_starts[s + 1]`.
    shard_starts: Vec<usize>,
    /// Row `r` is the exact position distribution of `origins[r]`'s report.
    ensemble: DistributionEnsemble,
    /// `moments[r]` is row `r`'s [`RowStats`], folded whenever the rows
    /// change — by each round's sweep, range by range as they finish, and
    /// by [`DistributionEnsemble::stats_into`] when rows are installed — so
    /// a quote reads O(tracked rows) values instead of folding every row
    /// over all `n` users.
    moments: Vec<RowStats>,
    round: usize,
    /// Phase timers and worst-moment gauges; `None` (the default) is the
    /// inert no-op path.
    telemetry: Option<AccountantTelemetry>,
}

impl StreamingAccountant {
    /// Builds the accountant for `graph` under `partition`, tracking up to
    /// `tracked_per_shard` of each shard's lowest-degree origins (ties by
    /// id; `usize::MAX` tracks everyone).
    ///
    /// # Errors
    ///
    /// Graph/laziness validation errors from the transition matrix.
    pub fn new(
        graph: &Graph,
        partition: &Partition,
        laziness: f64,
        tracked_per_shard: usize,
    ) -> Result<Self> {
        let transition = TransitionMatrix::with_laziness(graph, laziness)?;
        Self::with_operator(graph, partition, Arc::new(transition), tracked_per_shard)
    }

    /// Builds the accountant for a deployment under a realized per-round
    /// operator schedule: the tracked distributions evolve through
    /// `schedule.operator(t)` at round `t` — the online mirror of the
    /// offline `with_schedule` route.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfiguration`] on graph/partition/schedule
    /// node-count mismatches or `tracked_per_shard == 0`.
    pub fn with_schedule(
        graph: &Graph,
        partition: &Partition,
        schedule: TimeVaryingModel,
        tracked_per_shard: usize,
    ) -> Result<Self> {
        if schedule.node_count() != graph.node_count() {
            return Err(Error::InvalidConfiguration(format!(
                "operator schedule covers {} users but the graph has {}",
                schedule.node_count(),
                graph.node_count()
            )));
        }
        Self::with_operator(graph, partition, Arc::new(schedule), tracked_per_shard)
    }

    fn with_operator(
        graph: &Graph,
        partition: &Partition,
        operator: Operator,
        tracked_per_shard: usize,
    ) -> Result<Self> {
        if partition.node_count() != graph.node_count() {
            return Err(Error::InvalidConfiguration(format!(
                "partition covers {} users but the graph has {}",
                partition.node_count(),
                graph.node_count()
            )));
        }
        if tracked_per_shard == 0 {
            return Err(Error::InvalidConfiguration(
                "the streaming accountant needs at least one tracked origin per shard".into(),
            ));
        }
        let mut origins = Vec::new();
        let mut shard_starts = vec![0];
        for shard in partition.shards() {
            let mut tracked = lowest_degree(graph, shard.nodes(), tracked_per_shard);
            if tracked.is_empty() {
                return Err(ns_graph::GraphError::EmptyGraph.into());
            }
            origins.append(&mut tracked);
            shard_starts.push(origins.len());
        }
        let ensemble = DistributionEnsemble::point_masses(graph.node_count(), &origins)?;
        Ok(StreamingAccountant::assemble(
            operator,
            (origins, shard_starts, ensemble),
            0,
        ))
    }

    /// An accountant over `tracked` rows at round `round`, its moment cache
    /// folded from the rows.
    fn assemble(operator: Operator, tracked: Tracked, round: usize) -> Self {
        let (origins, shard_starts, ensemble) = tracked;
        let mut accountant = StreamingAccountant {
            operator,
            origins,
            shard_starts,
            ensemble,
            moments: Vec::new(),
            round,
            telemetry: None,
        };
        accountant.refresh_moments();
        accountant
    }

    /// Re-folds every tracked row's moments into the cache the quotes read,
    /// for rows that did not come out of a sweep (a build or an install).
    fn refresh_moments(&mut self) {
        self.ensemble.stats_into(&mut self.moments);
    }

    /// Attaches (or detaches, with `None`) the accountant's phase timers
    /// and worst-moment gauges.  Recording never touches the tracked
    /// distributions, so quotes are unchanged bit for bit.
    pub fn set_telemetry(&mut self, telemetry: Option<AccountantTelemetry>) {
        self.telemetry = telemetry;
    }

    /// Swaps the accountant onto a realized operator schedule **without
    /// rebuilding the tracked ensembles** — at round 0 they are the same
    /// point masses regardless of operator, so only the operator needs to
    /// change (this is what lets the coordinator attach an outage schedule
    /// after construction without paying the ensemble build twice).
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfiguration`] if any round has already been
    /// advanced or the schedule's node count differs from the ensembles'.
    fn reschedule(&mut self, schedule: TimeVaryingModel) -> Result<()> {
        if self.round != 0 {
            return Err(Error::InvalidConfiguration(
                "cannot attach an operator schedule after rounds have advanced".into(),
            ));
        }
        if schedule.node_count() != self.ensemble.node_count() {
            return Err(Error::InvalidConfiguration(format!(
                "operator schedule covers {} users but the accountant tracks {}",
                schedule.node_count(),
                self.ensemble.node_count()
            )));
        }
        self.operator = Arc::new(schedule);
        Ok(())
    }

    /// Rounds the tracked distributions have been advanced by.
    pub fn round(&self) -> usize {
        self.round
    }

    /// Total tracked origins across all shards.
    pub fn tracked_count(&self) -> usize {
        self.origins.len()
    }

    /// Advances every tracked distribution by one round through the
    /// deployment's realized operator (the ensembles carry the absolute
    /// round clock, so a scheduled accountant applies `operator(t)` at
    /// round `t`), folding every row's moments for the quotes as it goes.
    /// The round's sweep runs on this thread alone.
    pub fn advance_round(&mut self) {
        self.advance(|sweep| sweep());
    }

    /// [`StreamingAccountant::advance_round`] with the sweep shared: it
    /// starts on `worker` while `step` runs here, and this thread joins it
    /// once `step` returns.  Returns `step`'s result.
    ///
    /// # Panics
    ///
    /// Resumes a panic from either thread once both have stopped touching
    /// the rows.
    fn advance_during<R>(&mut self, worker: &mut Worker, step: impl FnOnce() -> R) -> R {
        let mut stepped = None;
        self.advance(|sweep| {
            worker.join(sweep, || {
                stepped = Some(step());
                sweep();
            })
        });
        stepped.expect("join returns only after `here` has run")
    }

    /// One round: `drive` runs the sweep job (on as many threads as it
    /// likes, each calling it), which also folds every row's moments into
    /// the cache the quotes read.  With telemetry attached,
    /// `ns_acct_advance_ns` records the sweep from its start until its last
    /// range is folded, on whichever thread folded that — the round's
    /// preparation (a masked round's dark-neighbour counts, run by the
    /// first unit) and the moments fold included.
    fn advance(&mut self, drive: impl FnOnce(&(dyn Fn() + Sync))) {
        let telemetry = self.telemetry.as_ref();
        let started = telemetry.map(|t| t.clock.now_ns());
        let sweep = self
            .ensemble
            .round_sweep(&*self.operator, &mut self.moments);
        drive(&|| {
            if let (true, Some(t), Some(started)) = (sweep.run(), telemetry, started) {
                t.advance_ns
                    .record(t.clock.now_ns().saturating_sub(started));
            }
        });
        self.round += 1;
    }

    /// The component-wise worst accounting moments over all tracked
    /// origins, read from the moment cache.  With telemetry attached, the
    /// result is also published to the `ns_acct_worst_*` gauges.
    pub fn worst_stats(&self) -> RowStats {
        let worst = RowStats::worst_of(self.moments.iter().copied());
        if let Some(t) = &self.telemetry {
            t.record_worst_stats(&worst);
        }
        worst
    }

    /// The worst tracked user's current guarantee: each tracked origin's ε
    /// is evaluated from its own exact moments and the maximum is returned
    /// with its origin.
    ///
    /// # Errors
    ///
    /// Parameter validation errors from the closed forms.
    pub fn worst_quote(
        &self,
        protocol: ProtocolKind,
        params: &AccountantParams,
    ) -> Result<(NodeId, PrivacyGuarantee)> {
        let mut worst: Option<(NodeId, PrivacyGuarantee)> = None;
        for shard in 0..self.shard_count() {
            let candidate = self.shard_worst(shard, protocol, params)?;
            let beats = worst
                .as_ref()
                .is_none_or(|(_, current)| candidate.1.epsilon > current.epsilon);
            if beats {
                worst = Some(candidate);
            }
        }
        worst.ok_or_else(|| {
            Error::InvalidConfiguration("the streaming accountant tracks no origins".into())
        })
    }

    /// Per-shard worst quotes, in shard-id order — the operator's view of
    /// which shard is currently limiting the deployment.
    ///
    /// # Errors
    ///
    /// Parameter validation errors from the closed forms.
    pub fn shard_quotes(
        &self,
        protocol: ProtocolKind,
        params: &AccountantParams,
    ) -> Result<Vec<(NodeId, PrivacyGuarantee)>> {
        (0..self.shard_count())
            .map(|shard| self.shard_worst(shard, protocol, params))
            .collect()
    }

    /// Captures the accountant's round-boundary state for the durable
    /// runtime: per shard, the tracked origin ids and the exact ensemble
    /// rows.  The absolute round clock rides along so a scheduled
    /// accountant restores against the right per-round operators.
    ///
    /// # Errors
    ///
    /// Never today: the accountant is always at a round boundary.  The
    /// `Result` keeps the signature its callers propagate.
    pub fn checkpoint(&self) -> Result<AccountantCheckpoint> {
        let rows = self.ensemble.row_groups(&self.shard_starts);
        Ok(AccountantCheckpoint {
            round: self.round,
            shards: rows
                .into_iter()
                .enumerate()
                .map(|(shard, rows)| AccountantShardCheckpoint {
                    origins: self.origins[self.shard_rows(shard)].to_vec(),
                    rows,
                })
                .collect(),
        })
    }

    /// Reconstructs an accountant from an [`AccountantCheckpoint`] against
    /// the same deployment: `schedule` must be the realized operator
    /// schedule when one was attached (`None` restores the static lazy
    /// walk).  Every ensemble row is re-validated as a probability
    /// distribution and restored at the checkpoint's absolute round clock,
    /// so subsequent [`StreamingAccountant::advance_round`] calls continue
    /// **bit for bit**.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfiguration`] on shard-count or row-shape
    /// mismatches; row validation errors from the ensemble constructors;
    /// operator construction errors.
    pub fn restore(
        graph: &Graph,
        partition: &Partition,
        laziness: f64,
        schedule: Option<TimeVaryingModel>,
        checkpoint: &AccountantCheckpoint,
    ) -> Result<Self> {
        let n = graph.node_count();
        let tracked = Self::tracked_state(checkpoint, partition.shard_count(), n)?;
        let operator: Operator = match schedule {
            Some(model) => {
                if model.node_count() != n {
                    return Err(Error::InvalidConfiguration(format!(
                        "operator schedule covers {} users but the graph has {n}",
                        model.node_count()
                    )));
                }
                Arc::new(model)
            }
            None => Arc::new(TransitionMatrix::with_laziness(graph, laziness)?),
        };
        Ok(StreamingAccountant::assemble(
            operator,
            tracked,
            checkpoint.round,
        ))
    }

    /// Replaces the tracked origins, rows and round clock with a
    /// checkpoint's, keeping the operator the accountant already holds —
    /// the in-place form of [`StreamingAccountant::restore`], for a
    /// recovering deployment whose accountant already carries the attached
    /// schedule.  On error the accountant is unchanged.
    ///
    /// # Errors
    ///
    /// As [`StreamingAccountant::restore`].
    pub(crate) fn install(&mut self, checkpoint: &AccountantCheckpoint) -> Result<()> {
        let (origins, shard_starts, ensemble) =
            Self::tracked_state(checkpoint, self.shard_count(), self.ensemble.node_count())?;
        self.origins = origins;
        self.shard_starts = shard_starts;
        self.ensemble = ensemble;
        self.round = checkpoint.round;
        self.refresh_moments();
        Ok(())
    }

    /// The fused tracked state a checkpoint describes — every shard's
    /// origins and rows concatenated in shard order — validated against
    /// `shard_count` shards over `n` users.
    fn tracked_state(
        checkpoint: &AccountantCheckpoint,
        shard_count: usize,
        n: usize,
    ) -> Result<Tracked> {
        if checkpoint.shards.len() != shard_count {
            return Err(Error::InvalidConfiguration(format!(
                "checkpoint tracks {} shards but the partition has {shard_count}",
                checkpoint.shards.len()
            )));
        }
        let mut origins = Vec::new();
        let mut shard_starts = vec![0];
        let mut rows: Vec<&[f64]> = Vec::new();
        for (s, shard_cp) in checkpoint.shards.iter().enumerate() {
            if shard_cp.origins.is_empty() || shard_cp.rows.len() != shard_cp.origins.len() * n {
                return Err(Error::InvalidConfiguration(format!(
                    "shard {s} checkpoint has {} rows entries for {} origins over {n} users",
                    shard_cp.rows.len(),
                    shard_cp.origins.len()
                )));
            }
            if let Some(&bad) = shard_cp.origins.iter().find(|&&o| o >= n) {
                return Err(ns_graph::GraphError::NodeOutOfRange {
                    node: bad,
                    node_count: n,
                }
                .into());
            }
            origins.extend_from_slice(&shard_cp.origins);
            shard_starts.push(origins.len());
            // `n > 0`: the shard has an origin below it.
            rows.extend(shard_cp.rows.chunks_exact(n));
        }
        let ensemble = DistributionEnsemble::from_rows_at(&rows, checkpoint.round)?;
        Ok((origins, shard_starts, ensemble))
    }

    /// Number of shards the accountant tracks origins for.
    fn shard_count(&self) -> usize {
        self.shard_starts.len() - 1
    }

    /// The ensemble rows shard `shard` owns.
    fn shard_rows(&self, shard: usize) -> std::ops::Range<usize> {
        self.shard_starts[shard]..self.shard_starts[shard + 1]
    }

    /// The single per-origin fold both quote forms share: evaluate every
    /// tracked origin of one shard and keep the strictly-largest ε (ties
    /// keep the earliest tracked origin).
    fn shard_worst(
        &self,
        shard: usize,
        protocol: ProtocolKind,
        params: &AccountantParams,
    ) -> Result<(NodeId, PrivacyGuarantee)> {
        let mut worst: Option<(NodeId, PrivacyGuarantee)> = None;
        for row in self.shard_rows(shard) {
            let origin = self.origins[row];
            let guarantee = guarantee_from_stats(protocol, params, &self.moments[row])?;
            let beats = worst
                .as_ref()
                .is_none_or(|(_, current)| guarantee.epsilon > current.epsilon);
            if beats {
                worst = Some((origin, guarantee));
            }
        }
        worst.ok_or_else(|| Error::InvalidConfiguration("a shard tracks no origins".into()))
    }
}

/// One shard's captured accountant state inside an
/// [`AccountantCheckpoint`]: tracked origin ids plus the flat row-major
/// ensemble rows (`origins.len() × n`).
#[derive(Debug, Clone, PartialEq)]
pub struct AccountantShardCheckpoint {
    /// Global ids of the tracked origins, in tracking order.
    pub origins: Vec<NodeId>,
    /// Row-major exact position distributions, one row per origin.
    pub rows: Vec<f64>,
}

/// A round-boundary capture of a [`StreamingAccountant`]
/// ([`StreamingAccountant::checkpoint`] /
/// [`StreamingAccountant::restore`]).
#[derive(Debug, Clone, PartialEq)]
pub struct AccountantCheckpoint {
    /// Rounds the tracked distributions have been advanced by — the
    /// absolute clock scheduled operators index by.
    pub round: usize,
    /// Per-shard tracked state, in shard-id order.
    pub shards: Vec<AccountantShardCheckpoint>,
}

/// A round-boundary capture of a full [`ShuffleCoordinator`] exchange
/// phase: engine, accountant and traffic recorder
/// ([`ShuffleCoordinator::checkpoint`] /
/// [`ShuffleCoordinator::install_checkpoint`]).
///
/// Deliberately *not* captured: the admitted arena and origins (the durable
/// runtime reconstructs them by replaying logged admission batches, which
/// also re-seals envelopes under the recovering process's curator key — the
/// simulated PKI is process-local) and the attached outage schedule (logged
/// once at attach time).
#[derive(Debug, Clone, PartialEq)]
pub struct CoordinatorCheckpoint {
    /// The exchange engine's complete round-boundary state.
    pub engine: EngineCheckpoint,
    /// The streaming accountant's tracked rows and clock.
    pub accountant: AccountantCheckpoint,
    /// Rounds the traffic recorder has observed.
    pub recorder_rounds: usize,
    /// Per-user relay-message totals so far.
    pub recorder_messages: Vec<usize>,
    /// Per-user peak held-report counts so far.
    pub recorder_peaks: Vec<usize>,
}

/// The sharded shuffle coordinator: admission, rounds, live quotes,
/// finalization.  See the [module docs](self).
#[derive(Debug)]
pub struct ShuffleCoordinator<'g, P> {
    graph: &'g Graph,
    partition: &'g Partition,
    config: CoordinatorConfig,
    curator: Curator,
    /// Sealed report of walker `w` (taken on submission).
    arena: Vec<Option<Envelope<Report<P>>>>,
    /// Origin of walker `w` (where its report starts, and who produced it).
    origins: Vec<NodeId>,
    /// The exchange engine; `None` until [`ShuffleCoordinator::begin_exchange`].
    engine: Option<ShardedMixingEngine<'g>>,
    recorder: TrafficRecorder,
    /// The streaming accountant.
    accountant: StreamingAccountant,
    /// The thread that shares each round's accountant sweep, starting it
    /// during the engine step; started with the engine by
    /// [`ShuffleCoordinator::begin_exchange`].
    worker: Option<Worker>,
    /// Realized availability schedule; round `t` of the exchange runs with
    /// `outages.mask(t)` when present.
    outages: Option<OutageSchedule>,
    /// Service-layer telemetry bundle; `None` (the default) is the inert
    /// no-op path.  The engine and accountant shares are re-attached
    /// whenever those components are (re)built.
    telemetry: Option<CoordinatorTelemetry>,
}

impl<'g, P: Clone> ShuffleCoordinator<'g, P> {
    /// Creates an idle coordinator: reports can be admitted, no rounds have
    /// run.
    ///
    /// # Errors
    ///
    /// Configuration validation errors; graph/partition mismatch errors from
    /// the streaming accountant.
    pub fn new(
        graph: &'g Graph,
        partition: &'g Partition,
        config: CoordinatorConfig,
    ) -> Result<Self> {
        config.validate()?;
        if let Some(u) = graph.find_isolated_node() {
            return Err(ns_graph::GraphError::IsolatedNode(u).into());
        }
        let accountant =
            StreamingAccountant::new(graph, partition, config.laziness, config.tracked_per_shard)?;
        Ok(ShuffleCoordinator {
            graph,
            partition,
            config,
            curator: Curator::new(),
            arena: Vec::new(),
            origins: Vec::new(),
            engine: None,
            recorder: TrafficRecorder::new(0),
            accountant,
            worker: None,
            outages: None,
            telemetry: None,
        })
    }

    /// Attaches (or detaches, with `None`) the service-layer telemetry
    /// bundle, wiring the engine and accountant shares into whatever is
    /// already built.  Observability is inert by construction: an
    /// instrumented run is bitwise identical to a bare one.
    pub fn set_telemetry(&mut self, telemetry: Option<CoordinatorTelemetry>) {
        self.accountant
            .set_telemetry(telemetry.as_ref().map(|t| t.accountant.clone()));
        if let Some(engine) = &mut self.engine {
            engine.set_telemetry(telemetry.as_ref().map(|t| t.engine.clone()));
        }
        self.telemetry = telemetry;
    }

    /// The attached telemetry bundle, if any.
    pub fn telemetry(&self) -> Option<&CoordinatorTelemetry> {
        self.telemetry.as_ref()
    }

    /// Records one admission decision: counters always, plus an `admit`
    /// audit event (quoting the live worst-user `(ε, δ)` when quote
    /// parameters were attached) when the bundle carries an audit sink.
    fn audit_admission(&self, reports: usize, accepted: bool, reason: &'static str) {
        let Some(t) = &self.telemetry else { return };
        t.admit_batches.inc();
        if accepted {
            t.admit_reports.add(reports as u64);
        } else {
            t.admit_refusals.inc();
        }
        if let Some(audit) = &t.audit {
            let (epsilon, delta) = t
                .quote_params
                .as_ref()
                .and_then(|params| {
                    self.accountant
                        .worst_quote(self.config.protocol, params)
                        .ok()
                })
                .map_or((f64::NAN, f64::NAN), |(_, quote)| {
                    (quote.epsilon, quote.delta)
                });
            audit.record(ns_obs::TraceEvent::Admit {
                batch: t.admit_batches.get(),
                reports: reports as u64,
                accepted,
                reason,
                epsilon,
                delta,
            });
        }
    }

    /// Attaches a realized outage schedule: every subsequent exchange round
    /// `t` runs the **masked** sharded round with `schedule.mask(t)` (held
    /// past the schedule's end, matching the schedule's own semantics), and
    /// the streaming accountant is rebuilt to evolve its tracked
    /// distributions through the round's actual masked operator — so
    /// [`ShuffleCoordinator::live_quote`] and
    /// [`ShuffleCoordinator::run_until_epsilon`] gate uploads against the
    /// schedule you *realized*, not the network you planned.  With every
    /// origin tracked the live quote equals the offline
    /// [`crate::accountant::NetworkShuffleAccountant::with_schedule`] route
    /// exactly; with a fully-available schedule everything stays bitwise
    /// the static path.  The accountant keeps its round-0 point-mass
    /// ensembles — only the per-round operator is swapped.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfiguration`] if the exchange phase already
    /// started (the accountant's clock must start at round 0) or the
    /// schedule's node count differs from the graph's; operator
    /// construction errors otherwise.
    pub fn with_outages(&mut self, schedule: OutageSchedule) -> Result<()> {
        if self.engine.is_some() {
            return Err(Error::InvalidConfiguration(
                "attach the outage schedule before the exchange phase starts".into(),
            ));
        }
        let model = schedule.time_varying_model(self.graph, self.config.laziness)?;
        self.accountant.reschedule(model)?;
        self.outages = Some(schedule);
        Ok(())
    }

    /// Samples a realized schedule from an [`OutageModel`] over `rounds`
    /// rounds (deterministic in `seed`) and attaches it via
    /// [`ShuffleCoordinator::with_outages`].  Returns a reference to the
    /// attached schedule so callers can hand the *same* realization to the
    /// offline accountant for cross-checks.
    ///
    /// # Errors
    ///
    /// Model validation/sampling errors, plus the
    /// [`ShuffleCoordinator::with_outages`] errors.
    pub fn sample_outages(
        &mut self,
        model: &OutageModel,
        rounds: usize,
        seed: u64,
    ) -> Result<&OutageSchedule> {
        let schedule = model.sample_schedule(self.graph.node_count(), rounds, seed)?;
        self.with_outages(schedule)?;
        Ok(self.outages.as_ref().expect("schedule was just attached"))
    }

    /// The attached outage schedule, if any.
    pub fn outages(&self) -> Option<&OutageSchedule> {
        self.outages.as_ref()
    }

    /// The coordinator's configuration.
    pub fn config(&self) -> &CoordinatorConfig {
        &self.config
    }

    /// The streaming accountant (for direct inspection of tracked moments).
    pub fn accountant(&self) -> &StreamingAccountant {
        &self.accountant
    }

    /// Number of reports admitted so far.
    pub fn report_count(&self) -> usize {
        self.origins.len()
    }

    /// Rounds executed so far.
    pub fn round(&self) -> usize {
        self.engine.as_ref().map_or(0, ShardedMixingEngine::round)
    }

    /// Admits one batch of reports: `batch[i] = (origin, payload)` seals
    /// `payload` for the curator and stages it at `origin`.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfiguration`] if the exchange phase has already
    /// started or an origin is out of range.
    pub fn admit(&mut self, batch: Vec<(NodeId, P)>) -> Result<()> {
        if self.engine.is_some() {
            self.audit_admission(batch.len(), false, "exchange-started");
            return Err(Error::InvalidConfiguration(
                "cannot admit reports after the exchange phase started".into(),
            ));
        }
        let n = self.graph.node_count();
        // Validate the whole batch before staging anything: admission is
        // all-or-nothing, so a failed batch can be fixed and re-admitted
        // without duplicating its valid prefix.
        if let Some(entry) = batch.iter().find(|entry| entry.0 >= n) {
            let node = entry.0;
            self.audit_admission(batch.len(), false, "origin-out-of-range");
            return Err(ns_graph::GraphError::NodeOutOfRange {
                node,
                node_count: n,
            }
            .into());
        }
        let reports = batch.len();
        for (origin, payload) in batch {
            self.arena.push(Some(Envelope::seal(
                self.curator.public_key(),
                Report::genuine(origin, payload),
            )));
            self.origins.push(origin);
        }
        self.audit_admission(reports, true, "ok");
        Ok(())
    }

    /// Admits the canonical full population: `payloads[i]` is user `i`'s
    /// locally randomized report.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfiguration`] if the payload count differs from the
    /// user count or admission is closed.
    pub fn admit_population(&mut self, payloads: Vec<P>) -> Result<()> {
        let n = self.graph.node_count();
        if payloads.len() != n {
            return Err(Error::InvalidConfiguration(format!(
                "expected {n} payloads (one per user), got {}",
                payloads.len()
            )));
        }
        self.admit(payloads.into_iter().enumerate().collect())
    }

    /// Closes admission and builds the sharded engine over the admitted
    /// reports.  Idempotent once started is *not* supported: admission is a
    /// phase, not a stream (run a new coordinator per collection epoch).
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfiguration`] if no reports were admitted or the
    /// exchange already started; engine construction errors otherwise.
    pub fn begin_exchange(&mut self) -> Result<()> {
        if self.engine.is_some() {
            return Err(Error::InvalidConfiguration(
                "the exchange phase already started".into(),
            ));
        }
        if self.origins.is_empty() {
            return Err(Error::InvalidConfiguration(
                "no reports admitted; nothing to exchange".into(),
            ));
        }
        let mut initial_load = vec![0usize; self.graph.node_count()];
        for &origin in &self.origins {
            initial_load[origin] += 1;
        }
        self.recorder = TrafficRecorder::with_initial_load(&initial_load);
        let mut engine = ShardedMixingEngine::with_starts(
            self.graph,
            self.partition,
            self.origins.clone(),
            self.config.seed,
        )?;
        engine.set_draw_mode(self.config.draw_mode);
        engine.set_telemetry(self.telemetry.as_ref().map(|t| t.engine.clone()));
        let worker = Worker::start("ns-accountant").map_err(|e| {
            Error::InvalidConfiguration(format!("cannot start the accountant thread: {e}"))
        })?;
        self.worker = Some(worker);
        self.engine = Some(engine);
        Ok(())
    }

    /// The exchange engine, once [`ShuffleCoordinator::begin_exchange`] has
    /// run — the durable runtime's read-only window onto positions, bucket
    /// orders and per-shard RNG clocks.
    pub fn engine(&self) -> Option<&ShardedMixingEngine<'g>> {
        self.engine.as_ref()
    }

    /// Captures the coordinator's complete round-boundary state: engine
    /// (positions, bucket orders, RNG streams, draw mode), streaming
    /// accountant (tracked rows + clock) and traffic recorder.  Restoring
    /// it via [`ShuffleCoordinator::install_checkpoint`] continues the run
    /// **bit for bit**.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfiguration`] if the exchange phase has not
    /// started.
    pub fn checkpoint(&self) -> Result<CoordinatorCheckpoint> {
        let engine = self.engine.as_ref().ok_or_else(|| {
            Error::InvalidConfiguration("call begin_exchange() before checkpointing".into())
        })?;
        Ok(CoordinatorCheckpoint {
            engine: engine.checkpoint(),
            accountant: self.accountant.checkpoint()?,
            recorder_rounds: self.recorder.rounds(),
            recorder_messages: self.recorder.messages_per_user().to_vec(),
            recorder_peaks: self.recorder.peak_reports_per_user().to_vec(),
        })
    }

    /// Replaces the coordinator's exchange-phase state with a captured
    /// [`CoordinatorCheckpoint`] — the recovery hook.  The coordinator must
    /// have been brought through the normal lifecycle first (admit the same
    /// batches, attach the same outage schedule, `begin_exchange`), so the
    /// arena, origins and schedule are live; this call then fast-forwards
    /// engine, accountant and recorder to the checkpointed round.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfiguration`] if the exchange phase has not
    /// started, the checkpoint's walker/user counts do not match the
    /// admitted population, or its accountant or recorder clock differs
    /// from its engine's round; engine/accountant restore validation
    /// errors.  A refused checkpoint leaves the coordinator unchanged.
    pub fn install_checkpoint(&mut self, checkpoint: &CoordinatorCheckpoint) -> Result<()> {
        if self.engine.is_none() {
            return Err(Error::InvalidConfiguration(
                "call begin_exchange() before installing a checkpoint".into(),
            ));
        }
        // The accountant and the recorder advance in lockstep with the
        // engine; an accountant at another round would evolve each engine
        // round under another round's operator.
        let round = checkpoint.engine.round;
        if checkpoint.accountant.round != round || checkpoint.recorder_rounds != round {
            return Err(Error::InvalidConfiguration(format!(
                "checkpoint clocks disagree: engine at round {round}, accountant at {}, \
                 recorder at {}",
                checkpoint.accountant.round, checkpoint.recorder_rounds
            )));
        }
        if checkpoint.engine.positions.len() != self.origins.len() {
            return Err(Error::InvalidConfiguration(format!(
                "checkpoint tracks {} walkers but {} reports were admitted",
                checkpoint.engine.positions.len(),
                self.origins.len()
            )));
        }
        let n = self.graph.node_count();
        if checkpoint.recorder_messages.len() != n || checkpoint.recorder_peaks.len() != n {
            return Err(Error::InvalidConfiguration(format!(
                "checkpoint records {} users but the graph has {n}",
                checkpoint.recorder_messages.len()
            )));
        }
        let mut engine = ShardedMixingEngine::restore_checkpoint(
            self.graph,
            self.partition,
            &checkpoint.engine,
        )?;
        engine.set_telemetry(self.telemetry.as_ref().map(|t| t.engine.clone()));
        // The accountant already holds the operator `with_outages` attached
        // (or the static walk): only its tracked rows and clock change.
        self.accountant.install(&checkpoint.accountant)?;
        self.recorder = TrafficRecorder::from_parts(
            checkpoint.recorder_rounds,
            checkpoint.recorder_messages.clone(),
            checkpoint.recorder_peaks.clone(),
        );
        self.engine = Some(engine);
        Ok(())
    }

    /// Executes `rounds` exchange rounds.  Each round's engine step runs on
    /// the calling thread while the worker thread starts the streaming
    /// accountant's sweep of the same round, which this thread joins once
    /// its step returns; the step and the sweep share no state, so the
    /// result is bitwise the serial step-then-advance.  A panic on either
    /// thread resumes on this one once both have stopped.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfiguration`] if [`ShuffleCoordinator::begin_exchange`]
    /// has not been called; the engine's round validation errors, which the
    /// validated config and outage schedule rule out.  A rejected round
    /// changes neither the engine nor the accountant.
    pub fn run_rounds(&mut self, rounds: usize) -> Result<()> {
        let (Some(engine), Some(worker)) = (self.engine.as_mut(), self.worker.as_mut()) else {
            return Err(Error::InvalidConfiguration(
                "call begin_exchange() before running rounds".into(),
            ));
        };
        let laziness = self.config.laziness;
        let traffic = self.telemetry.as_ref().map(|t| &t.traffic);
        let mut observer = ObservedRounds::new(&mut self.recorder, traffic);
        for _ in 0..rounds {
            // Round t (0-based) runs under mask(t); the accountant's
            // scheduled operator applies the same mask at the same clock,
            // so quotes track the realized walk exactly.
            let mask = self.outages.as_ref().map(|s| s.mask(engine.round()));
            // Checked before the sweep starts, so a round the engine rejects
            // leaves the accountant's clock where the engine's stays.
            engine.validate_round(laziness, mask)?;
            self.accountant
                .advance_during(worker, || engine.step(laziness, mask, &mut observer))?;
        }
        Ok(())
    }

    /// The worst tracked user's guarantee **at the current round** — the
    /// mid-run operator quote.  Valid before, during and after the exchange
    /// phase.
    ///
    /// # Errors
    ///
    /// Parameter validation errors from the closed forms.
    pub fn live_quote(&self, params: &AccountantParams) -> Result<(NodeId, PrivacyGuarantee)> {
        self.accountant.worst_quote(self.config.protocol, params)
    }

    /// Runs rounds until the live worst-user ε drops to `target_epsilon` or
    /// `max_rounds` total rounds have executed, whichever comes first;
    /// returns the total rounds executed and the final quote.  This is the
    /// upload gate: callers release uploads iff the returned quote meets the
    /// budget.
    ///
    /// # Errors
    ///
    /// Same as [`ShuffleCoordinator::run_rounds`] and
    /// [`ShuffleCoordinator::live_quote`].
    pub fn run_until_epsilon(
        &mut self,
        params: &AccountantParams,
        target_epsilon: f64,
        max_rounds: usize,
    ) -> Result<(usize, PrivacyGuarantee)> {
        loop {
            let (_, quote) = self.live_quote(params)?;
            let round = self.round();
            if quote.epsilon <= target_epsilon || round >= max_rounds {
                return Ok((round, quote));
            }
            self.run_rounds(1)?;
        }
    }

    /// Applies the protocol's submission rule for every user and returns the
    /// curator's collection plus the run's traffic metrics.  Each user's
    /// final-round randomness is drawn from her **shard's** stream, in
    /// submitter order — under the 1-shard partition this continues the
    /// walk stream exactly like [`crate::simulation::run_protocol`].
    ///
    /// `make_dummy` produces payloads for `A_single` users who hold nothing
    /// (ignored under `A_all`).
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfiguration`] if the exchange phase never started;
    /// curator decryption errors (a protocol bug) otherwise.
    pub fn finalize(
        mut self,
        make_dummy: impl FnMut(&mut SimRng) -> P,
    ) -> Result<SimulationOutcome<P>> {
        let engine = self.engine.as_mut().ok_or_else(|| {
            Error::InvalidConfiguration("call begin_exchange() before finalizing".into())
        })?;
        let collected = collect_final_round(
            engine,
            &mut self.arena,
            &self.curator,
            self.config.protocol,
            make_dummy,
        )?;
        let metrics: TrafficMetrics = self.recorder.into_metrics(collected.report_count());
        Ok(SimulationOutcome { collected, metrics })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accountant::{NetworkShuffleAccountant, Scenario};
    use ns_graph::generators;
    use ns_graph::rng::seeded_rng;
    use std::cell::RefCell;
    use std::panic::AssertUnwindSafe;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Condvar, Mutex};

    fn graph(n: usize, k: usize, seed: u64) -> Graph {
        generators::random_regular(n, k, &mut seeded_rng(seed)).unwrap()
    }

    #[test]
    fn lifecycle_is_enforced() {
        let g = graph(40, 4, 1);
        let p = Partition::new(&g, 2).unwrap();
        let config = CoordinatorConfig::all(7, 4);
        let mut coordinator: ShuffleCoordinator<'_, u32> =
            ShuffleCoordinator::new(&g, &p, config).unwrap();
        // No rounds before begin_exchange.
        assert!(coordinator.run_rounds(1).is_err());
        assert!(coordinator.begin_exchange().is_err()); // nothing admitted
        assert!(coordinator.admit(vec![(41, 5u32)]).is_err()); // out of range
                                                               // Admission is all-or-nothing: a failed batch stages nothing, even
                                                               // when its prefix was valid.
        assert!(coordinator.admit(vec![(0, 1u32), (41, 5u32)]).is_err());
        assert_eq!(coordinator.report_count(), 0);
        coordinator.admit_population((0..40).collect()).unwrap();
        coordinator.begin_exchange().unwrap();
        assert!(coordinator.begin_exchange().is_err());
        assert!(coordinator.admit(vec![(0, 1u32)]).is_err()); // admission closed
        coordinator.run_rounds(3).unwrap();
        assert_eq!(coordinator.round(), 3);
        assert_eq!(coordinator.accountant().round(), 3);
        let outcome = coordinator.finalize(|_| 0).unwrap();
        assert_eq!(outcome.collected.report_count(), 40);
    }

    #[test]
    fn bad_configs_are_rejected() {
        let g = graph(30, 4, 2);
        let p = Partition::new(&g, 2).unwrap();
        let mut config = CoordinatorConfig::all(1, 1);
        config.laziness = 1.0;
        assert!(ShuffleCoordinator::<u32>::new(&g, &p, config).is_err());
        let mut config = CoordinatorConfig::all(1, 1);
        config.tracked_per_shard = 0;
        assert!(ShuffleCoordinator::<u32>::new(&g, &p, config).is_err());
        let other = graph(20, 4, 3);
        let p_other = Partition::new(&other, 2).unwrap();
        assert!(
            ShuffleCoordinator::<u32>::new(&g, &p_other, CoordinatorConfig::all(1, 1)).is_err()
        );
    }

    #[test]
    fn tracked_origins_are_the_full_sort_choice() {
        // Many degree-2 users, so ties by id decide most picks.
        let g = generators::barabasi_albert(300, 2, &mut seeded_rng(11)).unwrap();
        let p = Partition::new(&g, 3).unwrap();
        for count in [1, 2, usize::MAX].into_iter().chain(p.shard_sizes()) {
            let accountant = StreamingAccountant::new(&g, &p, 0.0, count).unwrap();
            let mut expected = Vec::new();
            for shard in p.shards() {
                let mut sorted = shard.nodes().to_vec();
                sorted.sort_by_key(|&u| (g.degree(u), u));
                sorted.truncate(count.min(sorted.len()));
                expected.extend(sorted);
            }
            assert_eq!(accountant.origins, expected, "{count} per shard");
        }
    }

    #[test]
    fn streaming_accountant_tracking_every_origin_matches_the_offline_route() {
        let g = ns_graph::generators::two_degree_class(30, 4, 5).unwrap();
        let p = Partition::new(&g, 3).unwrap();
        let mut streaming = StreamingAccountant::new(&g, &p, 0.0, usize::MAX).unwrap();
        assert_eq!(streaming.tracked_count(), g.node_count());
        let offline = NetworkShuffleAccountant::new(&g).unwrap();
        let params = AccountantParams::with_defaults(g.node_count(), 1.0).unwrap();
        for t in 1..=8 {
            streaming.advance_round();
            assert_eq!(streaming.round(), t);
            for protocol in [ProtocolKind::All, ProtocolKind::Single] {
                let (_, live) = streaming.worst_quote(protocol, &params).unwrap();
                let (_, exact) = offline.worst_user_guarantee(protocol, &params, t).unwrap();
                assert_eq!(live.epsilon, exact.epsilon, "t = {t}, {protocol:?}");
            }
            let worst = streaming.worst_stats();
            let (sum_sq, rho) = offline.sum_p_squared(Scenario::Exact, t).unwrap();
            assert_eq!(worst.sum_of_squares, sum_sq);
            assert_eq!(worst.support_ratio, rho);
        }
    }

    #[test]
    fn shard_quotes_cover_every_shard_and_bound_the_global_quote() {
        let g = graph(60, 4, 6);
        let p = Partition::new(&g, 3).unwrap();
        let mut accountant = StreamingAccountant::new(&g, &p, 0.0, 5).unwrap();
        for _ in 0..6 {
            accountant.advance_round();
        }
        let params = AccountantParams::with_defaults(60, 1.0).unwrap();
        let per_shard = accountant
            .shard_quotes(ProtocolKind::Single, &params)
            .unwrap();
        assert_eq!(per_shard.len(), 3);
        let (worst_origin, worst) = accountant
            .worst_quote(ProtocolKind::Single, &params)
            .unwrap();
        let max_shard = per_shard
            .iter()
            .map(|(_, g)| g.epsilon)
            .fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(worst.epsilon, max_shard);
        assert_eq!(p.shard_of(worst_origin), {
            per_shard
                .iter()
                .position(|(_, g)| g.epsilon == worst.epsilon)
                .unwrap()
        });
    }

    #[test]
    fn quotes_improve_as_rounds_accumulate() {
        let g = graph(100, 6, 7);
        let p = Partition::new(&g, 4).unwrap();
        let config = CoordinatorConfig::single(11, 8);
        let mut coordinator: ShuffleCoordinator<'_, u32> =
            ShuffleCoordinator::new(&g, &p, config).unwrap();
        coordinator.admit_population((0..100).collect()).unwrap();
        coordinator.begin_exchange().unwrap();
        let params = AccountantParams::with_defaults(100, 1.0).unwrap();
        let (_, at_zero) = coordinator.live_quote(&params).unwrap();
        coordinator.run_rounds(12).unwrap();
        let (_, later) = coordinator.live_quote(&params).unwrap();
        assert!(
            later.epsilon < at_zero.epsilon,
            "mixing must improve the quote: {} -> {}",
            at_zero.epsilon,
            later.epsilon
        );
    }

    #[test]
    fn run_until_epsilon_gates_on_the_target() {
        let g = graph(200, 8, 8);
        let p = Partition::new(&g, 2).unwrap();
        let config = CoordinatorConfig::single(13, 6);
        let mut coordinator: ShuffleCoordinator<'_, u32> =
            ShuffleCoordinator::new(&g, &p, config).unwrap();
        coordinator.admit_population(vec![0; 200]).unwrap();
        coordinator.begin_exchange().unwrap();
        let params = AccountantParams::with_defaults(200, 1.0).unwrap();
        // A generous target (the A_single quote converges to ~1.79 at this
        // n and delta) is reached before the budget.
        let (rounds, quote) = coordinator.run_until_epsilon(&params, 2.5, 200).unwrap();
        assert!(quote.epsilon <= 2.5);
        assert!(rounds < 200);
        assert_eq!(coordinator.round(), rounds);
        // An unreachable target exhausts the budget instead of looping.
        let (rounds, quote) = coordinator.run_until_epsilon(&params, 0.5, 30).unwrap();
        assert_eq!(rounds, 30);
        assert!(quote.epsilon > 0.5);
    }

    #[test]
    fn scheduled_accountant_tracking_every_origin_matches_the_offline_schedule_route() {
        let g = ns_graph::generators::two_degree_class(30, 4, 5).unwrap();
        let n = g.node_count();
        let p = Partition::new(&g, 3).unwrap();
        let rounds = 8;
        let model = OutageModel::MarkovOnOff {
            fail: 0.1,
            recover: 0.3,
        };
        let schedule = model.sample_schedule(n, rounds, 17).unwrap();
        let time_varying = schedule.time_varying_model(&g, 0.0).unwrap();
        let mut streaming =
            StreamingAccountant::with_schedule(&g, &p, time_varying.clone(), usize::MAX).unwrap();
        assert_eq!(streaming.tracked_count(), n);
        let offline = NetworkShuffleAccountant::new(&g)
            .unwrap()
            .with_schedule(time_varying)
            .unwrap();
        let params = AccountantParams::with_defaults(n, 1.0).unwrap();
        for t in 1..=rounds {
            streaming.advance_round();
            for protocol in [ProtocolKind::All, ProtocolKind::Single] {
                let (_, live) = streaming.worst_quote(protocol, &params).unwrap();
                let (_, exact) = offline.worst_user_guarantee(protocol, &params, t).unwrap();
                assert_eq!(live.epsilon, exact.epsilon, "t = {t}, {protocol:?}");
            }
        }
    }

    #[test]
    fn outage_lifecycle_is_enforced() {
        let g = graph(40, 4, 21);
        let p = Partition::new(&g, 2).unwrap();
        let config = CoordinatorConfig::all(7, 4);
        let mut coordinator: ShuffleCoordinator<'_, u32> =
            ShuffleCoordinator::new(&g, &p, config).unwrap();
        // A schedule with the wrong node count is rejected.
        let bad = OutageSchedule::fully_available(10, 3).unwrap();
        assert!(coordinator.with_outages(bad).is_err());
        // Attaching after the exchange started is rejected.
        let ok = OutageSchedule::fully_available(40, 3).unwrap();
        coordinator.admit_population((0..40).collect()).unwrap();
        coordinator.begin_exchange().unwrap();
        assert!(coordinator.with_outages(ok).is_err());
    }

    #[test]
    fn fully_available_schedule_is_bitwise_the_static_coordinator() {
        let g = graph(60, 4, 22);
        let p = Partition::new(&g, 3).unwrap();
        let rounds = 10;
        let run = |outages: bool| {
            let config = CoordinatorConfig::single(23, 4);
            let mut coordinator: ShuffleCoordinator<'_, u32> =
                ShuffleCoordinator::new(&g, &p, config).unwrap();
            if outages {
                coordinator
                    .with_outages(OutageSchedule::fully_available(60, rounds).unwrap())
                    .unwrap();
            }
            coordinator.admit_population((0..60).collect()).unwrap();
            coordinator.begin_exchange().unwrap();
            coordinator.run_rounds(rounds).unwrap();
            let params = AccountantParams::with_defaults(60, 1.0).unwrap();
            let (origin, quote) = coordinator.live_quote(&params).unwrap();
            let outcome = coordinator.finalize(|_| 9).unwrap();
            let view: Vec<_> = outcome
                .collected
                .reports_with_submitter()
                .map(|(s, r)| (s, r.origin, r.is_dummy, r.payload))
                .collect();
            (origin, quote.epsilon, view, outcome.metrics)
        };
        let static_run = run(false);
        let scheduled_run = run(true);
        assert_eq!(static_run.0, scheduled_run.0);
        assert_eq!(static_run.1, scheduled_run.1);
        assert_eq!(static_run.2, scheduled_run.2);
        assert_eq!(static_run.3, scheduled_run.3);
    }

    #[test]
    fn blackout_rounds_suppress_traffic_and_degrade_the_quote() {
        let g = graph(80, 4, 24);
        let p = Partition::new(&g, 2).unwrap();
        let rounds = 12;
        let run = |blackout: bool| {
            let config = CoordinatorConfig::single(29, usize::MAX);
            let mut coordinator: ShuffleCoordinator<'_, u32> =
                ShuffleCoordinator::new(&g, &p, config).unwrap();
            if blackout {
                coordinator
                    .sample_outages(
                        &OutageModel::RegionBlackout {
                            region: (0..40).collect(),
                            from_round: 0,
                            until_round: rounds,
                        },
                        rounds,
                        5,
                    )
                    .unwrap();
            }
            coordinator.admit_population(vec![0u32; 80]).unwrap();
            coordinator.begin_exchange().unwrap();
            coordinator.run_rounds(rounds).unwrap();
            let params = AccountantParams::with_defaults(80, 1.0).unwrap();
            let quote = coordinator.live_quote(&params).unwrap().1.epsilon;
            let outcome = coordinator.finalize(|_| 0).unwrap();
            (quote, outcome.metrics.total_messages())
        };
        let (clear_eps, clear_messages) = run(false);
        let (dark_eps, dark_messages) = run(true);
        // Failed deliveries are never counted as traffic, and half the
        // network being dark slows mixing, so the live quote is worse.
        assert!(dark_messages < clear_messages);
        assert!(
            dark_eps > clear_eps,
            "blackout must degrade the live quote: {clear_eps} -> {dark_eps}"
        );
    }

    #[test]
    fn checkpoint_install_continues_bitwise_with_and_without_outages() {
        let g = graph(70, 4, 31);
        let p = Partition::new(&g, 3).unwrap();
        let params = AccountantParams::with_defaults(70, 1.0).unwrap();
        for (outages, mode) in [
            (false, DrawMode::Compat),
            (true, DrawMode::Compat),
            (false, DrawMode::Fast),
        ] {
            let mut config = CoordinatorConfig::single(37, 5);
            config.draw_mode = mode;
            let build = || {
                let mut c: ShuffleCoordinator<'_, u32> =
                    ShuffleCoordinator::new(&g, &p, config).unwrap();
                if outages {
                    c.sample_outages(
                        &OutageModel::MarkovOnOff {
                            fail: 0.1,
                            recover: 0.4,
                        },
                        16,
                        3,
                    )
                    .unwrap();
                }
                c.admit_population((0..70).collect()).unwrap();
                c.begin_exchange().unwrap();
                c
            };
            let mut reference = build();
            reference.run_rounds(6).unwrap();
            let cp = reference.checkpoint().unwrap();
            assert_eq!(cp.engine.round, 6);
            assert_eq!(cp.accountant.round, 6);
            // A freshly begun twin fast-forwards to the checkpoint, then
            // both continue in lockstep.
            let mut recovered = build();
            recovered.install_checkpoint(&cp).unwrap();
            assert_eq!(recovered.round(), 6);
            reference.run_rounds(7).unwrap();
            recovered.run_rounds(7).unwrap();
            let (ro, rq) = reference.live_quote(&params).unwrap();
            let (co, cq) = recovered.live_quote(&params).unwrap();
            assert_eq!(ro, co);
            assert_eq!(rq.epsilon.to_bits(), cq.epsilon.to_bits());
            assert_eq!(
                reference.engine().unwrap().positions(),
                recovered.engine().unwrap().positions()
            );
            let a = reference.finalize(|_| 7).unwrap();
            let b = recovered.finalize(|_| 7).unwrap();
            let view = |o: &SimulationOutcome<u32>| -> Vec<_> {
                o.collected
                    .reports_with_submitter()
                    .map(|(s, r)| (s, r.origin, r.is_dummy, r.payload))
                    .collect()
            };
            assert_eq!(view(&a), view(&b));
            assert_eq!(a.metrics, b.metrics);
        }
    }

    #[test]
    fn checkpoint_requires_exchange_and_validates_shapes() {
        let g = graph(40, 4, 32);
        let p = Partition::new(&g, 2).unwrap();
        let config = CoordinatorConfig::all(5, 4);
        let mut c: ShuffleCoordinator<'_, u32> = ShuffleCoordinator::new(&g, &p, config).unwrap();
        assert!(c.checkpoint().is_err());
        c.admit_population((0..40).collect()).unwrap();
        assert!(c.checkpoint().is_err());
        c.begin_exchange().unwrap();
        c.run_rounds(2).unwrap();
        let cp = c.checkpoint().unwrap();
        // A coordinator with a different admitted population rejects it.
        let mut other: ShuffleCoordinator<'_, u32> =
            ShuffleCoordinator::new(&g, &p, config).unwrap();
        other
            .admit((0..20).map(|u| (u, u as u32)).collect())
            .unwrap();
        other.begin_exchange().unwrap();
        assert!(other.install_checkpoint(&cp).is_err());
        // Corrupted accountant rows (not a distribution) are rejected.
        let mut bad = cp.clone();
        bad.accountant.shards[0].rows[0] += 0.5;
        assert!(c.install_checkpoint(&bad).is_err());
        // So are accountant and recorder clocks that disagree with the
        // engine's round, and the coordinator keeps its state.
        c.run_rounds(1).unwrap();
        let before = c.checkpoint().unwrap();
        let mut early_accountant = cp.clone();
        early_accountant.accountant.round -= 1;
        let mut late_recorder = cp.clone();
        late_recorder.recorder_rounds += 1;
        for bad in [early_accountant, late_recorder] {
            assert!(matches!(
                c.install_checkpoint(&bad),
                Err(Error::InvalidConfiguration(_))
            ));
            assert_eq!(c.checkpoint().unwrap(), before);
        }
        assert!(c.install_checkpoint(&cp).is_ok());
    }

    /// Asserts the moment cache holds exactly the rows' moments.
    fn assert_moments_match_rows(accountant: &StreamingAccountant, when: &str) {
        let rows = accountant.ensemble.sources();
        assert_eq!(accountant.moments.len(), rows, "{when}");
        for row in 0..rows {
            let want = accountant.ensemble.row_stats(row);
            let got = accountant.moments[row];
            assert_eq!(
                (got.sum_of_squares.to_bits(), got.support_ratio.to_bits()),
                (want.sum_of_squares.to_bits(), want.support_ratio.to_bits()),
                "{when}, row {row}"
            );
        }
    }

    #[test]
    fn cached_moments_equal_the_row_moments_bitwise() {
        let g = ns_graph::generators::two_degree_class(40, 4, 5).unwrap();
        let p = Partition::new(&g, 3).unwrap();
        let schedule = OutageModel::MarkovOnOff {
            fail: 0.2,
            recover: 0.3,
        }
        .sample_schedule(40, 6, 9)
        .unwrap();
        let mut coordinator: ShuffleCoordinator<'_, u32> =
            ShuffleCoordinator::new(&g, &p, CoordinatorConfig::single(3, 4)).unwrap();
        assert_moments_match_rows(coordinator.accountant(), "construction");
        coordinator.with_outages(schedule.clone()).unwrap();
        assert_moments_match_rows(coordinator.accountant(), "with_outages");
        let mut accountant = coordinator.accountant().clone();
        for round in 1..=6 {
            accountant.advance_round();
            assert_moments_match_rows(&accountant, &format!("advance {round}"));
        }
        let checkpoint = accountant.checkpoint().unwrap();
        let model = schedule.time_varying_model(&g, 0.0).unwrap();
        let restored = StreamingAccountant::restore(&g, &p, 0.0, Some(model), &checkpoint).unwrap();
        assert_moments_match_rows(&restored, "restore");
        assert_eq!(restored.moments, accountant.moments);
        let mut installed = coordinator.accountant().clone();
        installed.install(&checkpoint).unwrap();
        assert_moments_match_rows(&installed, "install");
        assert_eq!(installed.moments, accountant.moments);
    }

    #[test]
    fn a_rejected_round_moves_neither_clock() {
        let g = graph(40, 4, 33);
        let p = Partition::new(&g, 2).unwrap();
        let mut coordinator: ShuffleCoordinator<'_, u32> =
            ShuffleCoordinator::new(&g, &p, CoordinatorConfig::all(5, 4)).unwrap();
        coordinator.admit_population((0..40).collect()).unwrap();
        coordinator.begin_exchange().unwrap();
        coordinator.run_rounds(2).unwrap();
        let before = coordinator.checkpoint().unwrap();
        // A laziness the validated config rules out: the engine rejects
        // the round, and the accountant must not have advanced either.
        coordinator.config.laziness = 1.0;
        assert!(coordinator.run_rounds(1).is_err());
        assert_eq!(coordinator.round(), 2);
        assert_eq!(coordinator.accountant().round(), 2);
        assert_eq!(coordinator.checkpoint().unwrap(), before);
        coordinator.config.laziness = 0.0;
        coordinator.run_rounds(1).unwrap();
        assert_eq!(coordinator.accountant().round(), 3);
    }

    /// The side of a coordinator round a [`RangeTrap`] panics on.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Side {
        Worker,
        Caller,
    }

    /// What a [`RangeTrap`] has seen.
    #[derive(Debug, Default)]
    struct TrapState {
        worker_entered: bool,
        caller_entered: bool,
        /// The target side is about to panic.
        sprung: bool,
        /// Ranges the other side is running.
        in_range: usize,
        /// Ranges the other side finished.
        finished_elsewhere: usize,
    }

    /// The walk operator with a trap in its range kernel.  Each side's
    /// first range waits until both sides have entered one; then the
    /// `target` side panics and the other side, still inside its range,
    /// finishes it only after the panic has started — so the panic always
    /// strikes while the other side is touching the rows, whichever side
    /// reaches the sweep first.
    #[derive(Debug)]
    struct RangeTrap {
        inner: TransitionMatrix,
        target: Side,
        state: Mutex<TrapState>,
        changed: Condvar,
        worker_exited: Arc<AtomicBool>,
    }

    thread_local! {
        /// Set on the worker thread by a trap; flags its owner's exit.
        static ON_EXIT: RefCell<Option<ExitFlag>> = const { RefCell::new(None) };
    }

    /// Sets its flag when the thread holding it exits.
    struct ExitFlag(Arc<AtomicBool>);

    impl Drop for ExitFlag {
        fn drop(&mut self) {
            self.0.store(true, Ordering::SeqCst);
        }
    }

    impl TransitionModel for RangeTrap {
        fn node_count(&self) -> usize {
            self.inner.node_count()
        }

        fn propagate_round_into(&self, round: usize, p: &[f64], out: &mut [f64]) {
            self.inner.propagate_round_into(round, p, out);
        }

        fn prepare_round(&self, round: usize, dark: &mut ns_graph::transition::DarkCounts) {
            self.inner.prepare_round(round, dark);
        }

        fn propagate_round_interleaved_range(
            &self,
            round: usize,
            lanes: usize,
            input: &[f64],
            nodes: std::ops::Range<usize>,
            out: &mut [f64],
            dark: &ns_graph::transition::DarkCounts,
        ) {
            let side = if std::thread::current().name() == Some("ns-accountant") {
                ON_EXIT.with(|slot| {
                    slot.borrow_mut()
                        .get_or_insert_with(|| ExitFlag(Arc::clone(&self.worker_exited)));
                });
                Side::Worker
            } else {
                Side::Caller
            };
            let mut state = self.state.lock().unwrap();
            match side {
                Side::Worker => state.worker_entered = true,
                Side::Caller => state.caller_entered = true,
            }
            self.changed.notify_all();
            let mut state = self
                .changed
                .wait_while(state, |s| !(s.worker_entered && s.caller_entered))
                .unwrap();
            if side == self.target {
                state.sprung = true;
                self.changed.notify_all();
                drop(state);
                panic!("trapped range on the {side:?} side");
            }
            state.in_range += 1;
            drop(self.changed.wait_while(state, |s| !s.sprung).unwrap());
            self.inner
                .propagate_round_interleaved_range(round, lanes, input, nodes, out, dark);
            let mut state = self.state.lock().unwrap();
            state.in_range -= 1;
            state.finished_elsewhere += 1;
        }
    }

    #[test]
    fn helper_panics_resurface_and_drop_joins_the_helper() {
        let g = graph(40, 4, 34);
        let p = Partition::new(&g, 1).unwrap();
        for target in [Side::Worker, Side::Caller] {
            // Two tracked rows: one 2-lane block, swept by range.
            let mut coordinator: ShuffleCoordinator<'_, u32> =
                ShuffleCoordinator::new(&g, &p, CoordinatorConfig::all(5, 2)).unwrap();
            coordinator.admit_population((0..40).collect()).unwrap();
            coordinator.begin_exchange().unwrap();
            coordinator.run_rounds(1).unwrap();
            let worker_exited = Arc::new(AtomicBool::new(false));
            let trap = Arc::new(RangeTrap {
                inner: TransitionMatrix::new(&g).unwrap(),
                target,
                state: Mutex::default(),
                changed: Condvar::new(),
                worker_exited: Arc::clone(&worker_exited),
            });
            coordinator.accountant.operator = Arc::clone(&trap) as Operator;
            let run = std::panic::catch_unwind(AssertUnwindSafe(|| coordinator.run_rounds(1)));
            let panic = run.expect_err("the trapped range's panic must resume on the caller");
            let message = panic.downcast_ref::<String>().unwrap();
            assert_eq!(message, &format!("trapped range on the {target:?} side"));
            let state = trap.state.lock().unwrap();
            assert_eq!(
                state.in_range, 0,
                "{target:?}: the panic resumed while a range was still running"
            );
            // No range waits for another, so the other side finished every
            // range but the one that panicked (one range per node on this
            // 40-node graph).
            assert_eq!(state.finished_elsewhere, g.node_count() - 1, "{target:?}");
            drop(state);
            assert!(
                !worker_exited.load(Ordering::SeqCst),
                "{target:?}: the worker outlives a caught panic"
            );
            drop(coordinator);
            assert!(
                worker_exited.load(Ordering::SeqCst),
                "{target:?}: dropping the coordinator joins the worker"
            );
        }
    }

    #[test]
    fn partial_batches_mix_and_finalize() {
        let g = graph(50, 4, 9);
        let p = Partition::new(&g, 2).unwrap();
        let config = CoordinatorConfig::single(17, 4);
        let mut coordinator: ShuffleCoordinator<'_, u32> =
            ShuffleCoordinator::new(&g, &p, config).unwrap();
        // Two batches covering 30 of 50 users, one user contributing twice.
        coordinator
            .admit((0..20).map(|u| (u, u as u32)).collect())
            .unwrap();
        coordinator
            .admit((19..30).map(|u| (u, 100 + u as u32)).collect())
            .unwrap();
        assert_eq!(coordinator.report_count(), 31);
        coordinator.begin_exchange().unwrap();
        coordinator.run_rounds(10).unwrap();
        let outcome = coordinator.finalize(|_| 999).unwrap();
        // Every submitter uploads exactly one report under A_single.
        assert_eq!(outcome.collected.submissions().len(), 50);
        assert_eq!(outcome.collected.report_count(), 50);
        assert!(outcome.collected.dummy_count() >= 19);
        assert_eq!(outcome.metrics.user_count, 50);
        assert_eq!(outcome.metrics.rounds, 10);
        // 31 walkers x 10 rounds is the traffic ceiling (lazy stays excluded).
        assert!(outcome.metrics.total_messages() <= 310);
    }
}
