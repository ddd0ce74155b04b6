//! The crash-recoverable coordinator: WAL-before-state over
//! [`ShuffleCoordinator`].
//!
//! # What is logged, what is derived
//!
//! Every *input* the run cannot re-derive is appended to the WAL before it
//! is applied: admitted batches, the realized outage schedule, the phase
//! change into the exchange, and one [`WalRecord::Round`] per executed
//! round.  Everything else — positions, bucket orders, RNG streams, tracked
//! ensembles, traffic metrics, the live quote — is a deterministic function
//! of those inputs, so [`DurableCoordinator::recover`] replays the log
//! (fast-forwarded through the newest valid snapshot) and lands **bit for
//! bit** where the crashed process would have been.
//!
//! # Durability points
//!
//! Appends reach the OS immediately but are fsynced in groups of
//! [`DurableConfig::group_commit`] round records (admission, schedule,
//! phase-change, snapshot and finalize records always sync eagerly — they
//! are rare and order-critical).  A crash can therefore lose up to
//! `group_commit − 1` *tail* rounds of log; recovery then resumes from an
//! earlier round of the same deterministic trajectory, which re-executes
//! identically — the bitwise invariant is about *state at a given round*,
//! not about never re-running a round.
//!
//! # Replay is checked, not trusted
//!
//! Round records carry the pre-round per-shard RNG clocks, the draw mode
//! and the realized outage mask.  During recovery every replayed round is
//! compared against its record; any mismatch fails closed with
//! [`StoreError::ReplayDiverged`] rather than silently continuing a
//! different run.
//!
//! # Scope of the bitwise guarantee
//!
//! Engine positions, bucket orders, RNG streams, accountant rows, traffic
//! metrics, quotes and ledger charges recover exactly.  Envelope *bytes* do
//! not: the simulated PKI is process-local, so replayed admissions re-seal
//! payloads under the recovering process's fresh curator key.  The opened
//! payloads — the only thing the protocol observes — are identical.

use crate::error::{Result, StoreError};
use crate::records::{encode_round, encode_schedule, WalRecord};
use crate::snapshot::{
    load_ledger, load_meta, load_snapshot, save_ledger, save_meta, save_snapshot, snapshot_path,
    StoreMeta,
};
use crate::telemetry::StoreTelemetry;
use crate::wal::{scan_wal, TailStatus, WalWriter};
use network_shuffle::prelude::{
    AccountantParams, AuditSink, CoordinatorConfig, CoordinatorTelemetry, OutageSchedule,
    ShuffleCoordinator, SimulationOutcome,
};
use ns_dp::prelude::BudgetLedger;
use ns_dp::prelude::PrivacyGuarantee;
use ns_graph::prelude::{Graph, NodeId, Partition};
use ns_graph::rng::SimRng;
use ns_obs::{MetricsRegistry, TraceEvent, TraceWriter};
use std::path::{Path, PathBuf};

/// Name of the write-ahead log file inside a store directory.
pub const WAL_FILE: &str = "wal.bin";

/// Structured-trace JSONL the telemetry layer appends to inside a store
/// directory ([`DurableCoordinator::flush_observability`]).
pub const TRACE_FILE: &str = "trace.jsonl";

/// Rendered metrics exposition rewritten alongside [`TRACE_FILE`].
pub const METRICS_FILE: &str = "metrics.txt";

/// Durability knobs of a [`DurableCoordinator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurableConfig {
    /// Fsync the WAL every this many round records (`NS_WAL_GROUP_COMMIT`).
    /// 1 syncs every round; larger values trade a bounded tail of replayable
    /// rounds for fewer fsyncs.
    pub group_commit: usize,
    /// Persist a full snapshot every this many rounds (`NS_SNAPSHOT_EVERY`);
    /// 0 disables snapshots and recovery replays from round zero.
    pub snapshot_every: usize,
}

impl Default for DurableConfig {
    fn default() -> Self {
        DurableConfig {
            group_commit: 4,
            snapshot_every: 16,
        }
    }
}

impl DurableConfig {
    /// Reads `NS_WAL_GROUP_COMMIT` / `NS_SNAPSHOT_EVERY` from the
    /// environment, falling back to the defaults for unset or unparsable
    /// values.  `group_commit` is clamped to at least 1.
    pub fn from_env() -> Self {
        let defaults = DurableConfig::default();
        let parse = |key: &str, fallback: usize| {
            std::env::var(key)
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or(fallback)
        };
        DurableConfig {
            group_commit: parse("NS_WAL_GROUP_COMMIT", defaults.group_commit).max(1),
            snapshot_every: parse("NS_SNAPSHOT_EVERY", defaults.snapshot_every),
        }
    }
}

/// A [`ShuffleCoordinator`] whose lifecycle is durably logged and which can
/// be [`DurableCoordinator::recover`]ed after a crash, bit for bit.
///
/// Payloads are opaque byte strings: a durable store needs a stable wire
/// form, and `Vec<u8>` is the one every caller can encode into.
pub struct DurableCoordinator<'g> {
    dir: PathBuf,
    durable: DurableConfig,
    coordinator: ShuffleCoordinator<'g, Vec<u8>>,
    node_count: usize,
    wal: WalWriter,
    /// Reused record-encoding scratch; cleared, never shrunk.
    scratch: Vec<u8>,
    /// Reused per-round RNG clock staging; cleared, never shrunk.
    clocks: Vec<(u64, u32)>,
    /// Round records appended since the last fsync.
    unsynced_rounds: usize,
    /// Distinct admitted origins, in first-admission order (the ledger's
    /// charge list at finalize), with a membership bitmap for O(1) dedup.
    charged_origins: Vec<NodeId>,
    seen_origins: Vec<bool>,
    ledger: Option<(PathBuf, BudgetLedger)>,
    /// How the recovered WAL's tail ended (`None` for a fresh store).
    recovered_tail: Option<TailStatus>,
    /// Attached observability bundle, if any
    /// ([`DurableCoordinator::attach_telemetry`]).
    telemetry: Option<DurableTelemetry>,
    /// Replay cost measured by [`DurableCoordinator::recover`], published
    /// when telemetry attaches afterwards.
    recovery_stats: Option<RecoveryStats>,
}

/// The store-level observability bundle: durable-runtime metric handles,
/// the shared structured-trace/audit ring and the registry the flush
/// renders.  The service-layer share lives inside the wrapped coordinator
/// (attached by [`DurableCoordinator::attach_telemetry`]).
struct DurableTelemetry {
    registry: MetricsRegistry,
    store: StoreTelemetry,
    audit: AuditSink,
    /// With parameters attached, every `round` trace event carries the live
    /// worst-user quote — an explicitly opted-into per-round cost.
    quote_params: Option<AccountantParams>,
}

/// What a recovery cost, kept until telemetry attaches.
#[derive(Clone, Copy, Debug)]
struct RecoveryStats {
    rounds_replayed: u64,
    elapsed_ns: u64,
}

impl<'g> DurableCoordinator<'g> {
    /// Creates a fresh durable store in `dir` (created if absent) and the
    /// idle coordinator inside it.
    ///
    /// # Errors
    ///
    /// [`StoreError::InvalidState`] if `dir` already holds a store;
    /// coordinator construction and I/O errors otherwise.
    pub fn create(
        graph: &'g Graph,
        partition: &'g Partition,
        config: CoordinatorConfig,
        durable: DurableConfig,
        dir: &Path,
    ) -> Result<Self> {
        std::fs::create_dir_all(dir)?;
        if dir.join("meta.bin").exists() {
            return Err(StoreError::InvalidState(format!(
                "{} already holds a store; use recover()",
                dir.display()
            )));
        }
        let coordinator = ShuffleCoordinator::new(graph, partition, config)?;
        save_meta(
            dir,
            &StoreMeta {
                config,
                node_count: graph.node_count(),
                shard_count: partition.shard_count(),
            },
        )?;
        let wal = WalWriter::open(dir.join(WAL_FILE), 0)?;
        Ok(DurableCoordinator {
            dir: dir.to_path_buf(),
            durable,
            coordinator,
            node_count: graph.node_count(),
            wal,
            scratch: Vec::new(),
            clocks: Vec::new(),
            unsynced_rounds: 0,
            charged_origins: Vec::new(),
            seen_origins: vec![false; graph.node_count()],
            ledger: None,
            recovered_tail: None,
            telemetry: None,
            recovery_stats: None,
        })
    }

    /// Rebuilds the coordinator from the store in `dir`: loads `meta.bin`,
    /// replays the valid WAL prefix (re-admitting batches, re-attaching the
    /// schedule), fast-forwards through the newest loadable snapshot and
    /// re-executes the remaining logged rounds — verifying each against its
    /// record's RNG clocks, draw mode and mask.  The torn tail, if any, is
    /// physically truncated before new appends land.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] for unreadable meta or malformed records;
    /// [`StoreError::InvalidState`] for a finalized epoch or a
    /// graph/partition mismatch; [`StoreError::ReplayDiverged`] when a
    /// replayed round contradicts its logged record.
    pub fn recover(
        graph: &'g Graph,
        partition: &'g Partition,
        durable: DurableConfig,
        dir: &Path,
    ) -> Result<Self> {
        let recovery_started = std::time::Instant::now();
        let meta = load_meta(dir)?;
        if meta.node_count != graph.node_count() || meta.shard_count != partition.shard_count() {
            return Err(StoreError::InvalidState(format!(
                "store was created for {} nodes / {} shards, recovery got {} / {}",
                meta.node_count,
                meta.shard_count,
                graph.node_count(),
                partition.shard_count()
            )));
        }
        let scan = scan_wal(dir.join(WAL_FILE))?;

        // Structural pass over the valid prefix.
        /// One logged round awaiting replay: RNG clocks + realized mask.
        type LoggedRound = (Vec<(u64, u32)>, Option<Vec<bool>>);
        let mut batches: Vec<Vec<(NodeId, Vec<u8>)>> = Vec::new();
        let mut schedule: Option<OutageSchedule> = None;
        let mut begun = false;
        let mut rounds: Vec<LoggedRound> = Vec::new();
        let mut markers: Vec<usize> = Vec::new();
        for payload in &scan.records {
            match WalRecord::decode(payload)? {
                WalRecord::AdmittedBatch { entries } => {
                    if begun {
                        return Err(StoreError::Corrupt(
                            "admission record after BeginExchange".into(),
                        ));
                    }
                    batches.push(
                        entries
                            .into_iter()
                            .map(|(origin, bytes)| (origin as NodeId, bytes))
                            .collect(),
                    );
                }
                WalRecord::ScheduleAttached { masks } => {
                    if begun || schedule.is_some() {
                        return Err(StoreError::Corrupt(
                            "schedule record after BeginExchange or duplicated".into(),
                        ));
                    }
                    schedule = Some(OutageSchedule::from_masks(masks)?);
                }
                WalRecord::BeginExchange => {
                    if begun {
                        return Err(StoreError::Corrupt("duplicate BeginExchange".into()));
                    }
                    begun = true;
                }
                WalRecord::Round {
                    round,
                    draw_mode,
                    clocks,
                    mask,
                } => {
                    if !begun {
                        return Err(StoreError::Corrupt(
                            "round record before BeginExchange".into(),
                        ));
                    }
                    if round as usize != rounds.len() {
                        return Err(StoreError::Corrupt(format!(
                            "round records out of order: got {round}, expected {}",
                            rounds.len()
                        )));
                    }
                    if draw_mode != meta.config.draw_mode {
                        return Err(StoreError::ReplayDiverged(format!(
                            "round {round} was logged in {draw_mode:?} but the store is configured for {:?}",
                            meta.config.draw_mode
                        )));
                    }
                    rounds.push((clocks, mask));
                }
                WalRecord::SnapshotMarker { round } => markers.push(round as usize),
                WalRecord::Finalized { round } => {
                    return Err(StoreError::InvalidState(format!(
                        "epoch already finalized at round {round}; nothing to recover"
                    )));
                }
            }
        }

        // Rebuild the coordinator's input phase.
        let mut coordinator = ShuffleCoordinator::new(graph, partition, meta.config)?;
        let mut charged_origins: Vec<NodeId> = Vec::new();
        let mut seen_origins = vec![false; graph.node_count()];
        for batch in batches {
            let origins = batch.iter().map(|&(origin, _)| origin);
            note_first_admissions(&mut seen_origins, &mut charged_origins, origins);
            coordinator.admit(batch)?;
        }
        if let Some(schedule) = schedule {
            coordinator.with_outages(schedule)?;
        }
        if begun {
            coordinator.begin_exchange()?;
        }

        // Fast-forward through the newest snapshot that still verifies.
        markers.sort_unstable();
        for &marker in markers.iter().rev() {
            if marker > rounds.len() {
                continue;
            }
            match load_snapshot(dir, marker) {
                Ok(checkpoint) if checkpoint.engine.round == marker => {
                    coordinator.install_checkpoint(&checkpoint)?;
                    break;
                }
                // A missing/damaged/mislabeled snapshot is not fatal — fall
                // back to the next older one (or full replay).
                Ok(_) | Err(StoreError::Corrupt(_)) | Err(StoreError::Io(_)) => continue,
                Err(e) => return Err(e),
            }
        }

        // Re-execute the remaining logged rounds, verifying each record.
        let mut recovered = DurableCoordinator {
            dir: dir.to_path_buf(),
            durable,
            coordinator,
            node_count: graph.node_count(),
            wal: WalWriter::open(dir.join(WAL_FILE), scan.valid_len)?,
            scratch: Vec::new(),
            clocks: Vec::new(),
            unsynced_rounds: 0,
            charged_origins,
            seen_origins,
            ledger: None,
            recovered_tail: Some(scan.tail),
            telemetry: None,
            recovery_stats: None,
        };
        let start = recovered.coordinator.round();
        for (round, (clocks, mask)) in rounds.iter().enumerate().skip(start) {
            recovered.verify_round_record(round, clocks, mask.as_deref())?;
            recovered.coordinator.run_rounds(1)?;
        }
        // Wall-clock here is measurement only — it never shapes the replayed
        // state, so the bitwise recovery invariant is untouched.
        recovered.recovery_stats = Some(RecoveryStats {
            rounds_replayed: rounds.len().saturating_sub(start) as u64,
            elapsed_ns: recovery_started.elapsed().as_nanos() as u64,
        });
        Ok(recovered)
    }

    /// Checks one logged round record against the live engine before
    /// re-executing it.
    fn verify_round_record(
        &mut self,
        round: usize,
        clocks: &[(u64, u32)],
        mask: Option<&[bool]>,
    ) -> Result<()> {
        if self.coordinator.round() != round {
            return Err(StoreError::ReplayDiverged(format!(
                "replay is at round {}, record says {round}",
                self.coordinator.round()
            )));
        }
        let engine = self
            .coordinator
            .engine()
            .ok_or_else(|| StoreError::InvalidState("round record before the exchange".into()))?;
        if clocks.len() != engine.shard_count() {
            return Err(StoreError::ReplayDiverged(format!(
                "round {round} logs {} shard clocks, engine has {} shards",
                clocks.len(),
                engine.shard_count()
            )));
        }
        for (shard, &(counter, cursor)) in clocks.iter().enumerate() {
            let live = engine.rng_clock(shard);
            if live != (counter, cursor) {
                return Err(StoreError::ReplayDiverged(format!(
                    "round {round} shard {shard}: logged rng clock {:?}, replayed {:?}",
                    (counter, cursor),
                    live
                )));
            }
        }
        let live_mask = self.coordinator.outages().map(|s| s.mask(round));
        match (mask, live_mask) {
            (None, None) => {}
            (Some(logged), Some(live)) if logged == live => {}
            _ => {
                return Err(StoreError::ReplayDiverged(format!(
                    "round {round}: logged outage mask disagrees with the attached schedule"
                )));
            }
        }
        Ok(())
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The wrapped coordinator (read-only).
    pub fn coordinator(&self) -> &ShuffleCoordinator<'g, Vec<u8>> {
        &self.coordinator
    }

    /// Rounds executed so far.
    pub fn round(&self) -> usize {
        self.coordinator.round()
    }

    /// Reports admitted so far.
    pub fn report_count(&self) -> usize {
        self.coordinator.report_count()
    }

    /// How the WAL tail ended at recovery (`None` for a store created, not
    /// recovered, by this process).
    pub fn recovered_tail(&self) -> Option<TailStatus> {
        self.recovered_tail
    }

    /// The attached budget ledger, if any.
    pub fn ledger(&self) -> Option<&BudgetLedger> {
        self.ledger.as_ref().map(|(_, ledger)| ledger)
    }

    /// Attaches the full observability stack: registers the durable-runtime
    /// metrics in `registry`, wires the service/engine telemetry bundle into
    /// the wrapped coordinator, and routes the admission audit plus the
    /// structured `round` / `snapshot` / `recover` / `phase` events into one
    /// shared trace ring, drained to [`TRACE_FILE`] in the store directory
    /// at snapshot and finalize boundaries (or explicitly via
    /// [`DurableCoordinator::flush_observability`]).
    ///
    /// With `quote_params`, every `round` event and admission audit record
    /// carries the live worst-user `(ε, δ)` — a per-round quote computation
    /// the caller opts into; with `None` both fields render as `null`.
    ///
    /// Telemetry is inert by construction: no durable byte, RNG draw or
    /// replayed state changes whether it is attached or not.
    pub fn attach_telemetry(
        &mut self,
        registry: &MetricsRegistry,
        quote_params: Option<AccountantParams>,
    ) {
        let store = StoreTelemetry::register(registry);
        let audit = AuditSink::new(TraceWriter::new(
            registry.clock().clone(),
            ns_obs::env_ring_capacity(),
        ));
        let mut service = CoordinatorTelemetry::register(registry).with_audit(audit.clone());
        if let Some(params) = quote_params {
            service = service.with_quote_params(params);
        }
        self.coordinator.set_telemetry(Some(service));
        if let Some(stats) = self.recovery_stats {
            store.replay_ns.record(stats.elapsed_ns);
            audit.record(TraceEvent::Recover {
                rounds_replayed: stats.rounds_replayed,
                elapsed_ns: stats.elapsed_ns,
            });
        }
        store.wal_len.set(self.wal.len());
        self.telemetry = Some(DurableTelemetry {
            registry: registry.clone(),
            store,
            audit,
            quote_params,
        });
    }

    /// Detaches observability from the store and the wrapped coordinator.
    pub fn detach_telemetry(&mut self) {
        self.coordinator.set_telemetry(None);
        self.telemetry = None;
    }

    /// Drains the structured trace ring into [`TRACE_FILE`] (append) and
    /// rewrites [`METRICS_FILE`] in the store directory.  Runs
    /// automatically at snapshot and finalize boundaries — both already off
    /// the steady-state round path — and is a no-op without telemetry.
    ///
    /// # Errors
    ///
    /// I/O errors writing either file.
    pub fn flush_observability(&self) -> Result<()> {
        let Some(obs) = &self.telemetry else {
            return Ok(());
        };
        let mut trace = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.dir.join(TRACE_FILE))?;
        obs.audit.flush_to(&mut trace)?;
        std::fs::write(self.dir.join(METRICS_FILE), obs.registry.render())?;
        Ok(())
    }

    /// Records one completed round into the trace ring: messages sent, WAL
    /// length and (with quote parameters attached) the live worst quote.
    fn record_round_event(&self, completed: usize) {
        let Some(obs) = &self.telemetry else {
            return;
        };
        let wal_len = self.wal.len();
        obs.store.wal_len.set(wal_len);
        let sent = self
            .coordinator
            .engine()
            .map(|e| e.sent_counts().iter().map(|&s| u64::from(s)).sum())
            .unwrap_or(0);
        let (epsilon, delta) = match &obs.quote_params {
            Some(params) => self
                .coordinator
                .live_quote(params)
                .map(|(_, quote)| (quote.epsilon, quote.delta))
                .unwrap_or((f64::NAN, f64::NAN)),
            None => (f64::NAN, f64::NAN),
        };
        obs.audit.record(TraceEvent::Round {
            round: completed as u64,
            sent,
            wal_len,
            epsilon,
            delta,
        });
    }

    /// Audits a batch the durable layer refused before the service's own
    /// admission path ran.  `remaining` carries the refused origin's ledger
    /// headroom for budget refusals; `None` renders as `null`.
    fn audit_refusal(&self, reports: usize, reason: &'static str, remaining: Option<(f64, f64)>) {
        let Some(obs) = &self.telemetry else {
            return;
        };
        let batch = self
            .coordinator
            .telemetry()
            .map(|t| t.record_external_refusal())
            .unwrap_or(0);
        let (epsilon, delta) = remaining.unwrap_or((f64::NAN, f64::NAN));
        obs.audit.record(TraceEvent::Admit {
            batch,
            reports: reports as u64,
            accepted: false,
            reason,
            epsilon,
            delta,
        });
    }

    /// Records a lifecycle phase change into the trace ring.
    fn record_phase(&self, name: &'static str) {
        if let Some(obs) = &self.telemetry {
            obs.audit.record(TraceEvent::Phase {
                name,
                round: self.coordinator.round() as u64,
            });
        }
    }

    /// Attaches (loading, or creating with a uniform `default_budget`) the
    /// persistent per-user budget ledger at `path`.  Once attached,
    /// admission refuses users whose budget is exhausted, and
    /// [`DurableCoordinator::finalize`] draws the epoch's worst quote down
    /// from every admitted user's ledger row and persists the result.
    ///
    /// # Errors
    ///
    /// Ledger I/O/validation errors; [`StoreError::InvalidState`] if the
    /// ledger's user count differs from the graph's.
    pub fn attach_ledger(&mut self, path: &Path, default_budget: PrivacyGuarantee) -> Result<()> {
        let node_count = self.node_count;
        let ledger = if path.exists() {
            let ledger = load_ledger(path)?;
            if ledger.user_count() != node_count {
                return Err(StoreError::InvalidState(format!(
                    "ledger tracks {} users, the graph has {node_count}",
                    ledger.user_count()
                )));
            }
            ledger
        } else {
            let ledger = BudgetLedger::uniform(node_count, default_budget)?;
            save_ledger(path, &ledger)?;
            ledger
        };
        self.ledger = Some((path.to_path_buf(), ledger));
        Ok(())
    }

    /// Admits one batch, WAL-first.  With a ledger attached, every origin in
    /// the batch must still hold budget.
    ///
    /// # Errors
    ///
    /// [`StoreError::InvalidState`] for an exhausted origin or a batch
    /// whose record exceeds [`crate::wal::MAX_RECORD_LEN`] (refused before
    /// anything is logged or admitted); coordinator admission errors; WAL
    /// I/O errors.
    pub fn admit(&mut self, batch: Vec<(NodeId, Vec<u8>)>) -> Result<()> {
        // Validate before logging: a WAL record whose apply step fails would
        // fail identically on every recovery and wedge the store.
        if self.coordinator.engine().is_some() {
            self.audit_refusal(batch.len(), "exchange-started", None);
            return Err(StoreError::InvalidState(
                "cannot admit reports after the exchange phase started".into(),
            ));
        }
        if let Some(&(origin, _)) = batch.iter().find(|&&(origin, _)| origin >= self.node_count) {
            self.audit_refusal(batch.len(), "origin-out-of-range", None);
            return Err(StoreError::InvalidState(format!(
                "origin {origin} is out of range for {} users",
                self.node_count
            )));
        }
        if let Some((_, ledger)) = &self.ledger {
            if let Some(&(origin, _)) = batch
                .iter()
                .find(|&&(origin, _)| origin < ledger.user_count() && !ledger.can_admit(origin))
            {
                // The audited (ε, δ) is the refused origin's remaining
                // headroom — the ledger state that forced the refusal.
                self.audit_refusal(
                    batch.len(),
                    "budget-exhausted",
                    Some(ledger.remaining(origin)),
                );
                return Err(StoreError::InvalidState(format!(
                    "user {origin} has exhausted her privacy budget; batch refused"
                )));
            }
        }
        let record = WalRecord::AdmittedBatch {
            entries: batch
                .iter()
                .map(|(origin, payload)| (*origin as u64, payload.clone()))
                .collect(),
        };
        record.encode(&mut self.scratch);
        self.wal.append(&self.scratch)?;
        self.wal.sync()?;
        // Admission is all-or-nothing; only mark origins once it succeeded.
        let origins: Vec<NodeId> = batch.iter().map(|&(origin, _)| origin).collect();
        self.coordinator.admit(batch)?;
        note_first_admissions(&mut self.seen_origins, &mut self.charged_origins, origins);
        Ok(())
    }

    /// Admits the canonical full population (`payloads[i]` is user `i`'s).
    ///
    /// # Errors
    ///
    /// As [`DurableCoordinator::admit`].
    pub fn admit_population(&mut self, payloads: Vec<Vec<u8>>) -> Result<()> {
        let batch: Vec<(NodeId, Vec<u8>)> = payloads.into_iter().enumerate().collect();
        self.admit(batch)
    }

    /// Attaches the realized outage schedule, WAL-first.
    ///
    /// # Errors
    ///
    /// [`StoreError::InvalidState`] for a schedule whose record exceeds
    /// [`crate::wal::MAX_RECORD_LEN`] (refused before anything is logged or
    /// attached); coordinator errors; WAL I/O errors.
    pub fn with_outages(&mut self, schedule: OutageSchedule) -> Result<()> {
        if self.coordinator.engine().is_some() || self.coordinator.outages().is_some() {
            return Err(StoreError::InvalidState(
                "attach the outage schedule once, before the exchange phase".into(),
            ));
        }
        if schedule.node_count() != self.node_count {
            return Err(StoreError::InvalidState(format!(
                "schedule covers {} users, the graph has {}",
                schedule.node_count(),
                self.node_count
            )));
        }
        encode_schedule(&mut self.scratch, schedule.masks().iter());
        self.wal.append(&self.scratch)?;
        self.wal.sync()?;
        Ok(self.coordinator.with_outages(schedule)?)
    }

    /// Closes admission and builds the engine, WAL-first.
    ///
    /// # Errors
    ///
    /// Coordinator errors; WAL I/O errors.
    pub fn begin_exchange(&mut self) -> Result<()> {
        if self.coordinator.engine().is_some() {
            return Err(StoreError::InvalidState(
                "the exchange phase already started".into(),
            ));
        }
        if self.coordinator.report_count() == 0 {
            return Err(StoreError::InvalidState(
                "no reports admitted; nothing to exchange".into(),
            ));
        }
        WalRecord::BeginExchange.encode(&mut self.scratch);
        self.wal.append(&self.scratch)?;
        self.wal.sync()?;
        self.coordinator.begin_exchange()?;
        self.record_phase("begin-exchange");
        Ok(())
    }

    /// Executes `rounds` exchange rounds, each preceded by its WAL record
    /// (group-committed) and followed, every
    /// [`DurableConfig::snapshot_every`] rounds, by a durable snapshot.
    /// Outside snapshot boundaries the append path performs no steady-state
    /// allocations — the encode scratch and clock staging are reused.
    ///
    /// # Errors
    ///
    /// Coordinator errors; WAL/snapshot I/O errors.
    pub fn run_rounds(&mut self, rounds: usize) -> Result<()> {
        for _ in 0..rounds {
            self.stage_round_record()?;
            {
                let _span = self
                    .telemetry
                    .as_ref()
                    .map(|o| o.store.wal_append_ns.span(&o.store.clock));
                self.wal.append(&self.scratch)?;
            }
            self.unsynced_rounds += 1;
            if self.unsynced_rounds >= self.durable.group_commit.max(1) {
                // Two spans over one sync: the fsync histogram sees every
                // sync, the group-commit one only these boundary syncs.
                let _group = self
                    .telemetry
                    .as_ref()
                    .map(|o| o.store.group_commit_ns.span(&o.store.clock));
                let _fsync = self
                    .telemetry
                    .as_ref()
                    .map(|o| o.store.wal_fsync_ns.span(&o.store.clock));
                self.wal.sync()?;
                self.unsynced_rounds = 0;
            }
            self.coordinator.run_rounds(1)?;
            let completed = self.coordinator.round();
            self.record_round_event(completed);
            if self.durable.snapshot_every > 0
                && completed.is_multiple_of(self.durable.snapshot_every)
            {
                self.snapshot()?;
            }
        }
        Ok(())
    }

    /// Appends only the first `keep` bytes of the round record the next
    /// round would log — the torn write a crash mid-append leaves behind.
    /// Crash-injection hook for the recovery tests; not part of the durable
    /// API.
    ///
    /// # Errors
    ///
    /// WAL I/O errors; [`StoreError::InvalidState`] before the exchange.
    #[doc(hidden)]
    pub fn simulate_torn_round_append(&mut self, keep: usize) -> Result<()> {
        self.stage_round_record()?;
        self.wal.append_torn(&self.scratch, keep)?;
        self.wal.sync()
    }

    /// Encodes the record the next round logs into the scratch buffer: its
    /// round, the draw mode, every shard's RNG clock (staged in the reused
    /// clock buffer) and the round's outage mask.
    ///
    /// # Errors
    ///
    /// [`StoreError::InvalidState`] before the exchange.
    fn stage_round_record(&mut self) -> Result<()> {
        let round = self.coordinator.round();
        let engine = self.coordinator.engine().ok_or_else(|| {
            StoreError::InvalidState("call begin_exchange() before running rounds".into())
        })?;
        self.clocks.clear();
        for shard in 0..engine.shard_count() {
            self.clocks.push(engine.rng_clock(shard));
        }
        let mask = self.coordinator.outages().map(|s| s.mask(round));
        encode_round(
            &mut self.scratch,
            round as u64,
            self.coordinator.config().draw_mode,
            &self.clocks,
            mask,
        );
        Ok(())
    }

    /// Forces a durable snapshot of the current round right now.
    ///
    /// # Errors
    ///
    /// Checkpoint capture and I/O errors.
    pub fn snapshot(&mut self) -> Result<()> {
        let started = self.telemetry.as_ref().map(|o| o.store.clock.now_ns());
        // The snapshot must not land before the log records it summarizes.
        {
            let _fsync = self
                .telemetry
                .as_ref()
                .map(|o| o.store.wal_fsync_ns.span(&o.store.clock));
            self.wal.sync()?;
        }
        self.unsynced_rounds = 0;
        let checkpoint = self.coordinator.checkpoint()?;
        save_snapshot(&self.dir, &checkpoint)?;
        let round = checkpoint.engine.round;
        WalRecord::SnapshotMarker {
            round: round as u64,
        }
        .encode(&mut self.scratch);
        self.wal.append(&self.scratch)?;
        {
            let _fsync = self
                .telemetry
                .as_ref()
                .map(|o| o.store.wal_fsync_ns.span(&o.store.clock));
            self.wal.sync()?;
        }
        if let Some(obs) = &self.telemetry {
            let elapsed_ns = obs
                .store
                .clock
                .now_ns()
                .saturating_sub(started.unwrap_or(0));
            obs.store.snapshot_write_ns.record(elapsed_ns);
            let bytes = std::fs::metadata(snapshot_path(&self.dir, round))
                .map(|m| m.len())
                .unwrap_or(0);
            obs.audit.record(TraceEvent::Snapshot {
                round: round as u64,
                bytes,
                elapsed_ns,
            });
        }
        self.flush_observability()
    }

    /// The worst tracked user's current guarantee — read-only passthrough.
    ///
    /// # Errors
    ///
    /// Parameter validation errors from the closed forms.
    pub fn live_quote(&self, params: &AccountantParams) -> Result<(NodeId, PrivacyGuarantee)> {
        Ok(self.coordinator.live_quote(params)?)
    }

    /// Runs (durably logged) rounds until the live worst-user ε reaches
    /// `target_epsilon` or `max_rounds` rounds have executed.
    ///
    /// # Errors
    ///
    /// As [`DurableCoordinator::run_rounds`] and
    /// [`DurableCoordinator::live_quote`].
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

    /// Finalizes the epoch: logs the `Finalized` record durably, charges
    /// every distinct admitted origin the epoch's final worst quote against
    /// the attached ledger (persisting it atomically), then applies the
    /// protocol's submission rule.  Returns the curator's outcome and the
    /// quote that was charged.
    ///
    /// # Errors
    ///
    /// Coordinator finalize errors; quote/ledger/WAL errors.
    pub fn finalize(
        mut self,
        params: &AccountantParams,
        make_dummy: impl FnMut(&mut SimRng) -> Vec<u8>,
    ) -> Result<(SimulationOutcome<Vec<u8>>, PrivacyGuarantee)> {
        let (_, quote) = self.coordinator.live_quote(params)?;
        WalRecord::Finalized {
            round: self.coordinator.round() as u64,
        }
        .encode(&mut self.scratch);
        self.wal.append(&self.scratch)?;
        self.wal.sync()?;
        if let Some((path, ledger)) = &mut self.ledger {
            for &origin in &self.charged_origins {
                ledger.charge(origin, &quote)?;
            }
            save_ledger(path, ledger)?;
        }
        self.record_phase("finalize");
        // The coordinator is consumed below; drain the trace ring first so
        // the finalize phase event reaches the on-disk trace.
        self.flush_observability()?;
        let outcome = self.coordinator.finalize(make_dummy)?;
        Ok((outcome, quote))
    }
}

/// Appends each of `origins` admitted for the first time to `charged`, in
/// first-admission order — the users finalize charges, each once.  `seen`
/// marks who was admitted before; an out-of-range origin is never charged.
fn note_first_admissions(
    seen: &mut [bool],
    charged: &mut Vec<NodeId>,
    origins: impl IntoIterator<Item = NodeId>,
) {
    for origin in origins {
        if origin < seen.len() && !seen[origin] {
            seen[origin] = true;
            charged.push(origin);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ns_graph::generators;
    use ns_graph::rng::seeded_rng;
    use std::fs;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("ns_store_durable_test")
            .join(name);
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn graph(n: usize, k: usize, seed: u64) -> Graph {
        generators::random_regular(n, k, &mut seeded_rng(seed)).unwrap()
    }

    fn payloads(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| vec![i as u8, (i * 7) as u8]).collect()
    }

    #[test]
    fn drop_and_recover_continues_bitwise() {
        let g = graph(40, 4, 11);
        let p = Partition::new(&g, 4).unwrap();
        let config = CoordinatorConfig::all(23, usize::MAX);
        let dir = temp_dir("roundtrip");
        let durable_cfg = DurableConfig {
            group_commit: 3,
            snapshot_every: 4,
        };
        {
            let mut store = DurableCoordinator::create(&g, &p, config, durable_cfg, &dir).unwrap();
            store.admit_population(payloads(40)).unwrap();
            store.begin_exchange().unwrap();
            store.run_rounds(10).unwrap();
            // Dropped without finalize: the "crash".
        }
        let mut recovered = DurableCoordinator::recover(&g, &p, durable_cfg, &dir).unwrap();
        assert_eq!(recovered.recovered_tail(), Some(TailStatus::Clean));
        assert_eq!(recovered.round(), 10);
        recovered.run_rounds(5).unwrap();

        // Uninterrupted reference.
        let mut reference: ShuffleCoordinator<'_, Vec<u8>> =
            ShuffleCoordinator::new(&g, &p, config).unwrap();
        reference.admit_population(payloads(40)).unwrap();
        reference.begin_exchange().unwrap();
        reference.run_rounds(15).unwrap();

        let live = recovered.coordinator().engine().unwrap();
        let want = reference.engine().unwrap();
        assert_eq!(live.round(), want.round());
        for shard in 0..p.shard_count() {
            assert_eq!(live.rng_clock(shard), want.rng_clock(shard));
        }
        assert_eq!(live.checkpoint().positions, want.checkpoint().positions);
        let params = AccountantParams::new(40, 1.0, 1e-6, 1e-6).unwrap();
        let (_, q_live) = recovered.live_quote(&params).unwrap();
        let (_, q_want) = reference.live_quote(&params).unwrap();
        assert_eq!(q_live.epsilon.to_bits(), q_want.epsilon.to_bits());
        assert_eq!(q_live.delta.to_bits(), q_want.delta.to_bits());
    }

    #[test]
    fn recover_refuses_finalized_and_mismatched_stores() {
        let g = graph(30, 4, 5);
        let p = Partition::new(&g, 2).unwrap();
        let config = CoordinatorConfig::single(9, 4);
        let dir = temp_dir("finalized");
        let durable_cfg = DurableConfig::default();
        let mut store = DurableCoordinator::create(&g, &p, config, durable_cfg, &dir).unwrap();
        assert!(DurableCoordinator::create(&g, &p, config, durable_cfg, &dir).is_err());
        store.admit_population(payloads(30)).unwrap();
        store.begin_exchange().unwrap();
        store.run_rounds(3).unwrap();
        let params = AccountantParams::new(30, 1.0, 1e-6, 1e-6).unwrap();
        store.finalize(&params, |_| Vec::new()).unwrap();
        assert!(matches!(
            DurableCoordinator::recover(&g, &p, durable_cfg, &dir),
            Err(StoreError::InvalidState(_))
        ));
        // A different topology is refused outright.
        let other = graph(20, 4, 6);
        let p_other = Partition::new(&other, 2).unwrap();
        assert!(matches!(
            DurableCoordinator::recover(&other, &p_other, durable_cfg, &dir),
            Err(StoreError::InvalidState(_))
        ));
    }

    #[test]
    fn lifecycle_violations_are_rejected_before_logging() {
        let g = graph(30, 4, 7);
        let p = Partition::new(&g, 2).unwrap();
        let dir = temp_dir("lifecycle");
        let mut store = DurableCoordinator::create(
            &g,
            &p,
            CoordinatorConfig::all(1, 4),
            DurableConfig::default(),
            &dir,
        )
        .unwrap();
        assert!(store.begin_exchange().is_err()); // nothing admitted
        assert!(store.admit(vec![(30, vec![])]).is_err()); // out of range
        store.admit_population(payloads(30)).unwrap();
        store.begin_exchange().unwrap();
        assert!(store.begin_exchange().is_err());
        assert!(store.admit(vec![(0, vec![])]).is_err());
        // None of the rejected calls may have polluted the log: recovery
        // replays cleanly.
        store.run_rounds(2).unwrap();
        drop(store);
        let recovered =
            DurableCoordinator::recover(&g, &p, DurableConfig::default(), &dir).unwrap();
        assert_eq!(recovered.round(), 2);
    }
}
