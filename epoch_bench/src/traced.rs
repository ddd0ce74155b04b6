//! The traced epoch: the bare epoch's inputs driven through each layer's
//! own public entry points, in the order `DurableCoordinator` calls them,
//! with a span from this file around every call.  Spans never nest, so
//! their sum against the epoch's wall time is the attributed share.
//!
//! Holding the exchange state outside the coordinator costs work the bare
//! epoch never does: cloning the coordinator's accountant when the exchange
//! begins, counting cross-shard moves, and handing the state back to the
//! coordinator before its finalize.  These *detours* are timed and left out
//! of both the spans and the traced epoch's time.
//!
//! Also the telemetry-overhead probe: alternating blocks of
//! `DurableCoordinator` rounds with program telemetry attached and
//! detached.

use crate::bare::{fresh_dirs, BareEpoch};
use crate::measure::{
    disk_bytes, engine_digest, median, secs, snapshot_files, Finished, Ops, Recovery,
};
use crate::report::Metrics;
use crate::workload::{Inputs, Plan, Workload, DURABLE};
use crate::Res;
use network_shuffle::prelude::{
    AccountantParams, AuditSink, CoordinatorCheckpoint, CoordinatorConfig, CoordinatorTelemetry,
    OutageSchedule, ShuffleCoordinator, StreamingAccountant, TrafficRecorder,
};
use network_shuffle::telemetry::{ObservedRounds, TrafficTelemetry};
use ns_dp::prelude::{BudgetLedger, PrivacyGuarantee};
use ns_graph::prelude::{Graph, NodeId, Partition};
use ns_graph::sharded_engine::ShardedMixingEngine;
use ns_obs::{MetricsRegistry, TraceEvent, TraceWriter};
use ns_store::prelude::{
    load_ledger, load_meta, load_snapshot, save_ledger, scan_wal, DurableConfig,
    DurableCoordinator, WalRecord, WalWriter, METRICS_FILE, TRACE_FILE, WAL_FILE,
};
use ns_store::records::encode_round;
use ns_store::snapshot::{save_meta, save_snapshot, StoreMeta};
use ns_store::telemetry::StoreTelemetry;
use ns_store::StoreError;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Non-nesting spans by name, every sample kept (seconds).
#[derive(Default)]
pub struct Spans(BTreeMap<&'static str, Vec<f64>>);

impl Spans {
    /// Closes the span `name` opened at `t`.
    fn close(&mut self, name: &'static str, t: Instant) {
        self.0.entry(name).or_default().push(secs(t));
    }

    fn total(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| v.iter().sum())
    }

    fn median(&self, name: &str) -> f64 {
        self.0.get(name).map_or(f64::NAN, |v| median(v))
    }

    fn covered(&self) -> f64 {
        self.0.values().flatten().sum()
    }
}

/// What the traced epoch measured.
#[derive(Default)]
pub struct TracedEpoch {
    pub spans: Spans,
    pub epoch_s: f64,
    pub digest: u64,
    pub edge_cut: u64,
    pub admission_fsyncs: u64,
    pub walkers: u64,
    /// Relay messages over the epoch's rounds (the traffic recorder's total).
    pub messages: u64,
    pub cross_shard_moves: u64,
    pub accountant_rows: u64,
    pub record_bytes: u64,
    pub wal_bytes: u64,
    pub snapshot_bytes: u64,
    pub snapshot_files: u64,
    pub replayed_rounds: u64,
}

/// The observability bundle `DurableCoordinator::attach_telemetry` wires,
/// built from the same public constructors.
struct Obs {
    registry: MetricsRegistry,
    service: CoordinatorTelemetry,
    traffic: TrafficTelemetry,
    audit: AuditSink,
    params: AccountantParams,
}

impl Obs {
    fn new(registry: &MetricsRegistry, params: AccountantParams) -> Obs {
        StoreTelemetry::register(registry);
        let audit = AuditSink::new(TraceWriter::new(
            registry.clock().clone(),
            ns_obs::env_ring_capacity(),
        ));
        Obs {
            registry: registry.clone(),
            service: CoordinatorTelemetry::register(registry)
                .with_audit(audit.clone())
                .with_quote_params(params),
            traffic: TrafficTelemetry::register(registry),
            audit,
            params,
        }
    }

    /// `DurableCoordinator::flush_observability`: drain the trace ring,
    /// rewrite the metrics exposition.
    fn flush(&self, store: &Path) -> std::io::Result<()> {
        let mut trace = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(store.join(TRACE_FILE))?;
        self.audit.flush_to(&mut trace)?;
        std::fs::write(store.join(METRICS_FILE), self.registry.render())
    }
}

/// The exchange-phase state `ShuffleCoordinator` keeps private, held here
/// so each layer is called directly.
struct Exchange<'g> {
    engine: ShardedMixingEngine<'g>,
    accountant: StreamingAccountant,
    recorder: TrafficRecorder,
    traffic: Option<TrafficTelemetry>,
}

impl<'g> Exchange<'g> {
    /// `ShuffleCoordinator::begin_exchange`: walkers at their origins, the
    /// recorder seeded with the initial load, the coordinator's accountant.
    fn begin(
        graph: &'g Graph,
        partition: &'g Partition,
        config: &CoordinatorConfig,
        origins: &[NodeId],
        accountant: StreamingAccountant,
    ) -> Res<Exchange<'g>> {
        let mut initial_load = vec![0usize; graph.node_count()];
        for &origin in origins {
            initial_load[origin] += 1;
        }
        let mut engine =
            ShardedMixingEngine::with_starts(graph, partition, origins.to_vec(), config.seed)?;
        engine.set_draw_mode(config.draw_mode);
        Ok(Exchange {
            engine,
            accountant,
            recorder: TrafficRecorder::with_initial_load(&initial_load),
            traffic: None,
        })
    }

    /// `ShuffleCoordinator::install_checkpoint`: engine, accountant and
    /// recorder replaced by a loaded snapshot's.
    fn install(
        &mut self,
        graph: &'g Graph,
        partition: &'g Partition,
        schedule: Option<&OutageSchedule>,
        laziness: f64,
        checkpoint: &CoordinatorCheckpoint,
    ) -> Res<()> {
        let engine = ShardedMixingEngine::restore_checkpoint(graph, partition, &checkpoint.engine)?;
        let model = schedule
            .map(|s| s.time_varying_model(graph, laziness))
            .transpose()?;
        let accountant = StreamingAccountant::restore(
            graph,
            partition,
            laziness,
            model,
            &checkpoint.accountant,
        )?;
        self.recorder = TrafficRecorder::from_parts(
            checkpoint.recorder_rounds,
            checkpoint.recorder_messages.clone(),
            checkpoint.recorder_peaks.clone(),
        );
        self.engine = engine;
        self.accountant = accountant;
        Ok(())
    }

    fn attach(&mut self, obs: Option<&Obs>) {
        self.engine
            .set_telemetry(obs.map(|o| o.service.engine().clone()));
        self.accountant
            .set_telemetry(obs.map(|o| o.service.accountant().clone()));
        self.traffic = obs.map(|o| o.traffic.clone());
    }

    /// One engine step with the coordinator's observer: the traffic
    /// recorder behind its telemetry adapter.
    fn step(&mut self, laziness: f64, mask: Option<&[bool]>) {
        let mut observer = ObservedRounds::new(&mut self.recorder, self.traffic.as_ref());
        match mask {
            None => self.engine.step_auto(laziness, &mut observer),
            Some(mask) => self.engine.step_masked_auto(laziness, mask, &mut observer),
        }
    }

    /// `ShuffleCoordinator::checkpoint`.
    fn checkpoint(&self) -> Result<CoordinatorCheckpoint, network_shuffle::Error> {
        Ok(CoordinatorCheckpoint {
            engine: self.engine.checkpoint(),
            accountant: self.accountant.checkpoint()?,
            recorder_rounds: self.recorder.rounds(),
            recorder_messages: self.recorder.messages_per_user().to_vec(),
            recorder_peaks: self.recorder.peak_reports_per_user().to_vec(),
        })
    }
}

/// One logged round awaiting replay: pre-round RNG clocks and the realized
/// mask.
type LoggedRound = (Vec<(u64, u32)>, Option<Vec<bool>>);

/// The structural pass `DurableCoordinator::recover` makes over the valid
/// log prefix.
#[derive(Default)]
struct Log {
    batches: Vec<Vec<(NodeId, Vec<u8>)>>,
    masks: Option<Vec<Vec<bool>>>,
    begun: bool,
    rounds: Vec<LoggedRound>,
    markers: Vec<usize>,
}

impl Log {
    fn decode(records: &[Vec<u8>]) -> Result<Log, StoreError> {
        let mut log = Log::default();
        for payload in records {
            match WalRecord::decode(payload)? {
                WalRecord::AdmittedBatch { entries } => log.batches.push(
                    entries
                        .into_iter()
                        .map(|(origin, bytes)| (origin as NodeId, bytes))
                        .collect(),
                ),
                WalRecord::ScheduleAttached { masks } => log.masks = Some(masks),
                WalRecord::BeginExchange => log.begun = true,
                WalRecord::Round {
                    round,
                    clocks,
                    mask,
                    ..
                } => {
                    if round as usize != log.rounds.len() {
                        return Err(StoreError::Corrupt(format!(
                            "round record {round} out of order"
                        )));
                    }
                    log.rounds.push((clocks, mask));
                }
                WalRecord::SnapshotMarker { round } => log.markers.push(round as usize),
                WalRecord::Finalized { round } => {
                    return Err(StoreError::InvalidState(format!(
                        "epoch already finalized at round {round}"
                    )))
                }
            }
        }
        Ok(log)
    }
}

/// Appends `origins` to the walker order and the distinct ones to the
/// charge list, as `DurableCoordinator::admit` does.
fn note_origins(
    batch: &[NodeId],
    walkers: &mut Vec<NodeId>,
    seen: &mut [bool],
    charged: &mut Vec<NodeId>,
) {
    for &origin in batch {
        walkers.push(origin);
        if !seen[origin] {
            seen[origin] = true;
            charged.push(origin);
        }
    }
}

/// The per-round machinery of the traced epoch.
struct Tracer<'a> {
    w: &'a Workload,
    plan: &'a Plan,
    params: &'a AccountantParams,
    laziness: f64,
    schedule: Option<&'a OutageSchedule>,
    store: &'a Path,
    spans: Spans,
    /// Seconds spent in detours, left out of `out.epoch_s`.
    detour_s: f64,
    scratch: Vec<u8>,
    clocks: Vec<(u64, u32)>,
    unsynced: usize,
    prev_positions: Vec<u32>,
    obs: Option<Obs>,
    out: TracedEpoch,
}

impl Tracer<'_> {
    /// Closes a detour opened at `t`.
    fn detour(&mut self, t: Instant) {
        self.detour_s += secs(t);
    }

    /// `DurableCoordinator::attach_telemetry`.
    fn attach_obs(
        &mut self,
        registry: &MetricsRegistry,
        coordinator: &mut ShuffleCoordinator<'_, Vec<u8>>,
        exchange: Option<&mut Exchange<'_>>,
    ) {
        let t = Instant::now();
        let obs = Obs::new(registry, *self.params);
        coordinator.set_telemetry(Some(obs.service.clone()));
        if let Some(exchange) = exchange {
            exchange.attach(Some(&obs));
        }
        self.obs = Some(obs);
        self.spans.close("obs.attach", t);
    }

    /// One round in `DurableCoordinator::run_rounds` order, then the live
    /// quote.
    fn round(
        &mut self,
        wal: &mut WalWriter,
        ex: &mut Exchange<'_>,
        ops: &mut Ops,
    ) -> Res<PrivacyGuarantee> {
        let round = ex.engine.round();
        let mask = self.schedule.map(|s| s.mask(round));

        let t = Instant::now();
        self.clocks.clear();
        for shard in 0..ex.engine.shard_count() {
            self.clocks.push(ex.engine.rng_clock(shard));
        }
        encode_round(
            &mut self.scratch,
            round as u64,
            self.w.draw_mode,
            &self.clocks,
            mask,
        );
        ops.call("WalWriter::append", wal.append(&self.scratch))?;
        self.spans.close("wal.append", t);
        self.out.record_bytes = self.scratch.len() as u64;

        self.unsynced += 1;
        if self.unsynced >= DURABLE.group_commit {
            let t = Instant::now();
            ops.call("WalWriter::sync", wal.sync())?;
            self.spans.close("wal.fsync", t);
            self.unsynced = 0;
        }

        // Cross-shard moves are counted from the positions around the step,
        // in detours.
        let sharded = ex.engine.shard_count() > 1;
        if sharded {
            let t = Instant::now();
            self.prev_positions.clear();
            self.prev_positions.extend_from_slice(ex.engine.positions());
            self.detour(t);
        }
        let t = Instant::now();
        ex.step(self.laziness, mask);
        self.spans.close("engine.step", t);
        if sharded {
            let t = Instant::now();
            let partition = ex.engine.partition();
            self.out.cross_shard_moves += self
                .prev_positions
                .iter()
                .zip(ex.engine.positions())
                .filter(|&(&a, &b)| {
                    a != b && partition.shard_of(a as usize) != partition.shard_of(b as usize)
                })
                .count() as u64;
            self.detour(t);
        }

        let t = Instant::now();
        ex.accountant.advance_round();
        self.spans.close("accountant.advance", t);

        let completed = round + 1;
        if let Some(obs) = &self.obs {
            // `DurableCoordinator::record_round_event`.
            let t = Instant::now();
            let sent = ex.engine.sent_counts().iter().map(|&s| u64::from(s)).sum();
            let (epsilon, delta) = ex
                .accountant
                .worst_quote(self.w.protocol, &obs.params)
                .map_or((f64::NAN, f64::NAN), |(_, q)| (q.epsilon, q.delta));
            obs.audit.record(TraceEvent::Round {
                round: completed as u64,
                sent,
                wal_len: wal.len(),
                epsilon,
                delta,
            });
            self.spans.close("obs.round_event", t);
        }
        if self.plan.is_snapshot_round(completed) {
            self.snapshot(wal, ex, ops)?;
        }
        self.quote(ex, ops)
    }

    /// `DurableCoordinator::snapshot`.
    fn snapshot(&mut self, wal: &mut WalWriter, ex: &Exchange<'_>, ops: &mut Ops) -> Res<()> {
        let t = Instant::now();
        ops.call("WalWriter::sync", wal.sync())?;
        self.spans.close("wal.fsync", t);
        self.unsynced = 0;

        let t = Instant::now();
        let checkpoint = ops.call("checkpoint", ex.checkpoint())?;
        self.spans.close("snapshot.capture", t);

        let t = Instant::now();
        let path = ops.call("save_snapshot", save_snapshot(self.store, &checkpoint))?;
        drop(checkpoint);
        self.spans.close("snapshot.write", t);

        let t = Instant::now();
        let marker = WalRecord::SnapshotMarker {
            round: ex.engine.round() as u64,
        };
        self.append_synced(wal, &marker, ops)?;
        self.out.snapshot_bytes = disk_bytes(&path);
        self.spans.close("snapshot.marker", t);

        if let Some(obs) = &self.obs {
            let t = Instant::now();
            ops.call("flush_observability", obs.flush(self.store))?;
            self.spans.close("obs.flush", t);
        }
        Ok(())
    }

    fn quote(&mut self, ex: &Exchange<'_>, ops: &mut Ops) -> Res<PrivacyGuarantee> {
        let t = Instant::now();
        let (_, quote) = ops.call(
            "StreamingAccountant::worst_quote",
            ex.accountant.worst_quote(self.w.protocol, self.params),
        )?;
        self.spans.close("accountant.quote", t);
        Ok(quote)
    }

    fn append_synced(&mut self, wal: &mut WalWriter, record: &WalRecord, ops: &mut Ops) -> Res<()> {
        record.encode(&mut self.scratch);
        ops.call("WalWriter::append", wal.append(&self.scratch))?;
        ops.call("WalWriter::sync", wal.sync())?;
        Ok(())
    }
}

/// One traced epoch on the same inputs and plan as the bare epochs.
/// Returns the partition it built, for the telemetry probe.
pub fn run(
    w: &Workload,
    inputs: &Inputs,
    plan: &Plan,
    dir: &Path,
    ops: &mut Ops,
) -> Res<(TracedEpoch, Partition)> {
    let graph = &inputs.graph;
    let n = graph.node_count();
    let config = w.config(inputs.seed);
    let (store, ledger_path) = fresh_dirs(dir)?;
    let wal_path = store.join(WAL_FILE);
    let batches = inputs.batches(w.admit_batches);
    let coordinator_schedule = inputs.schedule.clone();
    let registry = MetricsRegistry::new();
    let mut tr = Tracer {
        w,
        plan,
        params: &inputs.params,
        laziness: config.laziness,
        schedule: inputs.schedule.as_ref(),
        store: &store,
        spans: Spans::default(),
        detour_s: 0.0,
        scratch: Vec::new(),
        clocks: Vec::new(),
        unsynced: 0,
        prev_positions: Vec::new(),
        obs: None,
        out: TracedEpoch::default(),
    };

    let epoch = Instant::now();
    let t = Instant::now();
    let partition = ops.call("Partition::new", Partition::new(graph, w.shards))?;
    tr.spans.close("partition.build", t);
    tr.out.edge_cut = partition.cut_edge_count() as u64;

    // `DurableCoordinator::create`.
    let t = Instant::now();
    ops.call("create_dir_all", std::fs::create_dir_all(&store))?;
    let mut coord: ShuffleCoordinator<'_, Vec<u8>> = ops.call(
        "ShuffleCoordinator::new",
        ShuffleCoordinator::new(graph, &partition, config),
    )?;
    let meta = StoreMeta {
        config,
        node_count: n,
        shard_count: partition.shard_count(),
    };
    ops.call("save_meta", save_meta(&store, &meta))?;
    let mut wal = ops.call("WalWriter::open", WalWriter::open(&wal_path, 0))?;
    let mut seen = vec![false; n];
    tr.spans.close("setup.create", t);

    // `attach_ledger` on a fresh store.
    let t = Instant::now();
    let ledger = ops.call(
        "BudgetLedger::uniform",
        BudgetLedger::uniform(n, inputs.budget),
    )?;
    ops.call("save_ledger", save_ledger(&ledger_path, &ledger))?;
    tr.spans.close("ledger.attach", t);

    if let Some(schedule) = coordinator_schedule {
        let t = Instant::now();
        let record = WalRecord::ScheduleAttached {
            masks: schedule.masks().to_vec(),
        };
        tr.append_synced(&mut wal, &record, ops)?;
        ops.call("with_outages", coord.with_outages(schedule))?;
        tr.spans.close("setup.outages", t);
    }
    if w.telemetry {
        tr.attach_obs(&registry, &mut coord, None);
    }

    // `DurableCoordinator::admit` per batch: check, log, sync, then seal.
    let mut walkers: Vec<NodeId> = Vec::with_capacity(n);
    let mut charged: Vec<NodeId> = Vec::with_capacity(n);
    for batch in batches {
        let t = Instant::now();
        ops.check(
            "admitted origins are in range and within budget",
            batch.iter().all(|&(o, _)| o < n && ledger.can_admit(o)),
        );
        let record = WalRecord::AdmittedBatch {
            entries: batch.iter().map(|(o, p)| (*o as u64, p.clone())).collect(),
        };
        tr.append_synced(&mut wal, &record, ops)?;
        tr.out.admission_fsyncs += 1;
        tr.spans.close("admission.wal", t);

        let t = Instant::now();
        let origins: Vec<NodeId> = batch.iter().map(|&(o, _)| o).collect();
        ops.call("ShuffleCoordinator::admit", coord.admit(batch))?;
        note_origins(&origins, &mut walkers, &mut seen, &mut charged);
        tr.spans.close("admission.seal", t);
    }

    // `begin_exchange`.
    let t = Instant::now();
    let accountant = coord.accountant().clone();
    tr.detour(t);
    let t = Instant::now();
    tr.append_synced(&mut wal, &WalRecord::BeginExchange, ops)?;
    let mut ex = Exchange::begin(graph, &partition, &config, &walkers, accountant)?;
    ex.attach(tr.obs.as_ref());
    tr.out.accountant_rows = ex.accountant.tracked_count() as u64;
    tr.spans.close("exchange.begin", t);

    let mut quote = None;
    for _ in 0..plan.crash_at {
        quote = Some(tr.round(&mut wal, &mut ex, ops)?);
    }
    let quote = quote.ok_or("no rounds before the crash")?;
    let t = Instant::now();
    let crash_digest = engine_digest(&ex.engine, &quote).finish();
    tr.spans.close("bench.digest", t);

    // The crash: everything in memory goes, the store directory stays.
    let t = Instant::now();
    drop((ex, wal, coord, ledger, seen, walkers, charged));
    tr.obs = None;
    tr.spans.close("crash.drop", t);

    // `DurableCoordinator::recover`: scan, rebuild the input phase and begin
    // the exchange, install the newest snapshot, replay the logged tail with
    // every record checked.
    let t = Instant::now();
    let meta = ops.call("load_meta", load_meta(&store))?;
    ops.check(
        "store meta matches the deployment",
        meta.node_count == n && meta.shard_count == partition.shard_count(),
    );
    let scan = ops.call("scan_wal", scan_wal(&wal_path))?;
    let log = ops.call("WalRecord::decode", Log::decode(&scan.records))?;
    drop(scan.records);
    tr.spans.close("recovery.scan", t);

    let t = Instant::now();
    let mut coord: ShuffleCoordinator<'_, Vec<u8>> = ops.call(
        "ShuffleCoordinator::new",
        ShuffleCoordinator::new(graph, &partition, meta.config),
    )?;
    let (mut walkers, mut seen, mut charged) = (Vec::with_capacity(n), vec![false; n], Vec::new());
    for batch in log.batches {
        let origins: Vec<NodeId> = batch.iter().map(|&(o, _)| o).collect();
        note_origins(&origins, &mut walkers, &mut seen, &mut charged);
        ops.call("ShuffleCoordinator::admit", coord.admit(batch))?;
    }
    if let Some(masks) = log.masks {
        let schedule = ops.call(
            "OutageSchedule::from_masks",
            OutageSchedule::from_masks(masks),
        )?;
        ops.call("with_outages", coord.with_outages(schedule))?;
    }
    tr.spans.close("recovery.rebuild", t);
    let t = Instant::now();
    let accountant = coord.accountant().clone();
    tr.detour(t);
    let t = Instant::now();
    ops.check("the log begins the exchange", log.begun);
    let mut ex = Exchange::begin(graph, &partition, &meta.config, &walkers, accountant)?;
    tr.spans.close("recovery.rebuild", t);

    let t = Instant::now();
    let mut markers = log.markers;
    markers.sort_unstable();
    let checkpoint = markers
        .iter()
        .rev()
        .filter(|&&marker| marker <= log.rounds.len())
        .find_map(|&marker| {
            load_snapshot(&store, marker)
                .ok()
                .filter(|cp| cp.engine.round == marker)
        });
    tr.spans.close("recovery.load", t);

    let t = Instant::now();
    if let Some(checkpoint) = checkpoint {
        ex.install(graph, &partition, coord.outages(), tr.laziness, &checkpoint)?;
    }
    let mut wal = ops.call(
        "WalWriter::open",
        WalWriter::open(&wal_path, scan.valid_len),
    )?;
    tr.spans.close("recovery.install", t);

    let t = Instant::now();
    let start = ex.engine.round();
    let mut replay_ok = true;
    for (round, (clocks, mask)) in log.rounds.iter().enumerate().skip(start) {
        let live_mask = coord.outages().map(|s| s.mask(round));
        replay_ok &= ex.engine.round() == round
            && clocks.len() == ex.engine.shard_count()
            && clocks
                .iter()
                .enumerate()
                .all(|(shard, &clock)| ex.engine.rng_clock(shard) == clock)
            && mask.as_deref() == live_mask;
        if !replay_ok {
            break;
        }
        ex.step(tr.laziness, live_mask);
        ex.accountant.advance_round();
    }
    tr.spans.close("recovery.replay", t);
    ops.check("replayed rounds match their log records", replay_ok);
    tr.out.replayed_rounds = log.rounds.len().saturating_sub(start) as u64;
    tr.unsynced = 0;

    // Re-attach the ledger (and telemetry), then finish the epoch.
    let t = Instant::now();
    let mut ledger = ops.call("load_ledger", load_ledger(&ledger_path))?;
    ops.check("ledger covers every user", ledger.user_count() == n);
    tr.spans.close("ledger.attach", t);
    if w.telemetry {
        tr.attach_obs(&registry, &mut coord, Some(&mut ex));
    }
    let t = Instant::now();
    let recovered_round = ex.engine.round();
    let (_, recovered_quote) = ops.call(
        "StreamingAccountant::worst_quote",
        ex.accountant.worst_quote(w.protocol, &inputs.params),
    )?;
    let recovered_digest = engine_digest(&ex.engine, &recovered_quote).finish();
    tr.spans.close("bench.digest", t);

    let mut quote = recovered_quote;
    for _ in recovered_round..plan.rounds {
        quote = tr.round(&mut wal, &mut ex, ops)?;
    }

    // `DurableCoordinator::finalize`: quote, log, charge, persist, then the
    // coordinator's submission rule and the curator's collect.
    let final_quote = tr.quote(&ex, ops)?;
    let t = Instant::now();
    let record = WalRecord::Finalized {
        round: ex.engine.round() as u64,
    };
    tr.append_synced(&mut wal, &record, ops)?;
    tr.spans.close("finalize.wal", t);

    let t = Instant::now();
    ops.call(
        "BudgetLedger::charge",
        charged
            .iter()
            .try_for_each(|&o| ledger.charge(o, &final_quote)),
    )?;
    tr.spans.close("ledger.charge", t);
    let t = Instant::now();
    ops.call("save_ledger", save_ledger(&ledger_path, &ledger))?;
    tr.spans.close("ledger.save", t);
    if let Some(obs) = &tr.obs {
        let t = Instant::now();
        obs.audit.record(TraceEvent::Phase {
            name: "finalize",
            round: ex.engine.round() as u64,
        });
        ops.call("flush_observability", obs.flush(&store))?;
        tr.spans.close("obs.flush", t);
    }

    let t = Instant::now();
    let pre_finalize = engine_digest(&ex.engine, &quote);
    tr.spans.close("bench.digest", t);

    // A detour: hand the exchange state back to the coordinator, which owns
    // the sealed reports and the curator.
    let t = Instant::now();
    let checkpoint = ops.call("checkpoint", ex.checkpoint())?;
    drop(ex);
    ops.call("begin_exchange", coord.begin_exchange())?;
    ops.call("install_checkpoint", coord.install_checkpoint(&checkpoint))?;
    drop(checkpoint);
    tr.detour(t);

    let t = Instant::now();
    let outcome = ops.call(
        "ShuffleCoordinator::finalize",
        coord.finalize(|_| vec![0xD0]),
    )?;
    tr.spans.close("curator.finalize", t);
    tr.out.epoch_s = secs(epoch) - tr.detour_s;

    tr.out.wal_bytes = disk_bytes(&wal_path);
    tr.out.snapshot_files = snapshot_files(&store);
    tr.out.walkers = walkers.len() as u64;
    tr.out.messages = outcome.metrics.total_messages() as u64;
    let finished = Finished {
        n,
        collected: outcome.collected.report_count(),
        final_quote: quote,
        charged: final_quote,
        budget: inputs.budget,
        messages: outcome.metrics.total_messages(),
        recovery: Some(Recovery {
            round: recovered_round,
            crash_at: plan.crash_at,
            digest: recovered_digest,
            crash_digest,
        }),
    };
    tr.out.digest = finished.check(ops, &ledger_path, pre_finalize);
    drop((outcome, wal));
    std::fs::remove_dir_all(dir)?;
    let mut out = tr.out;
    out.spans = tr.spans;
    Ok((out, partition))
}

/// Rounds per block of the telemetry-overhead probe.
const PROBE_BLOCK_ROUNDS: usize = 4;

/// Round latencies with program telemetry attached and detached.
#[derive(Default)]
pub struct ObsProbe {
    attached_s: Vec<f64>,
    detached_s: Vec<f64>,
    flush_s: Vec<f64>,
    trace_bytes: u64,
}

/// Alternates blocks of `DurableCoordinator` rounds (+ live quote) with
/// telemetry detached and attached, in an ABBA order so slow drift cancels;
/// each attached block ends with a timed `flush_observability`.
pub fn obs_probe(
    w: &Workload,
    inputs: &Inputs,
    partition: &Partition,
    dir: &Path,
    ops: &mut Ops,
) -> Res<ObsProbe> {
    let (store, _) = fresh_dirs(dir)?;
    let durable = DurableConfig {
        snapshot_every: 0,
        ..DURABLE
    };
    let config = w.config(inputs.seed);
    let mut dc = ops.call(
        "create",
        DurableCoordinator::create(&inputs.graph, partition, config, durable, &store),
    )?;
    if let Some(schedule) = &inputs.schedule {
        ops.call("with_outages", dc.with_outages(schedule.clone()))?;
    }
    ops.call(
        "admit_population",
        dc.admit_population(inputs.payloads.clone()),
    )?;
    ops.call("begin_exchange", dc.begin_exchange())?;
    // The first rounds after admission run faster (walkers still sit next to
    // their origins), so one untimed block goes first.
    ops.call("run_rounds", dc.run_rounds(PROBE_BLOCK_ROUNDS))?;
    let registry = MetricsRegistry::new();
    let mut probe = ObsProbe::default();
    for attached in [false, true, true, false] {
        if attached {
            dc.attach_telemetry(&registry, Some(inputs.params));
        } else {
            dc.detach_telemetry();
        }
        for _ in 0..PROBE_BLOCK_ROUNDS {
            let t = Instant::now();
            ops.call("run_rounds", dc.run_rounds(1))?;
            ops.call("live_quote", dc.live_quote(&inputs.params))?;
            let dt = secs(t);
            if attached {
                probe.attached_s.push(dt);
            } else {
                probe.detached_s.push(dt);
            }
        }
        if attached {
            let t = Instant::now();
            ops.call("flush_observability", dc.flush_observability())?;
            probe.flush_s.push(secs(t));
        }
    }
    probe.trace_bytes = disk_bytes(&store.join(TRACE_FILE));
    drop(dc);
    std::fs::remove_dir_all(dir)?;
    Ok(probe)
}

/// The per-layer metrics of one traced epoch, its bare twin and the probe
/// (`obs.*` read 0 on a workload without telemetry, which has no probe).
pub fn metrics(
    t: &TracedEpoch,
    bare: &BareEpoch,
    probe: Option<&ObsProbe>,
    plan: &Plan,
    m: &mut Metrics,
) {
    let s = &t.spans;
    let rounds = plan.rounds as f64;
    let ms = |name: &str| s.total(name) * 1e3;
    let median_ms = |name: &str| s.median(name) * 1e3;
    m.push("partition.build_s", s.total("partition.build"), "s");
    m.push("partition.edge_cut", t.edge_cut as f64, "count");
    m.push("admission.seal_ms", ms("admission.seal"), "ms");
    m.push("admission.wal_ms", ms("admission.wal"), "ms");
    m.push("admission.fsyncs", t.admission_fsyncs as f64, "count");
    m.push("engine.step_ms", median_ms("engine.step"), "ms");
    m.push(
        "engine.moves_per_s",
        t.messages as f64 / s.total("engine.step"),
        "1/s",
    );
    m.push(
        "engine.messages_per_round",
        t.messages as f64 / rounds,
        "count",
    );
    m.push(
        "engine.cross_shard_moves",
        t.cross_shard_moves as f64,
        "count",
    );
    // Laziness is 0, so every walker that did not move bounced off a mask.
    m.push(
        "engine.bounce_frac",
        1.0 - t.messages as f64 / (t.walkers as f64 * rounds),
        "ratio",
    );
    m.push(
        "accountant.advance_ms",
        median_ms("accountant.advance"),
        "ms",
    );
    m.push("accountant.quote_ms", median_ms("accountant.quote"), "ms");
    m.push("accountant.rows", t.accountant_rows as f64, "count");
    m.push("wal.append_us", s.median("wal.append") * 1e6, "us");
    m.push("wal.fsync_ms", median_ms("wal.fsync"), "ms");
    m.push("wal.record_bytes", t.record_bytes as f64, "bytes");
    m.push("wal.bytes", t.wal_bytes as f64, "bytes");
    m.push("snapshot.capture_ms", median_ms("snapshot.capture"), "ms");
    m.push("snapshot.write_ms", median_ms("snapshot.write"), "ms");
    m.push("snapshot.bytes", t.snapshot_bytes as f64, "bytes");
    m.push("snapshot.files", t.snapshot_files as f64, "count");
    m.push("recovery.scan_ms", ms("recovery.scan"), "ms");
    m.push("recovery.rebuild_ms", ms("recovery.rebuild"), "ms");
    m.push("recovery.load_ms", ms("recovery.load"), "ms");
    m.push("recovery.install_ms", ms("recovery.install"), "ms");
    m.push("recovery.replay_ms", ms("recovery.replay"), "ms");
    m.push(
        "recovery.replayed_rounds",
        t.replayed_rounds as f64,
        "count",
    );
    m.push("ledger.attach_ms", ms("ledger.attach"), "ms");
    m.push("ledger.charge_ms", ms("ledger.charge"), "ms");
    m.push("ledger.save_ms", ms("ledger.save"), "ms");
    m.push("curator.finalize_ms", ms("curator.finalize"), "ms");
    let (overhead_s, flush_s, trace_bytes) = probe.map_or((0.0, 0.0, 0), |p| {
        (
            median(&p.attached_s) - median(&p.detached_s),
            median(&p.flush_s),
            p.trace_bytes,
        )
    });
    m.push("obs.round_overhead_ms", overhead_s * 1e3, "ms");
    m.push("obs.flush_ms", flush_s * 1e3, "ms");
    m.push("obs.trace_bytes", trace_bytes as f64, "bytes");
    m.push(
        "trace.unattributed_frac",
        1.0 - s.covered() / t.epoch_s,
        "ratio",
    );
    m.push(
        "trace.overhead_frac",
        t.epoch_s / bare.epoch_s - 1.0,
        "ratio",
    );
}
