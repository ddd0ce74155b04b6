//! The bare epoch: only `DurableCoordinator`'s public lifecycle, timed end
//! to end.

use crate::host::HostReference;
use crate::measure::{coordinator_digest, disk_bytes, secs, Finished, Ops, Recovery};
use crate::workload::{Inputs, Plan, Workload, DURABLE};
use crate::Res;
use network_shuffle::prelude::AccountantParams;
use ns_dp::prelude::PrivacyGuarantee;
use ns_graph::prelude::{NodeId, Partition};
use ns_obs::MetricsRegistry;
use ns_store::prelude::DurableCoordinator;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Faults the benchmark's own tests inject.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    None,
    /// The reference end-state digest is perturbed.
    Digest,
    /// One admission call fails (an out-of-range origin).
    Call,
}

/// What one bare epoch, full or short, measured, in seconds and bytes.  A
/// short epoch has no crash, so its `recover_s` is 0.
#[derive(Debug, Default)]
pub struct BareEpoch {
    pub setup_s: f64,
    pub admit_s: f64,
    pub recover_s: f64,
    pub finalize_s: f64,
    /// Seconds from the start of set-up until `finalize` returns, without
    /// the reference passes made in between.
    pub epoch_s: f64,
    /// Every timed round: `run_rounds(1)` + `live_quote`.  Replayed rounds
    /// are not timed rounds.
    pub rounds_s: Vec<f64>,
    /// The timed rounds that ended in a snapshot.
    pub snapshot_rounds_s: Vec<f64>,
    /// Seconds of the reference passes made during the epoch.
    paused_s: f64,
    pub store_bytes: u64,
    pub digest: u64,
}

/// The store directory and ledger path inside a run directory.
fn store_paths(dir: &Path) -> (PathBuf, PathBuf) {
    (dir.join("store"), dir.join("ledger.bin"))
}

/// Empties `dir` and returns the store directory and ledger path inside it.
pub fn fresh_dirs(dir: &Path) -> Res<(PathBuf, PathBuf)> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir)?;
    Ok(store_paths(dir))
}

/// The timed set-up after `Partition::new`: create the store, attach the
/// ledger, the outage schedule and (if the workload has it) telemetry.
fn open_store<'g>(
    w: &Workload,
    inputs: &'g Inputs,
    partition: &'g Partition,
    store: &Path,
    ledger: &Path,
    registry: &MetricsRegistry,
    ops: &mut Ops,
) -> Res<DurableCoordinator<'g>> {
    let config = w.config(inputs.seed);
    let mut dc = ops.call(
        "create",
        DurableCoordinator::create(&inputs.graph, partition, config, DURABLE, store),
    )?;
    ops.call("attach_ledger", dc.attach_ledger(ledger, inputs.budget))?;
    if let Some(schedule) = &inputs.schedule {
        ops.call("with_outages", dc.with_outages(schedule.clone()))?;
    }
    if w.telemetry {
        dc.attach_telemetry(registry, Some(inputs.params));
    }
    Ok(dc)
}

/// Every admission batch, then `begin_exchange`; returns the seconds taken.
fn admit(
    dc: &mut DurableCoordinator<'_>,
    batches: Vec<Vec<(NodeId, Vec<u8>)>>,
    fault: Fault,
    ops: &mut Ops,
) -> Res<f64> {
    let t = Instant::now();
    for batch in batches {
        ops.call("admit", dc.admit(batch))?;
    }
    if fault == Fault::Call {
        // Refused before it is logged, so the epoch itself goes on.
        let _ = ops.call("admit", dc.admit(vec![(usize::MAX, Vec::new())]));
    }
    ops.call("begin_exchange", dc.begin_exchange())?;
    Ok(secs(t))
}

/// A short epoch: set-up, admission, timed rounds until `deadline` has
/// passed (at least one, at most the plan's), then `finalize` and its output
/// checks, without a crash.  One runs before the first full epoch, so no
/// full epoch is the process's first touch of the allocator, and one fills
/// the run's remaining time with more rounds and more set-up, admission and
/// finalize samples.
pub fn short_epoch(
    w: &Workload,
    inputs: &Inputs,
    plan: &Plan,
    dir: &Path,
    deadline: Instant,
    host: &mut HostReference,
    ops: &mut Ops,
) -> Res<BareEpoch> {
    let (store, ledger) = fresh_dirs(dir)?;
    let batches = inputs.batches(w.admit_batches);
    let registry = MetricsRegistry::new();
    let mut out = BareEpoch::default();

    let epoch = Instant::now();
    let partition = ops.call("Partition::new", Partition::new(&inputs.graph, w.shards))?;
    let mut dc = open_store(w, inputs, &partition, &store, &ledger, &registry, ops)?;
    out.setup_s = secs(epoch);
    out.admit_s = admit(&mut dc, batches, Fault::None, ops)?;
    let mut round = 0;
    let quote = loop {
        let quote = timed_round(&mut dc, round, plan, &inputs.params, host, ops, &mut out)?;
        round += 1;
        if round == plan.rounds || Instant::now() >= deadline {
            break quote;
        }
    };
    finish(dc, quote, None, epoch, inputs, dir, ops, &mut out)?;
    Ok(out)
}

/// One full durable epoch: set-up, admission, rounds with a live quote
/// each, a crash half-way between two snapshots, recovery, the remaining
/// rounds and finalize.
pub fn run(
    w: &Workload,
    inputs: &Inputs,
    plan: &Plan,
    dir: &Path,
    fault: Fault,
    host: &mut HostReference,
    ops: &mut Ops,
) -> Res<BareEpoch> {
    let graph = &inputs.graph;
    let params = &inputs.params;
    let (store, ledger) = fresh_dirs(dir)?;
    let batches = inputs.batches(w.admit_batches);
    let registry = MetricsRegistry::new();
    let mut out = BareEpoch::default();

    let epoch = Instant::now();
    let partition = ops.call("Partition::new", Partition::new(graph, w.shards))?;
    let mut dc = open_store(w, inputs, &partition, &store, &ledger, &registry, ops)?;
    out.setup_s = secs(epoch);
    out.admit_s = admit(&mut dc, batches, fault, ops)?;

    let quote = timed_rounds(&mut dc, 0..plan.crash_at, plan, params, host, ops, &mut out)?;
    let crash_digest = coordinator_digest(dc.coordinator(), &quote)?.finish();
    drop(dc); // the crash: no finalize, no flush

    let t = Instant::now();
    let mut dc = ops.call(
        "recover",
        DurableCoordinator::recover(graph, &partition, DURABLE, &store),
    )?;
    out.recover_s = secs(t);
    let recovered_round = dc.round();
    let (_, recovered_quote) = ops.call("live_quote", dc.live_quote(params))?;
    let recovered_digest = coordinator_digest(dc.coordinator(), &recovered_quote)?.finish();
    ops.call("attach_ledger", dc.attach_ledger(&ledger, inputs.budget))?;
    if w.telemetry {
        dc.attach_telemetry(&registry, Some(*params));
    }
    let quote = timed_rounds(
        &mut dc,
        recovered_round..plan.rounds,
        plan,
        params,
        host,
        ops,
        &mut out,
    )?;
    let recovery = Recovery {
        round: recovered_round,
        crash_at: plan.crash_at,
        digest: recovered_digest,
        crash_digest,
    };
    finish(dc, quote, Some(recovery), epoch, inputs, dir, ops, &mut out)?;
    Ok(out)
}

/// `finalize` with its output checks; records the finalize and epoch times,
/// the store size and the end-state digest, then deletes `dir`.
#[allow(clippy::too_many_arguments)]
fn finish(
    dc: DurableCoordinator<'_>,
    quote: PrivacyGuarantee,
    recovery: Option<Recovery>,
    epoch: Instant,
    inputs: &Inputs,
    dir: &Path,
    ops: &mut Ops,
    out: &mut BareEpoch,
) -> Res<()> {
    let (store, ledger) = store_paths(dir);
    let pre_finalize = coordinator_digest(dc.coordinator(), &quote)?;
    let t = Instant::now();
    let (outcome, charged) = ops.call("finalize", dc.finalize(&inputs.params, |_| vec![0xD0]))?;
    out.finalize_s = secs(t);
    out.epoch_s = secs(epoch) - out.paused_s;
    out.store_bytes = disk_bytes(&store) + disk_bytes(&ledger);

    let finished = Finished {
        n: inputs.graph.node_count(),
        collected: outcome.collected.report_count(),
        final_quote: quote,
        charged,
        budget: inputs.budget,
        messages: outcome.metrics.total_messages(),
        recovery,
    };
    out.digest = finished.check(ops, &ledger, pre_finalize);
    drop(outcome);
    std::fs::remove_dir_all(dir)?;
    Ok(())
}

/// Runs `rounds`, each through [`timed_round`]; returns the last quote.
fn timed_rounds(
    dc: &mut DurableCoordinator<'_>,
    rounds: Range<usize>,
    plan: &Plan,
    params: &AccountantParams,
    host: &mut HostReference,
    ops: &mut Ops,
    out: &mut BareEpoch,
) -> Res<PrivacyGuarantee> {
    let mut quote = None;
    for round in rounds {
        quote = Some(timed_round(dc, round, plan, params, host, ops, out)?);
    }
    Ok(quote.ok_or("an epoch segment ran no rounds")?)
}

/// Round `round` (0-based), timed as `run_rounds(1)` + `live_quote`, then a
/// reference pass if one is due; returns the quote.
fn timed_round(
    dc: &mut DurableCoordinator<'_>,
    round: usize,
    plan: &Plan,
    params: &AccountantParams,
    host: &mut HostReference,
    ops: &mut Ops,
    out: &mut BareEpoch,
) -> Res<PrivacyGuarantee> {
    let t = Instant::now();
    ops.call("run_rounds", dc.run_rounds(1))?;
    let (_, quote) = ops.call("live_quote", dc.live_quote(params))?;
    let dt = secs(t);
    out.rounds_s.push(dt);
    if plan.is_snapshot_round(round + 1) {
        out.snapshot_rounds_s.push(dt);
    }
    out.paused_s += host.tick();
    Ok(quote)
}
