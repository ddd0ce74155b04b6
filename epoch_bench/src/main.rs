//! `epoch_bench` — the repository benchmark: one durable network-shuffle
//! epoch at n ≈ 1M (set-up, admission, rounds with a live quote each, a
//! crash and recovery, finalize and the ledger charge), end to end and per
//! layer.
//!
//! ```text
//! epoch_bench --workload <churn_sharded_1m|static_mono_1m> --seed <n>
//!             --seconds <s> --trace <0|1> [--dir <scratch dir>]
//!             [--n <requested population>] [--fault <none|digest|call>]
//! ```
//!
//! `--trace 0` runs bare epochs (only `DurableCoordinator`'s public
//! lifecycle) until `--seconds` are used, with host reference passes
//! between rounds, and prints the end-to-end metrics at the reference pass
//! time (see `host`).
//! `--trace 1` runs one bare epoch, one traced epoch (each layer driven
//! through its own entry points, a span around every call) and, on the
//! workload with telemetry, the telemetry-overhead probe, and prints the
//! per-layer metrics.  Standard
//! output ends with one context line and then the result object; progress
//! goes to standard error.  The exit status is 0 only when every call
//! succeeded and every output check held.

mod bare;
mod host;
mod measure;
mod report;
mod traced;
mod workload;

use bare::{BareEpoch, Fault};
use host::HostReference;
use measure::{median, peak_rss_mib, percentile, secs, Ops, MIB};
use report::{context_line, result_line, Metrics, Value};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use workload::{Inputs, Plan, Workload, DEFAULT_REQUESTED_N, PLAN};

pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// `round_tail_ms` is this percentile of the pooled round latencies: a run
/// pools at least 33 rounds, so at least 11 lie beyond it.
const TAIL_PERCENTILE: f64 = 0.65;

/// Upper bound on full bare epochs per run, whatever `--seconds` allows.
const MAX_EPOCHS: usize = 8;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    dir: PathBuf,
    requested_n: usize,
    fault: Fault,
}

fn parse_args() -> Res<Args> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        let at = argv.iter().position(|a| a == flag)?;
        argv.get(at + 1).cloned()
    };
    let workload = get("--workload").ok_or("--workload is required")?;
    let workload = Workload::by_name(&workload).ok_or(format!("unknown workload {workload}"))?;
    let seed = get("--seed").ok_or("--seed is required")?.parse()?;
    let fault = match get("--fault").as_deref() {
        None | Some("none") => Fault::None,
        Some("digest") => Fault::Digest,
        Some("call") => Fault::Call,
        Some(other) => return Err(format!("unknown fault {other}").into()),
    };
    Ok(Args {
        workload,
        seed,
        seconds: get("--seconds").map_or(Ok(30.0), |s| s.parse())?,
        trace: match get("--trace").as_deref() {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(format!("--trace takes 0 or 1, got {other}").into()),
        },
        dir: get("--dir").map_or_else(
            || PathBuf::from(format!(".bench_runs/{}-{seed}", workload.name)),
            PathBuf::from,
        ),
        requested_n: get("--n").map_or(Ok(DEFAULT_REQUESTED_N), |s| s.parse())?,
        fault,
    })
}

fn main() {
    let code = match run() {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("epoch_bench: {e}");
            2
        }
    };
    std::process::exit(code);
}

fn run() -> Res<bool> {
    let args = parse_args()?;
    let w = &args.workload;
    let plan = PLAN;
    eprintln!(
        "epoch_bench: {} seed {}: generating inputs at requested n = {}",
        w.name, args.seed, args.requested_n
    );
    let t = Instant::now();
    let inputs = Inputs::generate(w, args.requested_n, &plan, args.seed)?;
    let input_s = secs(t);
    let n = inputs.graph.node_count();
    eprintln!(
        "epoch_bench: n = {n}, m = {} ({input_s:.1} s)",
        inputs.graph.edge_count()
    );

    let mut ops = Ops::default();
    let mut metrics = Metrics::default();
    let mut host_context = Vec::new();
    let outcome = if args.trace {
        per_layer(&args, &inputs, &plan, &mut ops, &mut metrics)
    } else {
        end_to_end(
            &args,
            &inputs,
            &plan,
            &mut ops,
            &mut metrics,
            &mut host_context,
        )
    };
    let _ = std::fs::remove_dir_all(&args.dir);
    let (epochs, digest) = match outcome {
        Ok(done) => done,
        Err(e) => {
            ops.check(&format!("epoch completed ({e})"), false);
            (0, 0)
        }
    };
    metrics.check_finite(&mut ops);
    if args.trace {
        // Last, so every call and check of the run counts in it.
        metrics.push("ops_failed_frac", ops.failed_frac(), "ratio");
    }
    for failure in &ops.failures {
        eprintln!("epoch_bench: FAILED {failure}");
    }

    let mut context = vec![
        ("workload", Value::Str(w.name.into())),
        ("seed", Value::Int(args.seed)),
        ("requested_n", Value::Int(args.requested_n as u64)),
        ("n", Value::Int(n as u64)),
        ("m", Value::Int(inputs.graph.edge_count() as u64)),
        ("rounds", Value::Int(plan.rounds as u64)),
        ("crash_at", Value::Int(plan.crash_at as u64)),
        ("epochs", Value::Int(epochs as u64)),
        ("tail_percentile", Value::Num(TAIL_PERCENTILE)),
        ("digest", Value::Str(format!("{digest:016x}"))),
        ("trace", Value::Int(u64::from(args.trace))),
        ("input_s", Value::Num(input_s)),
    ];
    context.extend(host_context);
    println!("{}", context_line(&context));
    println!("{}", result_line(&ops, &metrics));
    Ok(ops.failed == 0)
}

/// Bare epochs until `--seconds` are used; the end-to-end metrics, every
/// time at the reference pass time, and the host reference's figures for
/// the context line.  Returns the full-epoch count and the end-state
/// digest.
///
/// A short warm-up epoch (one round) comes first; then full epochs while
/// another one fits; then a short epoch whose rounds fill the remaining
/// time.  Set-up, admission and finalize are medians over all of them
/// (at least three samples); the round metrics pool the rounds of the full
/// epochs and the last short one; recovery, epoch time and store size come
/// from the full epochs.
fn end_to_end(
    args: &Args,
    inputs: &Inputs,
    plan: &Plan,
    ops: &mut Ops,
    metrics: &mut Metrics,
    host_context: &mut Vec<(&'static str, Value)>,
) -> Res<(usize, u64)> {
    let w = &args.workload;
    let dir = args.dir.join("bare");
    let mut host = HostReference::new();
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(args.seconds);
    let warm_up = bare::short_epoch(w, inputs, plan, &dir, started, &mut host, ops)?;
    let mut epochs: Vec<BareEpoch> = Vec::new();
    loop {
        let epoch = bare::run(w, inputs, plan, &dir, args.fault, &mut host, ops)?;
        eprintln!(
            "epoch_bench: bare epoch {} took {:.2} s",
            epochs.len() + 1,
            epoch.epoch_s
        );
        let last = epoch.epoch_s;
        epochs.push(epoch);
        if epochs.len() >= MAX_EPOCHS || secs(started) + last > args.seconds {
            break;
        }
    }
    let fill = bare::short_epoch(w, inputs, plan, &dir, deadline, &mut host, ops)?;
    eprintln!(
        "epoch_bench: short epoch of {} rounds took {:.2} s",
        fill.rounds_s.len(),
        fill.epoch_s
    );
    let digest = check_digests(&epochs, args.fault, ops);

    let timed: Vec<&BareEpoch> = epochs.iter().chain([&fill]).collect();
    let all: Vec<&BareEpoch> = timed.iter().copied().chain([&warm_up]).collect();
    let over_all = |f: fn(&BareEpoch) -> f64| median(&all.iter().map(|e| f(e)).collect::<Vec<_>>());
    let per_epoch = |f: fn(&BareEpoch) -> f64| median(&epochs.iter().map(f).collect::<Vec<_>>());
    let rounds: Vec<f64> = timed
        .iter()
        .flat_map(|e| e.rounds_s.iter().copied())
        .collect();
    let snapshots: Vec<f64> = timed
        .iter()
        .flat_map(|e| e.snapshot_rounds_s.iter().copied())
        .collect();
    // Every time at the reference pass time; dividing by the factor in the
    // context line gives it back raw.
    let k = host.factor();
    metrics.push("setup_s", k * over_all(|e| e.setup_s), "s");
    metrics.push("admit_s", k * over_all(|e| e.admit_s), "s");
    metrics.push(
        "rounds_per_s",
        rounds.len() as f64 / (k * rounds.iter().sum::<f64>()),
        "rounds/s",
    );
    metrics.push("round_p50_ms", k * median(&rounds) * 1e3, "ms");
    metrics.push(
        "round_tail_ms",
        k * percentile(&rounds, TAIL_PERCENTILE) * 1e3,
        "ms",
    );
    metrics.push("snapshot_round_ms", k * median(&snapshots) * 1e3, "ms");
    metrics.push("recover_s", k * per_epoch(|e| e.recover_s), "s");
    metrics.push("finalize_s", k * over_all(|e| e.finalize_s), "s");
    metrics.push("epoch_s", k * per_epoch(|e| e.epoch_s), "s");
    // The reference's own arrays stay resident for the whole run.
    let rss = peak_rss_mib() - host.resident_bytes() as f64 / MIB;
    metrics.push("peak_rss_mb", rss, "MiB");
    metrics.push("store_mb", per_epoch(|e| e.store_bytes as f64) / MIB, "MiB");

    host_context.extend([
        ("host_factor", Value::Num(k)),
        ("reference_pass_s", Value::Num(host::REFERENCE_PASS_S)),
        ("reference_pass_p50_s", Value::Num(host.pass_p50_s())),
        ("reference_passes", Value::Int(host.passes() as u64)),
        ("timed_rounds", Value::Int(rounds.len() as u64)),
    ]);
    Ok((epochs.len(), digest))
}

/// The end-state digest every epoch of this run must share; with
/// `--fault digest` the reference is perturbed so the check must fail.
fn check_digests(epochs: &[BareEpoch], fault: Fault, ops: &mut Ops) -> u64 {
    let reference = epochs[0].digest ^ u64::from(fault == Fault::Digest);
    ops.check(
        "every epoch ends in the same state",
        epochs.iter().all(|e| e.digest == reference),
    );
    reference
}

/// A one-round warm-up epoch, one bare epoch, one traced epoch and, with
/// telemetry, the telemetry probe; the per-layer metrics but
/// `ops_failed_frac`.  Returns the epoch count and the end-state digest.
fn per_layer(
    args: &Args,
    inputs: &Inputs,
    plan: &Plan,
    ops: &mut Ops,
    metrics: &mut Metrics,
) -> Res<(usize, u64)> {
    let w = &args.workload;
    // Per-layer times are raw: no reference passes disturb this run.
    let host = &mut HostReference::disabled();
    let dir = args.dir.join("bare");
    bare::short_epoch(w, inputs, plan, &dir, Instant::now(), host, ops)?;
    let bare = bare::run(w, inputs, plan, &dir, args.fault, host, ops)?;
    eprintln!("epoch_bench: bare epoch took {:.2} s", bare.epoch_s);
    let digest = check_digests(std::slice::from_ref(&bare), args.fault, ops);
    let (traced, partition) = traced::run(w, inputs, plan, &args.dir.join("traced"), ops)?;
    eprintln!("epoch_bench: traced epoch took {:.2} s", traced.epoch_s);
    ops.check(
        "traced epoch ends in the bare state",
        traced.digest == digest,
    );
    let probe = if w.telemetry {
        Some(traced::obs_probe(
            w,
            inputs,
            &partition,
            &args.dir.join("obs"),
            ops,
        )?)
    } else {
        None
    };
    traced::metrics(&traced, &bare, probe.as_ref(), plan, metrics);
    Ok((1, digest))
}
