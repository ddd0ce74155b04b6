//! Golden-trace regression tests for the unified round kernel.
//!
//! The traces in `tests/golden/round_traces.txt` were generated by the
//! **pre-refactor** engines — separate plain and masked holder-order round
//! loops and `ShardedMixingEngine::step`, before they were merged into the
//! single `ns_graph::round` plan executor.  Every scenario records the full
//! per-round observable state (walker positions, holder bucket orders,
//! sent/load statistics) plus one post-run RNG draw per stream, so any
//! deviation in sampling order, merge order or stream consumption fails
//! the comparison bit for bit.
//!
//! The holder scenarios were captured from the plain and masked loops
//! drawing from `seeded_rng(101)`; they now run on the 1-shard
//! `ShardedMixingEngine` seeded with 101, whose stream is that same
//! `seeded_rng(101)` (pinned by the stream-identity scenario).
//!
//! The same scenarios also run with a live `EngineTelemetry` attached to
//! every engine and must reproduce the same bytes: telemetry that drew
//! randomness, skewed a merge order or consumed a stream would fail them.
//!
//! Regenerate with `NS_BLESS=1 cargo test --test golden_round_traces` —
//! but only ever from a commit whose engines are proven equivalent to the
//! pre-refactor ones, or the goldens stop being pre-refactor evidence.

use ns_graph::generators;
use ns_graph::partition::Partition;
use ns_graph::rng::seeded_rng;
use ns_graph::round::DrawMode;
use ns_graph::sharded_engine::{shard_stream, RoundObserver, RoundStats, ShardedMixingEngine};
use ns_graph::telemetry::{names, EngineTelemetry};
use ns_obs::MetricsRegistry;
use rand::Rng;
use std::fmt::Write as _;

const GOLDEN_PATH: &str = "tests/golden/round_traces.txt";

/// Goldens for the `fast` draw mode.  Unlike [`GOLDEN_PATH`] these are not
/// pre-refactor evidence — fast mode has no pre-refactor counterpart.  They
/// pin the fast stream against accidental drift: a change to the lane
/// layout, the threshold comparison or the Lemire reduction is a *stream
/// break* and must be blessed deliberately (`NS_BLESS=1`), never silently.
const GOLDEN_FAST_PATH: &str = "tests/golden/round_traces_fast.txt";

/// Deterministic availability mask for round `round`: roughly 20% of nodes
/// dark, the dark set rotating with the round index so survivors, bounces
/// and deliveries all occur.
fn mask_for_round(n: usize, round: usize) -> Vec<bool> {
    (0..n)
        .map(|u| !(u * 7 + round * 3).is_multiple_of(5))
        .collect()
}

/// Records one engine round's observable state into the trace: positions,
/// holder buckets, and the sent/load statistics `tap` copied.
fn record_round(out: &mut String, round: usize, engine: &ShardedMixingEngine<'_>, tap: &StatsTap) {
    write!(out, "round {round} positions").unwrap();
    for &p in engine.positions() {
        write!(out, " {p}").unwrap();
    }
    out.push('\n');
    write!(out, "round {round} holders").unwrap();
    for bucket in engine.walkers_by_holder() {
        out.push_str(" |");
        for w in bucket {
            write!(out, " {w}").unwrap();
        }
    }
    out.push('\n');
    write!(out, "round {round} sent").unwrap();
    for &s in &tap.sent {
        write!(out, " {s}").unwrap();
    }
    out.push('\n');
    write!(out, "round {round} load").unwrap();
    for &l in &tap.load {
        write!(out, " {l}").unwrap();
    }
    out.push('\n');
}

/// A `RoundObserver` that copies each round's sent/load vectors.
#[derive(Default)]
struct StatsTap {
    sent: Vec<usize>,
    load: Vec<usize>,
}

impl RoundObserver for StatsTap {
    fn on_round(&mut self, stats: &RoundStats<'_>) {
        self.sent = stats.sent.iter().map(|&s| s as usize).collect();
        self.load = stats.load.iter().map(|&l| l as usize).collect();
    }
}

fn trace_holder_rounds(
    out: &mut String,
    masked: bool,
    mode: DrawMode,
    registry: Option<&MetricsRegistry>,
) {
    let g = generators::barabasi_albert(80, 3, &mut seeded_rng(11)).unwrap();
    let n = g.node_count();
    let partition = Partition::single_shard(&g).unwrap();
    for laziness in [0.0, 0.3] {
        writeln!(
            out,
            "# scenario holder masked={masked} n={n} laziness={laziness}"
        )
        .unwrap();
        let mut engine = ShardedMixingEngine::one_walker_per_node(&g, &partition, 101).unwrap();
        engine.set_draw_mode(mode);
        engine.set_telemetry(registry.map(EngineTelemetry::register));
        for round in 1..=6 {
            let mut tap = StatsTap::default();
            let mask = masked.then(|| mask_for_round(n, round));
            engine.step(laziness, mask.as_deref(), &mut tap).unwrap();
            record_round(out, round, &engine, &tap);
        }
        writeln!(out, "rng-draw {}", engine.shard_rng_mut(0).gen::<u64>()).unwrap();
    }
}

fn trace_sharded_rounds(
    out: &mut String,
    shards: usize,
    mode: DrawMode,
    registry: Option<&MetricsRegistry>,
) {
    let g = generators::random_regular(90, 4, &mut seeded_rng(13)).unwrap();
    let n = g.node_count();
    let partition = if shards == 1 {
        Partition::single_shard(&g).unwrap()
    } else {
        Partition::new(&g, shards).unwrap()
    };
    for laziness in [0.0, 0.2] {
        writeln!(
            out,
            "# scenario sharded shards={shards} n={n} laziness={laziness}"
        )
        .unwrap();
        let mut engine = ShardedMixingEngine::one_walker_per_node(&g, &partition, 303).unwrap();
        engine.set_draw_mode(mode);
        engine.set_telemetry(registry.map(EngineTelemetry::register));
        for round in 1..=6 {
            let mut tap = StatsTap::default();
            engine.step(laziness, None, &mut tap).unwrap();
            record_round(out, round, &engine, &tap);
        }
        for s in 0..shards {
            writeln!(
                out,
                "rng-draw shard={s} {}",
                engine.shard_rng_mut(s).gen::<u64>()
            )
            .unwrap();
        }
    }
}

/// The 1-shard sharded engine consumes `shard_stream(seed, 0)`, which must
/// stay `seeded_rng(seed)` — pin that contract alongside the traces.
fn trace_stream_identity(out: &mut String) {
    writeln!(out, "# scenario stream-identity").unwrap();
    let mut base = seeded_rng(303);
    let mut shard0 = shard_stream(303, 0);
    writeln!(out, "base {}", base.gen::<u64>()).unwrap();
    writeln!(out, "shard0 {}", shard0.gen::<u64>()).unwrap();
}

/// Rounds the scenarios below step: 4 builders × 2 lazinesses × 6 rounds.
const TRACED_ROUNDS: u64 = 4 * 2 * 6;

/// Runs every scenario, with `registry`'s telemetry attached to every
/// engine when one is given.
fn build_trace(mode: DrawMode, registry: Option<&MetricsRegistry>) -> String {
    let mut out = String::new();
    trace_holder_rounds(&mut out, false, mode, registry);
    trace_holder_rounds(&mut out, true, mode, registry);
    trace_sharded_rounds(&mut out, 1, mode, registry);
    trace_sharded_rounds(&mut out, 3, mode, registry);
    trace_stream_identity(&mut out);
    out
}

/// Compares the trace of `mode` against the golden file at `path`.  Under
/// `NS_BLESS=1` a bare run rewrites the file instead, and an instrumented
/// run compares nothing: only bare engines bless.
fn check_against_golden(
    mode: DrawMode,
    registry: Option<&MetricsRegistry>,
    path: &str,
    what: &str,
) {
    let trace = build_trace(mode, registry);
    if std::env::var("NS_BLESS").is_ok() {
        if registry.is_none() {
            std::fs::create_dir_all("tests/golden").unwrap();
            std::fs::write(path, &trace).unwrap();
            eprintln!("blessed {path} ({} bytes)", trace.len());
        }
        return;
    }
    let golden = std::fs::read_to_string(path)
        .unwrap_or_else(|_| panic!("{path} missing; regenerate with NS_BLESS=1 {what}"));
    for (line_no, (got, want)) in trace.lines().zip(golden.lines()).enumerate() {
        assert_eq!(
            got,
            want,
            "trace diverged from {what} at line {}",
            line_no + 1
        );
    }
    assert_eq!(
        trace.lines().count(),
        golden.lines().count(),
        "trace length diverged from the golden file {path}"
    );
}

/// The scenarios with telemetry attached reproduce the golden file, and
/// the telemetry saw every round it was attached for (so the comparison is
/// not vacuous).
fn check_instrumented_against_golden(mode: DrawMode, path: &str, what: &str) {
    let registry = MetricsRegistry::new();
    check_against_golden(mode, Some(&registry), path, what);
    assert_eq!(
        registry.counter(names::ROUNDS_TOTAL).get(),
        TRACED_ROUNDS,
        "telemetry missed rounds"
    );
}

const COMPAT_WHAT: &str = "from a pre-refactor-equivalent build";
const FAST_WHAT: &str = "from a build whose fast mode passed the statistical-equivalence suite";

#[test]
fn engines_reproduce_pre_refactor_traces_bitwise() {
    check_against_golden(DrawMode::Compat, None, GOLDEN_PATH, COMPAT_WHAT);
}

/// Fast mode is pinned the same way: the one-u64-per-walker stream is part
/// of the seed-reproducibility contract once shipped, so layout changes
/// must re-bless deliberately.
#[test]
fn fast_mode_reproduces_blessed_traces_bitwise() {
    check_against_golden(DrawMode::Fast, None, GOLDEN_FAST_PATH, FAST_WHAT);
}

#[test]
fn instrumented_engines_reproduce_the_golden_traces_bitwise() {
    check_instrumented_against_golden(DrawMode::Compat, GOLDEN_PATH, COMPAT_WHAT);
}

#[test]
fn instrumented_fast_mode_reproduces_the_golden_traces_bitwise() {
    check_instrumented_against_golden(DrawMode::Fast, GOLDEN_FAST_PATH, FAST_WHAT);
}
