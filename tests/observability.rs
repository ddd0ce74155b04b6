//! Observability inertness: the full telemetry stack must be provably
//! inert — attaching it changes **no observable bit** of any run.
//!
//! Three layers of evidence:
//!
//! 1. **Golden traces** — instrumented engines re-run the exact scenarios
//!    of `tests/golden_round_traces.rs` (holder/walker orders, masked and
//!    unmasked, 1- and 3-shard) and must reproduce the blessed byte-exact
//!    traces in *both* draw modes.  Telemetry that drew randomness, skewed
//!    a merge order or consumed a stream would fail these bit for bit.
//! 2. **Proptest zoo** — on random graphs from every strategy family, every
//!    combination of draw mode × shard count × masking runs bare and
//!    instrumented side by side; positions, holder bucket orders, sent
//!    counts and post-run per-shard RNG clocks must agree exactly, and the
//!    coordinator's live privacy quote must agree to the last mantissa bit.
//! 3. **Durable runtime** — a fully instrumented `DurableCoordinator` run
//!    (span timers, WAL histograms, admission audit, trace export) is
//!    compared against a bare twin; the exported `trace.jsonl` must also
//!    validate against the in-repo schema, and `nsctl` must smoke-run
//!    against the produced directory.

mod common;

use common::strategies;
use network_shuffle::prelude::{AccountantParams, CoordinatorConfig, ShuffleCoordinator};
use network_shuffle::telemetry::CoordinatorTelemetry;
use ns_graph::generators;
use ns_graph::mixing_engine::MixingEngine;
use ns_graph::partition::Partition;
use ns_graph::rng::seeded_rng;
use ns_graph::round::DrawMode;
use ns_graph::sharded_engine::{shard_stream, RoundObserver, RoundStats, ShardedMixingEngine};
use ns_graph::telemetry::EngineTelemetry;
use ns_graph::Graph;
use ns_obs::MetricsRegistry;
use ns_store::prelude::{DurableConfig, DurableCoordinator, METRICS_FILE, TRACE_FILE};
use proptest::prelude::*;
use rand::Rng;
use std::fmt::Write as _;
use std::path::PathBuf;

// ---------------------------------------------------------------------------
// Layer 1: instrumented engines against the existing golden traces.
//
// The builders below intentionally mirror `tests/golden_round_traces.rs`
// line for line, with one addition: every engine gets a live
// `EngineTelemetry` attached before its first round.  The output must stay
// byte-identical to the blessed pre-refactor traces.
// ---------------------------------------------------------------------------

const GOLDEN_PATH: &str = "tests/golden/round_traces.txt";
const GOLDEN_FAST_PATH: &str = "tests/golden/round_traces_fast.txt";

fn mask_for_round(n: usize, round: usize) -> Vec<bool> {
    (0..n)
        .map(|u| !(u * 7 + round * 3).is_multiple_of(5))
        .collect()
}

fn record_round(
    out: &mut String,
    round: usize,
    positions: &[u32],
    holders: &[Vec<usize>],
    stats: Option<(&[usize], &[usize])>,
) {
    write!(out, "round {round} positions").unwrap();
    for &p in positions {
        write!(out, " {p}").unwrap();
    }
    out.push('\n');
    write!(out, "round {round} holders").unwrap();
    for bucket in holders {
        out.push_str(" |");
        for &w in bucket {
            write!(out, " {w}").unwrap();
        }
    }
    out.push('\n');
    if let Some((sent, load)) = stats {
        write!(out, "round {round} sent").unwrap();
        for &s in sent {
            write!(out, " {s}").unwrap();
        }
        out.push('\n');
        write!(out, "round {round} load").unwrap();
        for &l in load {
            write!(out, " {l}").unwrap();
        }
        out.push('\n');
    }
}

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

fn trace_holder_rounds(out: &mut String, masked: bool, mode: DrawMode, registry: &MetricsRegistry) {
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
        engine.set_telemetry(Some(EngineTelemetry::register(registry)));
        for round in 1..=6 {
            let mut tap = StatsTap::default();
            let mask = masked.then(|| mask_for_round(n, round));
            engine.step(laziness, mask.as_deref(), &mut tap).unwrap();
            record_round(
                out,
                round,
                engine.positions(),
                &engine.walkers_by_holder(),
                Some((&tap.sent, &tap.load)),
            );
        }
        writeln!(out, "rng-draw {}", engine.shard_rng_mut(0).gen::<u64>()).unwrap();
    }
}

fn trace_walker_rounds(out: &mut String, masked: bool, mode: DrawMode, registry: &MetricsRegistry) {
    let g = generators::random_regular(64, 4, &mut seeded_rng(12)).unwrap();
    let n = g.node_count();
    for laziness in [0.0, 0.25] {
        writeln!(
            out,
            "# scenario walker masked={masked} n={n} laziness={laziness}"
        )
        .unwrap();
        let mut engine = MixingEngine::one_walker_per_node(&g).unwrap();
        engine.set_draw_mode(mode);
        engine.set_telemetry(Some(EngineTelemetry::register(registry)));
        let mut rng = seeded_rng(202);
        for round in 1..=6 {
            if masked {
                let mask = mask_for_round(n, round);
                engine.step_masked(laziness, &mask, &mut rng).unwrap();
            } else {
                engine.step(laziness, &mut rng);
            }
            record_round(
                out,
                round,
                engine.positions(),
                &engine.walkers_by_holder(),
                None,
            );
        }
        writeln!(out, "rng-draw {}", rng.gen::<u64>()).unwrap();
    }
}

fn trace_sharded_rounds(
    out: &mut String,
    shards: usize,
    mode: DrawMode,
    registry: &MetricsRegistry,
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
        engine.set_telemetry(Some(EngineTelemetry::register(registry)));
        for round in 1..=6 {
            let mut tap = StatsTap::default();
            engine.step(laziness, None, &mut tap).unwrap();
            record_round(
                out,
                round,
                engine.positions(),
                &engine.walkers_by_holder(),
                Some((&tap.sent, &tap.load)),
            );
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

fn trace_stream_identity(out: &mut String) {
    writeln!(out, "# scenario stream-identity").unwrap();
    let mut base = seeded_rng(303);
    let mut shard0 = shard_stream(303, 0);
    writeln!(out, "base {}", base.gen::<u64>()).unwrap();
    writeln!(out, "shard0 {}", shard0.gen::<u64>()).unwrap();
}

fn build_instrumented_trace(mode: DrawMode, registry: &MetricsRegistry) -> String {
    let mut out = String::new();
    trace_holder_rounds(&mut out, false, mode, registry);
    trace_holder_rounds(&mut out, true, mode, registry);
    trace_walker_rounds(&mut out, false, mode, registry);
    trace_walker_rounds(&mut out, true, mode, registry);
    trace_sharded_rounds(&mut out, 1, mode, registry);
    trace_sharded_rounds(&mut out, 3, mode, registry);
    trace_stream_identity(&mut out);
    out
}

fn check_instrumented_against_golden(mode: DrawMode, path: &str) {
    let registry = MetricsRegistry::new();
    let trace = build_instrumented_trace(mode, &registry);
    let golden = std::fs::read_to_string(path)
        .unwrap_or_else(|_| panic!("{path} missing; bless via golden_round_traces first"));
    for (line_no, (got, want)) in trace.lines().zip(golden.lines()).enumerate() {
        assert_eq!(
            got,
            want,
            "instrumented trace diverged from the golden file at line {}",
            line_no + 1
        );
    }
    assert_eq!(
        trace.lines().count(),
        golden.lines().count(),
        "instrumented trace length diverged from {path}"
    );
    // Guard against vacuous success: the telemetry must actually have seen
    // the rounds it was attached for.
    let rendered = registry.render();
    let rounds_line = rendered
        .lines()
        .find(|l| l.starts_with("counter ns_rounds_total "))
        .expect("rounds counter rendered");
    let rounds: u64 = rounds_line.rsplit(' ').next().unwrap().parse().unwrap();
    assert!(rounds >= 6 * 12, "telemetry saw only {rounds} rounds");
}

#[test]
fn instrumented_engines_reproduce_the_golden_traces_bitwise() {
    check_instrumented_against_golden(DrawMode::Compat, GOLDEN_PATH);
}

#[test]
fn instrumented_fast_mode_reproduces_the_golden_traces_bitwise() {
    check_instrumented_against_golden(DrawMode::Fast, GOLDEN_FAST_PATH);
}

// ---------------------------------------------------------------------------
// Layer 2: proptest zoo — bare vs instrumented twins on random graphs.
// ---------------------------------------------------------------------------

/// Everything observable about a finished sharded run: positions, holder
/// bucket orders, cumulative sent counts and one post-run draw per shard
/// RNG (so any extra stream consumption by telemetry shows up).
type RunState = (Vec<u32>, Vec<Vec<usize>>, Vec<u32>, Vec<u64>);

fn run_sharded(
    graph: &Graph,
    partition: &Partition,
    mode: DrawMode,
    masked: bool,
    rounds: usize,
    laziness: f64,
    registry: Option<&MetricsRegistry>,
) -> RunState {
    let n = graph.node_count();
    let mut engine = ShardedMixingEngine::one_walker_per_node(graph, partition, 7077).unwrap();
    engine.set_draw_mode(mode);
    if let Some(registry) = registry {
        engine.set_telemetry(Some(EngineTelemetry::register(registry)));
    }
    for round in 1..=rounds {
        let mask = masked.then(|| mask_for_round(n, round));
        engine.step(laziness, mask.as_deref(), &mut ()).unwrap();
    }
    let positions = engine.positions().to_vec();
    let holders = engine.walkers_by_holder();
    let sent = engine.sent_counts().to_vec();
    let draws: Vec<u64> = (0..partition.shard_count())
        .map(|s| engine.shard_rng_mut(s).gen::<u64>())
        .collect();
    (positions, holders, sent, draws)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Every combination of draw mode × shard count × masking, bare vs
    /// instrumented, on graphs from the whole strategy zoo: positions,
    /// holder orders, sent counts and RNG clocks must agree bitwise.
    #[test]
    fn telemetry_is_bitwise_inert_across_the_zoo(
        graph in strategies::graph_zoo(30..120),
        rounds in 2usize..7,
        laziness_pct in 0usize..40,
    ) {
        let n = graph.node_count();
        prop_assume!(n >= 16);
        prop_assume!(graph.find_isolated_node().is_none());
        let laziness = laziness_pct as f64 / 100.0;
        for shards in [1usize, 4] {
            let partition = if shards == 1 {
                Partition::single_shard(&graph).unwrap()
            } else {
                Partition::new(&graph, shards).unwrap()
            };
            for mode in [DrawMode::Compat, DrawMode::Fast] {
                for masked in [false, true] {
                    let bare =
                        run_sharded(&graph, &partition, mode, masked, rounds, laziness, None);
                    let registry = MetricsRegistry::new();
                    let instrumented = run_sharded(
                        &graph, &partition, mode, masked, rounds, laziness, Some(&registry),
                    );
                    prop_assert_eq!(
                        &bare, &instrumented,
                        "telemetry perturbed mode={:?} shards={} masked={}",
                        mode, shards, masked
                    );
                    // The instrumented twin really was instrumented.
                    prop_assert!(registry
                        .render()
                        .contains(&format!("counter ns_rounds_total {rounds}")));
                }
            }
        }
    }

    /// The service layer's quote is unchanged to the last mantissa bit by
    /// full coordinator telemetry (engine + accountant + audit counters).
    #[test]
    fn coordinator_quote_bits_survive_telemetry(
        graph in strategies::graph_zoo(30..100),
        rounds in 2usize..6,
    ) {
        let n = graph.node_count();
        prop_assume!(n >= 16);
        prop_assume!(graph.find_isolated_node().is_none());
        let partition = Partition::new(&graph, 2).unwrap();
        let params = AccountantParams::new(n, 1.0, 1e-6, 1e-6).unwrap();
        let run = |registry: Option<&MetricsRegistry>| {
            let config = CoordinatorConfig::all(404, usize::MAX);
            let mut coordinator: ShuffleCoordinator<'_, Vec<u8>> =
                ShuffleCoordinator::new(&graph, &partition, config).unwrap();
            if let Some(registry) = registry {
                coordinator.set_telemetry(Some(CoordinatorTelemetry::register(registry)));
            }
            coordinator
                .admit_population((0..n).map(|i| vec![i as u8]).collect())
                .unwrap();
            coordinator.begin_exchange().unwrap();
            coordinator.run_rounds(rounds).unwrap();
            let (worst, quote) = coordinator.live_quote(&params).unwrap();
            let positions = coordinator.engine().unwrap().positions().to_vec();
            (
                worst,
                quote.epsilon.to_bits(),
                quote.delta.to_bits(),
                coordinator.report_count(),
                positions,
            )
        };
        let bare = run(None);
        let registry = MetricsRegistry::new();
        let instrumented = run(Some(&registry));
        prop_assert_eq!(bare, instrumented);
        prop_assert!(registry
            .render()
            .contains(&format!("counter ns_admit_reports_total {n}")));
    }
}

// ---------------------------------------------------------------------------
// Layer 3: the durable runtime, fully instrumented, plus the nsctl surface.
// ---------------------------------------------------------------------------

fn scenario_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("ns_observability").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scenario dir");
    dir
}

/// Runs the same durable scenario in `dir`, instrumented or bare, and
/// returns its observable end state.
fn durable_run(
    dir: &std::path::Path,
    graph: &Graph,
    partition: &Partition,
    instrument: bool,
) -> (usize, Vec<u32>, u64, u64) {
    let config = CoordinatorConfig::all(505, usize::MAX);
    let durable = DurableConfig {
        group_commit: 2,
        snapshot_every: 3,
    };
    let n = graph.node_count();
    let params = AccountantParams::new(n, 1.0, 1e-6, 1e-6).unwrap();
    let mut store = DurableCoordinator::create(graph, partition, config, durable, dir).unwrap();
    let registry = MetricsRegistry::new();
    if instrument {
        store.attach_telemetry(&registry, Some(params));
    }
    store
        .admit_population((0..n).map(|i| vec![i as u8]).collect())
        .unwrap();
    store.begin_exchange().unwrap();
    // One deliberately refused batch, so the audit log must carry both
    // decision kinds.
    assert!(store.admit(vec![(0, vec![0xEE])]).is_err());
    store.run_rounds(7).unwrap();
    store.flush_observability().unwrap();
    let (_, quote) = store.live_quote(&params).unwrap();
    (
        store.round(),
        store.coordinator().engine().unwrap().positions().to_vec(),
        quote.epsilon.to_bits(),
        quote.delta.to_bits(),
    )
}

#[test]
fn durable_telemetry_is_inert_and_exports_a_valid_trace() {
    let graph = generators::random_regular(48, 4, &mut seeded_rng(99)).unwrap();
    let partition = Partition::new(&graph, 2).unwrap();
    let bare_dir = scenario_dir("bare");
    let obs_dir = scenario_dir("instrumented");
    let bare = durable_run(&bare_dir, &graph, &partition, false);
    let instrumented = durable_run(&obs_dir, &graph, &partition, true);
    assert_eq!(bare, instrumented, "telemetry perturbed the durable run");

    // The bare run exported nothing; the instrumented run exported a
    // schema-valid trace carrying both admission decision kinds, the
    // per-round records, and a rendered metrics table.
    assert!(!bare_dir.join(TRACE_FILE).exists());
    let trace = std::fs::read_to_string(obs_dir.join(TRACE_FILE)).unwrap();
    let events = ns_obs::schema::validate_jsonl(&trace).expect("trace validates");
    assert!(
        events >= 9,
        "expected admits + 7 rounds, got {events} events"
    );
    assert!(trace.contains("\"ev\": \"round\""));
    assert!(trace.contains("\"accepted\": true"));
    assert!(trace.contains("\"accepted\": false"));
    assert!(trace.contains("\"reason\": \"exchange-started\""));
    let metrics = std::fs::read_to_string(obs_dir.join(METRICS_FILE)).unwrap();
    for name in [
        "histogram ns_wal_append_ns",
        "histogram ns_wal_fsync_ns",
        "histogram ns_round_decide_ns",
        "counter ns_admit_batches_total",
        "gauge ns_wal_len_bytes",
    ] {
        assert!(
            metrics.contains(name),
            "metrics.txt missing {name}:\n{metrics}"
        );
    }
}

#[test]
fn nsctl_smokes_against_a_demo_run() {
    let dir = scenario_dir("nsctl");
    let nsctl = env!("CARGO_BIN_EXE_nsctl");
    let demo = std::process::Command::new(nsctl)
        .args(["demo", dir.to_str().unwrap()])
        .output()
        .expect("spawn nsctl demo");
    assert!(
        demo.status.success(),
        "nsctl demo failed: {}",
        String::from_utf8_lossy(&demo.stderr)
    );
    let stats = std::process::Command::new(nsctl)
        .args(["stats", dir.to_str().unwrap()])
        .output()
        .expect("spawn nsctl stats");
    assert!(
        stats.status.success(),
        "nsctl stats failed: {}",
        String::from_utf8_lossy(&stats.stderr)
    );
    let out = String::from_utf8_lossy(&stats.stdout);
    for needle in [
        "schema ok",
        "round rate:",
        "quote trajectory:",
        "wal lag:",
        "histogram ns_wal_fsync_ns",
    ] {
        assert!(
            out.contains(needle),
            "nsctl stats output missing {needle:?}:\n{out}"
        );
    }
}
