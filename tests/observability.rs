//! Observability inertness: the full telemetry stack must be provably
//! inert — attaching it changes **no observable bit** of any run.
//!
//! Two layers of evidence here, beside the instrumented golden traces of
//! `tests/golden_round_traces.rs`:
//!
//! 1. **Proptest zoo** — on random graphs from every strategy family, every
//!    combination of draw mode × shard count × masking runs bare and
//!    instrumented side by side; positions, holder bucket orders, sent
//!    counts and post-run per-shard RNG clocks must agree exactly, and the
//!    coordinator's live privacy quote must agree to the last mantissa bit.
//! 2. **Durable runtime** — a fully instrumented `DurableCoordinator` run
//!    (span timers, WAL histograms, admission audit, trace export) is
//!    compared against a bare twin; the exported `trace.jsonl` must also
//!    validate against the in-repo schema, and `nsctl` must smoke-run
//!    against the produced directory.

mod common;

use common::strategies;
use network_shuffle::prelude::{AccountantParams, CoordinatorConfig, ShuffleCoordinator};
use network_shuffle::telemetry::CoordinatorTelemetry;
use ns_graph::generators;
use ns_graph::partition::Partition;
use ns_graph::rng::seeded_rng;
use ns_graph::round::DrawMode;
use ns_graph::sharded_engine::ShardedMixingEngine;
use ns_graph::telemetry::EngineTelemetry;
use ns_graph::Graph;
use ns_obs::MetricsRegistry;
use ns_store::prelude::{DurableConfig, DurableCoordinator, METRICS_FILE, TRACE_FILE};
use proptest::prelude::*;
use rand::Rng;
use std::path::PathBuf;

/// Deterministic availability mask for round `round`: roughly 20% of nodes
/// dark, the dark set rotating with the round index.
fn mask_for_round(n: usize, round: usize) -> Vec<bool> {
    (0..n)
        .map(|u| !(u * 7 + round * 3).is_multiple_of(5))
        .collect()
}

// ---------------------------------------------------------------------------
// Layer 1: proptest zoo — bare vs instrumented twins on random graphs.
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
// Layer 2: the durable runtime, fully instrumented, plus the nsctl surface.
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
