//! Memory-bound round-loop throughput: report-moves/s of the unified
//! kernel at populations where the position array and CSR no longer fit in
//! cache, in both draw modes, with a steady-state allocation audit.
//!
//! ```text
//! cargo run --release -p ns-bench --bin roundloop
//! NS_ROUNDLOOP_N=100000 NS_ROUNDLOOP_ROUNDS=50 cargo run --release -p ns-bench --bin roundloop
//! ```
//!
//! The topology is a strided circulant (degree 8, strides `1` plus three
//! primes near `n/7`, `n/3` and `n/2`), so every CSR row build-s in O(1)
//! but every *gather* of a neighbour row and every position write lands far
//! from the last one — at the default `n = 10M` the working set is ~200 MB
//! and the round loop is genuinely DRAM-bound, which is exactly the regime
//! the `fast` draw mode's lane buffers, branchless decide, u32 compression
//! and prefetching target.
//!
//! Both sweep orders of the unified kernel are measured: `walker` is the
//! pure transport round of `MixingEngine` (positions + CSR gather only),
//! `holder` is the 1-shard `ShardedMixingEngine` round, which adds the
//! per-node report buckets through the counting-sort merge.  One warm-up
//! block runs before timing (it also settles the kernel arenas to their
//! high-water marks); the timed block then counts allocations, so the
//! emitted `allocs_per_round` doubles as the steady-state audit on the
//! memory-bound config.  Results go to stdout and, machine-readable, to
//! `BENCH_roundloop.json` (override with `NS_ROUNDLOOP_OUT`), one entry per
//! measured (order, mode) pair so the perf trajectory is diffable across
//! PRs.
//!
//! Env knobs: `NS_ROUNDLOOP_N` (population, default 10M),
//! `NS_ROUNDLOOP_ROUNDS` (timed rounds, default 10), `NS_ROUNDLOOP_MODE`
//! (`compat`, `fast` or `both`, default `both`), `NS_ROUNDLOOP_ORDER`
//! (`walker`, `holder` or `both`, default `both`), `NS_ROUNDLOOP_OUT`
//! (output path).

use ns_graph::generators::strided_circulant;
use ns_graph::mixing_engine::MixingEngine;
use ns_graph::partition::Partition;
use ns_graph::rng::seeded_rng;
use ns_graph::round::DrawMode;
use ns_graph::sharded_engine::ShardedMixingEngine;
use ns_graph::telemetry::EngineTelemetry;
use ns_graph::Graph;
use ns_obs::MetricsRegistry;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Pass-through allocator counting allocation events, so the bench can
/// report allocs/round on the exact configuration it times.
struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

#[allow(unsafe_code)]
// Audited pass-through to the system allocator: the only added behaviour is
// the relaxed counter bump.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// One measured configuration.
struct Measurement {
    mode: DrawMode,
    order: &'static str,
    rounds: usize,
    moves_per_s: f64,
    allocs_per_round: f64,
}

/// Runs `rounds` timed rounds (after a warm-up block) in the given sweep
/// order and returns throughput plus steady-state allocations per round.
///
/// Both sweep orders are the unified kernel: `walker` is the pure
/// transport round (positions + CSR gather only — the configuration where
/// the fast lane's prefetch lookahead does the most, since compat's inline
/// draws leave nothing to prefetch against), `holder` additionally
/// maintains the per-node report buckets through the counting-sort
/// merge, whose scatter traffic is identical in both modes.
fn measure(
    graph: &Graph,
    partition: &Partition,
    mode: DrawMode,
    order: &'static str,
    rounds: usize,
    laziness: f64,
    registry: &MetricsRegistry,
) -> Measurement {
    let n = graph.node_count();
    // Telemetry stays attached through the timed block: the allocs/round
    // audit below therefore covers the instrumented hot path, which must
    // record into its preregistered slots without allocating.
    let telemetry = Some(EngineTelemetry::register(registry));
    let seed = 0xB0B;
    let warmup = rounds.clamp(2, 5);
    // Keep each engine's final state observable so the loop cannot be
    // elided.
    let (elapsed, allocs) = match order {
        "walker" => {
            let mut engine = MixingEngine::one_walker_per_node(graph).expect("engine");
            engine.set_draw_mode(mode);
            engine.set_telemetry(telemetry);
            let mut rng = seeded_rng(seed);
            let timed = time_rounds(warmup, rounds, || engine.step(laziness, &mut rng));
            assert_eq!(engine.round(), warmup + rounds);
            timed
        }
        _ => {
            let mut engine =
                ShardedMixingEngine::one_walker_per_node(graph, partition, seed).expect("engine");
            engine.set_draw_mode(mode);
            engine.set_telemetry(telemetry);
            let timed = time_rounds(warmup, rounds, || {
                engine.step(laziness, None, &mut ()).expect("round")
            });
            assert_eq!(engine.round(), warmup + rounds);
            timed
        }
    };
    Measurement {
        mode,
        order,
        rounds,
        moves_per_s: (n * rounds) as f64 / elapsed,
        allocs_per_round: allocs as f64 / rounds as f64,
    }
}

/// Runs `warmup` rounds — pulling the CSR and position array through the
/// cache hierarchy once and settling the kernel arenas to their high-water
/// marks — then `rounds` timed rounds, and returns the timed block's
/// seconds and allocation count.
fn time_rounds(warmup: usize, rounds: usize, mut round: impl FnMut()) -> (f64, usize) {
    for _ in 0..warmup {
        round();
    }
    let allocs_before = ALLOCATIONS.load(Ordering::Relaxed);
    let start = Instant::now();
    for _ in 0..rounds {
        round();
    }
    let elapsed = start.elapsed().as_secs_f64();
    (elapsed, ALLOCATIONS.load(Ordering::Relaxed) - allocs_before)
}

fn mode_name(mode: DrawMode) -> &'static str {
    match mode {
        DrawMode::Compat => "compat",
        DrawMode::Fast => "fast",
    }
}

fn main() {
    let n = env_usize("NS_ROUNDLOOP_N", 10_000_000);
    let rounds = env_usize("NS_ROUNDLOOP_ROUNDS", 10);
    let mode_sel = std::env::var("NS_ROUNDLOOP_MODE").unwrap_or_else(|_| "both".into());
    let out_path = ns_bench::bench_output_path("NS_ROUNDLOOP_OUT", "BENCH_roundloop.json");
    let laziness = 0.2;

    // Degree-8 strided circulant: stride 1 keeps it connected, the three
    // larger strides (co-prime with n after the +1 adjustment) scatter the
    // gathers across the whole address range.
    let far = |frac: usize| {
        let mut s = (n / frac).max(2) | 1; // odd, so gcd with power-of-two n is 1
        if n.is_multiple_of(s) {
            s += 2;
        }
        s
    };
    let strides = [1, far(7), far(3), far(2)];
    eprintln!("building strided circulant: n={n} strides={strides:?}");
    let graph = strided_circulant(n, &strides).expect("graph");
    eprintln!(
        "graph ready: {} nodes, {} edges, csr {} MB",
        graph.node_count(),
        graph.edge_count(),
        graph.memory_bytes() / (1 << 20)
    );

    let modes: Vec<DrawMode> = match mode_sel.as_str() {
        "compat" => vec![DrawMode::Compat],
        "fast" => vec![DrawMode::Fast],
        _ => vec![DrawMode::Compat, DrawMode::Fast],
    };

    let order_sel = std::env::var("NS_ROUNDLOOP_ORDER").unwrap_or_else(|_| "both".into());
    let orders: Vec<&'static str> = match order_sel.as_str() {
        "walker" => vec!["walker"],
        "holder" => vec!["holder"],
        _ => vec!["walker", "holder"],
    };

    let partition = Partition::single_shard(&graph).expect("partition");
    let registry = MetricsRegistry::new();
    let mut results = Vec::new();
    for &order in &orders {
        for &mode in &modes {
            let m = measure(&graph, &partition, mode, order, rounds, laziness, &registry);
            println!(
                "n={n} rounds={} order={} mode={} report-moves/s={:.3}M allocs/round={:.1}",
                m.rounds,
                m.order,
                mode_name(m.mode),
                m.moves_per_s / 1e6,
                m.allocs_per_round
            );
            results.push(m);
        }
    }

    // Hand-written JSON (the workspace's serde shim is a no-op, so emit the
    // bytes directly); one flat entry per mode keeps the file diffable, and
    // the shared writer closes the array with the telemetry snapshot the
    // measured engines recorded into.
    let entries: Vec<String> = results
        .iter()
        .map(|m| {
            format!(
                "{{\"bench\": \"roundloop\", \"n\": {n}, \"rounds\": {}, \"order\": \"{}\", \
                 \"mode\": \"{}\", \"report_moves_per_s\": {:.0}, \"allocs_per_round\": {:.2}}}",
                m.rounds,
                m.order,
                mode_name(m.mode),
                m.moves_per_s,
                m.allocs_per_round,
            )
        })
        .collect();
    ns_bench::write_bench_json(&out_path, &entries, &registry).expect("write output");
    eprintln!("wrote {}", out_path.display());
}
