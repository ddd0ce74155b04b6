//! Memory-bound round-loop throughput: report-moves/s of the 1-shard
//! `ShardedMixingEngine` round at populations where the position array,
//! the holder buckets and the CSR no longer fit in cache, in both draw
//! modes, with a steady-state allocation audit.
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
//! One warm-up block runs before timing (it also settles the kernel arenas
//! to their high-water marks); the timed block then counts allocations, so
//! the emitted `allocs_per_round` doubles as the steady-state audit on the
//! memory-bound config.  Results go to stdout and, machine-readable, to
//! `BENCH_roundloop.json` (override with `NS_ROUNDLOOP_OUT`), one entry per
//! measured draw mode so the perf trajectory is diffable across changes.
//!
//! Env knobs: `NS_ROUNDLOOP_N` (population, default 10M),
//! `NS_ROUNDLOOP_ROUNDS` (timed rounds, default 10), `NS_ROUNDLOOP_MODE`
//! (`compat`, `fast` or `both`, default `both`), `NS_ROUNDLOOP_OUT`
//! (output path).

use ns_graph::generators::strided_circulant;
use ns_graph::partition::Partition;
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
    rounds: usize,
    moves_per_s: f64,
    allocs_per_round: f64,
}

/// Runs `rounds` timed holder-order rounds (after a warm-up block) in the
/// given draw mode and returns throughput plus steady-state allocations
/// per round.  The round maintains the per-node report buckets through the
/// counting-sort merge, whose scatter traffic is identical in both modes.
fn measure(
    graph: &Graph,
    partition: &Partition,
    mode: DrawMode,
    rounds: usize,
    laziness: f64,
    registry: &MetricsRegistry,
) -> Measurement {
    let n = graph.node_count();
    let mut engine =
        ShardedMixingEngine::one_walker_per_node(graph, partition, 0xB0B).expect("engine");
    engine.set_draw_mode(mode);
    // Telemetry stays attached through the timed block: the allocs/round
    // audit below therefore covers the instrumented hot path, which must
    // record into its preregistered slots without allocating.
    engine.set_telemetry(Some(EngineTelemetry::register(registry)));
    let warmup = rounds.clamp(2, 5);
    let (elapsed, allocs) = time_rounds(warmup, rounds, || {
        engine.step(laziness, None, &mut ()).expect("round")
    });
    // Keep the engine's final state observable so the loop cannot be
    // elided.
    assert_eq!(engine.round(), warmup + rounds);
    Measurement {
        mode,
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

    let partition = Partition::single_shard(&graph).expect("partition");
    let registry = MetricsRegistry::new();
    let mut results = Vec::new();
    for &mode in &modes {
        let m = measure(&graph, &partition, mode, rounds, laziness, &registry);
        println!(
            "n={n} rounds={} mode={} report-moves/s={:.3}M allocs/round={:.1}",
            m.rounds,
            mode_name(m.mode),
            m.moves_per_s / 1e6,
            m.allocs_per_round
        );
        results.push(m);
    }

    // Hand-written JSON (the workspace's serde shim is a no-op, so emit the
    // bytes directly); one flat entry per mode keeps the file diffable, and
    // the shared writer closes the array with the telemetry snapshot the
    // measured engines recorded into.
    let entries: Vec<String> = results
        .iter()
        .map(|m| {
            format!(
                "{{\"bench\": \"roundloop\", \"n\": {n}, \"rounds\": {}, \"mode\": \"{}\", \
                 \"report_moves_per_s\": {:.0}, \"allocs_per_round\": {:.2}}}",
                m.rounds,
                mode_name(m.mode),
                m.moves_per_s,
                m.allocs_per_round,
            )
        })
        .collect();
    ns_bench::write_bench_json(&out_path, &entries, &registry).expect("write output");
    eprintln!("wrote {}", out_path.display());
}
