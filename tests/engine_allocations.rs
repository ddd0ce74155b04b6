//! Allocation audit of the holder-order round path.
//!
//! The engine keeps its round scratch — the per-shard decide arenas, the
//! merge's counting-sort buffers, the fast mode's RNG lane buffer — in
//! buffers that grow to a high-water mark and are then reused, so a settled
//! round must allocate nothing, with or without telemetry attached (spans,
//! counters and histograms record into preregistered slots).  The 1-shard
//! `step` is the monolithic holder round every protocol run uses, and the
//! 4-shard `step` and `step_in_order` are the sharded round.  A counting
//! global allocator proves it; the allocator is per binary, which is why
//! this audit has its own test target.  Counts are per thread, so the test
//! harness's own bookkeeping on other threads never leaks in; every round
//! runs on the calling thread, so the per-thread count is the whole
//! round's, and the audit is absolute at k = 4 too.

use ns_graph::generators::random_regular;
use ns_graph::partition::Partition;
use ns_graph::rng::seeded_rng;
use ns_graph::round::DrawMode;
use ns_graph::sharded_engine::ShardedMixingEngine;
use ns_graph::telemetry::EngineTelemetry;
use ns_graph::Graph;
use ns_obs::MetricsRegistry;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` keeps allocations during thread teardown from panicking.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

// SAFETY: every call forwards to the system allocator unchanged; the
// counter is a plain thread-local cell.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations made on this thread while `f` runs.
fn allocations_during(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Runs `round` in blocks until `STREAK` blocks in a row allocate nothing,
/// then returns the allocations of one more audited block.  Buffers only
/// grow when a round breaks a high-water mark — bounded by the walker
/// count, so there are finitely many such rounds — but when the last one
/// comes depends on the walk (records get rarer, not impossible, after a
/// quiet block), hence the adaptive warm-up.
fn settled_allocations(mut round: impl FnMut()) -> usize {
    const BLOCK: usize = 10;
    const STREAK: usize = 5;
    const MAX_BLOCKS: usize = 200;
    let mut block = || {
        allocations_during(|| {
            for _ in 0..BLOCK {
                round();
            }
        })
    };
    let mut quiet = 0;
    for _ in 0..MAX_BLOCKS {
        quiet = if block() == 0 { quiet + 1 } else { 0 };
        if quiet == STREAK {
            break;
        }
    }
    block()
}

fn audit_graph() -> Graph {
    random_regular(2_000, 6, &mut seeded_rng(3)).unwrap()
}

#[test]
fn settled_rounds_allocate_nothing() {
    let graph = audit_graph();
    let n = graph.node_count();
    let one = Partition::new(&graph, 1).unwrap();
    let four = Partition::new(&graph, 4).unwrap();
    let mask: Vec<bool> = (0..n).map(|u| u % 5 != 0).collect();
    let registry = MetricsRegistry::new();
    for mode in [DrawMode::Compat, DrawMode::Fast] {
        for instrumented in [false, true] {
            for mask in [None, Some(mask.as_slice())] {
                let telemetry = instrumented.then(|| EngineTelemetry::register(&registry));
                let label = format!(
                    "{mode:?}, telemetry {instrumented}, masked {}",
                    mask.is_some()
                );

                let engine = |partition, seed| {
                    let mut engine =
                        ShardedMixingEngine::one_walker_per_node(&graph, partition, seed).unwrap();
                    engine.set_draw_mode(mode);
                    engine.set_telemetry(telemetry.clone());
                    engine
                };

                let mut single = engine(&one, 5);
                let allocations = settled_allocations(|| single.step(0.2, mask, &mut ()).unwrap());
                assert_eq!(allocations, 0, "step at k = 1, {label}");

                let mut sharded = engine(&four, 6);
                let allocations = settled_allocations(|| sharded.step(0.2, mask, &mut ()).unwrap());
                assert_eq!(allocations, 0, "step at k = 4, {label}");

                let mut ordered = engine(&four, 6);
                let allocations = settled_allocations(|| {
                    ordered
                        .step_in_order(0.2, mask, &[0, 1, 2, 3], &mut ())
                        .unwrap()
                });
                assert_eq!(allocations, 0, "step_in_order at k = 4, {label}");
            }
        }
    }
    // The instrumented rounds really recorded (rendering is off-audit).
    assert!(registry.render().contains("counter ns_rounds_total"));
}
