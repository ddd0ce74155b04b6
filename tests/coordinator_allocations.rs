//! Allocation audit of the coordinator round, on every thread.
//!
//! `ShuffleCoordinator::run_rounds` steps the engine on the calling thread
//! while a helper thread advances the streaming accountant, and the durable
//! wrapper adds a WAL append, telemetry and a live quote per round.  A
//! settled round must allocate nothing on any of those threads, so the
//! counting allocator here is process-global rather than per thread — which
//! is also why this file holds a single test: no other test may run beside
//! it.
//!
//! At k = 4 the root test target builds ns-graph with `parallel`, so the
//! engine's own sampling phase may spawn scoped workers each round; there
//! the audit is marginal instead: a durable twin must allocate exactly what
//! the plain coordinator it wraps does.

use network_shuffle::prelude::*;
use ns_graph::generators::random_regular;
use ns_graph::partition::Partition;
use ns_graph::rng::seeded_rng;
use ns_graph::Graph;
use ns_obs::MetricsRegistry;
use ns_store::prelude::{DurableConfig, DurableCoordinator};
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to the system allocator unchanged; the
// counter is a relaxed atomic.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations made on any thread while `f` runs.
fn allocations_during(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    f();
    ALLOCATIONS.load(Ordering::SeqCst) - before
}

/// Rounds per audited block.
const BLOCK: usize = 10;

/// Runs `round` in blocks until `STREAK` blocks in a row allocate nothing,
/// then returns the allocations of one more block.  Buffers only grow when
/// a round breaks a high-water mark, and there are finitely many such
/// rounds, but when the last one comes depends on the walk.
fn settled_allocations(mut round: impl FnMut()) -> usize {
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

fn store_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("ns_coordinator_allocations")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn payloads(n: usize) -> Vec<Vec<u8>> {
    (0..n).map(|i| vec![i as u8, (i >> 8) as u8]).collect()
}

/// A begun plain coordinator over the full population.
fn plain<'g>(
    graph: &'g Graph,
    partition: &'g Partition,
    config: CoordinatorConfig,
    schedule: Option<&OutageSchedule>,
) -> ShuffleCoordinator<'g, Vec<u8>> {
    let mut coordinator = ShuffleCoordinator::new(graph, partition, config).unwrap();
    if let Some(schedule) = schedule {
        coordinator.with_outages(schedule.clone()).unwrap();
    }
    coordinator
        .admit_population(payloads(graph.node_count()))
        .unwrap();
    coordinator.begin_exchange().unwrap();
    coordinator
}

/// A begun durable coordinator over the full population, telemetry and
/// quote parameters attached, snapshots off (snapshot rounds materialize a
/// checkpoint by design).
fn durable<'g>(
    graph: &'g Graph,
    partition: &'g Partition,
    config: CoordinatorConfig,
    schedule: Option<&OutageSchedule>,
    params: AccountantParams,
    registry: &MetricsRegistry,
    name: &str,
) -> DurableCoordinator<'g> {
    let durable = DurableConfig {
        group_commit: 4,
        snapshot_every: 0,
    };
    let mut store =
        DurableCoordinator::create(graph, partition, config, durable, &store_dir(name)).unwrap();
    store.attach_telemetry(registry, Some(params));
    if let Some(schedule) = schedule {
        store.with_outages(schedule.clone()).unwrap();
    }
    store
        .admit_population(payloads(graph.node_count()))
        .unwrap();
    store.begin_exchange().unwrap();
    store
}

#[test]
fn settled_coordinator_rounds_allocate_nothing_on_any_thread() {
    // A small trace ring fills during warm-up, so the durable runs settle
    // instead of growing it until its default capacity.
    std::env::set_var("NS_OBS_RING", "64");
    let graph = random_regular(2_000, 6, &mut seeded_rng(3)).unwrap();
    let n = graph.node_count();
    let params = AccountantParams::new(n, 1.0, 1e-6, 1e-6).unwrap();
    let schedule = OutageModel::MarkovOnOff {
        fail: 0.1,
        recover: 0.3,
    }
    .sample_schedule(n, 64, 5)
    .unwrap();
    let registry = MetricsRegistry::new();

    let one = Partition::new(&graph, 1).unwrap();
    let config = CoordinatorConfig::all(17, 2);
    for schedule in [None, Some(&schedule)] {
        let label = format!("k = 1, scheduled {}", schedule.is_some());

        let mut coordinator = plain(&graph, &one, config, schedule);
        let allocations = settled_allocations(|| {
            coordinator.run_rounds(1).unwrap();
            coordinator.live_quote(&params).unwrap();
        });
        assert_eq!(
            allocations, 0,
            "ShuffleCoordinator::run_rounds(1) + live_quote, {label}"
        );

        let name = format!("one-{}", schedule.is_some());
        let mut store = durable(&graph, &one, config, schedule, params, &registry, &name);
        let allocations = settled_allocations(|| store.run_rounds(1).unwrap());
        assert_eq!(
            allocations, 0,
            "DurableCoordinator::run_rounds(1) with telemetry, {label}"
        );
        drop(store);
        let _ = std::fs::remove_dir_all(store_dir(&name));
    }

    // k = 4: the durable wrapper adds nothing over the plain coordinator.
    const WARMUP: usize = 80;
    let four = Partition::new(&graph, 4).unwrap();
    for schedule in [None, Some(&schedule)] {
        let label = format!("k = 4, scheduled {}", schedule.is_some());
        let name = format!("four-{}", schedule.is_some());
        let mut coordinator = plain(&graph, &four, config, schedule);
        let mut store = durable(&graph, &four, config, schedule, params, &registry, &name);
        for _ in 0..WARMUP {
            coordinator.run_rounds(1).unwrap();
            store.run_rounds(1).unwrap();
        }
        let plain_cost = allocations_during(|| {
            for _ in 0..BLOCK {
                coordinator.run_rounds(1).unwrap();
            }
        });
        let durable_cost = allocations_during(|| {
            for _ in 0..BLOCK {
                store.run_rounds(1).unwrap();
            }
        });
        assert_eq!(
            durable_cost, plain_cost,
            "the instrumented durable wrapper adds allocations per round, {label}"
        );
        drop(store);
        let _ = std::fs::remove_dir_all(store_dir(&name));
    }
    // The instrumented rounds really recorded.
    assert!(registry.render().contains("ns_rounds_total"));
}
