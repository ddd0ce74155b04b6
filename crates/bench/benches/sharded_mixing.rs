//! Shard-count sweep of the sharded mixing engine at fixed population,
//! plus an allocation audit of the durable round path.
//!
//! Measures the cost of one exchange-round budget (engine construction plus
//! `ROUNDS` holder-order rounds) as the shard count grows at `n = 100_000`:
//! the sequential sweep isolates the overhead of the per-shard sampling
//! phase plus the counting-sort exchange versus the monolithic engine
//! (`k = 1` is bit-for-bit the single-engine path).  With
//! `--features parallel` the same sweep exercises the threaded sampling
//! phase instead.
//!
//! Before the criterion sweep, a counting global allocator audits the
//! durable wrapper's marginal cost per round (it must be zero once warm).
//! The engines' own round audits are tier-1 tests
//! (`tests/engine_allocations.rs`).

use criterion::{black_box, criterion_group, BenchmarkId, Criterion};
use ns_graph::generators::random_regular;
use ns_graph::partition::Partition;
use ns_graph::rng::seeded_rng;
use ns_graph::sharded_engine::ShardedMixingEngine;
use ns_obs::MetricsRegistry;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

const USERS: usize = 100_000;
const DEGREE: usize = 8;
const ROUNDS: usize = 10;

/// A pass-through allocator that counts allocations, for the steady-state
/// audit.
struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// Audited pass-through to the system allocator: the only added behaviour
// is the relaxed counter bump.
#[allow(unsafe_code)]
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

fn allocations_during(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// The audit that needs a bench-sized population and the store layer.
fn audit_allocations() {
    let n = 20_000;
    let graph = random_regular(n, DEGREE, &mut seeded_rng(3)).expect("graph");
    let partition = Partition::new(&graph, 4).expect("partition");
    audit_durable_allocations(&graph, &partition);
}

/// The durable wrapper's append path honors the arena contract: with
/// snapshots disabled, a settled [`DurableCoordinator`] adds **zero**
/// steady-state allocations per round over the plain coordinator it wraps —
/// the round record encodes into a reused scratch buffer, the RNG clocks
/// stage into a reused vector, and the WAL writes through a fixed tail
/// page.  The coordinator itself pays a small per-round cost (the
/// accountant's dense advance uses per-call scratch, deliberately off this
/// contract), so the audit is *marginal*: identical twin runs, one plain
/// and one durable, must allocate exactly the same.  (Snapshot boundaries
/// allocate by design — a full checkpoint is materialized and written
/// atomically — so the audit excludes them with `snapshot_every: 0`,
/// exactly the boundary the contract carves out.)
///
/// The durable twin runs **fully instrumented** — WAL latency spans, phase
/// counters, per-round trace events into the preallocated ring, the live
/// (ε, δ) quote per round — so this is also the telemetry-on audit of the
/// durable path: the whole observability layer must stay inside the
/// zero-marginal-allocation envelope.
fn audit_durable_allocations(graph: &ns_graph::Graph, partition: &Partition) {
    use network_shuffle::prelude::{AccountantParams, CoordinatorConfig, ShuffleCoordinator};
    use ns_store::prelude::{DurableConfig, DurableCoordinator};

    const BLOCK: usize = 10;
    const WARMUP: usize = 30;
    let dir = std::env::temp_dir().join("ns_sharded_mixing_durable_audit");
    let _ = std::fs::remove_dir_all(&dir);
    let n = graph.node_count();
    let config = CoordinatorConfig::all(17, 8);
    let payloads = || (0..n).map(|i| vec![i as u8, (i >> 8) as u8]).collect();

    let mut plain: ShuffleCoordinator<'_, Vec<u8>> =
        ShuffleCoordinator::new(graph, partition, config).expect("coordinator");
    plain.admit_population(payloads()).expect("admit");
    plain.begin_exchange().expect("begin");

    let durable = DurableConfig {
        group_commit: 4,
        snapshot_every: 0,
    };
    let mut store =
        DurableCoordinator::create(graph, partition, config, durable, &dir).expect("store");
    let registry = MetricsRegistry::new();
    let params = AccountantParams::new(n, 1.0, 1e-6, 1e-6).expect("params");
    store.attach_telemetry(&registry, Some(params));
    store.admit_population(payloads()).expect("admit");
    store.begin_exchange().expect("begin");

    // Both twins run the identical deterministic trajectory; settle their
    // arenas and the WAL tail page to the high-water marks.
    for _ in 0..WARMUP {
        plain.run_rounds(1).expect("round");
        store.run_rounds(1).expect("round");
    }
    let plain_cost = allocations_during(|| {
        for _ in 0..BLOCK {
            plain.run_rounds(1).expect("round");
        }
    });
    let durable_cost = allocations_during(|| {
        for _ in 0..BLOCK {
            store.run_rounds(1).expect("round");
        }
    });
    println!(
        "steady-state allocations over {BLOCK} rounds [plain k=4]: {plain_cost}, \
         [durable k=4 + telemetry]: {durable_cost}"
    );
    assert_eq!(
        durable_cost, plain_cost,
        "the instrumented durable wrapper must add zero steady-state allocations \
         per round outside snapshot boundaries"
    );
    black_box((plain.round(), store.round()));
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

fn bench_shard_count_sweep(c: &mut Criterion) {
    let graph = random_regular(USERS, DEGREE, &mut seeded_rng(1)).expect("graph");
    let mut group = c.benchmark_group("sharded_mixing_100k");
    group.sample_size(10);
    for shards in [1usize, 2, 4, 8] {
        let partition = Partition::new(&graph, shards).expect("partition");
        group.bench_with_input(
            BenchmarkId::new("rounds", shards),
            &partition,
            |b, partition| {
                b.iter(|| {
                    let mut engine = ShardedMixingEngine::one_walker_per_node(&graph, partition, 7)
                        .expect("engine");
                    for _ in 0..ROUNDS {
                        engine.step(0.0, None, &mut ()).expect("round");
                    }
                    black_box(engine.position(0))
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_shard_count_sweep);

fn main() {
    audit_allocations();
    benches();
}
