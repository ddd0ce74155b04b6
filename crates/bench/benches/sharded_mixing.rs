//! Shard-count sweep of the sharded mixing engine at fixed population,
//! plus allocation audits of the delta and durable round paths.
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
//! delta runtime's critical path and the durable wrapper's marginal cost
//! per round (both must be zero once warm).  The engines' own round and
//! migration audits are tier-1 tests (`tests/engine_allocations.rs`).

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

/// Warms an engine until a whole block of rounds allocates nothing, then
/// returns the allocation count of a final audited block (which the caller
/// asserts is zero).  The kernel's arenas and the exchange outboxes grow
/// monotonically to their high-water marks — bounded by the walker count,
/// so the number of growth events is finite — and a later round can only
/// allocate if it breaks a high-water mark; warm-up length is therefore
/// workload-dependent, and the audit warms adaptively instead of guessing.
fn settle_then_audit(label: &str, mut round: impl FnMut()) -> usize {
    const BLOCK: usize = 10;
    const MAX_BLOCKS: usize = 50;
    for _ in 0..MAX_BLOCKS {
        let during_warmup = allocations_during(|| {
            for _ in 0..BLOCK {
                round();
            }
        });
        if during_warmup == 0 {
            break;
        }
    }
    let audited = allocations_during(|| {
        for _ in 0..BLOCK {
            round();
        }
    });
    println!("steady-state allocations over {BLOCK} rounds [{label}]: {audited}");
    audited
}

/// The audits that need a bench-sized population and the store layer.
fn audit_allocations() {
    let n = 20_000;
    let graph = random_regular(n, DEGREE, &mut seeded_rng(3)).expect("graph");
    let partition = Partition::new(&graph, 4).expect("partition");
    audit_delta_allocations(&graph);
    audit_durable_allocations(&graph, &partition);
}

/// The delta runtime's critical path — affected-column derivation plus the
/// per-column ensemble correction — is allocation-free once its buffers are
/// warm.  (The speculative advance runs off the critical path and uses the
/// dense kernel's per-call scratch, so it is not part of this audit.)
fn audit_delta_allocations(graph: &ns_graph::Graph) {
    use ns_graph::delta::affected_columns_into;
    use ns_graph::dynamic::DynamicGraph;
    use ns_graph::ensemble::DistributionEnsemble;

    let n = graph.node_count();
    let mut dg = DynamicGraph::from_graph(graph).expect("dynamic");
    let operator = dg.masked_operator(0.2).expect("operator");
    let origins: Vec<usize> = (0..32).map(|r| r * (n / 32)).collect();
    let mut ensemble = DistributionEnsemble::point_masses(n, &origins).expect("ensemble");
    let mut prev = Vec::new();
    let mut prev_il = Vec::new();
    ensemble.speculate_interleaved(&operator, &mut prev, &mut prev_il);
    let touched: Vec<usize> = (0..n).step_by(97).collect();
    let mut stamp = vec![false; n];
    let mut columns = Vec::new();
    let snapshot = dg.snapshot().clone();
    let audited = settle_then_audit("delta correction 32 rows", || {
        affected_columns_into(&snapshot, &touched, &mut stamp, &mut columns);
        ensemble.correct_columns_interleaved(&operator, &columns, &prev_il);
        ensemble.correct_columns(&operator, &columns, &prev);
    });
    assert_eq!(
        audited, 0,
        "the delta critical path must not allocate once buffers are warm"
    );
    black_box(ensemble.row(0)[0]);
}

/// The durable wrapper's append path honors the arena contract too: with
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
