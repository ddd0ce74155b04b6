//! Allocation audit of the streaming accountant's round advance.
//!
//! A durable deployment calls `StreamingAccountant::advance_round` once per
//! round for the whole epoch, so after its first call (which sizes the
//! ensemble's kernel scratch) it must allocate nothing.  A counting global
//! allocator proves it; the allocator is per binary, which is why this
//! audit has its own test target.  Counts are per thread, so the test
//! harness's own bookkeeping on other threads never leaks in.

use network_shuffle::prelude::*;
use ns_graph::partition::Partition;
use ns_graph::rng::seeded_rng;
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

/// Advances once to size the scratch, then counts the next rounds.
fn steady_state_allocations(accountant: &mut StreamingAccountant, rounds: usize) -> usize {
    accountant.advance_round();
    allocations_during(|| {
        for _ in 0..rounds {
            accountant.advance_round();
        }
    })
}

#[test]
fn advance_round_allocates_nothing_after_its_first_call() {
    let g = ns_graph::generators::barabasi_albert(400, 3, &mut seeded_rng(7)).unwrap();
    let n = g.node_count();

    // The churn shape: 4 shards x 2 tracked origins under a masked
    // schedule, one fused 8-row block.
    let partition = Partition::new(&g, 4).unwrap();
    let schedule = OutageModel::MarkovOnOff {
        fail: 0.1,
        recover: 0.3,
    }
    .sample_schedule(n, 6, 11)
    .unwrap()
    .time_varying_model(&g, 0.0)
    .unwrap();
    let mut masked = StreamingAccountant::with_schedule(&g, &partition, schedule, 2).unwrap();
    assert_eq!(masked.tracked_count(), 8);
    assert_eq!(steady_state_allocations(&mut masked, 8), 0);

    // The monolithic shape: 1 shard x 1 tracked origin, static walk.
    let partition = Partition::new(&g, 1).unwrap();
    let mut single = StreamingAccountant::new(&g, &partition, 0.0, 1).unwrap();
    assert_eq!(single.tracked_count(), 1);
    assert_eq!(steady_state_allocations(&mut single, 8), 0);
}
