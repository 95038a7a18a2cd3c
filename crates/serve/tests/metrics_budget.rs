//! The request-path metrics contract: `MetricsRegistry::record` is a handful
//! of relaxed atomic RMWs — allocation-free and well under 2 µs per call.
//!
//! This binary installs a counting global allocator, so it lives apart from
//! the other serve suites. The counter is thread-local: allocations made by
//! the test harness or by other test threads are not charged to the loop
//! under measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::{Duration, Instant};

use morer_serve::{Endpoint, MetricsRegistry};

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// const-initialised thread-local `Cell`, which itself never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
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
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn metrics_record_is_allocation_free_and_within_budget() {
    const RECORDS: u32 = 100_000;
    const BUDGET_NS: f64 = 2_000.0;

    // no warm-up: the very first record must not allocate either
    let registry = MetricsRegistry::default();
    let before = allocations();
    let start = Instant::now();
    for i in 0..RECORDS {
        let status = [200, 404, 500][(i % 3) as usize];
        registry.record(Endpoint::Solve, Duration::from_micros(u64::from(i & 1023)), status);
    }
    let per_record_ns = start.elapsed().as_nanos() as f64 / f64::from(RECORDS);
    let allocated = allocations() - before;

    assert_eq!(allocated, 0, "metrics record path allocated {allocated} times");
    assert!(
        per_record_ns < BUDGET_NS,
        "metrics record path regressed: {per_record_ns:.0} ns per record (budget {BUDGET_NS} ns)"
    );
}
