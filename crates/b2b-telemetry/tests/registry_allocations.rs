//! The registry's hot path allocates nothing: once a counter or histogram
//! exists, `add`, `inc` and `observe` on its name touch no heap. Runs as
//! its own binary so its counting allocator sees only this test.

use b2b_telemetry::MetricsRegistry;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn add_and_observe_on_an_existing_name_do_not_allocate() {
    let registry = MetricsRegistry::new();
    registry.add("rounds", 1);
    registry.observe("round_latency_ms", 3);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for i in 0..1_000u64 {
        registry.add("rounds", 1);
        registry.inc("rounds");
        registry.observe("round_latency_ms", i);
    }
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(allocations, 0, "the hot path allocated {allocations} times");
    assert_eq!(registry.counter("rounds"), 2_001);
    let snap = registry.snapshot();
    assert_eq!(snap.histogram("round_latency_ms").unwrap().count, 1_001);
}
