//! Recording through static handles allocates nothing once the calling
//! thread has recorded its first event, and loses no event.
//!
//! A counting global allocator tallies the bytes each thread allocates;
//! the test compares its own thread's tally around 100 000 records.

use nc_telemetry::{global_snapshot, reset_global, Counter, MetricValue, Timing, ENABLED};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call forwards to the system allocator unchanged; the
// tally is a const-initialised thread-local without a destructor, so
// updating it never allocates or recurses.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATED.try_with(|a| a.set(a.get() + layout.size() as u64));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

static EVENTS: Counter = Counter::new("alloc_test_events_total");
static LABELED: Counter = Counter::labeled("alloc_test_events_total", &[("kind", "x")]);
static SAMPLES: Timing = Timing::new("alloc_test_samples");
static SECONDS: Timing = Timing::new("alloc_test_seconds");

fn allocated() -> u64 {
    ALLOCATED.with(Cell::get)
}

#[test]
fn handle_records_allocate_nothing_after_first_touch() {
    reset_global();
    // First touch: registers each handle and creates this thread's shard.
    EVENTS.add(1);
    LABELED.add(1);
    SAMPLES.observe(1.0);
    drop(SECONDS.start());

    const N: u64 = 100_000;
    let before = allocated();
    for i in 0..N {
        EVENTS.add(1);
        LABELED.add(2);
        SAMPLES.observe(i as f64);
    }
    for _ in 0..1000 {
        drop(SECONDS.start());
    }
    assert_eq!(allocated() - before, 0, "recording through handles allocated");

    let snap = global_snapshot();
    let on = u64::from(ENABLED);
    assert_eq!(snap.counter_value("alloc_test_events_total", &[]), (N + 1) * on);
    assert_eq!(snap.counter_value("alloc_test_events_total", &[("kind", "x")]), (2 * N + 1) * on);
    let count = |name: &str| match snap.get(name, &[]) {
        Some(MetricValue::Histogram(h)) => h.count(),
        _ => 0,
    };
    assert_eq!(count("alloc_test_samples"), (N + 1) * on);
    assert_eq!(count("alloc_test_seconds"), 1001 * on);
}
