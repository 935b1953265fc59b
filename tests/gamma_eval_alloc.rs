//! A γ-evaluation allocates nothing: `TandemPath::delay_bound` makes the
//! same small number of allocations at H = 2 and at H = 30, however many
//! γ-evaluations its search runs. Its buffers are allocated once per
//! search, and the `θ_h` only for the winning γ.
//!
//! The counting allocator lives in this integration test (the library
//! itself is `#![forbid(unsafe_code)]`; an allocator shim cannot be).

use linksched::core::{PathScheduler, TandemPath};
use linksched::traffic::Mmoo;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by the current thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with`: the slot is gone during thread teardown.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

struct Counting;

// SAFETY: delegates directly to the system allocator; the counter is a
// const-initialized thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// γ-evaluations of one search: a 27-point grid and 3 × 17 refinement
/// points, all inside (0, γ_max).
const GAMMA_EVALS: u64 = 27 + 3 * 17;

/// Allocations and γ-evaluations of one `delay_bound` call on a fig4-like
/// path of `hops` nodes, after a warm-up call.
fn one_search(hops: usize, scheduler: PathScheduler) -> (u64, u64) {
    let src = Mmoo::paper_source();
    let path = TandemPath::new(100.0, hops, src.ebb(0.02, 100), src.ebb(0.02, 200), scheduler);
    // Warm-up: registers the telemetry handles on this thread.
    path.delay_bound(1e-9).expect("stable path");
    let evals_before = gamma_evals();
    let before = allocations();
    let bound = path.delay_bound(1e-9).expect("stable path");
    let allocated = allocations() - before;
    assert_eq!(bound.thetas.len(), hops);
    (allocated, gamma_evals() - evals_before)
}

fn gamma_evals() -> u64 {
    nc_telemetry::global_snapshot().counter_value("core_gamma_evals_total", &[])
}

#[test]
fn delay_bound_allocations_do_not_grow_with_the_path() {
    for scheduler in [PathScheduler::Fifo, PathScheduler::Delta(-3.0), PathScheduler::Bmux] {
        let (short, short_evals) = one_search(2, scheduler);
        let (long, long_evals) = one_search(30, scheduler);
        if nc_telemetry::ENABLED {
            assert_eq!((short_evals, long_evals), (GAMMA_EVALS, GAMMA_EVALS));
        }
        assert_eq!(short, long, "{scheduler:?}: H = 2 allocates {short}, H = 30 {long}");
        assert!(short <= 4, "{scheduler:?}: {short} allocations per search");
    }
}
