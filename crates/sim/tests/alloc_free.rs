//! Proof of the "allocation-free hot path" claim: once queues and the
//! caller-owned departure buffer are warm, a steady-state
//! enqueue/serve slot performs **zero** heap allocations, for every
//! scheduling policy in both service modes; and a tandem's lanes, whose
//! nodes hand departures straight to the next node, allocate only when
//! a histogram or queue meets a new maximum.
//!
//! The counting allocator lives in this integration test (the library
//! itself is `#![forbid(unsafe_code)]`; an allocator shim cannot be).

use nc_sim::{Chunk, Lane, Node, NodePolicy, SchedulerKind, ServiceMode, SimConfig, TandemSim};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by the current thread. Per thread, because the
    /// test harness runs the tests below concurrently: a shared counter
    /// would charge one test's warm-up to the other's measured loop.
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
static COUNTER: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// One slot of work: a through and one or two cross chunks arrive,
/// then the node serves one slot's capacity into the reused buffer.
/// Arrivals average exactly the 8.5 capacity (7/9/9/9 bits over every
/// four slots), so the backlog oscillates periodically — chunks split
/// at the slot budget, queues stay non-empty, and nothing grows
/// without bound.
fn drive_slot(node: &mut Node, slot: u64, out: &mut Vec<Chunk>) {
    node.enqueue(Chunk { class: 0, bits: 3.0, entry: slot, node_arrival: slot });
    node.enqueue(Chunk { class: 1, bits: 4.0, entry: slot, node_arrival: slot });
    if !slot.is_multiple_of(4) {
        node.enqueue(Chunk { class: 1, bits: 2.0, entry: slot, node_arrival: slot });
    }
    out.clear();
    node.serve_slot(slot, out);
}

fn assert_steady_state_alloc_free(policy: NodePolicy, mode: ServiceMode, label: &str) {
    let mut node = Node::with_mode(8.5, policy, 2, mode);
    let mut out = Vec::new();
    // Warm-up: let the queues, the SCFQ tag deques, and the departure
    // buffer reach their (periodic) steady-state capacity.
    for slot in 0..1_024 {
        drive_slot(&mut node, slot, &mut out);
    }
    let before = allocations();
    for slot in 1_024..2_048 {
        drive_slot(&mut node, slot, &mut out);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "{label}: steady-state enqueue/serve loop allocated {} time(s)",
        after - before
    );
}

#[test]
fn fluid_serve_loop_is_allocation_free_for_every_policy() {
    for (policy, label) in [
        (NodePolicy::Delta(vec![0.0, 0.0]), "fifo"),
        (NodePolicy::Delta(vec![0.0, f64::INFINITY]), "sp"),
        (NodePolicy::Delta(vec![10.0, 40.0]), "edf"),
        (NodePolicy::Gps(vec![1.0, 1.0]), "gps"),
        (NodePolicy::Scfq(vec![1.0, 1.0]), "scfq"),
    ] {
        assert_steady_state_alloc_free(policy, ServiceMode::Fluid, label);
    }
}

#[test]
fn nonpreemptive_serve_loop_is_allocation_free_for_every_policy() {
    // Non-preemptive GPS (packetized WFQ) is rejected at construction;
    // SCFQ is its packet-mode stand-in.
    for (policy, label) in [
        (NodePolicy::Delta(vec![0.0, 0.0]), "fifo"),
        (NodePolicy::Delta(vec![0.0, f64::INFINITY]), "sp"),
        (NodePolicy::Delta(vec![10.0, 40.0]), "edf"),
        (NodePolicy::Scfq(vec![1.0, 1.0]), "scfq"),
    ] {
        assert_steady_state_alloc_free(policy, ServiceMode::NonPreemptive, label);
    }
}

/// `validate`'s five scheduler lanes on its H = 4 section (40 through
/// and 60 cross flows, C = 20), one arrival stream.
fn validate_lanes() -> Vec<Lane> {
    let base = SimConfig {
        capacity: 20.0,
        hops: 4,
        n_through: 40,
        n_cross: 60,
        warmup: 10_000,
        ..SimConfig::default()
    };
    [
        SchedulerKind::Fifo,
        SchedulerKind::Bmux,
        SchedulerKind::ThroughPriority,
        SchedulerKind::Edf { d_through: 10.0, d_cross: 40.0 },
        SchedulerKind::Gps { w_through: 1.0, w_cross: 1.0 },
    ]
    .into_iter()
    .map(|scheduler| Lane::new(SimConfig { scheduler, ..base }))
    .collect()
}

#[test]
fn tandem_lanes_allocate_only_to_grow() {
    const WARMUP: u64 = 20_000;
    const MEASURED: u64 = 50_000;
    let mut sim = TandemSim::with_lanes(&validate_lanes(), 7);
    for _ in 0..WARMUP {
        sim.step();
    }
    let before = allocations();
    for _ in 0..MEASURED {
        sim.step();
    }
    let allocated = allocations() - before;
    // Past the warm-up, a slot allocates only when a lane's delay
    // histogram, outstanding-emission queue or a node queue meets a new
    // maximum: a handful of times in 50 000 slots, where a sink that
    // allocated per slot would count at least 50 000.
    assert!(
        allocated <= 64,
        "{allocated} allocation(s) in {MEASURED} steady-state slots of five lanes"
    );
    assert!(sim.lanes().iter().all(|lane| !lane.stats().is_empty()), "every lane measured");
}
