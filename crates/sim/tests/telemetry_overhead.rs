//! Guardrail: telemetry must stay measurably cheap. On the simulator
//! smoke workload, enabling metric collection at runtime may cost at
//! most 5% over the same instrumented build with collection left off
//! (plus a small absolute allowance so a sub-millisecond jitter cannot
//! fail CI).
//!
//! The runs are interleaved and the minimum over several trials is
//! compared — the minimum is the standard low-noise wall-clock
//! estimator on shared machines. The compile-time-erasure half of the
//! guarantee (feature off ⇒ every recording call is a no-op) is covered
//! by CI's cross-feature stdout diff of `linksched run` and its
//! `--no-default-features` run of `tests/scenario_cli.rs`.
//!
//! Run with `cargo test -p nc-sim --features telemetry --release --test
//! telemetry_overhead`; without the feature, and in unoptimized builds
//! (where a wall-clock ratio with a 5 ms allowance is noise, not a
//! measurement), this file compiles to no tests.

#![cfg(all(feature = "telemetry", not(debug_assertions)))]

use nc_sim::{SchedulerKind, SimConfig, TandemSim};
use std::time::{Duration, Instant};

fn smoke_cfg() -> SimConfig {
    SimConfig {
        capacity: 20.0,
        hops: 2,
        n_through: 40,
        n_cross: 60,
        scheduler: SchedulerKind::Fifo,
        warmup: 0,
        ..SimConfig::default()
    }
}

fn run_once(slots: u64, telemetry: bool) -> Duration {
    let mut sim = TandemSim::new(smoke_cfg(), 7);
    if telemetry {
        sim.enable_telemetry();
    }
    let t0 = Instant::now();
    std::hint::black_box(sim.run(slots));
    t0.elapsed()
}

#[test]
fn enabled_telemetry_overhead_stays_under_five_percent() {
    let slots = 50_000u64;
    let trials = 5;
    // Warm both paths (page-in, allocator) before timing.
    run_once(2_000, false);
    run_once(2_000, true);
    let mut best_off = Duration::MAX;
    let mut best_on = Duration::MAX;
    for _ in 0..trials {
        best_off = best_off.min(run_once(slots, false));
        best_on = best_on.min(run_once(slots, true));
    }
    let limit = best_off.mul_f64(1.05) + Duration::from_millis(5);
    assert!(
        best_on <= limit,
        "telemetry overhead too high: {best_on:?} enabled vs {best_off:?} disabled \
         (limit {limit:?})"
    );
}
