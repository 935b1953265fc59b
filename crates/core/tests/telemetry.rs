//! Solver instrumentation smoke test (runs with `--features telemetry`).
//!
//! All assertions live in one `#[test]` because the global registry is
//! process-wide.

#![cfg(feature = "telemetry")]

use nc_core::{MmooTandem, PathScheduler};
use nc_telemetry as tel;
use nc_traffic::Mmoo;

/// Observations of the timing `name`.
fn timed(snap: &tel::MetricSet, name: &str) -> u64 {
    match snap.get(name, &[]) {
        Some(tel::MetricValue::Histogram(h)) => h.count(),
        _ => 0,
    }
}

#[test]
fn delay_bound_records_counters_and_layer_timings() {
    tel::reset_global();
    let tandem = MmooTandem {
        source: Mmoo::paper_source(),
        n_through: 40,
        n_cross: 60,
        capacity: 20.0,
        hops: 2,
        scheduler: PathScheduler::Fifo,
    };
    let bound = tandem.delay_bound(1e-3).expect("stable tandem has a bound");
    assert!(bound.bound.delay > 0.0);

    let snap = tel::global_snapshot();
    let counter = |name: &str| snap.counter_value(name, &[]);
    assert!(counter("core_delay_bound_calls_total") > 0);
    assert!(counter("core_solver_calls_total") > 0);
    // Every solve evaluates d(X) at X = 0 and at most two kinks per node.
    let (calls, evals) = (counter("core_solver_calls_total"), counter("core_solver_evals_total"));
    assert!(calls <= evals && evals <= (2 * tandem.hops as u64 + 2) * calls, "{evals}/{calls}");
    assert!(counter("core_gamma_evals_total") > 0);
    assert!(counter("core_netbound_sigma_calls_total") == counter("core_gamma_evals_total"));
    assert!(counter("core_s_evals_total") > 0);
    // The solver is counted, never timed: no clock read per solve.
    assert!(snap.get("core_solver_seconds", &[]).is_none());
    // One s search, timed once; each γ search inside it, once each.
    assert_eq!(timed(&snap, "core_s_search_seconds"), 1);
    assert_eq!(timed(&snap, "core_delay_bound_seconds"), counter("core_delay_bound_calls_total"));
    assert_eq!(timed(&snap, "core_edf_fixed_point_seconds"), 0);
    assert_eq!(timed(&snap, "core_additive_seconds"), 0);

    // An EDF cell is one more s search, with a fixed point per s it
    // runs; the additive baseline has a timing of its own.
    tandem.edf_delay_bound_fixed_point(1e-3, 10.0).expect("stable tandem has an EDF bound");
    tandem.additive_bmux_delay(1e-3).expect("stable tandem has an additive bound");
    let snap = tel::global_snapshot();
    assert_eq!(timed(&snap, "core_s_search_seconds"), 2);
    assert!(timed(&snap, "core_edf_fixed_point_seconds") > 0);
    assert_eq!(timed(&snap, "core_additive_seconds"), 1);
}
