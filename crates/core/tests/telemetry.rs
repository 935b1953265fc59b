//! Solver instrumentation smoke test (runs with `--features telemetry`).
//!
//! All assertions live in one `#[test]` because the global registry and
//! span buffer are process-wide.

#![cfg(feature = "telemetry")]

use nc_core::{MmooTandem, PathScheduler};
use nc_telemetry as tel;
use nc_traffic::Mmoo;

#[test]
fn delay_bound_records_counters_timings_and_nested_spans() {
    tel::reset_global();
    tel::reset_spans();
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
    assert!(matches!(
        snap.get("core_delay_bound_seconds", &[]),
        Some(tel::MetricValue::Histogram(h)) if h.count() > 0
    ));

    // Span nesting: source_tandem.delay_bound ⊃ path.delay_bound ⊃ γ search.
    let spans = tel::spans_snapshot();
    let max_depth = |name: &str| spans.iter().filter(|s| s.name == name).map(|s| s.depth).max();
    assert_eq!(max_depth("core.source_tandem.delay_bound"), Some(0));
    assert_eq!(max_depth("core.path.delay_bound"), Some(1));
    assert_eq!(max_depth("core.path.gamma_grid"), Some(2));
    assert_eq!(max_depth("core.path.gamma_refine"), Some(2));
}
