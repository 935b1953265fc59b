//! Min-plus op instrumentation smoke test (runs with
//! `--features telemetry`). One `#[test]`: the registry is process-wide.

#![cfg(feature = "telemetry")]

use nc_minplus::Curve;
use nc_telemetry as tel;

#[test]
fn convolution_records_count_and_timing() {
    tel::reset_global();
    let tb = Curve::token_bucket(1.0, 5.0);
    let rl = Curve::rate_latency(4.0, 2.0);
    let _ = tb.convolve(&rl); // segment merge
    let _ = rl.convolve(&rl); // convex pair
    let _ = Curve::delta(0.0).convolve(&rl); // shift

    let snap = tel::global_snapshot();
    // Every route counts once per call.
    assert_eq!(snap.counter_value("minplus_convolution_total", &[]), 3);
    assert!(
        matches!(
            snap.get("minplus_convolution_seconds", &[]),
            Some(tel::MetricValue::Histogram(h)) if h.count() == 3
        ),
        "missing timing histogram minplus_convolution_seconds"
    );
}
