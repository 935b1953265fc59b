//! Zero-dependency telemetry for the linksched workspace: mergeable
//! metrics, span profiling, and machine-readable run artifacts.
//!
//! The crate has **no external dependencies** (the build environment is
//! offline) and two operating modes selected at compile time by the
//! `enabled` cargo feature:
//!
//! * **enabled** — hot paths record through static handles
//!   ([`Counter`], [`Timing`]) into the calling thread's slot array of
//!   the process-global registry, with no lock and no allocation;
//!   [`counter`] with a run-time name and [`merge_global`] take the
//!   thread's keyed map instead. Code that owns its data records into a
//!   local [`MetricSet`] shard, merged deterministically like `nc-sim`'s
//!   `DelayStats`. [`span`] guards append to a bounded trace buffer.
//! * **disabled** (default) — every recording call is an inlineable
//!   no-op with no clock reads, locks, or allocation; the exporters and
//!   [`RunManifest`] still work (they emit empty metric sections), so
//!   downstream code needs no `cfg` of its own.
//!
//! Consumer crates expose their own `telemetry` feature forwarding to
//! `nc-telemetry/enabled`; because cargo unifies features, enabling it
//! anywhere in a build instruments the whole graph.
//!
//! # Determinism contract
//!
//! Instrumentation must never influence simulation results: recording
//! reads no RNG state and metric shards merge in replication order, so
//! an instrumented Monte Carlo run returns bitwise-identical
//! `DelayStats` to an uninstrumented one (covered by tests in
//! `nc-sim`).
//!
//! # Example
//!
//! ```
//! use nc_telemetry as tel;
//!
//! static SOLVE_CALLS: tel::Counter = tel::Counter::new("example_solve_calls_total");
//! static SOLVE_SECONDS: tel::Timing = tel::Timing::new("example_solve_seconds");
//!
//! fn solve() -> f64 {
//!     let _span = tel::span("example.solve");
//!     let _timer = SOLVE_SECONDS.start();
//!     SOLVE_CALLS.add(1);
//!     42.0
//! }
//!
//! solve();
//! let snapshot = tel::global_snapshot();
//! let text = tel::export::prometheus(&snapshot);
//! if tel::ENABLED {
//!     assert!(text.contains("example_solve_calls_total 1"));
//! } else {
//!     assert!(text.is_empty());
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod export;
pub mod json;
mod manifest;
mod metrics;
mod registry;
mod spans;

pub use manifest::{git_describe, RunManifest};
pub use metrics::{
    Histogram, Labels, MetricKey, MetricSet, MetricValue, HIST_BUCKETS, HIST_MAX_EXP, HIST_MIN_EXP,
};
pub use registry::{
    counter, global_snapshot, merge_global, reset_global, Counter, Timing, TimingGuard,
};
pub use spans::{
    dropped_spans, reset_spans, set_trace_capacity, span, spans_snapshot, SpanEvent, SpanGuard,
    DEFAULT_TRACE_CAPACITY,
};

/// Whether the `enabled` feature was compiled in.
pub const ENABLED: bool = cfg!(feature = "enabled");
