//! Zero-dependency telemetry for the linksched workspace: mergeable
//! metrics, span profiling, and machine-readable run artifacts.
//!
//! The crate has **no external dependencies** (the build environment is
//! offline) and two operating modes selected at compile time by the
//! `enabled` cargo feature:
//!
//! * **enabled** — counters/gauges/histograms record into either a
//!   local [`MetricSet`] shard (hot paths, merged deterministically
//!   like `nc-sim`'s `DelayStats`) or the process-global registry
//!   ([`counter`], [`observe`], [`timer`]), which keeps one shard per
//!   thread so parallel workers never wait on each other; [`span`]
//!   guards append to a bounded trace buffer.
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
//! fn solve() -> f64 {
//!     let _span = tel::span("example.solve");
//!     let _timer = tel::timer("example_solve_seconds");
//!     tel::counter("example_solve_calls_total", 1);
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
mod spans;

pub use manifest::{git_describe, RunManifest};
pub use metrics::{
    Histogram, Labels, MetricKey, MetricSet, MetricValue, HIST_BUCKETS, HIST_MAX_EXP, HIST_MIN_EXP,
};
pub use spans::{
    dropped_spans, reset_spans, set_trace_capacity, span, spans_snapshot, SpanEvent, SpanGuard,
    DEFAULT_TRACE_CAPACITY,
};

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Whether the `enabled` feature was compiled in.
pub const ENABLED: bool = cfg!(feature = "enabled");

/// The process-global registry: one shard per recording thread, so a
/// record takes only its own thread's (uncontended) lock, plus the
/// merged shards of threads that have exited. Snapshots merge them.
struct Registry {
    retired: MetricSet,
    live: Vec<Arc<Mutex<MetricSet>>>,
}

static REGISTRY: Mutex<Registry> =
    Mutex::new(Registry { retired: MetricSet::new(), live: Vec::new() });

fn registry() -> MutexGuard<'static, Registry> {
    REGISTRY.lock().expect("metric registry poisoned")
}

fn lock(shard: &Mutex<MetricSet>) -> MutexGuard<'_, MetricSet> {
    shard.lock().expect("metric shard poisoned")
}

/// The calling thread's shard; folded into `retired` when it exits.
struct LocalShard(Arc<Mutex<MetricSet>>);

impl Drop for LocalShard {
    fn drop(&mut self) {
        let mut reg = registry();
        reg.retired.merge(&lock(&self.0));
        reg.live.retain(|s| !Arc::ptr_eq(s, &self.0));
    }
}

thread_local! {
    static LOCAL: LocalShard = {
        let shard = Arc::new(Mutex::new(MetricSet::new()));
        registry().live.push(Arc::clone(&shard));
        LocalShard(shard)
    };
}

/// Applies `f` to the calling thread's shard (to `retired` while the
/// thread is being torn down).
fn record(f: impl Fn(&mut MetricSet)) {
    if LOCAL.try_with(|l| f(&mut lock(&l.0))).is_err() {
        f(&mut registry().retired);
    }
}

/// Adds to an unlabelled counter in the process-global registry.
#[inline]
pub fn counter(name: &str, n: u64) {
    if !ENABLED {
        return;
    }
    record(|m| m.counter_add(name, &[], n));
}

/// Adds to a labelled counter in the process-global registry.
#[inline]
pub fn counter_labeled(name: &str, labels: &[(&str, &str)], n: u64) {
    if !ENABLED {
        return;
    }
    record(|m| m.counter_add(name, labels, n));
}

/// Sets a gauge in the process-global registry. Gauges set by
/// different threads merge to their maximum in snapshots.
#[inline]
pub fn gauge(name: &str, v: f64) {
    if !ENABLED {
        return;
    }
    record(|m| m.gauge_set(name, &[], v));
}

/// Records a histogram sample in the process-global registry.
#[inline]
pub fn observe(name: &str, v: f64) {
    if !ENABLED {
        return;
    }
    record(|m| m.observe(name, &[], v));
}

/// Merges a metric shard into the process-global registry.
pub fn merge_global(shard: &MetricSet) {
    if !ENABLED || shard.is_empty() {
        return;
    }
    record(|m| m.merge(shard));
}

/// A snapshot of the process-global registry: every thread's shard
/// merged. Counters are exact whichever threads recorded them.
pub fn global_snapshot() -> MetricSet {
    let reg = registry();
    let mut set = reg.retired.clone();
    reg.live.iter().for_each(|s| set.merge(&lock(s)));
    set
}

/// Clears the process-global registry (tests).
pub fn reset_global() {
    let mut reg = registry();
    reg.retired = MetricSet::new();
    reg.live.iter().for_each(|s| *lock(s) = MetricSet::new());
}

/// Starts a wall-time timer that records its elapsed seconds into the
/// named global histogram when dropped.
#[inline]
pub fn timer(name: &'static str) -> Timer {
    Timer { name, start: ENABLED.then(Instant::now) }
}

/// RAII guard produced by [`timer`].
#[must_use = "a timer measures the scope it is bound to; bind it to a named variable"]
pub struct Timer {
    name: &'static str,
    start: Option<Instant>,
}

impl Drop for Timer {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            observe(self.name, start.elapsed().as_secs_f64());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Global-registry tests share one process-wide registry; keep them
    // in a single #[test] to avoid cross-test interference.
    #[test]
    fn global_registry_accumulates_and_resets() {
        reset_global();
        counter("t_calls_total", 2);
        counter_labeled("t_calls_total", &[("kind", "x")], 1);
        gauge("t_gauge", 7.0);
        {
            let _t = timer("t_seconds");
        }
        let mut shard = MetricSet::new();
        shard.counter_add("t_calls_total", &[], 3);
        merge_global(&shard);
        let snap = global_snapshot();
        if ENABLED {
            assert_eq!(snap.counter_value("t_calls_total", &[]), 5);
            assert_eq!(snap.counter_value("t_calls_total", &[("kind", "x")]), 1);
            assert!(matches!(
                snap.get("t_seconds", &[]),
                Some(MetricValue::Histogram(h)) if h.count() == 1
            ));
        } else {
            assert!(snap.is_empty());
        }
        reset_global();
        assert!(global_snapshot().is_empty());

        // Per-thread shards: counts from live and exited threads add up.
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| (0..1000).for_each(|_| counter("t_threads_total", 1)));
            }
        });
        counter("t_threads_total", 5);
        assert_eq!(
            global_snapshot().counter_value("t_threads_total", &[]),
            4005 * u64::from(ENABLED)
        );
        reset_global();
        assert!(global_snapshot().is_empty());
    }
}
