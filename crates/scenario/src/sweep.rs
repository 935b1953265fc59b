//! Deterministic parallel execution of analytical grid points.
//!
//! The figure experiments evaluate a grid of independent Eq. (38)
//! instances — hop count × utilization × scheduler — and each cell is
//! pure CPU with no shared mutable state. [`SweepEngine`] runs those
//! cells through `nc_sim::run_indexed`, the worker loop the Monte Carlo
//! engine (`nc_sim::MonteCarlo`) also runs on: cells are claimed from
//! an atomic counter and returned in index order, so the output is
//! bitwise-identical for every thread count.
//!
//! Per-worker utilization is reported through `nc-telemetry`
//! (`sweep_workers`, `sweep_wall_seconds`, `sweep_worker_busy_seconds`,
//! `sweep_worker_utilization_ratio`, `sweep_cells_total`); the Monte
//! Carlo engine reports the same loop as its `mc_*` series.

use nc_telemetry as tel;
use nc_telemetry::MetricSet;
use std::time::Instant;

static CELLS: tel::Counter = tel::Counter::new("sweep_cells_total");

/// Fans independent analytical cells across scoped threads with
/// deterministic, index-ordered results.
///
/// ```
/// use nc_scenario::SweepEngine;
///
/// let squares = SweepEngine::new(4).run(8, |i| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// ```
#[derive(Debug, Clone)]
pub struct SweepEngine {
    threads: usize,
}

impl SweepEngine {
    /// An engine using `threads` workers (`0` = one per available
    /// core).
    pub fn new(threads: usize) -> Self {
        SweepEngine { threads }
    }

    /// Evaluates `cell(0..cells)` and returns the results in index
    /// order.
    ///
    /// `cell` must be deterministic in its index; under that contract
    /// the returned vector — and anything printed from it — is
    /// bitwise-identical for every thread count. With one effective
    /// worker the cells run inline on the calling thread.
    ///
    /// # Panics
    ///
    /// A panicking cell propagates to the caller, exactly as in a
    /// serial loop.
    pub fn run<T, F>(&self, cells: usize, cell: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        CELLS.add(cells as u64);
        let t0 = Instant::now();
        let (out, busy) = nc_sim::run_indexed(self.threads, cells, cell);
        report(t0.elapsed().as_secs_f64(), &busy);
        out
    }
}

/// Publishes the engine's utilization series to the global telemetry
/// sink (a no-op without the `enabled` feature). An inline run (one
/// worker) reports no per-worker series.
fn report(wall: f64, busy: &[f64]) {
    let mut metrics = MetricSet::new();
    metrics.gauge_set("sweep_workers", &[], busy.len() as f64);
    metrics.gauge_set("sweep_wall_seconds", &[], wall);
    if busy.len() > 1 {
        for (w, b) in busy.iter().enumerate() {
            let idx = w.to_string();
            let labels: [(&str, &str); 1] = [("worker", idx.as_str())];
            metrics.gauge_set("sweep_worker_busy_seconds", &labels, *b);
            if wall > 0.0 {
                metrics.gauge_set("sweep_worker_utilization_ratio", &labels, *b / wall);
            }
        }
    }
    tel::merge_global(&metrics);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_index_order_for_any_thread_count() {
        let serial: Vec<usize> = (0..37).map(|i| i * 3 + 1).collect();
        for threads in [1, 2, 3, 8] {
            let got = SweepEngine::new(threads).run(37, |i| i * 3 + 1);
            assert_eq!(got, serial, "threads = {threads}");
        }
    }

    #[test]
    fn panicking_cell_propagates() {
        let r = std::panic::catch_unwind(|| {
            SweepEngine::new(2).run(4, |i| {
                if i == 2 {
                    panic!("boom");
                }
                i
            })
        });
        assert!(r.is_err());
    }
}
