//! Deterministic parallel execution of analytical grid points.
//!
//! The figure experiments evaluate a grid of independent Eq. (38)
//! instances — hop count × utilization × scheduler — and each cell is
//! pure CPU with no shared mutable state.
//! [`SweepEngine`] fans those cells across scoped worker threads with
//! the same determinism contract as the Monte Carlo engine
//! (`nc_sim::MonteCarlo`): cells are claimed from an atomic counter,
//! results are stored by cell index, and the caller consumes them in
//! index order — so the output is bitwise-identical for every thread
//! count.
//!
//! Per-worker utilization is reported through `nc-telemetry`
//! (`sweep_workers`, `sweep_wall_seconds`, `sweep_worker_busy_seconds`,
//! `sweep_worker_utilization_ratio`, `sweep_cells_total`), mirroring
//! the `mc_*` series of the simulation side.

use nc_telemetry as tel;
use nc_telemetry::MetricSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

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

    /// The worker count actually used for `cells` grid points: the
    /// configured count, defaulted to the available parallelism,
    /// clamped to `[1, cells]`.
    pub fn effective_threads(&self, cells: usize) -> usize {
        let t = if self.threads == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            self.threads
        };
        t.min(cells.max(1)).max(1)
    }

    /// Evaluates `cell(0..cells)` and returns the results in index
    /// order.
    ///
    /// `cell` must be deterministic in its index; under that contract
    /// the returned vector — and anything printed from it — is
    /// bitwise-identical for every thread count. With one effective
    /// worker the cells run inline on the calling thread (no spawn,
    /// no locking).
    ///
    /// # Panics
    ///
    /// A panicking cell propagates to the caller (after the remaining
    /// workers finish their current cell), exactly as in a serial loop.
    pub fn run<T, F>(&self, cells: usize, cell: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let workers = self.effective_threads(cells);
        tel::counter("sweep_cells_total", cells as u64);
        let t0 = Instant::now();
        if workers <= 1 {
            let out: Vec<T> = (0..cells).map(cell).collect();
            self.report(1, t0.elapsed().as_secs_f64(), None);
            return out;
        }
        let next = AtomicUsize::new(0);
        let results: Mutex<Vec<Option<T>>> = Mutex::new((0..cells).map(|_| None).collect());
        let busy: Mutex<Vec<f64>> = Mutex::new(vec![0.0; workers]);
        std::thread::scope(|scope| {
            let cell = &cell;
            let (next, results, busy) = (&next, &results, &busy);
            for w in 0..workers {
                scope.spawn(move || {
                    let mut my_busy = 0.0;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= cells {
                            break;
                        }
                        let start = Instant::now();
                        let out = cell(i);
                        my_busy += start.elapsed().as_secs_f64();
                        results.lock().expect("sweep result mutex poisoned")[i] = Some(out);
                    }
                    busy.lock().expect("sweep busy mutex poisoned")[w] = my_busy;
                });
            }
        });
        let wall = t0.elapsed().as_secs_f64();
        let busy = busy.into_inner().expect("sweep busy mutex poisoned");
        self.report(workers, wall, Some(&busy));
        results
            .into_inner()
            .expect("sweep result mutex poisoned")
            .into_iter()
            .map(|r| r.expect("every claimed cell stores a result"))
            .collect()
    }

    /// Publishes the engine's utilization series to the global
    /// telemetry sink (a no-op without the `enabled` feature).
    fn report(&self, workers: usize, wall: f64, busy: Option<&[f64]>) {
        let mut metrics = MetricSet::new();
        metrics.gauge_set("sweep_workers", &[], workers as f64);
        metrics.gauge_set("sweep_wall_seconds", &[], wall);
        if let Some(busy) = busy {
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
    fn empty_grid_is_fine() {
        let got: Vec<u32> = SweepEngine::new(8).run(0, |_| unreachable!());
        assert!(got.is_empty());
    }

    #[test]
    fn effective_threads_clamps() {
        assert_eq!(SweepEngine::new(8).effective_threads(3), 3);
        assert_eq!(SweepEngine::new(2).effective_threads(100), 2);
        assert!(SweepEngine::new(0).effective_threads(100) >= 1);
        assert_eq!(SweepEngine::new(5).effective_threads(0), 1);
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
