//! The one worker loop behind every parallel grid in the workspace.
//!
//! Both kinds of independent cell the reproduction evaluates — Eq. (38)
//! analysis cells (`nc_scenario::SweepEngine`) and Monte Carlo
//! replications of the tandem ([`crate::MonteCarlo`]) — run through
//! [`run_indexed`]. It owns the determinism contract: workers claim
//! indices from an atomic counter (dynamic load balancing), results are
//! stored by index and returned in index order, so anything computed
//! from them is bitwise-identical for every thread count as long as
//! each job is deterministic in its index.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The worker count for `jobs` independent jobs: `threads`, or the
/// available parallelism when `threads` is `0`, clamped to
/// `[1, jobs]`.
pub fn effective_threads(threads: usize, jobs: usize) -> usize {
    let t = if threads == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        threads
    };
    t.min(jobs.max(1)).max(1)
}

/// Evaluates `job(0..jobs)` on [`effective_threads`]`(threads, jobs)`
/// scoped workers and returns the results in index order, plus the
/// seconds each worker spent inside `job`.
///
/// With one effective worker the jobs run inline on the calling thread
/// (no spawn, no locking) and its one busy entry is the loop's wall
/// time.
///
/// # Panics
///
/// A panicking job propagates to the caller (after the other workers
/// have drained the counter), exactly as in a serial loop.
///
/// ```
/// let (squares, busy) = nc_sim::run_indexed(4, 8, |i| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// assert_eq!(busy.len(), 4);
/// ```
pub fn run_indexed<T, F>(threads: usize, jobs: usize, job: F) -> (Vec<T>, Vec<f64>)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = effective_threads(threads, jobs);
    if workers <= 1 {
        let t0 = Instant::now();
        let out = (0..jobs).map(job).collect();
        return (out, vec![t0.elapsed().as_secs_f64()]);
    }
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<T>>> = Mutex::new((0..jobs).map(|_| None).collect());
    let busy: Mutex<Vec<f64>> = Mutex::new(vec![0.0; workers]);
    std::thread::scope(|scope| {
        let (job, next, results, busy) = (&job, &next, &results, &busy);
        for w in 0..workers {
            scope.spawn(move || {
                let mut my_busy = 0.0;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= jobs {
                        break;
                    }
                    let start = Instant::now();
                    let out = job(i);
                    my_busy += start.elapsed().as_secs_f64();
                    results.lock().expect("pool result mutex poisoned")[i] = Some(out);
                }
                busy.lock().expect("pool busy mutex poisoned")[w] = my_busy;
            });
        }
    });
    let results = results
        .into_inner()
        .expect("pool result mutex poisoned")
        .into_iter()
        .map(|r| r.expect("every claimed job stores a result"))
        .collect();
    (results, busy.into_inner().expect("pool busy mutex poisoned"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_index_order_for_any_thread_count() {
        let serial: Vec<usize> = (0..37).map(|i| i * 3 + 1).collect();
        for threads in [1, 2, 3, 8] {
            let (got, busy) = run_indexed(threads, 37, |i| i * 3 + 1);
            assert_eq!(got, serial, "threads = {threads}");
            assert_eq!(busy.len(), threads);
        }
    }

    #[test]
    fn empty_grid_is_fine() {
        let (got, busy): (Vec<u32>, _) = run_indexed(8, 0, |_| unreachable!());
        assert!(got.is_empty());
        assert_eq!(busy.len(), 1);
    }

    #[test]
    fn effective_threads_clamps() {
        assert_eq!(effective_threads(8, 3), 3);
        assert_eq!(effective_threads(2, 100), 2);
        assert!(effective_threads(0, 100) >= 1);
        assert_eq!(effective_threads(5, 0), 1);
    }

    #[test]
    fn panicking_job_propagates() {
        for threads in [1, 2] {
            let r = std::panic::catch_unwind(|| {
                run_indexed(threads, 4, |i| {
                    assert!(i != 2, "boom");
                    i
                })
            });
            assert!(r.is_err(), "threads = {threads}");
        }
    }
}
