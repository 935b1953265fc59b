//! Parallel Monte Carlo replication engine.
//!
//! Validating a probabilistic delay bound at violation level ε needs
//! on the order of `100/ε` independent delay samples; at the paper's
//! deeper tails a single sequential [`TandemSim`] run is wall-clock
//! bound. This module fans independent replications of a simulation
//! out across OS threads and merges their [`DelayStats`]:
//!
//! * per-replication seeds are derived from one **master seed** via
//!   the SplitMix64 sequence, so replication `i` always sees the same
//!   RNG stream no matter which thread runs it;
//! * replications run on [`crate::run_indexed`], the worker loop the
//!   analytical sweeps (`nc_scenario::SweepEngine`) also run on:
//!   workers claim replication indices from a shared counter (dynamic
//!   load balancing), but results come back **by index** and are
//!   merged in index order — the merged statistics are therefore
//!   bitwise-identical for any thread count, including 1;
//! * replications collect into bounded-memory streaming stats by
//!   default (see [`DelayStats::streaming_with_thresholds`]), so
//!   multi-million-slot runs do not hold every sample in memory.
//!
//! # Example
//!
//! ```
//! use nc_sim::{MonteCarlo, SchedulerKind, SimConfig};
//!
//! let cfg = SimConfig {
//!     capacity: 20.0,
//!     hops: 2,
//!     n_through: 10,
//!     n_cross: 20,
//!     scheduler: SchedulerKind::Fifo,
//!     warmup: 500,
//!     ..SimConfig::default()
//! };
//! let mc = MonteCarlo::new(4, 5_000, 42);
//! let mut report = mc.run(cfg).expect("no fault plan to mismatch");
//! assert_eq!(report.per_rep.len(), 4);
//! assert!(report.merged.len() > 10_000);
//! let (lo, hi) = report.quantile_spread(0.99).unwrap();
//! assert!(lo <= hi);
//! ```

use crate::error::Error;
use crate::faults::FaultPlan;
use crate::pool::run_indexed;
use crate::stats::DelayStats;
use crate::tandem::{SimConfig, TandemSim};
use nc_telemetry::{Histogram, MetricSet};
use rand::splitmix64;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

/// Default reservoir capacity per replication for streaming runs:
/// large enough that the merged reservoir still resolves the 10⁻³
/// quantile tail with a few percent relative rank error.
pub const DEFAULT_RESERVOIR: usize = 65_536;

/// A parallel replication plan: how many independent simulations to
/// run, for how long, from which master seed, on how many threads.
#[derive(Debug, Clone)]
pub struct MonteCarlo {
    /// Number of independent replications.
    pub reps: usize,
    /// Worker threads; `0` auto-detects from available parallelism.
    pub threads: usize,
    /// Master seed; per-replication seeds derive from it via SplitMix64.
    pub master_seed: u64,
    /// Simulated slots per replication.
    pub slots: u64,
    /// Live progress reporting on stderr: exact completed/total
    /// replication counts from the shared work counter, throughput,
    /// and an ETA (works with or without the `telemetry` feature).
    pub progress: bool,
    /// Collect per-replication simulator telemetry into
    /// [`MonteCarloReport::metrics`] (effective only with the
    /// `telemetry` feature compiled in).
    pub collect_metrics: bool,
    /// Optional fault plan injected into every replication's tandem
    /// (applies to [`MonteCarlo::replicate`], which constructs the
    /// simulators; custom jobs inject their own faults).
    pub faults: Option<FaultPlan>,
    /// Empty collector every replication (and the merge) starts from,
    /// via [`DelayStats::fresh`]: exact unless [`MonteCarlo::streaming`]
    /// was called.
    stats: DelayStats,
}

impl MonteCarlo {
    /// A plan with auto-detected thread count and exact statistics.
    ///
    /// # Panics
    ///
    /// Panics if `reps` is zero.
    pub fn new(reps: usize, slots: u64, master_seed: u64) -> Self {
        assert!(reps > 0, "MonteCarlo: need at least one replication");
        MonteCarlo {
            reps,
            threads: 0,
            master_seed,
            slots,
            progress: false,
            collect_metrics: false,
            faults: None,
            stats: DelayStats::new(),
        }
    }

    /// Attaches (or clears) a fault plan for the built-in tandem runs.
    pub fn faults(mut self, plan: Option<FaultPlan>) -> Self {
        self.faults = plan;
        self
    }

    /// Sets the worker thread count (`0` = auto).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Enables or disables live progress/ETA reporting on stderr.
    pub fn progress(mut self, on: bool) -> Self {
        self.progress = on;
        self
    }

    /// Enables or disables per-replication telemetry collection.
    pub fn collect_metrics(mut self, on: bool) -> Self {
        self.collect_metrics = on;
        self
    }

    /// Switches to bounded-memory streaming collection with the default
    /// reservoir and exact tracking of the given thresholds.
    pub fn streaming(mut self, thresholds: &[f64]) -> Self {
        self.stats = DelayStats::streaming_with_thresholds(DEFAULT_RESERVOIR, thresholds);
        self
    }

    /// The per-replication seeds: the first `reps` outputs of the
    /// SplitMix64 sequence started at the master seed.
    pub fn seeds(&self) -> Vec<u64> {
        let mut state = self.master_seed;
        (0..self.reps).map(|_| splitmix64(&mut state)).collect()
    }

    /// Runs the tandem simulation [`MonteCarlo::reps`] times and merges
    /// the per-replication delay statistics (and, with
    /// [`MonteCarlo::collect_metrics`], the per-replication simulator
    /// telemetry).
    ///
    /// Fails with [`Error::FaultConfig`] if the fault plan does not
    /// match `cfg.hops`; nothing else about the run can fail.
    pub fn run(&self, cfg: SimConfig) -> Result<MonteCarloReport, Error> {
        if let Some(plan) = &self.faults {
            plan.check_hops(cfg.hops)?;
        }
        let capacities = vec![cfg.capacity; cfg.hops];
        Ok(self.run_instrumented(|_, seed| {
            self.replicate(cfg, &capacities, seed).expect("fault plan validated against cfg.hops")
        }))
    }

    /// One replication of the tandem `cfg` with per-node `capacities`
    /// (`cfg.capacity` is ignored) under `seed`: builds the simulator
    /// with this plan's fault plan, collector and telemetry switch,
    /// runs [`MonteCarlo::slots`] slots, and returns the delay
    /// statistics with the telemetry shard (empty unless
    /// [`MonteCarlo::collect_metrics`]).
    ///
    /// # Errors
    ///
    /// Returns [`Error::FaultConfig`] when the fault plan does not fit
    /// `cfg.hops`.
    ///
    /// # Panics
    ///
    /// As for [`TandemSim::with_capacities_and_faults`].
    pub fn replicate(
        &self,
        cfg: SimConfig,
        capacities: &[f64],
        seed: u64,
    ) -> Result<(DelayStats, MetricSet), Error> {
        let mut sim =
            TandemSim::with_capacities_and_faults(cfg, capacities, self.faults.as_ref(), seed)?;
        sim.set_stats_collector(self.stats.fresh());
        if self.collect_metrics {
            sim.enable_telemetry();
        }
        let stats = sim.run(self.slots);
        let metrics = if self.collect_metrics { sim.metrics() } else { MetricSet::new() };
        Ok((stats, metrics))
    }

    /// Runs an arbitrary per-replication job `(rep index, seed) →
    /// (DelayStats, telemetry shard)` on the workspace's worker loop
    /// ([`crate::run_indexed`]) and merges the results in replication
    /// order.
    ///
    /// The merged statistics and metrics are bitwise-identical for
    /// every thread count; the job must itself be deterministic in
    /// `(index, seed)`. The engine adds its own `mc_*` series
    /// (replication timings, throughput, per-worker utilization) on
    /// top of the shards.
    ///
    /// A replication that panics does **not** abort the run: the
    /// panic is caught, the replication contributes an empty
    /// collector, and [`MonteCarloReport::panicked`] (plus the
    /// `mc_replications_panicked_total` counter) records the
    /// degradation.
    ///
    /// # Panics
    ///
    /// Panics (in streaming mode) if the job returns collectors with
    /// mismatched thresholds.
    pub fn run_instrumented<F>(&self, job: F) -> MonteCarloReport
    where
        F: Fn(usize, u64) -> (DelayStats, MetricSet) + Sync,
    {
        let t0 = Instant::now();
        let seeds = self.seeds();
        let done = AtomicUsize::new(0);
        let finished = AtomicBool::new(false);
        let (outcomes, busy) = std::thread::scope(|scope| {
            if self.progress {
                scope.spawn(|| self.report_progress(&done, &finished));
            }
            let out = run_indexed(self.threads, self.reps, |i| {
                let start = Instant::now();
                // Panic isolation: one poisoned replication degrades
                // the run (recorded below) instead of killing every
                // worker's progress.
                let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| job(i, seeds[i])));
                done.fetch_add(1, Ordering::Relaxed);
                (outcome.ok(), start.elapsed().as_secs_f64())
            });
            finished.store(true, Ordering::Release);
            out
        });
        let wall = t0.elapsed().as_secs_f64();
        let mut per_rep = Vec::with_capacity(self.reps);
        let mut metrics = MetricSet::new();
        let mut rep_seconds = Histogram::new();
        let mut panicked = 0usize;
        for (outcome, secs) in outcomes {
            let (stats, shard) = outcome.unwrap_or_else(|| {
                panicked += 1;
                (self.stats.fresh(), MetricSet::new())
            });
            // Replication order: merged metrics are deterministic in
            // structure regardless of which thread ran which rep.
            metrics.merge(&shard);
            rep_seconds.record(secs);
            per_rep.push(stats);
        }
        // Merge in replication order: determinism does not depend on
        // which thread finished first.
        let mut merged = self.stats.fresh();
        for s in &per_rep {
            merged.merge(s);
        }
        metrics.counter_add("mc_replications_total", &[], self.reps as u64);
        if panicked > 0 {
            metrics.counter_add("mc_replications_panicked_total", &[], panicked as u64);
        }
        metrics.gauge_set("mc_workers", &[], busy.len() as f64);
        metrics.gauge_set("mc_wall_seconds", &[], wall);
        metrics.histogram_merge("mc_replication_seconds", &[], &rep_seconds);
        if wall > 0.0 {
            metrics.gauge_set("mc_throughput_reps_per_second", &[], self.reps as f64 / wall);
        }
        for (w, b) in busy.iter().enumerate() {
            let idx = w.to_string();
            let labels: [(&str, &str); 1] = [("worker", idx.as_str())];
            metrics.gauge_set("mc_worker_busy_seconds", &labels, *b);
            if wall > 0.0 {
                metrics.gauge_set("mc_worker_utilization_ratio", &labels, *b / wall);
            }
        }
        MonteCarloReport { per_rep, merged, metrics, panicked }
    }

    /// Progress loop (runs on its own thread beside the workers):
    /// prints `completed/total` from the shared counter — exact even
    /// when `reps` is not a multiple of the worker count — plus
    /// throughput and ETA, every 200 ms until all replications finish
    /// (or the worker loop has returned).
    fn report_progress(&self, done: &AtomicUsize, finished: &AtomicBool) {
        use std::io::Write;
        let t0 = Instant::now();
        loop {
            std::thread::sleep(std::time::Duration::from_millis(200));
            let d = done.load(Ordering::Relaxed);
            let elapsed = t0.elapsed().as_secs_f64();
            let mut line = format!("\r[mc] {d}/{} reps", self.reps);
            if d > 0 && d < self.reps && elapsed > 0.0 {
                let rate = d as f64 / elapsed;
                let eta = (self.reps - d) as f64 / rate;
                line.push_str(&format!("  {rate:.2} reps/s  ETA {eta:.0}s"));
            }
            eprint!("{line}        ");
            let _ = std::io::stderr().flush();
            if d >= self.reps || finished.load(Ordering::Acquire) {
                break;
            }
        }
        let d = done.load(Ordering::Relaxed);
        let elapsed = t0.elapsed().as_secs_f64();
        eprintln!(
            "\r[mc] {d}/{} reps done in {elapsed:.1}s ({:.2} reps/s)        ",
            self.reps,
            d as f64 / elapsed.max(1e-9)
        );
    }
}

/// The outcome of a [`MonteCarlo`] run: the order-merged statistics
/// plus each replication's own, for across-replication dispersion.
#[derive(Debug, Clone)]
pub struct MonteCarloReport {
    /// Per-replication statistics, in replication order.
    pub per_rep: Vec<DelayStats>,
    /// All replications merged (in replication order).
    pub merged: DelayStats,
    /// Engine metrics (`mc_*`) plus, with
    /// [`MonteCarlo::collect_metrics`], the replication-order merge of
    /// every simulator telemetry shard (`sim_*`). Empty without the
    /// `telemetry` feature.
    pub metrics: MetricSet,
    /// Replications that panicked and contributed empty statistics:
    /// the run is degraded (also exported as the
    /// `mc_replications_panicked_total` counter).
    pub panicked: usize,
}

impl MonteCarloReport {
    /// The spread `(min, max)` of the per-replication `q`-quantiles —
    /// an across-replication confidence envelope for the merged
    /// quantile. `None` if every replication is empty.
    pub fn quantile_spread(&mut self, q: f64) -> Option<(f64, f64)> {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for rep in &mut self.per_rep {
            if let Some(v) = rep.quantile(q) {
                lo = lo.min(v);
                hi = hi.max(v);
            }
        }
        (lo <= hi).then_some((lo, hi))
    }

    /// The spread `(min, max)` of the per-replication empirical
    /// violation fractions `P(W > d)`. `None` if every replication is
    /// empty.
    pub fn violation_spread(&self, d: f64) -> Option<(f64, f64)> {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for rep in &self.per_rep {
            if rep.is_empty() {
                continue;
            }
            let v = rep.violation_fraction(d);
            lo = lo.min(v);
            hi = hi.max(v);
        }
        (lo <= hi).then_some((lo, hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::SchedulerKind;

    fn cfg() -> SimConfig {
        // ~90% utilized so delays are nonzero within a few thousand slots.
        SimConfig {
            capacity: 10.0,
            hops: 2,
            n_through: 10,
            n_cross: 50,
            scheduler: SchedulerKind::Fifo,
            warmup: 200,
            ..SimConfig::default()
        }
    }

    #[test]
    fn seeds_are_splitmix_and_stable() {
        let mc = MonteCarlo::new(3, 100, 1234567);
        let s = mc.seeds();
        assert_eq!(s.len(), 3);
        // Reference SplitMix64 outputs for seed 1234567.
        assert_eq!(s[0], 6457827717110365317);
        assert_eq!(s[1], 3203168211198807973);
        assert_eq!(s[2], 9817491932198370423);
        assert_eq!(s, MonteCarlo::new(3, 100, 1234567).seeds());
    }

    #[test]
    fn merged_equals_manual_merge_of_reps() {
        let mc = MonteCarlo::new(3, 2_000, 7).threads(2);
        let mut report = mc.run(cfg()).unwrap();
        let mut manual = DelayStats::new();
        for rep in &report.per_rep {
            manual.merge(rep);
        }
        assert_eq!(report.merged.len(), manual.len());
        assert_eq!(report.merged.mean(), manual.mean());
        assert_eq!(report.merged.quantile(0.9), manual.quantile(0.9));
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let run = |threads: usize| {
            let mc = MonteCarlo::new(6, 2_000, 99).threads(threads).streaming(&[5.0]);
            let mut r = mc.run(cfg()).unwrap();
            (
                r.merged.len(),
                r.merged.mean().unwrap().to_bits(),
                r.merged.variance().unwrap().to_bits(),
                r.merged.max().unwrap().to_bits(),
                r.merged.quantile(0.999).unwrap().to_bits(),
                r.merged.violation_fraction(5.0).to_bits(),
                r.merged.samples().to_vec(),
            )
        };
        let one = run(1);
        assert_eq!(one, run(2));
        assert_eq!(one, run(5));
    }

    #[test]
    fn different_master_seeds_differ() {
        let a = MonteCarlo::new(2, 2_000, 1).run(cfg()).unwrap();
        let b = MonteCarlo::new(2, 2_000, 2).run(cfg()).unwrap();
        assert_ne!(a.merged.mean(), b.merged.mean());
    }

    #[test]
    fn spreads_bracket_merged_point_estimates() {
        let mc = MonteCarlo::new(5, 4_000, 11);
        let mut report = mc.run(cfg()).unwrap();
        let q = 0.99;
        let (lo, hi) = report.quantile_spread(q).unwrap();
        let merged_q = report.merged.quantile(q).unwrap();
        assert!(lo <= merged_q && merged_q <= hi, "{lo} ≤ {merged_q} ≤ {hi}");
        let d = 3.0;
        let (vlo, vhi) = report.violation_spread(d).unwrap();
        let merged_v = report.merged.violation_fraction(d);
        assert!(vlo <= merged_v && merged_v <= vhi);
    }

    #[test]
    fn run_instrumented_custom_job() {
        let mc = MonteCarlo::new(4, 0, 5).threads(2);
        let report = mc.run_instrumented(|i, seed| {
            let mut s = DelayStats::new();
            s.record(i as f64);
            s.record((seed % 7) as f64);
            (s, MetricSet::new())
        });
        assert_eq!(report.merged.len(), 8);
        assert_eq!(report.per_rep[3].samples()[0], 3.0);
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn collect_metrics_merges_sim_shards_deterministically() {
        let run = |threads| {
            MonteCarlo::new(5, 2_000, 3).threads(threads).collect_metrics(true).run(cfg()).unwrap()
        };
        let a = run(1);
        let b = run(4);
        assert_eq!(a.metrics.counter_value("sim_slots_total", &[]), 5 * 2_000);
        assert_eq!(
            a.metrics.counter_value("sim_delay_samples_total", &[]),
            b.metrics.counter_value("sim_delay_samples_total", &[]),
            "sim metric merge must not depend on thread count"
        );
        assert_eq!(a.metrics.counter_value("mc_replications_total", &[]), 5);
        assert!(a.metrics.get("mc_replication_seconds", &[]).is_some());
        assert!(a.metrics.get("mc_worker_busy_seconds", &[("worker", "0")]).is_some());
    }

    #[test]
    fn progress_reporting_does_not_disturb_results() {
        let quiet = MonteCarlo::new(3, 1_000, 21).run(cfg()).unwrap();
        let chatty = MonteCarlo::new(3, 1_000, 21).progress(true).run(cfg()).unwrap();
        assert_eq!(quiet.merged.len(), chatty.merged.len());
        assert_eq!(quiet.merged.mean(), chatty.merged.mean());
    }

    fn fault_plan() -> FaultPlan {
        FaultPlan::uniform(vec![
            crate::faults::FaultModel::GilbertElliott {
                p_fail: 0.05,
                p_repair: 0.3,
                capacity_factor: 0.4,
            },
            crate::faults::FaultModel::Drop { prob: 0.01 },
        ])
        .unwrap()
    }

    #[test]
    fn panicking_replication_degrades_instead_of_aborting() {
        // One worker runs inline on the calling thread, two spawn.
        for threads in [1, 2] {
            let mc = MonteCarlo::new(4, 0, 5).threads(threads);
            let report = mc.run_instrumented(|i, _| {
                assert!(i != 2, "replication 2 poisons itself");
                let mut s = DelayStats::new();
                s.record(i as f64);
                (s, MetricSet::new())
            });
            assert_eq!(report.panicked, 1, "threads = {threads}");
            assert_eq!(report.per_rep[2].len(), 0);
            assert_eq!(report.merged.len(), 3);
        }
    }

    #[test]
    fn faulted_runs_are_thread_count_invariant() {
        let run = |threads: usize| {
            let mc = MonteCarlo::new(5, 2_000, 77)
                .threads(threads)
                .streaming(&[5.0])
                .faults(Some(fault_plan()));
            let mut r = mc.run(cfg()).unwrap();
            (
                r.merged.len(),
                r.merged.mean().unwrap().to_bits(),
                r.merged.quantile(0.99).unwrap().to_bits(),
                r.merged.violation_fraction(5.0).to_bits(),
            )
        };
        let one = run(1);
        assert_eq!(one, run(2));
        assert_eq!(one, run(8));
    }

    #[test]
    fn fault_plan_hops_mismatch_is_a_typed_error() {
        let plan = FaultPlan::per_node(vec![vec![], vec![], vec![]]).unwrap();
        let err = MonteCarlo::new(2, 100, 1).faults(Some(plan)).run(cfg()).unwrap_err();
        assert!(matches!(err, Error::FaultConfig(_)), "{err}");
    }
}
