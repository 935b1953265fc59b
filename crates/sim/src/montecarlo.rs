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
//! * a replication simulates every [`Lane`] of the run on one arrival
//!   stream, so each lane's statistics are those of a one-lane run of
//!   that lane under the same seeds;
//! * replications run on [`crate::run_indexed`], the worker loop the
//!   analytical sweeps (`nc_scenario::SweepEngine`) also run on:
//!   workers claim replication indices from a shared counter (dynamic
//!   load balancing), but results come back **by index** and are
//!   merged in index order — the merged statistics are therefore
//!   bitwise-identical for any thread count, including 1;
//! * a lane's statistics are an exact histogram of whole-slot delays
//!   ([`DelayStats`]), one counter per slot up to the largest delay, so
//!   a multi-million-slot run keeps every replication's statistics at
//!   little memory cost, and merging them is adding counts.
//!
//! # Example
//!
//! ```
//! use nc_sim::{Lane, MonteCarlo, SchedulerKind, SimConfig};
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
//! let bmux = SimConfig { scheduler: SchedulerKind::Bmux, ..cfg };
//! let mc = MonteCarlo::new(4, 5_000, 42);
//! let reports = mc.run(&[Lane::new(cfg), Lane::new(bmux)]).expect("no replication panics");
//! let fifo = &reports[0];
//! assert_eq!(fifo.per_rep.len(), 4);
//! assert!(fifo.merged.len() > 10_000);
//! let (lo, hi) = fifo.quantile_spread(0.99).unwrap();
//! assert!(lo <= hi);
//! // The same arrivals: BMUX delays the through traffic at least as much.
//! assert!(reports[1].merged.mean() >= reports[0].merged.mean());
//! ```

use crate::error::Error;
use crate::pool::run_indexed;
use crate::stats::DelayStats;
use crate::tandem::{Lane, TandemSim};
use nc_telemetry::{Histogram, MetricSet};
use rand::splitmix64;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// One replication's outcome: each lane's statistics and telemetry
/// shard in lane order, or the lanes that panicked, in ascending order.
type Replication = Result<Vec<(DelayStats, MetricSet)>, Vec<usize>>;

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
}

impl MonteCarlo {
    /// A plan with auto-detected thread count.
    ///
    /// # Panics
    ///
    /// Panics if `reps` is zero.
    pub fn new(reps: usize, slots: u64, master_seed: u64) -> Self {
        assert!(reps > 0, "MonteCarlo: need at least one replication");
        MonteCarlo { reps, threads: 0, master_seed, slots, progress: false }
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

    /// The per-replication seeds: the first `reps` outputs of the
    /// SplitMix64 sequence started at the master seed.
    pub fn seeds(&self) -> Vec<u64> {
        let mut state = self.master_seed;
        (0..self.reps).map(|_| splitmix64(&mut state)).collect()
    }

    /// Runs [`MonteCarlo::reps`] replications of a tandem simulation
    /// with the given lanes and returns one report per lane, in lane
    /// order. Replication `i` simulates every lane on the arrival
    /// stream of the `i`-th seed ([`TandemSim::with_lanes`]); each
    /// lane's per-replication statistics and counters
    /// ([`LaneSim::metrics`](crate::LaneSim::metrics)) are merged in replication order. A lane's report is therefore the
    /// one a run of that lane alone would give; a one-lane run is a
    /// list of one.
    ///
    /// Every lane's report counts its own `mc_replications_total`. The
    /// engine's other `mc_*` series describe the run as a whole
    /// (replication timings, throughput, per-worker utilization) and
    /// are carried by the first lane's report only, so that merging
    /// every report counts each replication's time once.
    ///
    /// # Errors
    ///
    /// A replication that panics does not abort the others: the panic
    /// is caught, every remaining replication still runs, and then the
    /// run fails with [`Error::ReplicationsPanicked`] instead of
    /// reporting statistics from fewer replications than planned. The
    /// error names the lowest-index lane that panicked and counts the
    /// replications that lane panicked in: the count a run of that lane
    /// alone would give, because a replication in which one lane panics
    /// is simulated again without that lane.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is empty. Lanes that [`TandemSim::with_lanes`]
    /// rejects with a panic (mismatched arrival streams, capacities
    /// that do not cover the path, packetized GPS) panic in every
    /// replication and so fail the run as above.
    pub fn run(&self, lanes: &[Lane]) -> Result<Vec<MonteCarloReport>, Error> {
        assert!(!lanes.is_empty(), "MonteCarlo: need at least one lane");
        self.run_with(lanes.len(), |seed| self.replicate(lanes, seed))
    }

    /// [`MonteCarlo::run`] of `lanes` lanes, with the replication body
    /// (`seed` → [`Replication`]) as a parameter.
    fn run_with(
        &self,
        lanes: usize,
        replicate: impl Fn(u64) -> Replication + Sync,
    ) -> Result<Vec<MonteCarloReport>, Error> {
        let t0 = Instant::now();
        let seeds = self.seeds();
        let done = AtomicUsize::new(0);
        let finished = AtomicBool::new(false);
        let (outcomes, busy) = std::thread::scope(|scope| {
            let progress =
                self.progress.then(|| scope.spawn(|| self.report_progress(&done, &finished)));
            let out = run_indexed(self.threads, self.reps, |i| {
                let start = Instant::now();
                let outcome = replicate(seeds[i]);
                done.fetch_add(1, Ordering::Relaxed);
                (outcome, start.elapsed().as_secs_f64())
            });
            finished.store(true, Ordering::Release);
            // Wake the progress loop now rather than at its next tick,
            // which the scope would otherwise wait for.
            if let Some(handle) = progress {
                handle.thread().unpark();
            }
            out
        });
        let wall = t0.elapsed().as_secs_f64();
        let (mut reports, rep_seconds) = self.fold(lanes, outcomes)?;
        let metrics = &mut reports[0].metrics;
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
        Ok(reports)
    }

    /// Folds the replications' outcomes and run times, in replication
    /// order, into one report per lane (statistics, merged statistics,
    /// telemetry shards and `mc_replications_total`) and the histogram
    /// of replication times. If any replication panicked, fails with
    /// the lowest-index lane that panicked and the number of
    /// replications it panicked in.
    fn fold(
        &self,
        lanes: usize,
        outcomes: Vec<(Replication, f64)>,
    ) -> Result<(Vec<MonteCarloReport>, Histogram), Error> {
        let mut reports: Vec<MonteCarloReport> = (0..lanes)
            .map(|_| MonteCarloReport {
                per_rep: Vec::with_capacity(self.reps),
                merged: DelayStats::new(),
                metrics: MetricSet::new(),
            })
            .collect();
        let mut rep_seconds = Histogram::new();
        let mut panicked = vec![0; lanes];
        for (outcome, secs) in outcomes {
            // Replication order: merged metrics are deterministic in
            // structure regardless of which thread ran which rep.
            match outcome {
                Ok(results) => {
                    for (report, (stats, shard)) in reports.iter_mut().zip(results) {
                        report.metrics.merge(&shard);
                        report.per_rep.push(stats);
                    }
                }
                Err(lanes) => {
                    for lane in lanes {
                        panicked[lane] += 1;
                    }
                }
            }
            rep_seconds.record(secs);
        }
        if let Some(lane) = panicked.iter().position(|&n| n > 0) {
            return Err(Error::ReplicationsPanicked {
                panicked: panicked[lane],
                reps: self.reps,
                lane,
            });
        }
        for report in &mut reports {
            // Merge in replication order: determinism does not depend
            // on which thread finished first.
            for s in &report.per_rep {
                report.merged.merge(s);
            }
            report.metrics.counter_add("mc_replications_total", &[], self.reps as u64);
        }
        Ok((reports, rep_seconds))
    }

    /// One replication: every lane on the arrival stream of `seed`.
    /// A panic is caught (panic isolation: one poisoned replication
    /// fails the run without stopping the others). A lane that panics
    /// stops the lanes after it too, so the replication is simulated
    /// again without it until the rest finish: lanes only share the
    /// arrivals, so every lane's outcome is the one it has alone, and
    /// the error lists exactly the lanes that panic alone.
    fn replicate(&self, lanes: &[Lane], seed: u64) -> Replication {
        let mut live: Vec<&Lane> = lanes.iter().collect();
        let mut index: Vec<usize> = (0..lanes.len()).collect();
        let mut panicked = Vec::new();
        while !live.is_empty() {
            match self.simulate(&live, seed) {
                Ok(results) if panicked.is_empty() => return Ok(results),
                Ok(_) => break,
                Err(k) => {
                    live.remove(k);
                    panicked.push(index.remove(k));
                }
            }
        }
        panicked.sort_unstable();
        Err(panicked)
    }

    /// Simulates `lanes` on the arrival stream of `seed`. Returns each
    /// lane's statistics and telemetry shard, or the position in `lanes`
    /// of the lane a panic happened in.
    fn simulate(&self, lanes: &[&Lane], seed: u64) -> Result<Vec<(DelayStats, MetricSet)>, usize> {
        let mut sim = None;
        let ran = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let sim = sim.insert(TandemSim::without_lanes(&lanes[0].cfg, seed));
            for lane in lanes {
                sim.add_lane(lane);
            }
            sim.advance(self.slots);
        }));
        let sim = sim.ok_or(0_usize)?;
        if ran.is_err() {
            return Err(sim.busy_lane());
        }
        let results = sim
            .into_lanes()
            .into_iter()
            .map(|mut lane| {
                let metrics = lane.metrics();
                (lane.take_stats(), metrics)
            })
            .collect();
        Ok(results)
    }

    /// Progress loop (runs on its own thread beside the workers):
    /// prints `completed/total` from the shared counter — exact even
    /// when `reps` is not a multiple of the worker count — plus
    /// throughput and ETA, every 200 ms until all replications finish
    /// (or the worker loop has returned and unparked this thread).
    fn report_progress(&self, done: &AtomicUsize, finished: &AtomicBool) {
        use std::io::Write;
        let t0 = Instant::now();
        loop {
            std::thread::park_timeout(Duration::from_millis(200));
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

/// The outcome of one lane of a [`MonteCarlo`] run: the order-merged
/// statistics plus each replication's own, for across-replication
/// dispersion.
#[derive(Debug, Clone)]
pub struct MonteCarloReport {
    /// Per-replication statistics, in replication order.
    pub per_rep: Vec<DelayStats>,
    /// All replications merged (in replication order).
    pub merged: DelayStats,
    /// Engine metrics (`mc_*`; see [`MonteCarlo::run`] for which lane
    /// carries which) plus the replication-order merge of the lane's
    /// simulator counters (`sim_*`). Empty without the `telemetry`
    /// feature.
    pub metrics: MetricSet,
}

impl MonteCarloReport {
    /// The spread `(min, max)` of the per-replication `q`-quantiles —
    /// an across-replication confidence envelope for the merged
    /// quantile. `None` if every replication is empty.
    pub fn quantile_spread(&self, q: f64) -> Option<(f64, f64)> {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for rep in &self.per_rep {
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
    use crate::tandem::SimConfig;

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

    /// The one-lane run of `lane`.
    fn run_one(mc: &MonteCarlo, lane: Lane) -> MonteCarloReport {
        mc.run(&[lane]).unwrap().remove(0)
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
        let report = run_one(&mc, Lane::new(cfg()));
        let mut manual = DelayStats::new();
        for rep in &report.per_rep {
            manual.merge(rep);
        }
        assert_eq!(report.merged, manual);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let run = |threads: usize| {
            let mc = MonteCarlo::new(6, 2_000, 99).threads(threads);
            let r = run_one(&mc, Lane::new(cfg()));
            (r.per_rep, r.merged)
        };
        let one = run(1);
        assert_eq!(one, run(2));
        assert_eq!(one, run(5));
    }

    #[test]
    fn different_master_seeds_differ() {
        let a = run_one(&MonteCarlo::new(2, 2_000, 1), Lane::new(cfg()));
        let b = run_one(&MonteCarlo::new(2, 2_000, 2), Lane::new(cfg()));
        assert_ne!(a.merged.mean(), b.merged.mean());
    }

    #[test]
    fn spreads_bracket_merged_point_estimates() {
        let report = run_one(&MonteCarlo::new(5, 4_000, 11), Lane::new(cfg()));
        let q = 0.99;
        let (lo, hi) = report.quantile_spread(q).unwrap();
        let merged_q = report.merged.quantile(q).unwrap();
        assert!(lo <= merged_q && merged_q <= hi, "{lo} ≤ {merged_q} ≤ {hi}");
        let d = 3.0;
        let (vlo, vhi) = report.violation_spread(d).unwrap();
        let merged_v = report.merged.violation_fraction(d);
        assert!(vlo <= merged_v && merged_v <= vhi);
    }

    /// Each lane's report is the report of a run of that lane alone,
    /// bit for bit, with per-lane schedulers and capacities.
    #[test]
    fn every_lane_reports_what_it_reports_alone() {
        let lanes = [
            Lane::new(cfg()),
            Lane::new(SimConfig { scheduler: SchedulerKind::Bmux, ..cfg() }),
            Lane::new(cfg()).capacities(Some(vec![12.0, 10.0])),
        ];
        let mc = MonteCarlo::new(3, 3_000, 17).threads(2);
        let together = mc.run(&lanes).unwrap();
        for (k, lane) in lanes.iter().enumerate() {
            let alone = run_one(&mc, lane.clone());
            assert_eq!(together[k].per_rep, alone.per_rep, "lane {k}");
            assert_eq!(together[k].merged, alone.merged, "lane {k}");
        }
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn sim_counters_merge_deterministically() {
        use nc_telemetry::{MetricKey, MetricValue};
        fn sim(m: &MetricSet) -> Vec<(&MetricKey, &MetricValue)> {
            m.iter().filter(|(key, _)| key.name.starts_with("sim_")).collect()
        }
        let run = |threads| {
            let mc = MonteCarlo::new(5, 2_000, 3).threads(threads);
            let bmux = SimConfig { scheduler: SchedulerKind::Bmux, ..cfg() };
            mc.run(&[Lane::new(cfg()), Lane::new(bmux)]).unwrap()
        };
        let a = run(1);
        let b = run(4);
        for (k, (a, b)) in a.iter().zip(&b).enumerate() {
            assert_eq!(a.metrics.counter_value("sim_slots_total", &[]), 5 * 2_000, "lane {k}");
            assert_eq!(
                a.metrics.counter_value("sim_delay_samples_total", &[]),
                a.merged.len() as u64,
                "lane {k}"
            );
            assert_eq!(sim(&a.metrics), sim(&b.metrics), "lane {k}: counters depend on threads");
            assert_eq!(a.metrics.counter_value("mc_replications_total", &[]), 5, "lane {k}");
        }
        // The run-wide engine series ride on the first lane only: one
        // observation per replication job.
        match a[0].metrics.get("mc_replication_seconds", &[]) {
            Some(MetricValue::Histogram(h)) => assert_eq!(h.count(), 5),
            other => panic!("missing replication timings: {other:?}"),
        }
        assert!(a[0].metrics.get("mc_worker_busy_seconds", &[("worker", "0")]).is_some());
        assert!(a[1].metrics.get("mc_replication_seconds", &[]).is_none());
    }

    #[test]
    fn progress_reporting_does_not_disturb_results() {
        let quiet = run_one(&MonteCarlo::new(3, 1_000, 21), Lane::new(cfg()));
        let chatty = run_one(&MonteCarlo::new(3, 1_000, 21).progress(true), Lane::new(cfg()));
        assert_eq!(quiet.merged, chatty.merged);
    }

    #[test]
    fn progress_reporting_does_not_outlive_the_workers() {
        // The progress loop ticks every 200 ms; a run that ends sooner
        // must wake it rather than wait for its next tick.
        let t0 = Instant::now();
        run_one(&MonteCarlo::new(1, 100, 3).threads(1).progress(true), Lane::new(cfg()));
        let took = t0.elapsed();
        assert!(took < Duration::from_millis(150), "a tiny plan took {took:?}");
    }

    /// A lane of packetized GPS, which the simulator does not model: it
    /// panics while it is built, in every replication.
    fn panicking_lane() -> Lane {
        let packet = SimConfig { packet_size: Some(1.5), ..cfg() };
        Lane::new(SimConfig {
            scheduler: SchedulerKind::Gps { w_through: 1.0, w_cross: 1.0 },
            ..packet
        })
    }

    fn packet_lane() -> Lane {
        Lane::new(SimConfig { packet_size: Some(1.5), ..cfg() })
    }

    #[test]
    fn a_panicking_lane_fails_the_run_and_is_named() {
        for threads in [1, 2] {
            let mc = MonteCarlo::new(4, 500, 5).threads(threads);
            assert!(mc.run(&[packet_lane()]).is_ok());
            let err = mc.run(&[packet_lane(), panicking_lane()]).unwrap_err();
            assert!(
                matches!(err, Error::ReplicationsPanicked { panicked: 4, reps: 4, lane: 1 }),
                "threads = {threads}: {err}"
            );
            assert_eq!(err.to_string(), "4 of 4 replication(s) panicked in lane 1");
        }
    }

    #[test]
    fn panicking_replication_degrades_instead_of_aborting() {
        // Replication 2 runs a panicking second lane, the others do not.
        // One worker runs inline on the calling thread, two spawn.
        for threads in [1, 2] {
            let mc = MonteCarlo::new(4, 500, 5).threads(threads);
            let poisoned = mc.seeds()[2];
            let finished = AtomicUsize::new(0);
            let err = mc
                .run_with(2, |seed| {
                    let second = if seed == poisoned { panicking_lane() } else { packet_lane() };
                    let outcome = mc.replicate(&[packet_lane(), second], seed);
                    if outcome.is_ok() {
                        finished.fetch_add(1, Ordering::Relaxed);
                    }
                    outcome
                })
                .unwrap_err();
            assert!(
                matches!(err, Error::ReplicationsPanicked { panicked: 1, reps: 4, lane: 1 }),
                "threads = {threads}: {err}"
            );
            assert_eq!(err.to_string(), "1 of 4 replication(s) panicked in lane 1");
            // The other replications still ran before the run failed.
            assert_eq!(finished.load(Ordering::Relaxed), 3, "threads = {threads}");
        }
    }

    #[test]
    fn a_panicked_lane_does_not_hide_the_lanes_after_it() {
        // The first lane's panic stops the replication; the rerun
        // without it still finds the third lane's.
        let mc = MonteCarlo::new(2, 500, 5);
        let lanes = [panicking_lane(), packet_lane(), panicking_lane()];
        assert_eq!(mc.replicate(&lanes, 1).err(), Some(vec![0, 2]));
        assert!(mc.replicate(&[packet_lane(), packet_lane()], 1).is_ok());
    }

    #[test]
    fn fold_counts_the_panics_of_the_lowest_panicked_lane() {
        let mc = MonteCarlo::new(4, 0, 5);
        let ok = || Ok(vec![(DelayStats::new(), MetricSet::new()); 3]);
        let fold = |outcomes: Vec<Replication>| {
            mc.fold(3, outcomes.into_iter().map(|o| (o, 0.0)).collect()).map(|(r, _)| r)
        };
        let err = fold(vec![ok(), Err(vec![1]), ok(), ok()]).unwrap_err();
        assert!(
            matches!(err, Error::ReplicationsPanicked { panicked: 1, reps: 4, lane: 1 }),
            "{err}"
        );
        let err = fold(vec![Err(vec![2]), Err(vec![1, 2]), ok(), Err(vec![2])]).unwrap_err();
        assert!(
            matches!(err, Error::ReplicationsPanicked { panicked: 1, reps: 4, lane: 1 }),
            "{err}"
        );
        let reports = fold(vec![ok(), ok(), ok(), ok()]).unwrap();
        assert_eq!(reports.len(), 3);
        assert!(reports.iter().all(|r| r.per_rep.len() == 4));
    }

    #[test]
    fn per_node_capacities_apply_to_every_replication() {
        let caps = vec![cfg().capacity; cfg().hops];
        let mc = MonteCarlo::new(2, 2_000, 9);
        let run = |lane: Lane| run_one(&mc, lane).merged;
        let uniform = run(Lane::new(cfg()));
        assert_eq!(uniform, run(Lane::new(cfg()).capacities(Some(caps))));
        let slower = run(Lane::new(cfg()).capacities(Some(vec![8.0, 8.0])));
        assert_ne!(uniform, slower);
    }
}
