//! Tier-1 checks of the parallel Monte Carlo validation engine:
//!
//! * the merged statistics of a run are bitwise-identical for 1, 2,
//!   and 8 worker threads (seeds derive from the master seed, merges
//!   happen in replication order);
//! * a fast multi-replication smoke validation: simulated FIFO and
//!   static-priority delay quantiles respect the analytical bounds at
//!   a loose ε.
//!
//! The heavyweight single-seed validation lives in
//! `bound_validation.rs`; this file exercises the engine path.

use linksched::core::{MmooTandem, PathScheduler};
use linksched::sim::{Lane, MonteCarlo, SchedulerKind, SimConfig};
use linksched::traffic::Mmoo;

/// Scaled-down paper setup (C = 20 kb/ms), as in `bound_validation.rs`.
fn setup(scheduler: PathScheduler, kind: SchedulerKind) -> (MmooTandem, SimConfig) {
    let source = Mmoo::paper_source();
    let analysis =
        MmooTandem { source, n_through: 40, n_cross: 60, capacity: 20.0, hops: 2, scheduler };
    let sim = SimConfig {
        capacity: 20.0,
        hops: 2,
        n_through: 40,
        n_cross: 60,
        source,
        scheduler: kind,
        warmup: 5_000,
        packet_size: None,
    };
    (analysis, sim)
}

/// Everything observable about a merged run, down to the bit level.
type Fingerprint = (usize, Option<u64>, Option<u64>, Option<u64>, Option<u64>, u64, Vec<u64>);

fn fingerprint(threads: usize) -> Fingerprint {
    let (_, cfg) = setup(PathScheduler::Fifo, SchedulerKind::Fifo);
    let mc = MonteCarlo::new(8, 10_000, 0xD5_EED).threads(threads);
    let mut r = mc.run(&[Lane::new(cfg).streaming(&[25.0])]).unwrap().remove(0);
    (
        r.merged.len(),
        r.merged.mean().map(f64::to_bits),
        r.merged.variance().map(f64::to_bits),
        r.merged.max().map(f64::to_bits),
        r.merged.quantile(0.999).map(f64::to_bits),
        r.merged.violation_fraction(25.0).to_bits(),
        r.merged.samples().iter().map(|s| s.to_bits()).collect(),
    )
}

#[test]
fn merged_stats_bitwise_identical_across_thread_counts() {
    let one = fingerprint(1);
    assert!(one.0 > 10_000, "too few samples for a meaningful check");
    assert_eq!(one, fingerprint(2), "1 vs 2 worker threads");
    assert_eq!(one, fingerprint(8), "1 vs 8 worker threads");
}

/// Multi-replication bound check at a loose ε — the engine-path
/// analogue of `bound_validation.rs`, fast enough for every run.
fn assert_bound_holds_parallel(scheduler: PathScheduler, kind: SchedulerKind, label: &str) {
    let eps = 1e-2;
    let (analysis, cfg) = setup(scheduler, kind);
    let bound = analysis
        .delay_bound(eps)
        .unwrap_or_else(|| panic!("{label}: no analytical bound"))
        .bound
        .delay;
    let mc = MonteCarlo::new(4, 50_000, 0xA11_0C8);
    let mut report = mc.run(&[Lane::new(cfg).streaming(&[bound])]).unwrap().remove(0);
    let n = report.merged.len();
    assert!(n > 50_000, "{label}: too few samples ({n})");
    let q = report.merged.quantile(1.0 - eps).unwrap();
    assert!(q <= bound, "{label}: sim q(1-{eps}) = {q:.2} exceeds bound {bound:.2}");
    let emp = report.merged.violation_fraction(bound);
    assert!(
        emp <= eps * 3.0 + 30.0 / n as f64,
        "{label}: empirical P(W > {bound:.2}) = {emp:.2e} exceeds ε = {eps:.0e}"
    );
    // Every replication's own quantile should respect the bound too.
    let (_, hi) = report.quantile_spread(1.0 - eps).unwrap();
    assert!(hi <= bound, "{label}: worst replication q = {hi:.2} exceeds bound {bound:.2}");
}

#[test]
fn fifo_bound_dominates_parallel_smoke() {
    assert_bound_holds_parallel(PathScheduler::Fifo, SchedulerKind::Fifo, "FIFO H=2");
}

#[test]
fn static_priority_bound_dominates_parallel_smoke() {
    assert_bound_holds_parallel(
        PathScheduler::ThroughPriority,
        SchedulerKind::ThroughPriority,
        "SP-through H=2",
    );
}
