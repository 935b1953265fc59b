//! Telemetry must never perturb results: a validate-equivalent Monte
//! Carlo run, whose counters are always collected, must produce
//! bitwise-identical merged `DelayStats` on 1 or 8 threads.
//!
//! The compile-time half of the guarantee (the `telemetry` feature
//! erased entirely) is covered in CI, which diffs the stdout of
//! `linksched run examples/scenarios/validate.json` between default and
//! `--no-default-features` builds.

use nc_sim::{DelayStats, Lane, MonteCarlo, SchedulerKind, SimConfig};
use nc_traffic::Mmoo;

fn cfg() -> SimConfig {
    SimConfig {
        capacity: 20.0,
        hops: 2,
        n_through: 40,
        n_cross: 60,
        source: Mmoo::paper_source(),
        scheduler: SchedulerKind::Fifo,
        warmup: 1_000,
        packet_size: None,
    }
}

/// The merged statistics of a one-lane run: an exact histogram, so
/// equality covers the count, mean, max, every quantile and every
/// violation fraction.
fn merged(plan: MonteCarlo) -> DelayStats {
    plan.run(&[Lane::new(cfg())]).unwrap().remove(0).merged
}

#[test]
fn delay_stats_identical_across_thread_counts() {
    let plan = |threads: usize| MonteCarlo::new(6, 8_000, 0xD0_0DAD).threads(threads);
    let reference = merged(plan(1));
    assert!(!reference.is_empty(), "workload produced no delay samples");
    assert_eq!(merged(plan(8)), reference, "DelayStats diverged at threads=8");
}
