//! Telemetry must never perturb results: a validate-equivalent Monte
//! Carlo run with metric collection on or off, on 1 or 8 threads, must
//! produce bitwise-identical merged `DelayStats`.
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
fn delay_stats_identical_across_telemetry_and_thread_count() {
    let plan = |threads: usize, telemetry: bool| {
        MonteCarlo::new(6, 8_000, 0xD0_0DAD)
            .threads(threads)
            .collect_metrics(telemetry)
            .progress(false)
    };
    let reference = merged(plan(1, false));
    assert!(!reference.is_empty(), "workload produced no delay samples");
    for threads in [1usize, 8] {
        for telemetry in [false, true] {
            let run = merged(plan(threads, telemetry));
            assert_eq!(
                run, reference,
                "DelayStats diverged at threads={threads}, telemetry={telemetry}"
            );
        }
    }
}
