//! Telemetry must never perturb results: a validate-equivalent Monte
//! Carlo run with metric collection on or off, on 1 or 8 threads, must
//! produce bitwise-identical merged `DelayStats`.
//!
//! The compile-time half of the guarantee (the `telemetry` feature
//! erased entirely) is covered in CI, which diffs the stdout of
//! `linksched run examples/scenarios/validate.json` between default and
//! `--no-default-features` builds.

use nc_sim::{Lane, MonteCarlo, SchedulerKind, SimConfig};
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

/// Everything observable about the merged statistics, with floats
/// captured bit-for-bit: sample count, reservoir bits, mean bits,
/// q(0.999) bits, and (threshold, violation-count) pairs.
type Fingerprint = (usize, Vec<u64>, Option<u64>, Option<u64>, Vec<(u64, u64)>);

fn fingerprint(plan: MonteCarlo) -> Fingerprint {
    let mut report = plan.run(&[Lane::new(cfg()).streaming(&[12.0])]).unwrap().remove(0);
    let m = &mut report.merged;
    let samples: Vec<u64> = m.samples().iter().map(|s| s.to_bits()).collect();
    let quantile = m.quantile(0.999).map(f64::to_bits);
    (
        m.len(),
        samples,
        m.mean().map(f64::to_bits),
        quantile,
        m.thresholds().iter().map(|&(t, c)| (t.to_bits(), c)).collect(),
    )
}

#[test]
fn delay_stats_identical_across_telemetry_and_thread_count() {
    let plan = |threads: usize, telemetry: bool| {
        MonteCarlo::new(6, 8_000, 0xD0_0DAD)
            .threads(threads)
            .collect_metrics(telemetry)
            .progress(false)
    };
    let reference = fingerprint(plan(1, false));
    assert!(reference.0 > 0, "workload produced no delay samples");
    for threads in [1usize, 8] {
        for telemetry in [false, true] {
            let run = fingerprint(plan(threads, telemetry));
            assert_eq!(
                run, reference,
                "DelayStats diverged at threads={threads}, telemetry={telemetry}"
            );
        }
    }
}
