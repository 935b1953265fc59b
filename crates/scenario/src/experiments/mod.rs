//! Experiment runners, one per [`crate::Experiment`] variant. Each
//! prints the same table its pre-scenario binary printed, byte for
//! byte (pinned by the golden tests in `nc-bench`).

pub(crate) mod ablation;
pub(crate) mod cli;
pub(crate) mod faulted;
pub(crate) mod mix_sweep;
pub(crate) mod path_sweep;
pub(crate) mod utilization_sweep;
pub(crate) mod validate;

use crate::error::Error;
use nc_sim::MonteCarloReport;

/// Warm-up slots per replication of the `validate` and `faulted`
/// tandems: delay samples whose entry slot falls inside it are
/// discarded.
pub(crate) const TANDEM_WARMUP: u64 = 10_000;

/// Rejects a `validate`/`faulted` run whose replications would end
/// inside the warm-up and so record no delay sample (the tables would
/// print `NaN` quantiles and empty-sample verdicts).
pub(crate) fn check_past_warmup(slots: u64) -> Result<(), Error> {
    if slots <= TANDEM_WARMUP {
        return Err(Error::Usage(format!(
            "--slots {slots} records no delay samples: each replication discards a \
             {TANDEM_WARMUP}-slot warm-up; use --slots > {TANDEM_WARMUP}"
        )));
    }
    Ok(())
}

/// Passes a Monte Carlo cell's report on only if every replication ran
/// to completion. The engine isolates a panicking replication and keeps
/// going, but a table printed from fewer replications than `--reps`
/// asked for misstates its own sample, so the run fails instead.
pub(crate) fn all_replications_ran(
    report: MonteCarloReport,
    cell: &str,
) -> Result<MonteCarloReport, Error> {
    if report.panicked > 0 {
        return Err(Error::Runtime(format!(
            "{} of {} replication(s) panicked in cell {cell}",
            report.panicked,
            report.per_rep.len()
        )));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_sim::{DelayStats, MonteCarlo};

    #[test]
    fn a_panicked_replication_fails_the_cell() {
        let job = |poisoned: usize| {
            move |i: usize, _seed: u64| {
                assert!(i != poisoned, "replication {i} poisons itself");
                let mut s = DelayStats::new();
                s.record(i as f64);
                s
            }
        };
        let mc = MonteCarlo::new(3, 0, 7).threads(1);
        let clean = all_replications_ran(mc.run_with(job(usize::MAX)), "clean").expect("clean");
        assert_eq!(clean.merged.len(), 3);
        let err = all_replications_ran(mc.run_with(job(1)), "h2-fifo").expect_err("panicked");
        assert_eq!(err.exit_code(), 6);
        assert_eq!(err.to_string(), "1 of 3 replication(s) panicked in cell h2-fifo");
    }
}
