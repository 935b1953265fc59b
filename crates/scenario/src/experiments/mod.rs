//! Experiment runners, one per [`crate::Experiment`] variant. Each
//! prints the same table its pre-scenario binary printed, byte for
//! byte (pinned by the golden tests in `tests/scenario_cli.rs`).

pub(crate) mod ablation;
pub(crate) mod cli;
pub(crate) mod faulted;
pub(crate) mod mix_sweep;
pub(crate) mod path_sweep;
pub(crate) mod utilization_sweep;
pub(crate) mod validate;

use crate::error::Error;
use nc_sim::{MonteCarlo, MonteCarloReport, SimConfig};

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

/// Runs one simulated table cell: the plan's replications of the
/// tandem `cfg`, merged in replication order. Folds the cell's metric
/// shard into the process-wide registry for the artifact writers. A
/// table printed from fewer replications than `--reps` asked for would
/// misstate its own sample, so a panicked replication fails the cell
/// (exit code 6) once the others have run.
pub(crate) fn simulate_cell(
    mc: &MonteCarlo,
    cfg: SimConfig,
    cell: &str,
) -> Result<MonteCarloReport, Error> {
    match mc.run(cfg) {
        Ok(report) => {
            nc_telemetry::merge_global(&report.metrics);
            Ok(report)
        }
        Err(nc_sim::Error::ReplicationsPanicked { panicked, reps }) => Err(Error::Runtime(
            format!("{panicked} of {reps} replication(s) panicked in cell {cell}"),
        )),
        Err(e) => Err(e.into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_sim::SchedulerKind;

    #[test]
    fn a_panicked_replication_fails_the_cell() {
        let cfg = |packet_size| SimConfig {
            capacity: 20.0,
            hops: 2,
            n_through: 10,
            n_cross: 20,
            scheduler: SchedulerKind::Gps { w_through: 1.0, w_cross: 1.0 },
            warmup: 100,
            packet_size,
            ..SimConfig::default()
        };
        let mc = MonteCarlo::new(3, 500, 7).threads(1);
        let clean = simulate_cell(&mc, cfg(None), "clean").expect("clean");
        assert_eq!(clean.per_rep.len(), 3);
        // The simulator does not model packetized GPS: it panics in
        // every replication.
        let err = simulate_cell(&mc, cfg(Some(1.5)), "h2-gps").expect_err("panicked");
        assert_eq!(err.exit_code(), 6);
        assert_eq!(err.to_string(), "3 of 3 replication(s) panicked in cell h2-gps");
    }
}
