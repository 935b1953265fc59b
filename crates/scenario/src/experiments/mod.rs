//! Experiment runners, one per [`crate::Experiment`] variant. Each
//! prints the same table its pre-scenario binary printed, byte for
//! byte (pinned by the golden tests in `tests/scenario_cli.rs`).

pub(crate) mod ablation;
pub(crate) mod cli;
pub(crate) mod mix_sweep;
pub(crate) mod path_sweep;
pub(crate) mod utilization_sweep;
pub(crate) mod validate;

use crate::error::Error;
use nc_sim::{Lane, MonteCarlo, MonteCarloReport};

/// Warm-up slots per replication of the `validate` tandems: delay
/// samples whose entry slot falls inside it are discarded.
pub(crate) const TANDEM_WARMUP: u64 = 10_000;

/// Rejects a `validate` run whose replications would end
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

/// Runs simulated table cells that share one arrival stream, one
/// [`Lane`] per cell (named by `cells`, in the same order): the plan's
/// replications, each lane merged in replication order, one report per
/// lane. Folds every lane's metric shard into the process-wide registry
/// for the artifact writers. A table printed from fewer replications
/// than `--reps` asked for would misstate its own sample, so a panicked
/// replication fails the run (exit code 6) once the others have run,
/// naming the first cell whose lane panicked and counting the
/// replications that lane panicked in, as a run of that cell alone
/// would.
///
/// # Panics
///
/// Panics if `cells` and `lanes` differ in length.
pub(crate) fn simulate_cell(
    mc: &MonteCarlo,
    cells: &[String],
    lanes: &[Lane],
) -> Result<Vec<MonteCarloReport>, Error> {
    assert_eq!(cells.len(), lanes.len(), "one cell name per lane");
    let reports =
        mc.run(lanes).map_err(|nc_sim::Error::ReplicationsPanicked { panicked, reps, lane }| {
            Error::Runtime(format!(
                "{panicked} of {reps} replication(s) panicked in cell {}",
                cells[lane]
            ))
        })?;
    for report in &reports {
        nc_telemetry::merge_global(&report.metrics);
    }
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_sim::{SchedulerKind, SimConfig};

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
        let clean = simulate_cell(&mc, &["clean".into()], &[Lane::new(cfg(None))]).expect("clean");
        assert_eq!(clean[0].per_rep.len(), 3);
        // The simulator does not model packetized GPS: the GPS lane
        // panics in every replication, and the error names its cell.
        let fifo = SimConfig { scheduler: SchedulerKind::Fifo, ..cfg(Some(1.5)) };
        let cells = ["h2-fifo".to_string(), "h2-gps".to_string(), "h2-gps-again".to_string()];
        let gps = Lane::new(cfg(Some(1.5)));
        let err =
            simulate_cell(&mc, &cells, &[Lane::new(fifo), gps.clone(), gps]).expect_err("panicked");
        assert_eq!(err.exit_code(), 6);
        assert_eq!(err.to_string(), "3 of 3 replication(s) panicked in cell h2-gps");
    }
}
