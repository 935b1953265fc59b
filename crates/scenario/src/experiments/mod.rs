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
