//! The scenario engine: one code path from a parsed [`Scenario`]
//! through analysis, the optional Monte Carlo overlay, and the
//! telemetry artifacts.

use crate::artifacts::RunArtifacts;
use crate::error::Error;
use crate::experiments;
use crate::model::{Experiment, Scenario};
use crate::opts::RunOpts;
use nc_sim::DelayStats;

/// What a scenario run produced beyond its stdout tables.
#[derive(Debug)]
pub struct RunSummary {
    /// Merged delay statistics, for experiments that simulate
    /// (`simulate`; the figure overlays report inline instead).
    pub delay_stats: Option<DelayStats>,
}

/// Runs a [`Scenario`] under [`RunOpts`]: dispatches to the experiment
/// runner and writes the requested telemetry artifacts.
#[derive(Debug)]
pub struct Engine {
    scenario: Scenario,
    opts: RunOpts,
}

impl Engine {
    /// Pairs a scenario with fully resolved run options.
    pub fn new(scenario: Scenario, opts: RunOpts) -> Self {
        Engine { scenario, opts }
    }

    /// The scenario's default options: `sim.reps`/`sim.slots`/`sim.seed`
    /// from the file, `--json` accepted only by validation scenarios.
    pub fn default_opts(scenario: &Scenario) -> RunOpts {
        let mut opts = RunOpts::new(scenario.sim.reps, scenario.sim.slots);
        if let Some(seed) = scenario.sim.seed {
            opts.seed = seed;
        }
        if matches!(scenario.experiment, Experiment::Validate(_)) {
            opts = opts.with_json();
        }
        opts
    }

    /// Runs the scenario to completion.
    ///
    /// Analysis results are bitwise-independent of the thread count
    /// and the telemetry feature; stdout is therefore reproducible byte
    /// for byte for a fixed scenario + options.
    ///
    /// Failures surface as the typed [`Error`] taxonomy, so callers can
    /// map a `validate` run too short to pass its warm-up (a usage
    /// error), a runtime failure, and an infeasible analysis onto
    /// distinct exit codes.
    pub fn run(self) -> Result<RunSummary, Error> {
        if let Experiment::Validate(_) = &self.scenario.experiment {
            experiments::check_past_warmup(self.opts.slots)?;
        }
        let artifacts = RunArtifacts::begin(&self.scenario.name, &self.opts);
        if let Some(title) = &self.scenario.title {
            println!("# {title}");
        }
        let delay_stats = match &self.scenario.experiment {
            Experiment::UtilizationSweep(p) => {
                experiments::utilization_sweep::run(p, &self.opts)?;
                None
            }
            Experiment::MixSweep(p) => {
                experiments::mix_sweep::run(p, &self.opts)?;
                None
            }
            Experiment::PathSweep(p) => {
                experiments::path_sweep::run(p, &self.opts)?;
                None
            }
            Experiment::Validate(p) => {
                experiments::validate::run(p, &self.opts, &self.scenario.name)?;
                None
            }
            Experiment::Ablation => {
                experiments::ablation::run(&self.opts)?;
                None
            }
            Experiment::Bound(p) => {
                experiments::cli::bound(p)?;
                None
            }
            Experiment::CrossSweep(p) => {
                experiments::cli::cross_sweep(p, &self.opts);
                None
            }
            Experiment::Simulate(p) => Some(experiments::cli::simulate(p, &self.opts)?),
        };
        artifacts
            .finish()
            .map_err(|e| Error::Runtime(format!("cannot write telemetry artifacts: {e}")))?;
        Ok(RunSummary { delay_stats })
    }
}
