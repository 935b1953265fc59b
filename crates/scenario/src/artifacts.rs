//! Run-artifact collection (metrics, events, manifest) and the figure
//! scenarios' Monte Carlo overlay column.

use crate::error::Error;
use crate::experiments::simulate_cell;
use crate::opts::RunOpts;
use crate::CAPACITY;
use nc_sim::Lane;
use nc_telemetry as tel;
use nc_traffic::Mmoo;

/// Writes the telemetry artifacts (`--metrics-out`, `--events-out`, and
/// the run manifest) at the end of a scenario run.
///
/// Construct with [`RunArtifacts::begin`] before the workload and call
/// [`RunArtifacts::finish`] last; the workload folds its metric shards
/// into the global registry in between.
/// Without artifact flags every method is a no-op, and without the
/// `telemetry` feature the files are written but carry empty metric
/// sections.
#[derive(Debug)]
pub struct RunArtifacts {
    opts: RunOpts,
    binary: String,
    start: std::time::Instant,
}

impl RunArtifacts {
    /// Starts artifact collection for `binary` (resets the global
    /// registry so the artifacts cover exactly this run).
    pub fn begin(binary: &str, opts: &RunOpts) -> Self {
        if opts.wants_artifacts() {
            tel::reset_global();
        }
        RunArtifacts {
            opts: opts.clone(),
            binary: binary.to_string(),
            start: std::time::Instant::now(),
        }
    }

    /// Writes all requested artifacts (atomically, via temp + rename in
    /// the telemetry exporter), surfacing write failures as values.
    pub fn finish(&self) -> std::io::Result<()> {
        if !self.opts.wants_artifacts() {
            return Ok(());
        }
        let set = tel::global_snapshot();
        let mut artifacts: Vec<(String, String)> = Vec::new();
        if let Some(p) = &self.opts.metrics_out {
            tel::export::write_file(p, &tel::export::prometheus(&set))?;
            artifacts.push(("metrics".to_string(), p.clone()));
        }
        if let Some(p) = &self.opts.events_out {
            tel::export::write_file(p, &tel::export::events_jsonl(&set))?;
            artifacts.push(("events".to_string(), p.clone()));
        }
        if let Some(p) = &self.opts.json {
            artifacts.push(("results".to_string(), p.clone()));
        }
        if let Some(mp) = self.opts.manifest_path() {
            let mut m = tel::RunManifest::new(&self.binary);
            m.reps = self.opts.reps;
            m.threads = self.opts.threads;
            m.seed = self.opts.seed;
            m.slots = self.opts.slots;
            m.wall_seconds = self.start.elapsed().as_secs_f64();
            m.artifacts = artifacts;
            m.write(&mp)?;
        }
        Ok(())
    }
}

/// Violation level of the figure scenarios' simulation overlay: the
/// analytical figures use ε = 10⁻⁹, which no direct simulation reaches,
/// so the overlay reports the simulated `q(1 − 10⁻³)` — a lower
/// reference point every valid ε = 10⁻⁹ bound must exceed.
pub const OVERLAY_EPS: f64 = 1e-3;

/// Formats the merged simulated `q(1 − OVERLAY_EPS)` plus its
/// across-replication spread for the figure scenarios' `--sim` overlay
/// column: the paper's tandem (FIFO, `C = 100`) run through the Monte
/// Carlo engine per the options. The merged statistics are
/// bitwise-identical for any `--threads` value.
///
/// # Errors
///
/// [`Error::Runtime`] if a replication panicked.
pub fn sim_overlay(
    opts: &RunOpts,
    n_through: usize,
    n_cross: usize,
    hops: usize,
) -> Result<String, Error> {
    let cfg = nc_sim::SimConfig {
        capacity: CAPACITY,
        hops,
        n_through,
        n_cross,
        source: Mmoo::paper_source(),
        scheduler: nc_sim::SchedulerKind::Fifo,
        warmup: 5_000,
        packet_size: None,
    };
    let cell = format!("overlay-h{hops}-n{n_through}-c{n_cross}");
    let report = simulate_cell(&opts.monte_carlo(), &[cell], &[Lane::new(cfg)])?.remove(0);
    let q = 1.0 - OVERLAY_EPS;
    Ok(match (report.merged.quantile(q), report.quantile_spread(q)) {
        (Some(m), Some((lo, hi))) => format!("{m:9.2} [{lo:.2}, {hi:.2}]"),
        _ => format!("{:>9} -", "-"),
    })
}
