//! Command-line options of `linksched run`, shared by every scenario.

use nc_sim::{FaultPlan, Lane, MonteCarlo, SimConfig};
use std::str::FromStr;

/// Usage text for the options shared by every scenario run.
pub const USAGE: &str = "options:
  --reps N          independent Monte Carlo replications (seed-derived)
  --threads N       worker threads (0 = auto-detect; default)
  --seed N          master seed; per-replication seeds derive from it
  --slots N         simulated slots per replication
  --sim             add simulated-quantile overlay columns (figure scenarios)
  --progress        live replication progress + ETA on stderr
  --metrics-out P   write Prometheus text-format metrics to P
  --trace-out P     write a Chrome trace_event JSON profile to P
  --events-out P    write a JSONL telemetry event stream to P
  --manifest-out P  write the run-manifest JSON to P (defaults to
                    <first artifact>.manifest.json when any artifact
                    flag is given)
  --json P          write machine-readable results to P (validate only)
  -h, --help        show this help";

/// Command-line options shared by every scenario run:
/// `--reps`, `--threads`, `--seed`, `--slots`, `--sim`, `--progress`,
/// and the artifact outputs `--metrics-out`, `--trace-out`,
/// `--events-out`, `--manifest-out` (plus `--json` where the scenario
/// opts in via [`RunOpts::with_json`]).
///
/// The same master seed always produces the same output, regardless of
/// `--threads` (see [`MonteCarlo`]) and of whether telemetry is
/// compiled in.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOpts {
    /// Independent replications per table cell.
    pub reps: usize,
    /// Worker threads (`0` = auto-detect).
    pub threads: usize,
    /// Master seed for per-replication seed derivation.
    pub seed: u64,
    /// Simulated slots per replication.
    pub slots: u64,
    /// Whether simulation overlay columns were requested (`--sim`).
    pub sim: bool,
    /// Whether to report live progress + ETA on stderr (`--progress`).
    pub progress: bool,
    /// Prometheus text-exposition output path (`--metrics-out`).
    pub metrics_out: Option<String>,
    /// Chrome trace_event JSON output path (`--trace-out`).
    pub trace_out: Option<String>,
    /// JSONL event-stream output path (`--events-out`).
    pub events_out: Option<String>,
    /// Run-manifest JSON output path (`--manifest-out`).
    pub manifest_out: Option<String>,
    /// Machine-readable results path (`--json`; only parsed for
    /// scenarios that accept it).
    pub json: Option<String>,
    /// Whether this run accepts `--json` (validate only).
    pub accepts_json: bool,
    /// Fault plan applied to every simulation (from the scenario's
    /// `faults` block; never set from the command line).
    pub faults: Option<FaultPlan>,
}

impl RunOpts {
    /// Binary-specific defaults: `reps` replications of `slots` slots,
    /// auto thread count, a fixed default master seed, no overlay, no
    /// artifacts.
    pub fn new(reps: usize, slots: u64) -> Self {
        RunOpts {
            reps,
            threads: 0,
            seed: 0x1CDC_5201_0F1D,
            slots,
            sim: false,
            progress: false,
            metrics_out: None,
            trace_out: None,
            events_out: None,
            manifest_out: None,
            json: None,
            accepts_json: false,
            faults: None,
        }
    }

    /// Enables the `--json` flag (validate only).
    pub fn with_json(mut self) -> Self {
        self.accepts_json = true;
        self
    }

    /// Applies command-line arguments (without the program name) on top
    /// of the defaults.
    pub fn parse<I: IntoIterator<Item = String>>(mut self, args: I) -> Result<Self, String> {
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--reps" => self.reps = value(&mut it, "--reps")?,
                "--threads" => self.threads = value(&mut it, "--threads")?,
                "--seed" => self.seed = value(&mut it, "--seed")?,
                "--slots" => self.slots = value(&mut it, "--slots")?,
                "--sim" => self.sim = true,
                "--progress" => self.progress = true,
                "--metrics-out" => self.metrics_out = Some(value(&mut it, "--metrics-out")?),
                "--trace-out" => self.trace_out = Some(value(&mut it, "--trace-out")?),
                "--events-out" => self.events_out = Some(value(&mut it, "--events-out")?),
                "--manifest-out" => self.manifest_out = Some(value(&mut it, "--manifest-out")?),
                "--json" if self.accepts_json => self.json = Some(value(&mut it, "--json")?),
                other => return Err(format!("unknown option `{other}`\n{USAGE}")),
            }
        }
        if self.reps == 0 {
            return Err("--reps must be positive".to_string());
        }
        if self.slots == 0 {
            return Err("--slots must be positive".to_string());
        }
        Ok(self)
    }

    /// Whether any telemetry artifact output was requested.
    pub fn wants_artifacts(&self) -> bool {
        self.metrics_out.is_some()
            || self.trace_out.is_some()
            || self.events_out.is_some()
            || self.manifest_out.is_some()
    }

    /// Whether per-replication metric shards are needed (any output
    /// that renders the metric registry).
    pub fn wants_metrics(&self) -> bool {
        self.metrics_out.is_some() || self.events_out.is_some() || self.manifest_out.is_some()
    }

    /// The manifest path: `--manifest-out` if given, otherwise derived
    /// from the first artifact path (`<path>.manifest.json`). `None`
    /// when no artifact output was requested.
    pub fn manifest_path(&self) -> Option<String> {
        self.manifest_out.clone().or_else(|| {
            self.metrics_out
                .as_ref()
                .or(self.trace_out.as_ref())
                .or(self.events_out.as_ref())
                .map(|p| format!("{p}.manifest.json"))
        })
    }

    /// The Monte Carlo plan of these options: replications, slots,
    /// master seed and threads, with progress reporting and metric
    /// collection per the flags.
    pub fn monte_carlo(&self) -> MonteCarlo {
        MonteCarlo::new(self.reps, self.slots, self.seed)
            .threads(self.threads)
            .progress(self.progress)
            .collect_metrics(self.wants_metrics())
    }

    /// A lane simulating `cfg` under these options' fault plan.
    pub fn lane(&self, cfg: SimConfig) -> Lane {
        Lane::new(cfg).faults(self.faults.clone())
    }
}

fn value<T: FromStr>(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<T, String> {
    let raw = it.next().ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
    raw.parse().map_err(|_| format!("{flag}: cannot parse `{raw}`\n{USAGE}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn runopts_defaults_and_flags() {
        let o = RunOpts::new(8, 250_000).parse(args(&[])).unwrap();
        assert_eq!((o.reps, o.threads, o.slots, o.sim), (8, 0, 250_000, false));
        assert!(!o.progress && !o.wants_artifacts() && !o.wants_metrics());
        let o = RunOpts::new(8, 250_000)
            .parse(args(&[
                "--reps",
                "4",
                "--threads",
                "2",
                "--seed",
                "7",
                "--slots",
                "100",
                "--sim",
            ]))
            .unwrap();
        assert_eq!(
            o,
            RunOpts {
                reps: 4,
                threads: 2,
                seed: 7,
                slots: 100,
                sim: true,
                ..RunOpts::new(8, 250_000)
            }
        );
    }

    #[test]
    fn runopts_artifact_flags() {
        let o = RunOpts::new(2, 100)
            .parse(args(&["--progress", "--metrics-out", "m.prom", "--trace-out", "t.json"]))
            .unwrap();
        assert!(o.progress && o.wants_artifacts() && o.wants_metrics());
        assert_eq!(o.metrics_out.as_deref(), Some("m.prom"));
        assert_eq!(o.manifest_path().as_deref(), Some("m.prom.manifest.json"));

        // --trace-out alone needs no metric shards but still a manifest.
        let o = RunOpts::new(2, 100).parse(args(&["--trace-out", "t.json"])).unwrap();
        assert!(o.wants_artifacts() && !o.wants_metrics());
        assert_eq!(o.manifest_path().as_deref(), Some("t.json.manifest.json"));

        let o = RunOpts::new(2, 100).parse(args(&["--manifest-out", "run.json"])).unwrap();
        assert_eq!(o.manifest_path().as_deref(), Some("run.json"));
        assert!(RunOpts::new(2, 100).parse(args(&[])).unwrap().manifest_path().is_none());
    }

    #[test]
    fn runopts_json_only_where_accepted() {
        // validate opts in; the figure scenarios reject the flag.
        let o = RunOpts::new(2, 100).with_json().parse(args(&["--json", "v.json"])).unwrap();
        assert_eq!(o.json.as_deref(), Some("v.json"));
        assert!(RunOpts::new(2, 100).parse(args(&["--json", "v.json"])).is_err());
        // --json alone does not switch on telemetry collection.
        assert!(!o.wants_artifacts() && !o.wants_metrics());
    }

    #[test]
    fn runopts_rejects_bad_input() {
        assert!(RunOpts::new(8, 1).parse(args(&["--reps"])).is_err());
        assert!(RunOpts::new(8, 1).parse(args(&["--reps", "x"])).is_err());
        assert!(RunOpts::new(8, 1).parse(args(&["--reps", "0"])).is_err());
        assert!(RunOpts::new(8, 1).parse(args(&["--frobnicate"])).is_err());
        // `-h`/`--help` is answered by the front end before any flag is
        // parsed; among the flags it is unknown.
        assert!(RunOpts::new(8, 1).parse(args(&["--help"])).unwrap_err().contains("--reps"));
    }

    #[test]
    fn runopts_monte_carlo_plan() {
        let o = RunOpts::new(3, 1_000).parse(args(&["--threads", "2"])).unwrap();
        let mc = o.monte_carlo();
        assert_eq!((mc.reps, mc.threads, mc.slots), (3, 2, 1_000));
        assert_eq!(mc.seeds().len(), 3);
    }
}
