//! `linksched` — command-line front end for the end-to-end delay-bound
//! analysis and the tandem simulator.
//!
//! ```text
//! linksched bound    --hops 5 --through 100 --cross 200 [--capacity 100]
//!                    [--eps 1e-9] [--sched fifo|bmux|sp|edf:<d0>,<dc>|delta:<v>]
//! linksched sweep    --hops 5 --through 100 [--cross-max 500] …
//! linksched simulate --hops 3 --through 40 --cross 60 [--slots 1000000]
//!                    [--seed 1] [--reps 1] [--packet <kb>] [--sched …]
//! linksched run      scenario.json [--reps N] [--threads N] [--seed N] …
//! ```
//!
//! Every command builds a [`nc_scenario::Scenario`] and runs it through
//! [`nc_scenario::Engine`], so the analysis, the Monte Carlo overlay,
//! and the telemetry artifacts behave identically everywhere.
//! `run` executes a declarative scenario file (see
//! `examples/scenarios/`); the paper's figures are the shipped
//! `fig2`/`fig3`/`fig4.json` scenarios.
//!
//! Units follow the paper: capacity in kb per 1 ms slot (= Mbps),
//! delays in ms.

use nc_scenario::{
    Bound, CrossSweep, Engine, Experiment, RunOpts, Scenario, SimDefaults, Simulate,
};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    match cmd.as_str() {
        "bound" | "sweep" | "simulate" => {
            let opts = match Options::parse(&args[1..]) {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("error: {e}\n\n{USAGE}");
                    return ExitCode::from(2);
                }
            };
            let scenario = match opts.scenario(cmd) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
            };
            run_engine(scenario, opts.run_opts())
        }
        "run" => cmd_run(&args[1..]),
        "bench" => cmd_bench(&args[1..]),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("error: unknown command `{other}`\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Maps the engine's typed errors to distinct exit codes (see
/// `nc_scenario::Error::exit_code`): 2 usage, 3 file I/O, 4 bad
/// scenario/fault configuration, 6 runtime failures, 7 infeasible
/// analysis. Code 5 is retired and no longer produced; 6 and 7 keep
/// their numbers.
fn run_engine(scenario: Scenario, opts: RunOpts) -> ExitCode {
    match Engine::new(scenario, opts).run() {
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}

/// `linksched run <scenario.json> [engine flags]`: loads a scenario
/// file and applies the shared engine options on top of its defaults.
fn cmd_run(args: &[String]) -> ExitCode {
    let Some(path) = args.first().filter(|a| !a.starts_with('-')) else {
        eprintln!(
            "error: `run` needs a scenario file\n\nusage: linksched run <scenario.json> [options]\n{}",
            nc_scenario::USAGE
        );
        return ExitCode::from(2);
    };
    // Scenario::load distinguishes an unreadable file (exit code 3)
    // from an invalid one (exit code 4).
    let scenario = match Scenario::load(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(e.exit_code());
        }
    };
    let opts = match Engine::default_opts(&scenario).parse(args[1..].to_vec()) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    run_engine(scenario, opts)
}

/// `linksched bench [options]`: the pinned perf-trajectory suite.
/// Exit codes: 2 for a flag error, 6 for a runtime failure (e.g. the
/// report cannot be written), 1 for a `--perf-guard` regression (a
/// guard skipped on a single-CPU machine exits 0).
fn cmd_bench(args: &[String]) -> ExitCode {
    let opts = match nc_scenario::bench_harness::BenchOpts::parse(args.to_vec()) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", nc_scenario::bench_harness::BENCH_USAGE);
            return ExitCode::from(2);
        }
    };
    match nc_scenario::bench_harness::run(&opts) {
        Ok(report) if report.guard == Some(nc_scenario::bench_harness::PerfGuard::Fail) => {
            ExitCode::from(1)
        }
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(6)
        }
    }
}

const USAGE: &str = "\
linksched — end-to-end delay bounds for link schedulers on long paths
(reproduction of Liebeherr/Ghiassi-Farrokhfal/Burchard, ICDCS 2010)

USAGE:
    linksched bound    --hops H --through N0 --cross NC [options]
    linksched sweep    --hops H --through N0 [--cross-max NC] [options]
    linksched simulate --hops H --through N0 --cross NC [--slots N] [options]
    linksched run      <scenario.json> [--reps N] [--threads N] [--seed N]
                       [--slots N] [--metrics-out P] [--trace-out P]
                       [--events-out P] [--manifest-out P] [--progress]
    linksched bench    --out P [--smoke] [--reps N] [--warmup N]
                       [--threads N] [--filter S] [--perf-guard]

OPTIONS:
    --capacity C       link capacity in Mbps (= kb/ms)          [default: 100]
    --eps E            violation probability                    [default: 1e-9]
    --sched S          fifo | bmux | sp | edf:<d0>,<dc> | delta:<v>
                       | gps:<w0>,<wc> | scfq:<w0>,<wc>
                       (gps/scfq are not Δ-schedulers: `bound` reports
                       the BMUX envelope for them)            [default: fifo]
    --slots N          simulated slots (simulate)               [default: 1000000]
    --seed X           RNG seed (simulate)                      [default: 1]
    --reps N           Monte Carlo replications (simulate)      [default: 1]
    --threads N        worker threads, 0 = auto (simulate)      [default: 0]
    --packet L         packet size in kb: non-preemptive packet mode (simulate)
    --cross-max NC     largest cross-flow count (sweep)         [default: 500]

`run` executes a declarative scenario file (see examples/scenarios/,
which holds one per figure), including the telemetry artifact
outputs.

`bench` times a pinned suite of analysis-sweep, min-plus-kernel, and
simulator workloads and writes median + IQR wall times plus telemetry
op counts to the required `--out` path, e.g. BENCH_9.json (see
EXPERIMENTS.md).

Traffic is the paper's Markov-modulated on-off source: 1.5 Mbps peak,
≈0.15 Mbps mean per flow.";

#[derive(Debug, Clone)]
struct Options {
    hops: usize,
    through: usize,
    cross: usize,
    cross_max: usize,
    capacity: f64,
    eps: f64,
    sched: String,
    slots: u64,
    seed: u64,
    reps: usize,
    threads: usize,
    packet: Option<f64>,
}

impl Options {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut o = Options {
            hops: 1,
            through: 1,
            cross: 0,
            cross_max: 500,
            capacity: 100.0,
            eps: 1e-9,
            sched: "fifo".into(),
            slots: 1_000_000,
            seed: 1,
            reps: 1,
            threads: 0,
            packet: None,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut val =
                || it.next().cloned().ok_or_else(|| format!("missing value for `{flag}`"));
            match flag.as_str() {
                "--hops" => o.hops = parse(&val()?, "hops")?,
                "--through" => o.through = parse(&val()?, "through")?,
                "--cross" => o.cross = parse(&val()?, "cross")?,
                "--cross-max" => o.cross_max = parse(&val()?, "cross-max")?,
                "--capacity" => o.capacity = parse(&val()?, "capacity")?,
                "--eps" => o.eps = parse(&val()?, "eps")?,
                "--sched" => o.sched = val()?,
                "--slots" => o.slots = parse(&val()?, "slots")?,
                "--seed" => o.seed = parse(&val()?, "seed")?,
                "--reps" => o.reps = parse(&val()?, "reps")?,
                "--threads" => o.threads = parse(&val()?, "threads")?,
                "--packet" => o.packet = Some(parse(&val()?, "packet")?),
                other => return Err(format!("unknown option `{other}`")),
            }
        }
        // Validate up front so library asserts never reach the user as
        // panics.
        if o.hops == 0 {
            return Err("`--hops` must be at least 1".into());
        }
        if o.through == 0 {
            return Err("`--through` must be at least 1".into());
        }
        if !(o.eps > 0.0 && o.eps < 1.0) {
            return Err(format!("`--eps` must lie in (0, 1), got {}", o.eps));
        }
        if !(o.capacity > 0.0 && o.capacity.is_finite()) {
            return Err(format!("`--capacity` must be positive, got {}", o.capacity));
        }
        if let Some(l) = o.packet {
            if !(l > 0.0 && l.is_finite()) {
                return Err(format!("`--packet` must be positive, got {l}"));
            }
        }
        if o.slots == 0 {
            return Err("`--slots` must be at least 1".into());
        }
        if o.reps == 0 {
            return Err("`--reps` must be at least 1".into());
        }
        Ok(o)
    }

    /// The scenario equivalent of this command line. The scheduler spec
    /// is validated here so bad input fails before any table output.
    fn scenario(&self, cmd: &str) -> Result<Scenario, String> {
        nc_scenario::parse_sched(&self.sched)?;
        let experiment = match cmd {
            "bound" => Experiment::Bound(Bound {
                hops: self.hops,
                through: self.through,
                cross: self.cross,
                capacity: self.capacity,
                epsilon: self.eps,
                sched: self.sched.clone(),
                packet: self.packet,
            }),
            "sweep" => Experiment::CrossSweep(CrossSweep {
                hops: self.hops,
                through: self.through,
                cross_max: self.cross_max,
                capacity: self.capacity,
                epsilon: self.eps,
            }),
            "simulate" => Experiment::Simulate(Simulate {
                hops: self.hops,
                through: self.through,
                cross: self.cross,
                capacity: self.capacity,
                capacities: None,
                sched: self.sched.clone(),
                packet: self.packet,
            }),
            other => return Err(format!("unknown command `{other}`")),
        };
        Ok(Scenario {
            name: cmd.to_string(),
            title: None,
            experiment,
            sim: SimDefaults { reps: self.reps, slots: self.slots, seed: Some(self.seed) },
            faults: None,
        })
    }

    fn run_opts(&self) -> RunOpts {
        let mut opts = RunOpts::new(self.reps, self.slots);
        opts.seed = self.seed;
        opts.threads = self.threads;
        opts
    }
}

fn parse<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("invalid value `{s}` for `{what}`"))
}
