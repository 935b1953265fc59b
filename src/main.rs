//! `linksched` — command-line front end for the end-to-end delay-bound
//! analysis and the tandem simulator.
//!
//! ```text
//! linksched bound    --hops 5 --through 100 --cross 200 [--capacity 100]
//!                    [--eps 1e-9] [--sched fifo|bmux|sp|edf:<d0>,<dc>|delta:<v>
//!                                         |gps:<w0>,<wc>|scfq:<w0>,<wc>]
//! linksched sweep    --hops 5 --through 100 [--cross-max 500] …
//! linksched simulate --hops 3 --through 40 --cross 60 [--slots 1000000]
//!                    [--seed 1] [--reps 1] [--packet <kb>] [--sched …]
//! linksched run      scenario.json [--reps N] [--threads N] [--seed N] …
//! ```
//!
//! Every command builds a [`nc_scenario::Scenario`] and runs it through
//! [`nc_scenario::Engine`], so the analysis, the Monte Carlo overlay,
//! and the telemetry artifacts behave identically everywhere.
//! `bound`/`sweep`/`simulate` turn their experiment flags into the
//! scenario's `params` ([`Scenario::from_cli`]); every other flag is an
//! engine flag, parsed as for `run`, which executes a declarative
//! scenario file (see `examples/scenarios/`); the paper's figures are
//! the shipped `fig2`/`fig3`/`fig4.json` scenarios.
//!
//! Units follow the paper: capacity in kb per 1 ms slot (= Mbps),
//! delays in ms.

use nc_scenario::{Engine, Scenario};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    // `-h`/`--help` anywhere among a command's flags asks for the usage,
    // as it does in place of a command.
    let help = args[1..].iter().any(|a| a == "-h" || a == "--help");
    match cmd.as_str() {
        "bound" | "sweep" | "simulate" | "run" if help => print_usage(),
        "bound" | "sweep" | "simulate" => match Scenario::from_cli(cmd, &args[1..]) {
            Ok((scenario, flags)) => run_engine(scenario, flags),
            Err(e) => {
                eprintln!("error: {e}\n\n{USAGE}");
                ExitCode::from(e.exit_code())
            }
        },
        "run" => cmd_run(&args[1..]),
        "bench" => cmd_bench(&args[1..]),
        "--help" | "-h" | "help" => print_usage(),
        other => {
            eprintln!("error: unknown command `{other}`\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Prints the usage, with the shared engine options, to stdout.
fn print_usage() -> ExitCode {
    println!("{USAGE}\n\nShared {}", nc_scenario::USAGE);
    ExitCode::SUCCESS
}

/// Applies the engine flags on top of the scenario's defaults and runs
/// it. Maps the engine's typed errors to distinct exit codes (see
/// `nc_scenario::Error::exit_code`): 2 usage, 3 file I/O, 4 invalid
/// scenario, 6 runtime failures, 7 infeasible analysis. Code 5 is retired and no longer produced; 6 and 7 keep
/// their numbers.
fn run_engine(scenario: Scenario, flags: Vec<String>) -> ExitCode {
    let opts = match Engine::default_opts(&scenario).parse(flags) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
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
    match Scenario::load(path) {
        Ok(scenario) => run_engine(scenario, args[1..].to_vec()),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(e.exit_code())
        }
    }
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
    linksched bound    --hops H --through N0 [--cross NC] [--capacity C]
                       [--eps E] [--sched S] [--packet L] [options]
    linksched sweep    --hops H --through N0 [--cross-max NC] [--capacity C]
                       [--eps E] [options]
    linksched simulate --hops H --through N0 [--cross NC] [--capacity C]
                       [--sched S] [--packet L] [options]
    linksched run      <scenario.json> [options]
    linksched bench    --out P [--smoke] [--reps N] [--warmup N]
                       [--threads N] [--filter S] [--perf-guard]

EXPERIMENT FLAGS (each sets the scenario `params` key of its name):
    --hops H           path length
    --through N0       through flows
    --cross NC         cross flows per node                     [default: 0]
    --cross-max NC     largest cross-flow count (`cross_max`)   [default: 500]
    --capacity C       link capacity in Mbps (= kb/ms)          [default: 100]
    --eps E            violation probability (`epsilon`)        [default: 1e-9]
    --sched S          fifo | bmux | sp | edf:<d0>,<dc> | delta:<v>
                       | gps:<w0>,<wc> | scfq:<w0>,<wc>
                       (gps/scfq are not Δ-schedulers: `bound` reports
                       the BMUX envelope for them)            [default: fifo]
    --packet L         packet size in kb: non-preemptive packet mode
                       (not with gps in `simulate`)

`bound`, `sweep` and `simulate` run with --reps 1, --slots 1000000 and
--seed 1 unless the shared options say otherwise.

`run` executes a declarative scenario file (see examples/scenarios/,
which holds one per figure), including the telemetry artifact
outputs.

`bench` times a pinned suite of analysis-sweep, min-plus-kernel, and
simulator workloads and writes median + IQR wall times plus telemetry
op counts to the required `--out` path, e.g. BENCH_9.json (see
EXPERIMENTS.md).

Traffic is the paper's Markov-modulated on-off source: 1.5 Mbps peak,
≈0.15 Mbps mean per flow.";
