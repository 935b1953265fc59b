//! End-to-end checks of `linksched run`: the shipped scenarios
//! reproduce their golden stdout, the telemetry artifacts parse, and
//! the Eq. (38) solver counters are exported from a sweep.
//!
//! The full-size figure goldens take about a second each in release but
//! far longer in a debug build, so they are `#[ignore]`d here and run
//! by the release CI step
//! (`cargo test --release -q --test scenario_cli -- --ignored`); the CI
//! scenarios job additionally runs every shipped scenario file.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn repo_path(rel: &str) -> String {
    format!("{}/{rel}", env!("CARGO_MANIFEST_DIR"))
}

fn run(args: &[&str]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_linksched")).args(args).output().expect("spawn");
    assert!(
        out.status.success(),
        "linksched {args:?} failed ({:?}): {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn run_scenario(name: &str, extra: &[&str]) -> String {
    let mut args = vec!["run".to_string(), repo_path(&format!("examples/scenarios/{name}"))];
    args.extend(extra.iter().map(|s| s.to_string()));
    let refs: Vec<&str> = args.iter().map(String::as_str).collect();
    String::from_utf8(run(&refs).stdout).expect("stdout is UTF-8")
}

fn assert_matches_golden(scenario: &str, extra: &[&str], golden: &str) {
    let expected = std::fs::read_to_string(repo_path(golden)).expect("golden file");
    let actual = run_scenario(scenario, extra);
    assert_eq!(expected, actual, "`linksched run {scenario} {extra:?}` diverged from {golden}");
}

/// A unique scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("linksched-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    fn path(&self, name: &str) -> String {
        self.0.join(name).to_string_lossy().into_owned()
    }

    fn read(&self, name: &str) -> String {
        std::fs::read_to_string(self.0.join(name)).unwrap_or_else(|e| panic!("read {name}: {e}"))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn small_sweep_matches_golden() {
    assert_matches_golden("sweep_small.json", &[], "tests/golden/small/sweep_small.txt");
}

#[test]
fn bound_demo_matches_golden() {
    assert_matches_golden("bound_demo.json", &[], "tests/golden/small/bound_demo.txt");
}

#[test]
fn hetero_simulation_matches_golden() {
    assert_matches_golden("simulate_hetero.json", &[], "tests/golden/small/simulate_hetero.txt");
}

/// The `validate` tandem (every scheduler row) is pinned at a size just
/// past its 10 000-slot warm-up, so its simulated sample paths are
/// checked on every run.
const SMALL_TANDEM: [&str; 4] = ["--reps", "2", "--slots", "12000"];

#[test]
fn small_validate_matches_golden() {
    assert_matches_golden("validate.json", &SMALL_TANDEM, "tests/golden/small/validate_small.txt");
}

/// Packetized FIFO, SP, EDF, SCFQ and BMUX, fluid SCFQ, a zero EDF
/// deadline and both signs of `delta:<v>`: run paths no figure golden
/// reaches. Their stdout and their per-node scheduler
/// counters are pinned here.
#[test]
fn simulate_schedulers_match_golden() {
    const BASE: [&str; 13] = [
        "simulate",
        "--hops",
        "3",
        "--through",
        "40",
        "--cross",
        "60",
        "--capacity",
        "20",
        "--slots",
        "60000",
        "--reps",
        "2",
    ];
    const RUNS: [&[&str]; 10] = [
        &["--sched", "fifo", "--packet", "1.5"],
        &["--sched", "sp", "--packet", "1.5"],
        &["--sched", "edf:10,40", "--packet", "1.5"],
        &["--sched", "scfq:1,2", "--packet", "1.5"],
        &["--sched", "scfq:1,2"],
        &["--sched", "scfq:2,1"],
        &["--sched", "bmux", "--packet", "1.5"],
        &["--sched", "edf:0,5"],
        &["--sched", "delta:30"],
        &["--sched", "delta:-30", "--packet", "1.5"],
    ];
    let scratch = Scratch::new("simulate-schedulers");
    let metrics = scratch.path("m.prom");
    let (mut stdout, mut counters) = (String::new(), String::new());
    for extra in RUNS {
        let header = format!("$ linksched {} {}\n", BASE.join(" "), extra.join(" "));
        let out = run(&[&BASE[..], extra, &["--metrics-out", metrics.as_str()]].concat());
        stdout.push_str(&header);
        stdout.push_str(&String::from_utf8(out.stdout).expect("stdout is UTF-8"));
        counters.push_str(&header);
        for line in scratch.read("m.prom").lines().filter(|l| is_scheduler_counter(l)) {
            counters.push_str(line);
            counters.push('\n');
        }
    }
    let golden = |name: &str| {
        std::fs::read_to_string(repo_path(&format!("tests/golden/small/{name}"))).expect("golden")
    };
    assert_eq!(golden("simulate_schedulers.txt"), stdout, "simulate stdout diverged");
    if cfg!(feature = "telemetry") {
        assert_eq!(
            golden("simulate_scheduler_counters.txt"),
            counters,
            "scheduler counters diverged"
        );
    }
}

fn is_scheduler_counter(line: &str) -> bool {
    ["scheduler_decisions", "chunks_completed", "chunk_splits", "edf_deadline_misses"]
        .iter()
        .any(|name| line.starts_with(&format!("sim_node_{name}_total")))
}

/// The full-size figure runs reproduce `tests/golden/` (see its README
/// for the invocations).
const FIGURE_SIM: [&str; 5] = ["--sim", "--reps", "2", "--slots", "6000"];

#[test]
#[ignore = "full-size run; exercised in the release CI step"]
fn validate_matches_golden() {
    assert_matches_golden(
        "validate.json",
        &["--reps", "2", "--slots", "11000"],
        "tests/golden/validate.txt",
    );
}

#[test]
#[ignore = "full-size run; exercised in the release CI step"]
fn fig2_matches_golden() {
    assert_matches_golden("fig2.json", &FIGURE_SIM, "tests/golden/fig2.txt");
}

#[test]
#[ignore = "full-size run; exercised in the release CI step"]
fn fig3_matches_golden() {
    assert_matches_golden("fig3.json", &FIGURE_SIM, "tests/golden/fig3.txt");
}

#[test]
#[ignore = "full-size run; exercised in the release CI step"]
fn fig4_matches_golden() {
    assert_matches_golden("fig4.json", &FIGURE_SIM, "tests/golden/fig4.txt");
}

#[test]
#[ignore = "full-size run; exercised in the release CI step"]
fn ablation_matches_golden_modulo_timings() {
    let expected = std::fs::read_to_string(repo_path("tests/golden/ablation.txt")).expect("golden");
    let actual = run_scenario("ablation.json", &["--reps", "2", "--slots", "6000"]);
    assert_eq!(mask_timings(&expected), mask_timings(&actual), "ablation diverged from its golden");
}

/// Strips the nondeterministic wall-clock fields from the ablation
/// output: the two trailing `t(...)[µs]` columns of the ablation-1
/// rows and every digit of the ablation-4 timing/speedup line. All
/// other numbers (bounds, σ values, grid losses) are deterministic and
/// compared exactly.
fn mask_timings(text: &str) -> String {
    let mut out = Vec::new();
    let mut in_optimizer_table = false;
    for line in text.lines() {
        if line.starts_with("# Ablation") {
            in_optimizer_table = line.starts_with("# Ablation 1");
        }
        let first = line.trim_start().chars().next();
        let masked = if in_optimizer_table && first.is_some_and(|c| c.is_ascii_digit() || c == '-')
        {
            let fields: Vec<&str> = line.split_whitespace().collect();
            fields[..fields.len().saturating_sub(2)].join(" ")
        } else if line.starts_with("threads=") {
            line.chars().map(|c| if c.is_ascii_digit() { '#' } else { c }).collect()
        } else {
            line.to_string()
        };
        out.push(masked);
    }
    out.join("\n")
}

/// `validate` writes every artifact: the Prometheus export (with the
/// per-layer timings), the JSONL event stream, the run manifest and the
/// `--json` results document all exist and parse, and the run stays
/// deterministic (same seed ⇒ byte-identical stdout and results JSON).
/// The JSON checks use the in-repo validator.
#[test]
fn validate_emits_parsable_artifacts_and_stays_deterministic() {
    // 11k slots = 10k warm-up + 1k measured: enough for every artifact
    // while keeping the suite fast.
    let base = ["--reps", "2", "--slots", "11000", "--threads", "2"];
    let scratch = Scratch::new("validate-artifacts");
    let paths = ["m.prom", "e.jsonl", "v.json"].map(|name| scratch.path(name));
    let mut args = base.to_vec();
    for (flag, path) in ["--metrics-out", "--events-out", "--json"].iter().zip(&paths) {
        args.extend([*flag, path.as_str()]);
    }
    let first = run_scenario("validate.json", &args);

    // Prometheus exposition: when instrumented, at least 10 distinct
    // series spanning the simulator, solver, and min-plus namespaces.
    let prom = scratch.read("m.prom");
    let series: BTreeSet<&str> = prom
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.split(['{', ' ']).next().unwrap())
        .collect();
    if cfg!(feature = "telemetry") {
        assert!(series.len() >= 10, "only {} distinct series: {series:?}", series.len());
        for prefix in ["sim_", "core_", "minplus_", "mc_"] {
            assert!(
                series.iter().any(|s| s.starts_with(prefix)),
                "no `{prefix}*` series in {series:?}"
            );
        }
    }

    // Per-layer timings: every bound is one s search over γ searches.
    if cfg!(feature = "telemetry") {
        for name in ["core_s_search_seconds", "core_delay_bound_seconds"] {
            let count = prom_counter(&prom, &format!("{name}_count")).unwrap_or(0.0);
            assert!(count > 0.0, "no `{name}` observations");
        }
    }

    // JSONL event stream: every line is one JSON object.
    let events = scratch.read("e.jsonl");
    for (i, line) in events.lines().enumerate() {
        nc_telemetry::json::validate(line).unwrap_or_else(|e| panic!("events line {}: {e}", i + 1));
    }

    // Run manifest: derived path, parses, lists every artifact.
    let manifest = scratch.read("m.prom.manifest.json");
    nc_telemetry::json::validate(&manifest).expect("manifest parses");
    assert!(manifest.contains("\"binary\": \"validate\""));
    for kind in ["\"metrics\"", "\"events\"", "\"results\""] {
        assert!(manifest.contains(kind), "manifest lacks {kind} artifact");
    }

    // --json results: parses and carries the table plus the min-plus
    // cross-check of two independent bound implementations.
    let results = scratch.read("v.json");
    nc_telemetry::json::validate(&results).expect("results JSON parses");
    for key in ["\"sections\"", "\"scheduler\"", "\"minplus_check\"", "\"abs_diff\""] {
        assert!(results.contains(key), "results lack {key}");
    }

    // Determinism: a second identical run (fresh paths) reproduces
    // stdout and the results document byte for byte.
    let repeat = Scratch::new("validate-repeat");
    let results_again = repeat.path("v.json");
    let mut args = base.to_vec();
    args.extend(["--json", results_again.as_str()]);
    let second = run_scenario("validate.json", &args);
    assert_eq!(first, second, "stdout differs between identical runs");
    assert_eq!(results, repeat.read("v.json"), "results JSON differs between runs");
}

/// A `validate` run that ends inside the warm-up would record no
/// samples; it is a usage error (2) naming the warm-up, and prints no
/// table.
#[test]
fn tandem_runs_inside_the_warmup_are_usage_errors() {
    for slots in ["6000", "10000"] {
        let out = Command::new(env!("CARGO_BIN_EXE_linksched"))
            .args(["run", &repo_path("examples/scenarios/validate.json")])
            .args(["--reps", "1", "--slots", slots])
            .output()
            .expect("spawn");
        assert_eq!(out.status.code(), Some(2), "--slots {slots}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("10000-slot warm-up"), "{stderr}");
        assert!(out.stdout.is_empty(), "no table on a rejected run");
    }
}

#[test]
fn run_rejects_missing_and_malformed_scenarios() {
    let out = Command::new(env!("CARGO_BIN_EXE_linksched"))
        .args(["run", "/nonexistent/scenario.json"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));

    let scratch = Scratch::new("badjson");
    let bad = scratch.path("bad.json");
    std::fs::write(&bad, "{\"name\": \"x\", \"experiment\": \"no-such\"}").unwrap();
    let out =
        Command::new(env!("CARGO_BIN_EXE_linksched")).args(["run", &bad]).output().expect("spawn");
    assert!(!out.status.success());
}

/// The sweep scenario's FIFO and EDF columns run the Eq. (38) solver;
/// its call and evaluation counters must reach the metrics artifact.
#[cfg(feature = "telemetry")]
#[test]
fn sweep_scenario_artifacts_parse_and_cache_hits() {
    let scratch = Scratch::new("artifacts");
    let metrics = scratch.path("metrics.prom");
    let manifest = scratch.path("manifest.json");
    run_scenario("sweep_small.json", &["--metrics-out", &metrics, "--manifest-out", &manifest]);

    let manifest_text = scratch.read("manifest.json");
    nc_telemetry::json::validate(&manifest_text).expect("manifest is valid JSON");
    assert!(manifest_text.contains("\"binary\": \"sweep_small\""), "manifest names the scenario");

    let metrics_text = scratch.read("metrics.prom");
    for name in ["core_solver_calls_total", "core_solver_evals_total"] {
        let value = prom_counter(&metrics_text, name)
            .unwrap_or_else(|| panic!("metrics export the {name} counter"));
        assert!(value > 0.0, "utilization sweep must count solver work in {name}, got {value}");
    }
}

/// Every counter series of the small sweep. Names, labels and values
/// must not depend on how the program records them (static handles or
/// keyed calls). Timings and gauges depend on the wall clock and are
/// left out.
#[cfg(feature = "telemetry")]
const SWEEP_SMALL_COUNTERS: &str = "\
# TYPE core_delay_bound_calls_total counter
core_delay_bound_calls_total 393
# TYPE core_edf_fixed_point_iterations_total counter
core_edf_fixed_point_iterations_total 200
# TYPE core_gamma_evals_total counter
core_gamma_evals_total 30654
# TYPE core_netbound_sigma_calls_total counter
core_netbound_sigma_calls_total 30654
# TYPE core_s_evals_total counter
core_s_evals_total 196
# TYPE core_s_pruned_total counter
core_s_pruned_total 263
# TYPE core_solver_calls_total counter
core_solver_calls_total 30654
# TYPE core_solver_evals_total counter
core_solver_evals_total 77127
# TYPE sweep_cells_total counter
sweep_cells_total 3
";

#[cfg(feature = "telemetry")]
#[test]
fn sweep_counter_export_is_pinned() {
    let scratch = Scratch::new("counters");
    let metrics = scratch.path("metrics.prom");
    run_scenario("sweep_small.json", &["--metrics-out", &metrics]);
    let text = scratch.read("metrics.prom");
    // Keep the lines of every `# TYPE … counter` block.
    let mut counters = String::new();
    let mut in_counter = false;
    for line in text.lines() {
        if let Some(decl) = line.strip_prefix("# TYPE ") {
            in_counter = decl.ends_with(" counter");
        }
        if in_counter {
            counters.push_str(line);
            counters.push('\n');
        }
    }
    assert_eq!(counters, SWEEP_SMALL_COUNTERS);
    assert!(!text.contains("core_solver_seconds"), "the solver is counted, not timed");
}

fn prom_counter(text: &str, name: &str) -> Option<f64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| l.strip_prefix(name))
        .and_then(|rest| rest.trim().parse().ok())
}

/// `linksched simulate` fans replications across threads through the
/// same Monte Carlo engine as `linksched run`; stdout (and thus the
/// merged statistics) must be bitwise identical for any thread count.
#[test]
fn simulate_is_deterministic_across_thread_counts() {
    let base = [
        "simulate",
        "--hops",
        "2",
        "--through",
        "30",
        "--cross",
        "50",
        "--capacity",
        "15",
        "--slots",
        "8000",
        "--reps",
        "8",
        "--seed",
        "42",
    ];
    let reference = run(&with_threads(&base, "1")).stdout;
    for threads in ["2", "8"] {
        let out = run(&with_threads(&base, threads)).stdout;
        assert_eq!(
            String::from_utf8_lossy(&reference),
            String::from_utf8_lossy(&out),
            "simulate output changed between --threads 1 and --threads {threads}"
        );
    }
}

fn with_threads<'a>(base: &[&'a str], threads: &'a str) -> Vec<&'a str> {
    let mut v = base.to_vec();
    v.push("--threads");
    v.push(threads);
    v
}

/// A multi-lane scenario run is bitwise deterministic: `validate`
/// prints identical stdout at 1, 2 and 8 worker threads. Eight
/// replications give each of the eight workers one.
#[test]
fn validate_is_deterministic_across_thread_counts() {
    let scenario = repo_path("examples/scenarios/validate.json");
    let base = ["run", scenario.as_str(), "--reps", "8", "--slots", "12000"];
    let reference = run(&with_threads(&base, "1")).stdout;
    for threads in ["2", "8"] {
        let out = run(&with_threads(&base, threads)).stdout;
        assert_eq!(
            String::from_utf8_lossy(&reference),
            String::from_utf8_lossy(&out),
            "validate output changed between --threads 1 and --threads {threads}"
        );
    }
}

/// `-h`/`--help` after a command prints the usage to stdout and exits
/// 0, as `linksched --help` does, whatever else is on the line.
#[test]
fn help_after_a_command_prints_usage_and_succeeds() {
    let demo = repo_path("examples/scenarios/bound_demo.json");
    let top = run(&["--help"]).stdout;
    for args in [
        &["run", demo.as_str(), "--help"][..],
        &["run", "-h"],
        &["bound", "--help"],
        &["bound", "--hops", "5", "--through", "100", "-h"],
        &["sweep", "--help"],
        &["simulate", "--reps", "2", "--help"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_linksched")).args(args).output().expect("spawn");
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        assert_eq!(out.stdout, top, "{args:?} prints the usage");
        assert!(out.stderr.is_empty(), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
    }
}

/// The typed error taxonomy maps failure classes to distinct exit
/// codes: usage error (2), unreadable file (3), invalid scenario (4),
/// infeasible analysis (7).
#[test]
fn exit_codes_distinguish_failure_classes() {
    let probe = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_linksched")).args(args).output().expect("spawn")
    };
    let out = probe(&["run", "/nonexistent/scenario.json"]);
    assert_eq!(out.status.code(), Some(3), "unreadable file is exit code 3");

    let scratch = Scratch::new("exitcodes");
    let bad = scratch.path("bad.json");
    std::fs::write(&bad, "{\"name\": \"x\", \"experiment\": \"no-such\"}").unwrap();
    let out = probe(&["run", &bad]);
    assert_eq!(out.status.code(), Some(4), "invalid scenario is exit code 4");

    // An overloaded tandem has no finite delay bound: infeasible (7).
    let out = probe(&["bound", "--hops", "2", "--through", "900", "--cross", "0"]);
    assert_eq!(out.status.code(), Some(7), "infeasible analysis is exit code 7");

    // `bench` has no default report path: a missing `--out` is a usage
    // error (2).
    let out = probe(&["bench", "--smoke", "--filter", "no-such-workload"]);
    assert_eq!(out.status.code(), Some(2), "bench without --out is exit code 2");
    assert!(String::from_utf8_lossy(&out.stderr).contains("--out"));

    // Only validation scenarios accept `--json`; a figure rejects it
    // as a usage error (2).
    let fig2 = repo_path("examples/scenarios/fig2.json");
    let out = probe(&["run", &fig2, "--json", "x.json"]);
    assert_eq!(out.status.code(), Some(2), "fig2 --json is exit code 2");
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown option"));

    // Runs are not resumable: `--checkpoint` is an unknown option (2).
    let out = probe(&["run", &fig2, "--checkpoint", "x"]);
    assert_eq!(out.status.code(), Some(2), "fig2 --checkpoint is exit code 2");
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown option"));

    // The simulator has no packetized GPS: the combination is an input
    // error, usage (2) from the command line and invalid scenario (4)
    // from a file, never a panic.
    let gps_packet = ["--hops", "1", "--through", "5", "--cross", "5", "--sched", "gps:1,1"];
    let out = probe(&[&["simulate"][..], &gps_packet, &["--packet", "1.5"]].concat());
    assert_eq!(out.status.code(), Some(2), "simulate gps + packet is exit code 2");
    assert!(String::from_utf8_lossy(&out.stderr).contains("gps"));
    let file = scratch.path("gps_packet.json");
    std::fs::write(
        &file,
        r#"{"name": "g", "experiment": "simulate",
            "params": {"hops": 1, "through": 5, "cross": 5, "sched": "gps:1,1", "packet": 1.5}}"#,
    )
    .unwrap();
    let out = probe(&["run", &file, "--reps", "2"]);
    assert_eq!(out.status.code(), Some(4), "a gps + packet scenario file is exit code 4");

    // A top-level key outside the schema (a retired block, a typo) is an
    // invalid scenario (4) that names the key, never silently ignored.
    let simulate = r#""name": "k", "experiment": "simulate", "params": {"hops": 1, "through": 5}"#;
    for (key, extra) in [
        ("faults", r#""faults": [{"kind": "drop", "prob": 0.01}]"#),
        ("titel", r#""titel": "misspelled title""#),
    ] {
        let file = scratch.path(&format!("{key}.json"));
        std::fs::write(&file, format!("{{{simulate}, {extra}}}")).unwrap();
        let out = probe(&["run", &file, "--reps", "1", "--slots", "2000"]);
        assert_eq!(out.status.code(), Some(4), "top-level `{key}` is exit code 4");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("unknown top-level key `{key}`")), "{stderr}");
        assert!(out.stdout.is_empty(), "{key}: nothing runs");
    }
}

/// JSON has no infinity: a number beyond `f64` is an invalid scenario
/// (4), never +∞. A +∞ `u_stop` would pass the scenario check and grow
/// the utilization grid without bound.
#[test]
fn overflowing_numbers_are_invalid_scenarios() {
    let fig2 = std::fs::read_to_string(repo_path("examples/scenarios/fig2.json")).unwrap();
    assert!(fig2.contains("\"u_stop\": 0.951"));
    let scratch = Scratch::new("overflow");
    let file = scratch.path("u_stop.json");
    std::fs::write(&file, fig2.replace("\"u_stop\": 0.951", "\"u_stop\": 1e999")).unwrap();
    let out =
        Command::new(env!("CARGO_BIN_EXE_linksched")).args(["run", &file]).output().expect("spawn");
    assert_eq!(out.status.code(), Some(4), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stderr).contains("out of range"));
    assert!(out.stdout.is_empty());
}

/// `bound`, `sweep` and `simulate` take every engine flag of `run`:
/// a single bound query exports its metrics.
#[test]
fn bound_accepts_the_engine_flags() {
    let scratch = Scratch::new("bound-metrics");
    let metrics = scratch.path("m.prom");
    let args = ["bound", "--hops", "5", "--through", "100", "--cross", "200", "--metrics-out"];
    run(&[&args[..], &[metrics.as_str()]].concat());
    let text = scratch.read("m.prom");
    if cfg!(feature = "telemetry") {
        let calls = prom_counter(&text, "core_delay_bound_calls_total").unwrap_or(0.0);
        assert!(calls > 0.0, "bound must count its delay-bound call, got {calls}");
    }
}

/// Scenario files shipped in the repository must all parse (full runs
/// of the figure-size ones are covered by the golden tests and CI).
#[test]
fn every_shipped_scenario_parses() {
    let dir = repo_path("examples/scenarios");
    let mut seen = 0;
    for entry in std::fs::read_dir(Path::new(&dir)).expect("examples/scenarios exists") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "json") {
            let text = std::fs::read_to_string(&path).expect("read scenario");
            nc_scenario::Scenario::from_json(&text)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            seen += 1;
        }
    }
    assert!(seen >= 8, "expected the shipped scenario set, found {seen}");
}
