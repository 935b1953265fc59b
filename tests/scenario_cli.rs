//! End-to-end checks of `linksched run`: the shipped small scenarios
//! reproduce their golden stdout, the telemetry artifacts parse, and
//! the Eq. (38) solver counters are exported from a sweep.
//!
//! The full-size figure scenarios have their own `#[ignore]`d golden
//! tests in `crates/bench/tests/golden.rs` (release CI step); the CI
//! scenarios job additionally runs every shipped scenario file.

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

/// The `validate` and `faulted` tandems (every scheduler row, clean
/// and faulted links) are pinned at a size just past their 10 000-slot
/// warm-up, so their simulated sample paths are checked on every run.
const SMALL_TANDEM: [&str; 4] = ["--reps", "2", "--slots", "12000"];

#[test]
fn small_validate_matches_golden() {
    assert_matches_golden("validate.json", &SMALL_TANDEM, "tests/golden/small/validate_small.txt");
}

#[test]
fn small_faulted_tandem_matches_golden() {
    assert_matches_golden(
        "faulted_tandem.json",
        &SMALL_TANDEM,
        "tests/golden/small/faulted_tandem_small.txt",
    );
}

/// A `validate`/`faulted` run that ends inside the warm-up would
/// record no samples; it is a usage error (2) naming the warm-up, and
/// prints no table.
#[test]
fn tandem_runs_inside_the_warmup_are_usage_errors() {
    for scenario in ["validate.json", "faulted_tandem.json"] {
        for slots in ["6000", "10000"] {
            let out = Command::new(env!("CARGO_BIN_EXE_linksched"))
                .args(["run", &repo_path(&format!("examples/scenarios/{scenario}"))])
                .args(["--reps", "1", "--slots", slots])
                .output()
                .expect("spawn");
            assert_eq!(out.status.code(), Some(2), "{scenario} --slots {slots}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(stderr.contains("10000-slot warm-up"), "{scenario}: {stderr}");
            assert!(out.stdout.is_empty(), "{scenario}: no table on a rejected run");
        }
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
core_delay_bound_calls_total 1216
# TYPE core_edf_fixed_point_iterations_total counter
core_edf_fixed_point_iterations_total 760
# TYPE core_gamma_evals_total counter
core_gamma_evals_total 94848
# TYPE core_netbound_sigma_calls_total counter
core_netbound_sigma_calls_total 94848
# TYPE core_s_evals_total counter
core_s_evals_total 459
# TYPE core_solver_calls_total counter
core_solver_calls_total 94848
# TYPE core_solver_evals_total counter
core_solver_evals_total 403104
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

#[cfg(feature = "telemetry")]
fn prom_counter(text: &str, name: &str) -> Option<f64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| l.strip_prefix(name))
        .and_then(|rest| rest.trim().parse().ok())
}

/// `linksched simulate` fans replications across threads through the
/// same Monte Carlo engine as the bench binaries; stdout (and thus the
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

/// A fault-injected scenario run is bitwise deterministic: identical
/// stdout at 1, 2, and 8 worker threads (the per-node fault streams are
/// seeded per replication, independent of scheduling onto threads).
#[test]
fn faulted_scenario_is_deterministic_across_thread_counts() {
    let scenario = repo_path("examples/scenarios/faulted_tandem.json");
    let base = ["run", scenario.as_str(), "--reps", "4", "--slots", "15000"];
    let reference = run(&with_threads(&base, "1")).stdout;
    for threads in ["2", "8"] {
        let out = run(&with_threads(&base, threads)).stdout;
        assert_eq!(
            String::from_utf8_lossy(&reference),
            String::from_utf8_lossy(&out),
            "faulted run output changed between --threads 1 and --threads {threads}"
        );
    }
}

/// Crash-safety acceptance: SIGKILL a checkpointing fault-injected run
/// mid-flight, resume it, and require byte-identical stdout (and thus
/// merged statistics) versus an uninterrupted run at a different thread
/// count.
#[test]
fn killed_run_resumes_bitwise_identical() {
    let scratch = Scratch::new("resume");
    let scenario = scratch.path("faulted_sim.json");
    std::fs::write(
        &scenario,
        r#"{
          "name": "resume_probe",
          "experiment": "simulate",
          "params": {"hops": 2, "through": 30, "cross": 50, "capacity": 15.0, "sched": "fifo"},
          "faults": [
            {"kind": "gilbert_elliott", "p_fail": 0.002, "p_repair": 0.05, "capacity_factor": 0.0},
            {"kind": "drop", "prob": 0.001}
          ],
          "sim": {"reps": 12, "slots": 150000, "seed": 9}
        }"#,
    )
    .unwrap();

    // Reference: uninterrupted, single-threaded, no checkpointing.
    let reference = run(&["run", &scenario, "--threads", "1"]).stdout;

    // Victim: checkpoint after every replication, SIGKILL as soon as the
    // first checkpoint lands on disk.
    let ckpt = scratch.path("probe.ckpt");
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_linksched"))
        .args([
            "run",
            &scenario,
            "--threads",
            "2",
            "--checkpoint",
            &ckpt,
            "--checkpoint-every",
            "1",
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn victim");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    while !Path::new(&ckpt).exists() && std::time::Instant::now() < deadline {
        if child.try_wait().expect("try_wait").is_some() {
            break; // finished before we could kill it; resume still must work
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    child.kill().ok();
    child.wait().expect("reap victim");
    assert!(Path::new(&ckpt).exists(), "no checkpoint was written before the kill");

    // Resume: must pick up the finished replications and produce stdout
    // byte-identical to the uninterrupted reference.
    let out = Command::new(env!("CARGO_BIN_EXE_linksched"))
        .args([
            "run",
            &scenario,
            "--threads",
            "2",
            "--checkpoint",
            &ckpt,
            "--checkpoint-every",
            "1",
            "--resume",
        ])
        .output()
        .expect("spawn resume");
    assert!(
        out.status.success(),
        "resume run failed ({:?}): {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&reference),
        String::from_utf8_lossy(&out.stdout),
        "resumed stdout diverged from the uninterrupted run"
    );
}

/// A checkpoint from one workload must not be resumable by another: the
/// fingerprint mismatch surfaces as the checkpoint exit code (5), not a
/// silent merge of foreign statistics.
#[test]
fn resume_rejects_a_foreign_checkpoint() {
    let scratch = Scratch::new("foreign");
    let mk = |name: &str, seed: u64| {
        let p = scratch.path(name);
        std::fs::write(
            &p,
            format!(
                r#"{{
                  "name": "probe_{seed}",
                  "experiment": "simulate",
                  "params": {{"hops": 1, "through": 5, "cross": 5, "capacity": 10.0, "sched": "fifo"}},
                  "sim": {{"reps": 2, "slots": 2000, "seed": {seed}}}
                }}"#
            ),
        )
        .unwrap();
        p
    };
    let a = mk("a.json", 1);
    let b = mk("b.json", 2);
    let ckpt = scratch.path("a.ckpt");
    run(&["run", &a, "--checkpoint", &ckpt]);
    let out = Command::new(env!("CARGO_BIN_EXE_linksched"))
        .args(["run", &b, "--checkpoint", &ckpt, "--resume"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(5), "checkpoint mismatch must exit with code 5");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("checkpoint"),
        "stderr should name the checkpoint problem: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// The typed error taxonomy maps failure classes to distinct exit
/// codes: unreadable file (3), invalid scenario (4), infeasible
/// analysis (7).
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
