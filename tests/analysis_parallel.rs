//! Differential checks of the parallel analytic sweep engine: for
//! every sweep experiment, `linksched run … --threads N` must produce
//! stdout byte-identical to the serial run at N = 1, 2, and 8.
//!
//! The engine guarantees this by construction (cells are pure
//! functions of their index, results are stored by index and printed
//! serially in order, and cells share no mutable state) — these tests
//! pin the guarantee at the binary boundary, where a regression would
//! silently corrupt figure output.
//!
//! Small purpose-built grids keep the fast tests fast; the shipped
//! full-size Fig. 3 scenario has an `#[ignore]`d variant for the
//! release CI step.

use std::path::PathBuf;
use std::process::{Command, Output};

fn repo_path(rel: &str) -> String {
    format!("{}/{rel}", env!("CARGO_MANIFEST_DIR"))
}

fn run(args: &[String]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_linksched")).args(args).output().expect("spawn");
    assert!(
        out.status.success(),
        "linksched {args:?} failed ({:?}): {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn stdout_at_threads(scenario_path: &str, threads: usize) -> String {
    let args = vec![
        "run".to_string(),
        scenario_path.to_string(),
        "--threads".to_string(),
        threads.to_string(),
    ];
    String::from_utf8(run(&args).stdout).expect("stdout is UTF-8")
}

/// Asserts the serial (1-thread) stdout is byte-identical at 2 and 8
/// worker threads, and non-trivial.
fn assert_thread_invariant(scenario_path: &str, label: &str) {
    let serial = stdout_at_threads(scenario_path, 1);
    assert!(serial.lines().count() > 3, "{label}: suspiciously short output:\n{serial}");
    for threads in [2, 8] {
        let parallel = stdout_at_threads(scenario_path, threads);
        assert_eq!(serial, parallel, "{label}: stdout diverged between 1 and {threads} threads");
    }
}

/// A unique scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("linksched-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    fn write(&self, name: &str, content: &str) -> String {
        let p = self.0.join(name);
        std::fs::write(&p, content).expect("write scenario");
        p.to_string_lossy().into_owned()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn utilization_sweep_is_thread_invariant() {
    // The shipped CI scenario exercises the real utilization_sweep
    // path including the FIFO/EDF columns.
    assert_thread_invariant(
        &repo_path("examples/scenarios/sweep_small.json"),
        "sweep_small (utilization_sweep)",
    );
}

#[test]
fn mix_sweep_is_thread_invariant() {
    let scratch = Scratch::new("mix-par");
    let path = scratch.write(
        "mix_small.json",
        r#"{
  "name": "mix_small",
  "experiment": "mix_sweep",
  "params": {
    "hops": [2],
    "u_total": 0.30,
    "mix_start": 25,
    "mix_stop": 75,
    "mix_step": 50,
    "edf_ratio_short": 2.0,
    "edf_ratio_long": 0.5,
    "epsilon": 1e-6
  },
  "sim": {"reps": 1, "slots": 2000}
}"#,
    );
    assert_thread_invariant(&path, "mix_small (mix_sweep)");
}

#[test]
fn path_sweep_is_thread_invariant() {
    let scratch = Scratch::new("path-par");
    let path = scratch.write(
        "path_small.json",
        r#"{
  "name": "path_small",
  "experiment": "path_sweep",
  "params": {
    "hops": [1, 2],
    "utilizations": [0.30],
    "edf_cross_ratio": 10.0,
    "epsilon": 1e-6
  },
  "sim": {"reps": 1, "slots": 2000}
}"#,
    );
    assert_thread_invariant(&path, "path_small (path_sweep)");
}

#[test]
fn cross_sweep_is_thread_invariant() {
    // `linksched sweep` goes through the same engine; its CrossSweep
    // experiment parallelizes over the cross-flow axis.
    let base = ["sweep", "--hops", "2", "--through", "20", "--cross-max", "100"];
    let at = |threads: usize| {
        let mut args: Vec<String> = base.iter().map(|s| s.to_string()).collect();
        args.push("--threads".to_string());
        args.push(threads.to_string());
        String::from_utf8(run(&args).stdout).expect("stdout is UTF-8")
    };
    let serial = at(1);
    assert!(serial.lines().count() > 3, "cross sweep output too short:\n{serial}");
    for threads in [2, 8] {
        assert_eq!(serial, at(threads), "cross sweep diverged at {threads} threads");
    }
}

/// Full-size Fig. 3 at 1 vs 8 threads — the release-CI variant of the
/// fast grids above (minutes of analysis).
#[test]
#[ignore = "full-size figure scenario; run in the release CI step"]
fn fig3_full_is_thread_invariant() {
    assert_thread_invariant(&repo_path("examples/scenarios/fig3.json"), "fig3 (mix_sweep)");
}
