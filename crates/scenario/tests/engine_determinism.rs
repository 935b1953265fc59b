//! The engine invariant behind every figure overlay: running the same
//! scenario with the same seed must produce the same merged delay
//! histogram regardless of how many worker threads the Monte
//! Carlo engine fans the replications across.

use nc_scenario::{Engine, Scenario};
use nc_sim::DelayStats;

const SCENARIO: &str = r#"{
  "name": "determinism-probe",
  "experiment": "simulate",
  "params": {
    "hops": 2,
    "through": 30,
    "cross": 50,
    "capacity": 15.0,
    "sched": "edf:10,40"
  },
  "sim": {"reps": 8, "slots": 6000, "seed": 99}
}"#;

fn run_with_threads(threads: usize) -> DelayStats {
    let scenario = Scenario::from_json(SCENARIO).expect("probe scenario parses");
    let mut opts = Engine::default_opts(&scenario);
    opts.threads = threads;
    let summary = Engine::new(scenario, opts).run().expect("engine run succeeds");
    summary.delay_stats.expect("simulate experiments return merged stats")
}

#[test]
fn merged_stats_are_bitwise_identical_across_thread_counts() {
    let reference = run_with_threads(1);
    assert!(!reference.is_empty(), "probe scenario must record samples");
    for threads in [2, 8] {
        assert_eq!(
            reference,
            run_with_threads(threads),
            "merged delay histogram changed between 1 and {threads} threads"
        );
    }
}
