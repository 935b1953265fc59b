//! Per-layer probes for the perfbench traced run.
//!
//! Times direct calls into each layer's public API at the witnesses
//! (s, γ, σ) that the outer delay-bound call returns, and prints one
//! JSON object: per-call seconds for every probe, plus the telemetry
//! counter deltas one call of each analysis probe causes (so
//! `perfbench/layers.py` can subtract children from parents to estimate
//! self time).
//!
//! Every call into the library lives in this file: an API change in
//! `nc-core`, `nc-sim`, `nc-minplus`, `nc-telemetry` or `nc-scenario`
//! touches the benchmark only here.
//!
//! ```text
//! linksched-probes --hops H --through N0 --cross NC --capacity C --eps E
//!                  --edf-ratio R --sim-hops H --sim-through N0
//!                  --sim-cross NC --sim-capacity C --scenario PATH
//! ```

use nc_core::e2e::netbound::sigma_for;
use nc_core::e2e::optimizer::{solve, NodeParams};
use nc_core::{MmooTandem, PathScheduler};
use nc_minplus::Curve;
use nc_sim::{Chunk, DelayStats, Node, SchedulerKind, SimConfig, TandemSim, DEFAULT_RESERVOIR};
use nc_traffic::Mmoo;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// The validate experiment's simulated schedulers, by metric suffix.
const SIM_SCHEDULERS: [(&str, SchedulerKind); 5] = [
    ("fifo", SchedulerKind::Fifo),
    ("bmux", SchedulerKind::Bmux),
    ("sp", SchedulerKind::ThroughPriority),
    ("edf", SchedulerKind::Edf { d_through: 10.0, d_cross: 40.0 }),
    ("gps", SchedulerKind::Gps { w_through: 1.0, w_cross: 1.0 }),
];

const SIM_SLOTS: u64 = 40_000;
const SERVE_SLOTS: u64 = 100_000;
const STATS_SAMPLES: usize = 200_000;
const COUNTER_CALLS: u64 = 1_000_000;
/// Time spent per probe (one call when a single call takes longer).
const BUDGET: Duration = Duration::from_millis(250);

struct Args {
    hops: usize,
    through: usize,
    cross: usize,
    capacity: f64,
    eps: f64,
    edf_ratio: f64,
    sim_hops: usize,
    sim_through: usize,
    sim_cross: usize,
    sim_capacity: f64,
    scenario: String,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut kv = BTreeMap::new();
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let key = flag.strip_prefix("--").ok_or(format!("unexpected argument `{flag}`"))?;
            let value = it.next().ok_or(format!("missing value for `{flag}`"))?;
            kv.insert(key.to_string(), value);
        }
        fn get<T: std::str::FromStr>(kv: &BTreeMap<String, String>, k: &str) -> Result<T, String> {
            let v = kv.get(k).ok_or(format!("missing `--{k}`"))?;
            v.parse().map_err(|_| format!("invalid value `{v}` for `--{k}`"))
        }
        Ok(Args {
            hops: get(&kv, "hops")?,
            through: get(&kv, "through")?,
            cross: get(&kv, "cross")?,
            capacity: get(&kv, "capacity")?,
            eps: get(&kv, "eps")?,
            edf_ratio: get(&kv, "edf-ratio")?,
            sim_hops: get(&kv, "sim-hops")?,
            sim_through: get(&kv, "sim-through")?,
            sim_cross: get(&kv, "sim-cross")?,
            sim_capacity: get(&kv, "sim-capacity")?,
            scenario: get(&kv, "scenario")?,
        })
    }
}

/// Median seconds per call of `f`, from up to five timed batches sized
/// to fill [`BUDGET`]. A call slower than the whole budget is timed once.
fn per_call<R>(mut f: impl FnMut() -> R) -> f64 {
    let start = Instant::now();
    black_box(f());
    let first = start.elapsed();
    if first >= BUDGET {
        return first.as_secs_f64();
    }
    let batches = (BUDGET.as_secs_f64() / first.as_secs_f64().max(1e-9)).clamp(1.0, 5.0) as usize;
    let per_batch = BUDGET / batches as u32;
    let calls = (per_batch.as_secs_f64() / first.as_secs_f64().max(1e-9)).max(1.0) as u64;
    let mut times: Vec<f64> = (0..batches)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                black_box(f());
            }
            t.elapsed().as_secs_f64() / calls as f64
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// Times `f` like [`per_call`], and records under `core.<probe>.*` the
/// global counter deltas one call causes. That first call doubles as
/// the timing when it alone exceeds the budget.
fn timed_with_counts<R>(out: &mut Out, probe: &str, mut f: impl FnMut() -> R) {
    const COUNTERS: [&str; 4] = [
        "core_delay_bound_calls_total",
        "core_gamma_evals_total",
        "core_s_evals_total",
        "core_edf_fixed_point_iterations_total",
    ];
    let before = nc_telemetry::global_snapshot();
    let start = Instant::now();
    black_box(f());
    let first = start.elapsed();
    let after = nc_telemetry::global_snapshot();
    for name in COUNTERS {
        let delta = after.counter_value(name, &[]) - before.counter_value(name, &[]);
        out.int(&format!("core.{probe}.per_call.{name}"), delta);
    }
    let secs = if first >= BUDGET { first.as_secs_f64() } else { per_call(f) };
    out.num(&format!("core.{probe}.s"), secs);
}

struct Out(Vec<String>);

impl Out {
    fn num(&mut self, key: &str, v: f64) {
        let v = if v.is_finite() { v } else { -1.0 };
        self.0.push(format!("\"{key}\":{v:e}"));
    }
    fn int(&mut self, key: &str, v: u64) {
        self.0.push(format!("\"{key}\":{v}"));
    }
}

/// The analysis layers (Eq. (38) kernel, σ, γ search, s search, EDF
/// fixed point, additive baseline) at the witness cell. Returns whether
/// the kernel re-solved at the witness reproduces the bound.
fn analysis(a: &Args, out: &mut Out) -> Result<bool, String> {
    let tandem = MmooTandem {
        source: Mmoo::paper_source(),
        n_through: a.through,
        n_cross: a.cross,
        capacity: a.capacity,
        hops: a.hops,
        scheduler: PathScheduler::Fifo,
    };
    let eps = a.eps;
    let best = tandem.delay_bound(eps).ok_or("witness cell has no FIFO bound")?;
    let path = tandem.path_at(best.s).ok_or("witness s gives an unstable path")?;
    let (gamma, sigma) = (best.bound.gamma, best.bound.sigma);
    let cross_nodes = vec![*path.cross(); a.hops];
    let params: Vec<NodeParams> = (1..=a.hops)
        .map(|h| NodeParams {
            c_eff: path.capacity() - (h as f64 - 1.0) * gamma,
            r: path.cross().rho() + gamma,
            delta: path.scheduler().delta(),
        })
        .collect();
    let resolved = solve(&params, sigma).ok_or("kernel infeasible at the witness")?;
    let witness_ok = (resolved.delay - best.bound.delay).abs() <= 1e-9 * best.bound.delay.abs();

    out.num("core.solver.s", per_call(|| solve(&params, sigma)));
    out.num("core.sigma.s", per_call(|| sigma_for(path.through(), &cross_nodes, gamma, eps)));
    out.num("core.gamma_eval.s", per_call(|| path.delay_bound_at_gamma(eps, gamma)));
    timed_with_counts(out, "gamma_search", || path.delay_bound(eps));
    timed_with_counts(out, "s_search", || tandem.delay_bound(eps));
    timed_with_counts(out, "edf", || tandem.edf_delay_bound_fixed_point(eps, a.edf_ratio));
    out.num("core.additive.s", per_call(|| tandem.additive_bmux_delay(eps)));
    Ok(witness_ok)
}

/// The simulator: whole-tandem cost per slot and the node serve path,
/// per scheduler, plus the delay-statistics operations.
fn simulator(a: &Args, out: &mut Out) {
    for (name, kind) in SIM_SCHEDULERS {
        let cfg = SimConfig {
            capacity: a.sim_capacity,
            hops: a.sim_hops,
            n_through: a.sim_through,
            n_cross: a.sim_cross,
            source: Mmoo::paper_source(),
            scheduler: kind,
            warmup: 1_000,
            packet_size: None,
        };
        let t = Instant::now();
        black_box(TandemSim::new(cfg, 0x5eed).run(SIM_SLOTS));
        out.num(
            &format!("sim.run.s_per_slot.{name}"),
            t.elapsed().as_secs_f64() / SIM_SLOTS as f64,
        );

        // Three arrivals per slot that exactly fill the link, as in the
        // serve_slot micro-benchmark: the queue stays bounded.
        let mut node = Node::new(9.0, kind.node_policy(), 2);
        let mut departed = Vec::new();
        let t = Instant::now();
        for slot in 0..SERVE_SLOTS {
            for (class, bits) in [(0, 3.0), (1, 4.0), (1, 2.0)] {
                node.enqueue(Chunk { class, bits, entry: slot, node_arrival: slot });
            }
            departed.clear();
            node.serve_slot(slot, &mut departed);
            black_box(departed.len());
        }
        out.num(
            &format!("sim.serve_slot.s.{name}"),
            t.elapsed().as_secs_f64() / SERVE_SLOTS as f64,
        );
    }

    // Delay samples from a fixed LCG: deterministic, cheap to make.
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    let samples: Vec<f64> = (0..STATS_SAMPLES)
        .map(|_| {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            (x >> 40) as f64 / 1e4
        })
        .collect();
    let collector = || DelayStats::streaming_with_thresholds(DEFAULT_RESERVOIR, &[100.0]);
    let fill = |s: &[f64]| {
        let mut st = collector();
        for &v in s {
            st.record(v);
        }
        st
    };
    let t = Instant::now();
    let full = fill(black_box(&samples));
    out.num("sim.stats.record.s", t.elapsed().as_secs_f64() / STATS_SAMPLES as f64);
    let half = fill(&samples[..STATS_SAMPLES / 2]);
    let clone_s = per_call(|| full.clone());
    out.num(
        "sim.stats.merge.s",
        per_call(|| {
            let mut m = half.fresh();
            m.merge(&half);
            m.merge(&half);
            m
        }) / 2.0,
    );
    let q = per_call(|| {
        let mut c = full.clone();
        c.quantile(0.999)
    });
    out.num("sim.stats.quantile.s", (q - clone_s).max(0.0));
}

/// The min-plus pipeline of the validate cross-check: one leftover
/// rate-latency curve convolved into the network curve per hop.
fn minplus(a: &Args, out: &mut Out) {
    let hops = 4;
    let leftover = Curve::rate_latency(a.sim_capacity - 9.0, 15.0 / (a.sim_capacity - 9.0));
    let chain = per_call(|| {
        let mut net = Curve::delta(0.0);
        for _ in 0..hops {
            net = net.convolve(&leftover);
        }
        net
    });
    out.num("minplus.convolve.s", chain / hops as f64);
}

/// One global counter increment, alone and with two threads contending
/// for the registry.
fn telemetry(out: &mut Out) {
    let bump = || {
        let t = Instant::now();
        for _ in 0..COUNTER_CALLS {
            nc_telemetry::counter(black_box("perfbench_probe_total"), 1);
        }
        t.elapsed().as_secs_f64() / COUNTER_CALLS as f64
    };
    out.num("telemetry.counter.s.1t", bump());
    let barrier = Barrier::new(2);
    let per_thread: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    barrier.wait();
                    bump()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("counter thread panicked")).collect()
    });
    out.num("telemetry.counter.s.2t", per_thread.iter().sum::<f64>() / per_thread.len() as f64);
}

fn main() -> std::process::ExitCode {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return std::process::ExitCode::from(2);
        }
    };
    let mut out = Out(Vec::new());
    let witness_ok = match analysis(&args, &mut out) {
        Ok(ok) => ok,
        Err(e) => {
            eprintln!("error: {e}");
            return std::process::ExitCode::from(1);
        }
    };
    simulator(&args, &mut out);
    minplus(&args, &mut out);
    telemetry(&mut out);
    let load = per_call(|| nc_scenario::Scenario::load(&args.scenario));
    if let Err(e) = nc_scenario::Scenario::load(&args.scenario) {
        eprintln!("error: {e}");
        return std::process::ExitCode::from(1);
    }
    out.num("scenario.load.s", load);
    out.0.push(format!("\"witness_ok\":{witness_ok}"));
    println!("{{{}}}", out.0.join(","));
    std::process::ExitCode::SUCCESS
}
