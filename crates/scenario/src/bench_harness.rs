//! The `linksched bench` perf-trajectory harness.
//!
//! Runs a pinned suite of workloads — the Fig. 3 analysis sweep (serial
//! and parallel), the min-plus kernels, and the tandem simulator — with
//! warmup and repetition control, and reports median + IQR wall times
//! plus telemetry op counts to the `--out` path (a `BENCH_N.json`
//! report; the flag is required). The suite is *pinned*:
//! workload sizes are compiled in (only `--smoke` shrinks them), so a
//! sequence of bench files tracks the repo's performance trajectory
//! over time rather than whatever each commit felt like measuring.
//!
//! `--perf-guard` runs only the two analysis workloads with the
//! parallel side pinned to 2 threads and fails (for CI) if the parallel
//! sweep is slower than the serial one beyond a small noise margin. On
//! a single-CPU machine the guard is reported as skipped.

use crate::sweep::SweepEngine;
use crate::{flows_for_utilization, tandem};
use nc_core::PathScheduler;
use nc_minplus::{Curve, SampledCurve};
use nc_telemetry::{self as tel, json};
use std::collections::BTreeMap;
use std::time::Instant;

/// Flag summary for `linksched bench` (printed by the binary on a
/// parse error).
pub const BENCH_USAGE: &str = "\
usage: linksched bench --out P [options]

    --out P        output path for the bench report (required)
    --smoke        shrink every workload (CI-sized run)
    --reps N       timed repetitions per workload      [default: 5, smoke 3]
    --warmup N     untimed warmup runs per workload    [default: 1]
    --threads N    parallel-sweep worker threads, 0 = auto
    --filter S     only run workloads whose name contains S
    --perf-guard   run only the analysis pair at 2 threads and exit
                   nonzero if the parallel sweep is slower than serial";

/// Parsed `linksched bench` options.
#[derive(Debug, Clone)]
pub struct BenchOpts {
    /// Report path (written atomically via temp + rename).
    pub out: String,
    /// Shrink every workload to CI size.
    pub smoke: bool,
    /// Timed repetitions per workload; `None` = 5 (3 with `--smoke`).
    pub reps: Option<usize>,
    /// Untimed warmup runs per workload; `None` = 1.
    pub warmup: Option<usize>,
    /// Worker threads for the parallel analysis sweep (0 = auto).
    pub threads: usize,
    /// Substring filter on workload names.
    pub filter: Option<String>,
    /// CI guard mode: analysis pair only, parallel side at 2 threads.
    pub perf_guard: bool,
}

impl BenchOpts {
    /// Parses bench flags, rejecting unknown options and a missing
    /// `--out` (there is no default path, so a run never overwrites a
    /// committed report by accident).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut o = BenchOpts {
            out: String::new(),
            smoke: false,
            reps: None,
            warmup: None,
            threads: 0,
            filter: None,
            perf_guard: false,
        };
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let val = |it: &mut dyn Iterator<Item = String>| {
                it.next().ok_or_else(|| format!("missing value for `{flag}`"))
            };
            match flag.as_str() {
                "--out" => o.out = val(&mut it)?,
                "--smoke" => o.smoke = true,
                "--reps" => o.reps = Some(value(&val(&mut it)?, "reps")?),
                "--warmup" => o.warmup = Some(value(&val(&mut it)?, "warmup")?),
                "--threads" => o.threads = value(&val(&mut it)?, "threads")?,
                "--filter" => o.filter = Some(val(&mut it)?),
                "--perf-guard" => o.perf_guard = true,
                other => return Err(format!("unknown option `{other}`")),
            }
        }
        if o.out.is_empty() {
            return Err("missing required option `--out P`".into());
        }
        if o.reps == Some(0) {
            return Err("`--reps` must be at least 1".into());
        }
        Ok(o)
    }

    fn reps(&self) -> usize {
        self.reps.unwrap_or(if self.smoke || self.perf_guard { 3 } else { 5 })
    }

    fn warmup(&self) -> usize {
        self.warmup.unwrap_or(1)
    }
}

fn value<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("invalid value `{s}` for `{what}`"))
}

/// One measured workload in the report.
#[derive(Debug, Clone)]
pub struct BenchEntry {
    /// Workload name, e.g. `analysis/fig3-sweep-parallel`.
    pub name: String,
    /// `analysis-sweep`, `minplus-kernel`, or `simulator`.
    pub kind: &'static str,
    /// Worker threads the workload ran with (1 for serial workloads).
    pub threads: usize,
    /// Timed repetitions behind the statistics.
    pub reps: usize,
    /// Untimed warmup runs before the first measurement.
    pub warmup: usize,
    /// Median wall time of one repetition, seconds.
    pub median_s: f64,
    /// 25th/75th-percentile wall times, seconds.
    pub p25_s: f64,
    /// See [`BenchEntry::p25_s`].
    pub p75_s: f64,
    /// Interquartile range (`p75 - p25`), seconds.
    pub iqr_s: f64,
    /// Fastest/slowest repetition, seconds.
    pub min_s: f64,
    /// See [`BenchEntry::min_s`].
    pub max_s: f64,
    /// Telemetry counter deltas over the timed repetitions, summed
    /// across label sets (empty without the `telemetry` feature).
    pub ops: Vec<(String, u64)>,
}

/// What a bench run produced (also written to [`BenchOpts::out`]).
#[derive(Debug)]
pub struct BenchReport {
    /// Whether the suite ran at smoke size.
    pub smoke: bool,
    /// CPUs available to the process when it ran. The report also
    /// records the build profile and whether telemetry was compiled in,
    /// which are properties of the binary.
    pub cpus: usize,
    /// Entries in suite order.
    pub entries: Vec<BenchEntry>,
    /// `serial median / parallel median` for the Fig. 3 sweep, when
    /// both entries ran.
    pub speedup: Option<f64>,
    /// Perf-guard verdict: `None` unless `--perf-guard`.
    pub guard: Option<PerfGuard>,
}

/// The `--perf-guard` verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PerfGuard {
    /// The parallel sweep stayed within the noise margin.
    Pass,
    /// The parallel sweep was slower than serial beyond the margin.
    Fail,
    /// The property is not observable on this machine; the reason is
    /// reported (`single-cpu`: 2 threads only time-slice one core).
    Skipped(&'static str),
}

impl PerfGuard {
    /// The verdict from the CPU count and the fastest serial and
    /// parallel repetitions of the Fig. 3 sweep.
    fn judge(cores: usize, serial_min: Option<f64>, parallel_min: Option<f64>) -> Self {
        if cores < 2 {
            return PerfGuard::Skipped("single-cpu");
        }
        match (serial_min, parallel_min) {
            (Some(s), Some(p)) if p <= s * GUARD_MARGIN => PerfGuard::Pass,
            _ => PerfGuard::Fail,
        }
    }

    /// The report's `perf_guard` object: `ok` is `null` when skipped.
    fn to_json(self) -> String {
        match self {
            PerfGuard::Pass | PerfGuard::Fail => format!(
                "{{\"margin\":{},\"ok\":{}}}",
                json::num(GUARD_MARGIN),
                self == PerfGuard::Pass
            ),
            PerfGuard::Skipped(why) => format!("{{\"ok\":null,\"skipped\":{}}}", json::string(why)),
        }
    }
}

/// Noise margin for `--perf-guard`: the 2-thread sweep's *fastest*
/// repetition may be at most this factor slower than serial's fastest
/// before the guard fails. Minima (not medians) because they are the
/// robust estimator under scheduler noise on shared CI machines.
const GUARD_MARGIN: f64 = 1.15;

impl BenchReport {
    /// Serializes the report as a `BENCH_N.json` document
    /// (`schema: linksched-bench/1`; see EXPERIMENTS.md).
    pub fn to_json(&self) -> String {
        let entries: Vec<String> = self.entries.iter().map(entry_json).collect();
        let speedup = match self.speedup {
            Some(s) => format!("{{\"fig3_parallel_over_serial\":{}}}", json::num(s)),
            None => "null".to_string(),
        };
        let guard = self.guard.map_or("null".to_string(), PerfGuard::to_json);
        let unix_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
        format!(
            "{{\n  \"schema\":\"linksched-bench/1\",\n  \"unix_ms\":{unix_ms},\n  \
             \"profile\":\"{profile}\",\n  \"telemetry\":{},\n  \"cpus\":{},\n  \
             \"smoke\":{},\n  \"entries\":[\n{}\n  ],\n  \"speedup\":{speedup},\n  \
             \"perf_guard\":{guard}\n}}\n",
            tel::ENABLED,
            self.cpus,
            self.smoke,
            entries.join(",\n"),
        )
    }
}

fn entry_json(e: &BenchEntry) -> String {
    let ops: Vec<String> = e.ops.iter().map(|(k, v)| format!("{}:{v}", json::string(k))).collect();
    format!(
        "    {{\"name\":{},\"kind\":{},\"threads\":{},\"reps\":{},\"warmup\":{},\
         \"median_s\":{},\"p25_s\":{},\"p75_s\":{},\"iqr_s\":{},\"min_s\":{},\"max_s\":{},\
         \"ops\":{{{}}}}}",
        json::string(&e.name),
        json::string(e.kind),
        e.threads,
        e.reps,
        e.warmup,
        json::num(e.median_s),
        json::num(e.p25_s),
        json::num(e.p75_s),
        json::num(e.iqr_s),
        json::num(e.min_s),
        json::num(e.max_s),
        ops.join(",")
    )
}

/// One pinned workload: a name, a kind tag, and a body that performs a
/// full unit of work per call.
struct Workload {
    name: String,
    kind: &'static str,
    threads: usize,
    body: Box<dyn Fn()>,
}

/// One grid point of the Fig. 3 analysis sweep.
struct Fig3Cell {
    hops: usize,
    n_through: usize,
    n_cross: usize,
}

/// The Fig. 3 grid in print order (smoke: fewer hops, coarser mix).
fn fig3_cells(smoke: bool) -> Vec<Fig3Cell> {
    let (hops, mixes, step): (&[usize], std::ops::RangeInclusive<usize>, usize) =
        if smoke { (&[2, 5], 25..=75, 25) } else { (&[2, 5, 10], 10..=90, 10) };
    let n_total = flows_for_utilization(0.50);
    let mut cells = Vec::new();
    for &h in hops {
        for mix_pct in mixes.clone().step_by(step) {
            let n_cross = ((n_total as f64) * (mix_pct as f64 / 100.0)).round() as usize;
            let n_through = n_total - n_cross;
            if n_through == 0 || n_cross == 0 {
                continue;
            }
            cells.push(Fig3Cell { hops: h, n_through, n_cross });
        }
    }
    cells
}

/// The Fig. 3 analysis sweep as a bench body: the BMUX, FIFO, and
/// EDF(short-deadline) columns of the mix-sweep experiment, computed
/// through [`SweepEngine`]. The second EDF regime is omitted: it
/// exercises the same fixed-point kernel and would double the per-cell
/// cost without covering new code.
fn fig3_sweep_body(smoke: bool, threads: usize) -> Box<dyn Fn()> {
    let eps = if smoke { 1e-6 } else { 1e-9 };
    let cells = fig3_cells(smoke);
    Box::new(move || {
        let bounds = SweepEngine::new(threads).run(cells.len(), |i| {
            let c = &cells[i];
            let bmux = tandem(c.n_through, c.n_cross, c.hops, PathScheduler::Bmux)
                .delay_bound(eps)
                .map(|b| b.bound.delay);
            let fifo = tandem(c.n_through, c.n_cross, c.hops, PathScheduler::Fifo)
                .delay_bound(eps)
                .map(|b| b.bound.delay);
            let edf = tandem(c.n_through, c.n_cross, c.hops, PathScheduler::Fifo)
                .edf_delay_bound_fixed_point(eps, 2.0)
                .map(|(b, _)| b.bound.delay);
            (bmux, fifo, edf)
        });
        assert_eq!(bounds.len(), cells.len());
    })
}

/// Mixed-shape piecewise-linear curves with several convex runs each —
/// the general segment-merge convolution path.
fn mixed_curves() -> (Curve, Curve) {
    let f = Curve::token_bucket(1.0, 6.0).min(&Curve::rate_latency(4.0, 2.0));
    let g = Curve::rate_latency(3.0, 1.0).min(&Curve::token_bucket(0.5, 10.0));
    (f, g)
}

/// Builds the pinned suite. `threads` is the resolved parallel-sweep
/// worker count; `guard` restricts the suite to the analysis pair.
fn suite(smoke: bool, threads: usize, guard: bool) -> Vec<Workload> {
    let mut ws = vec![
        Workload {
            name: "analysis/fig3-sweep-serial".into(),
            kind: "analysis-sweep",
            threads: 1,
            body: fig3_sweep_body(smoke, 1),
        },
        Workload {
            name: "analysis/fig3-sweep-parallel".into(),
            kind: "analysis-sweep",
            threads,
            body: fig3_sweep_body(smoke, threads),
        },
    ];
    if guard {
        return ws;
    }
    let k_merge = if smoke { 50 } else { 400 };
    let (f, g) = mixed_curves();
    ws.push(Workload {
        name: "minplus/segment-merge-convolve".into(),
        kind: "minplus-kernel",
        threads: 1,
        body: Box::new(move || {
            for _ in 0..k_merge {
                let h = f.convolve_segment_merge(&g);
                assert!(h.eval(4.0).is_finite());
            }
        }),
    });
    let k_convex = if smoke { 500 } else { 5_000 };
    let (a, b) = (Curve::rate_latency(4.0, 2.0), Curve::rate_latency(6.0, 3.0));
    ws.push(Workload {
        name: "minplus/convex-convolve".into(),
        kind: "minplus-kernel",
        threads: 1,
        body: Box::new(move || {
            for _ in 0..k_convex {
                let h = a.convolve(&b);
                assert!(h.eval(10.0).is_finite());
            }
        }),
    });
    let n = if smoke { 128 } else { 512 };
    let k_grid = if smoke { 5 } else { 20 };
    let sa = SampledCurve::from_curve(&Curve::token_bucket(1.0, 5.0), 0.5, n);
    let sb = SampledCurve::from_curve(&Curve::rate_latency(4.0, 2.0), 0.5, n);
    let (ca, cb) = (sa.clone(), sb.clone());
    ws.push(Workload {
        name: "minplus/grid-convolve-into".into(),
        kind: "minplus-kernel",
        threads: 1,
        body: Box::new(move || {
            let mut out = Vec::new();
            for _ in 0..k_grid {
                ca.convolve_into(&cb, &mut out);
            }
            assert_eq!(out.len(), n);
        }),
    });
    ws.push(Workload {
        name: "minplus/grid-deconvolve-into".into(),
        kind: "minplus-kernel",
        threads: 1,
        body: Box::new(move || {
            let mut out = Vec::new();
            for _ in 0..k_grid {
                sa.deconvolve_into(&sb, &mut out).expect("full horizon");
            }
            assert_eq!(out.len(), n);
        }),
    });
    let slots = if smoke { 2_000 } else { 20_000 };
    ws.push(Workload {
        name: "sim/tandem-fifo".into(),
        kind: "simulator",
        threads: 1,
        body: Box::new(move || {
            let cfg = nc_sim::SimConfig {
                hops: 3,
                n_through: 20,
                n_cross: 30,
                warmup: 200,
                ..nc_sim::SimConfig::default()
            };
            let mut sim = nc_sim::TandemSim::new(cfg, 0x5EED);
            sim.enable_telemetry();
            let stats = sim.run(slots);
            assert!(!stats.is_empty());
            // The simulator buffers its telemetry in a per-run shard
            // (merged in replication order by the Monte Carlo engine);
            // flush it so the bench entry's op counts cover it.
            tel::merge_global(&sim.metrics());
        }),
    });
    ws
}

/// Counter deltas between two snapshots, summed across label sets and
/// restricted to counters that moved.
fn counter_deltas(before: &tel::MetricSet, after: &tel::MetricSet) -> Vec<(String, u64)> {
    let mut sums: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for (key, v) in after.iter() {
        if let tel::MetricValue::Counter(n) = v {
            sums.entry(key.name.clone()).or_default().1 += n;
        }
    }
    for (key, v) in before.iter() {
        if let tel::MetricValue::Counter(n) = v {
            sums.entry(key.name.clone()).or_default().0 += n;
        }
    }
    sums.into_iter().filter(|(_, (b, a))| a > b).map(|(name, (b, a))| (name, a - b)).collect()
}

/// Linear-interpolated quantile of an ascending-sorted slice.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let pos = q * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn measure(w: &Workload, reps: usize, warmup: usize) -> BenchEntry {
    for _ in 0..warmup {
        (w.body)();
    }
    let before = tel::global_snapshot();
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        (w.body)();
        times.push(t.elapsed().as_secs_f64());
    }
    let after = tel::global_snapshot();
    times.sort_by(|a, b| a.partial_cmp(b).expect("wall times are finite"));
    let (p25, p75) = (quantile(&times, 0.25), quantile(&times, 0.75));
    BenchEntry {
        name: w.name.clone(),
        kind: w.kind,
        threads: w.threads,
        reps,
        warmup,
        median_s: quantile(&times, 0.5),
        p25_s: p25,
        p75_s: p75,
        iqr_s: p75 - p25,
        min_s: times[0],
        max_s: times[times.len() - 1],
        ops: counter_deltas(&before, &after),
    }
}

/// Runs the bench suite, prints one summary line per workload, writes
/// the report to [`BenchOpts::out`], and returns it. A `--perf-guard`
/// failure is reported in [`BenchReport::guard`], not as an `Err`
/// (the binary maps it to a nonzero exit).
pub fn run(opts: &BenchOpts) -> Result<BenchReport, String> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = if opts.perf_guard && opts.threads == 0 {
        2
    } else if opts.threads == 0 {
        cores
    } else {
        opts.threads
    };
    let smoke = opts.smoke || opts.perf_guard;
    let (reps, warmup) = (opts.reps(), opts.warmup());
    let mut workloads = suite(smoke, threads, opts.perf_guard);
    if let Some(f) = &opts.filter {
        workloads.retain(|w| w.name.contains(f.as_str()));
        if workloads.is_empty() {
            return Err(format!("`--filter {f}` matches no workload"));
        }
    }
    println!(
        "# linksched bench ({}reps={reps}, warmup={warmup}, threads={threads})",
        if smoke { "smoke, " } else { "" }
    );
    let mut entries = Vec::with_capacity(workloads.len());
    for w in &workloads {
        let e = measure(w, reps, warmup);
        println!(
            "{:<34} {:>2}t  median {:>9.4}s  iqr {:>8.4}s",
            e.name, e.threads, e.median_s, e.iqr_s
        );
        entries.push(e);
    }
    let stat_of =
        |name: &str, f: fn(&BenchEntry) -> f64| entries.iter().find(|e| e.name == name).map(f);
    let serial = stat_of("analysis/fig3-sweep-serial", |e| e.median_s);
    let parallel = stat_of("analysis/fig3-sweep-parallel", |e| e.median_s);
    let speedup = match (serial, parallel) {
        (Some(s), Some(p)) if p > 0.0 => Some(s / p),
        _ => None,
    };
    if let Some(x) = speedup {
        println!("fig3 sweep speedup: {x:.2}x ({threads} threads over serial)");
    }
    let guard = opts.perf_guard.then(|| {
        let guard = PerfGuard::judge(
            cores,
            stat_of("analysis/fig3-sweep-serial", |e| e.min_s),
            stat_of("analysis/fig3-sweep-parallel", |e| e.min_s),
        );
        match guard {
            PerfGuard::Skipped(why) => println!("perf-guard: skipped ({why}; timings recorded)"),
            _ => println!(
                "perf-guard: parallel sweep at {threads} threads is {} (margin {GUARD_MARGIN:.2}x)",
                if guard == PerfGuard::Pass {
                    "not slower than serial"
                } else {
                    "SLOWER than serial"
                }
            ),
        }
        guard
    });
    let report = BenchReport { smoke, cpus: cores, entries, speedup, guard };
    let doc = report.to_json();
    json::validate(&doc).map_err(|e| format!("internal error: bench JSON invalid: {e}"))?;
    tel::export::write_file(&opts.out, &doc)
        .map_err(|e| format!("cannot write `{}`: {e}", opts.out))?;
    println!("wrote {}", opts.out);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_all_flags() {
        let o = BenchOpts::parse(
            [
                "--out",
                "/tmp/b.json",
                "--smoke",
                "--reps",
                "2",
                "--warmup",
                "0",
                "--threads",
                "3",
                "--filter",
                "minplus",
                "--perf-guard",
            ]
            .map(String::from),
        )
        .expect("flags parse");
        assert_eq!(o.out, "/tmp/b.json");
        assert!(o.smoke && o.perf_guard);
        assert_eq!((o.reps, o.warmup, o.threads), (Some(2), Some(0), 3));
        assert_eq!(o.filter.as_deref(), Some("minplus"));
    }

    #[test]
    fn parse_rejects_unknown_and_zero_reps() {
        assert!(BenchOpts::parse(["--bogus".to_string()]).is_err());
        assert!(BenchOpts::parse(["--out", "b.json", "--reps", "0"].map(String::from)).is_err());
        assert!(BenchOpts::parse(["--reps".to_string()]).is_err());
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert!((quantile(&v, 0.5) - 2.5).abs() < 1e-12);
        assert!((quantile(&v, 0.25) - 1.75).abs() < 1e-12);
        assert!((quantile(&v, 0.0) - 1.0).abs() < 1e-12);
        assert!((quantile(&v, 1.0) - 4.0).abs() < 1e-12);
        assert_eq!(quantile(&[7.0], 0.5), 7.0);
    }

    #[test]
    fn fig3_grid_is_nonempty_and_balanced() {
        let smoke = fig3_cells(true);
        let full = fig3_cells(false);
        assert!(!smoke.is_empty() && smoke.len() < full.len());
        let n_total = flows_for_utilization(0.50);
        for c in full {
            assert_eq!(c.n_through + c.n_cross, n_total);
            assert!(c.n_through > 0 && c.n_cross > 0);
        }
    }

    #[test]
    fn report_json_is_valid_and_complete() {
        let report = BenchReport {
            smoke: true,
            cpus: 2,
            entries: vec![BenchEntry {
                name: "analysis/fig3-sweep-serial".into(),
                kind: "analysis-sweep",
                threads: 1,
                reps: 3,
                warmup: 1,
                median_s: 0.5,
                p25_s: 0.45,
                p75_s: 0.55,
                iqr_s: 0.1,
                min_s: 0.4,
                max_s: 0.6,
                ops: vec![("minplus_convolution_total".into(), 42)],
            }],
            speedup: Some(1.8),
            guard: Some(PerfGuard::Pass),
        };
        let doc = report.to_json();
        let parsed = json::parse(&doc).expect("valid JSON");
        assert_eq!(parsed.get("schema").and_then(|v| v.as_str()), Some("linksched-bench/1"));
        let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
        assert_eq!(parsed.get("profile").and_then(|v| v.as_str()), Some(profile));
        assert_eq!(parsed.get("telemetry").and_then(|v| v.as_bool()), Some(tel::ENABLED));
        assert_eq!(parsed.get("cpus").and_then(|v| v.as_u64()), Some(2));
        let entries = parsed.get("entries").and_then(|v| v.as_array()).expect("entries");
        assert_eq!(entries.len(), 1);
        let e = &entries[0];
        assert_eq!(e.get("kind").and_then(|v| v.as_str()), Some("analysis-sweep"));
        assert_eq!(
            e.get("ops").and_then(|o| o.get("minplus_convolution_total")).and_then(|v| v.as_u64()),
            Some(42)
        );
        let speedup = parsed
            .get("speedup")
            .and_then(|s| s.get("fig3_parallel_over_serial"))
            .and_then(|v| v.as_f64())
            .expect("speedup present");
        assert!((speedup - 1.8).abs() < 1e-12);
        assert_eq!(
            parsed.get("perf_guard").and_then(|g| g.get("ok")).and_then(|v| v.as_bool()),
            Some(true)
        );
    }

    #[test]
    fn perf_guard_is_skipped_on_one_cpu() {
        assert_eq!(PerfGuard::judge(1, Some(1.0), Some(9.0)), PerfGuard::Skipped("single-cpu"));
        assert_eq!(PerfGuard::judge(2, Some(1.0), Some(1.1)), PerfGuard::Pass);
        assert_eq!(PerfGuard::judge(2, Some(1.0), Some(1.2)), PerfGuard::Fail);
        assert_eq!(PerfGuard::judge(2, None, Some(1.0)), PerfGuard::Fail);
        let skipped = json::parse(&PerfGuard::Skipped("single-cpu").to_json()).expect("JSON");
        assert!(skipped.get("ok").is_some_and(|v| v.is_null()));
        assert_eq!(skipped.get("skipped").and_then(|v| v.as_str()), Some("single-cpu"));
        let failed = json::parse(&PerfGuard::Fail.to_json()).expect("JSON");
        assert_eq!(failed.get("ok").and_then(|v| v.as_bool()), Some(false));
    }

    #[test]
    fn counter_deltas_sum_labels_and_drop_static() {
        let mut before = tel::MetricSet::new();
        before.counter_add("moved_total", &[("worker", "0")], 1);
        before.counter_add("static_total", &[], 5);
        let mut after = tel::MetricSet::new();
        after.counter_add("moved_total", &[("worker", "0")], 2);
        after.counter_add("moved_total", &[("worker", "1")], 3);
        after.counter_add("static_total", &[], 5);
        let deltas = counter_deltas(&before, &after);
        assert_eq!(deltas, vec![("moved_total".to_string(), 4)]);
    }

    #[test]
    fn smoke_suite_measures_every_kind() {
        let ws = suite(true, 2, false);
        let kinds: std::collections::BTreeSet<&str> = ws.iter().map(|w| w.kind).collect();
        assert!(kinds.contains("analysis-sweep"));
        assert!(kinds.contains("minplus-kernel"));
        assert!(kinds.contains("simulator"));
        // Guard mode keeps only the analysis pair, parallel side first
        // resolved by the caller.
        let guard = suite(true, 2, true);
        assert_eq!(guard.len(), 2);
        assert!(guard.iter().all(|w| w.kind == "analysis-sweep"));
    }
}
