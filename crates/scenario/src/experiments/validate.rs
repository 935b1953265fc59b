//! Bound-vs-simulation validation table (this repository's addition —
//! the paper has no system artifact to validate against).
//!
//! For each scheduler, computes the analytical end-to-end delay bound
//! on a scaled-down tandem and compares it with simulated delay
//! quantiles at the same violation level, plus the empirical violation
//! frequency of the bound. A valid bound satisfies `sim quantile ≤
//! bound` and `P̂(W > bound) ≤ ε`. Fair-queueing rows (GPS/SCFQ) have
//! no Δ-scheduler bound of their own and are validated against the
//! BMUX envelope, which dominates every work-conserving locally-FIFO
//! discipline.

use super::simulate_cell;
use crate::error::Error;
use crate::fmt;
use crate::model::Validate;
use crate::opts::RunOpts;
use crate::sched::path_scheduler;
use nc_core::{deterministic_delay_bound, LeakyBucket, MmooTandem, PathScheduler};
use nc_minplus::Curve;
use nc_sim::{Lane, SchedulerKind, SimConfig};
use nc_telemetry::json;
use nc_traffic::Mmoo;

pub(crate) fn run(p: &Validate, opts: &RunOpts, name: &str) -> Result<(), Error> {
    let source = Mmoo::paper_source();
    let capacity = p.capacity;
    let eps = p.epsilon;
    let mut out = JsonOut::new(name, opts, capacity, eps);
    println!("# Analytical bounds vs simulation (C = {capacity} kb/ms, eps = {eps:.0e})");
    println!(
        "# {} reps x {} slots (warmup 10k each), master seed {:#x}, spread = min..max over reps",
        opts.reps, opts.slots, opts.seed
    );
    for &(hops, n_through, n_cross) in &p.sections {
        println!(
            "\n## H = {hops}, N0 = {n_through}, Nc = {n_cross} (U ≈ {:.0}%)",
            (n_through + n_cross) as f64 * source.mean_rate() / capacity * 100.0
        );
        out.open_section(hops, n_through, n_cross);
        println!(
            "{:>18} {:>10} {:>12} {:>17} {:>12} {:>21} {:>14}",
            "scheduler", "bound", "sim q(1-eps)", "q spread", "P(W>bound)", "P spread", "valid"
        );
        // Every row simulates on the section's one arrival stream: the
        // schedulers are compared on the same traffic, drawn once.
        let mut rows = Vec::with_capacity(p.schedulers.len());
        let mut cells = Vec::with_capacity(p.schedulers.len());
        let mut lanes = Vec::with_capacity(p.schedulers.len());
        for case in &p.schedulers {
            // Fair-queueing rows have no Δ-scheduler bound of their own:
            // path_scheduler gives them the BMUX envelope.
            let bound = MmooTandem {
                source,
                n_through,
                n_cross,
                capacity,
                hops,
                scheduler: path_scheduler(case.sched),
            }
            .delay_bound(eps)
            .map(|b| b.bound.delay);
            let fair = matches!(case.sched, SchedulerKind::Gps { .. } | SchedulerKind::Scfq { .. });
            rows.push((case, fair, bound));
            cells.push(format!("h{hops}-n{n_through}-c{n_cross}-{}", case.label));
            let cfg = cfg(capacity, hops, n_through, n_cross, case.sched, source);
            lanes.push(Lane::new(cfg));
        }
        let reports = simulate_cell(&opts.monte_carlo(), &cells, &lanes)?;
        for ((case, fair, bound), report) in rows.into_iter().zip(reports) {
            let q = report.merged.quantile(1.0 - eps).unwrap_or(f64::NAN);
            let q_spread = report.quantile_spread(1.0 - eps);
            // A fair row is checked on its quantile alone.
            let (viol, p_spread, valid) = match bound {
                Some(b) if fair => (None, None, Some(q <= b)),
                Some(b) => {
                    let v = report.merged.violation_fraction(b);
                    (Some(v), report.violation_spread(b), Some(q <= b && v <= eps))
                }
                None => (None, None, None),
            };
            let (viol_col, pspread_col, valid_col) = match (fair, viol) {
                (true, _) => (
                    format!("{:>12}", "n/a"),
                    format!("{:>21}", "n/a"),
                    match valid {
                        Some(true) => "yes (vs BMUX)",
                        Some(false) => "NO (vs BMUX)",
                        None => "-",
                    },
                ),
                (false, Some(v)) => (
                    format!("{v:12.2e}"),
                    fmt_spread_sci(p_spread),
                    if valid == Some(true) { "yes" } else { "NO" },
                ),
                (false, None) => (format!("{:>12}", "-"), format!("{:>21}", "-"), "-"),
            };
            println!(
                "{:>18} {} {:>12.2} {} {} {} {:>14}",
                case.label,
                fmt(bound),
                q,
                fmt_spread(q_spread),
                viol_col,
                pspread_col,
                valid_col
            );
            let note = fair.then_some("vs BMUX");
            out.cell(&case.label, bound, q, q_spread, viol, p_spread, valid, note);
        }
        out.close_section();
    }

    // Deterministic min-plus cross-check: for leaky-bucket traffic under
    // BMUX, the γ = 0 optimizer bound must equal the classical pipeline
    // (H-fold convolution of the leftover rate-latency curves, then the
    // horizontal deviation against the through envelope). Two independent
    // implementations agreeing at runtime; the computation is exact and
    // deterministic, so this line is identical with telemetry on or off.
    let (mp_opt, mp_conv) = minplus_cross_check(capacity, p.minplus_hops);
    println!(
        "\n# min-plus cross-check (H = {}, BMUX, leaky buckets): optimizer {mp_opt:.6} vs \
         convolution pipeline {mp_conv:.6} -> {}",
        p.minplus_hops,
        if (mp_opt - mp_conv).abs() <= 1e-6 { "consistent" } else { "MISMATCH" }
    );
    out.minplus_check(mp_opt, mp_conv);

    if let Some(path) = &opts.json {
        nc_telemetry::export::write_file(path, &out.render())
            .map_err(|e| Error::Runtime(format!("cannot write --json output to {path}: {e}")))?;
    }
    Ok(())
}

fn cfg(
    capacity: f64,
    hops: usize,
    n_through: usize,
    n_cross: usize,
    scheduler: SchedulerKind,
    source: Mmoo,
) -> SimConfig {
    SimConfig {
        capacity,
        hops,
        n_through,
        n_cross,
        source,
        scheduler,
        warmup: super::TANDEM_WARMUP,
        packet_size: None,
    }
}

/// Through and cross leaky buckets (kb per slot, kb) of the
/// deterministic min-plus cross-check. The tandem is stable only above
/// their summed rate, so `Scenario::check` rejects a `validate` scenario
/// whose capacity does not exceed it.
pub(crate) const CROSS_CHECK_THROUGH: LeakyBucket = LeakyBucket { rate: 6.0, burst: 10.0 };
pub(crate) const CROSS_CHECK_CROSS: LeakyBucket = LeakyBucket { rate: 9.0, burst: 15.0 };

/// The γ = 0 BMUX optimizer bound and the classical min-plus pipeline
/// bound for the same leaky-bucket tandem (they must agree; computing
/// the pipeline also exercises the instrumented min-plus operators).
fn minplus_cross_check(capacity: f64, hops: usize) -> (f64, f64) {
    let (through, cross) = (CROSS_CHECK_THROUGH, CROSS_CHECK_CROSS);
    let opt = deterministic_delay_bound(capacity, hops, through, cross, PathScheduler::Bmux)
        .expect("leaky-bucket tandem is stable");
    let leftover =
        Curve::rate_latency(capacity - cross.rate, cross.burst / (capacity - cross.rate));
    let mut net = Curve::delta(0.0);
    for _ in 0..hops {
        net = net.convolve(&leftover);
    }
    let env = Curve::token_bucket(through.rate, through.burst);
    let conv = env.h_deviation(&net).expect("finite delay");
    (opt, conv)
}

fn fmt_spread(s: Option<(f64, f64)>) -> String {
    match s {
        Some((lo, hi)) => format!("{:>17}", format!("[{lo:.2}, {hi:.2}]")),
        None => format!("{:>17}", "-"),
    }
}

fn fmt_spread_sci(s: Option<(f64, f64)>) -> String {
    match s {
        Some((lo, hi)) => format!("{:>21}", format!("[{lo:.1e}, {hi:.1e}]")),
        None => format!("{:>21}", "-"),
    }
}

/// Accumulates the table into the `--json` document (hand-assembled;
/// the build has no serde).
struct JsonOut {
    head: String,
    sections: Vec<String>,
    cur: Option<(String, Vec<String>)>,
    tail: String,
}

impl JsonOut {
    fn new(name: &str, opts: &RunOpts, capacity: f64, eps: f64) -> Self {
        let head = format!(
            "{{\"binary\":{},\"capacity\":{},\"epsilon\":{},\"reps\":{},\
             \"threads\":{},\"seed\":{},\"slots\":{}",
            json::string(name),
            json::num(capacity),
            json::num(eps),
            opts.reps,
            opts.threads,
            opts.seed,
            opts.slots
        );
        JsonOut { head, sections: Vec::new(), cur: None, tail: String::new() }
    }

    fn open_section(&mut self, hops: usize, n_through: usize, n_cross: usize) {
        let head =
            format!("{{\"hops\":{hops},\"n_through\":{n_through},\"n_cross\":{n_cross},\"cells\":");
        self.cur = Some((head, Vec::new()));
    }

    #[allow(clippy::too_many_arguments)]
    fn cell(
        &mut self,
        scheduler: &str,
        bound: Option<f64>,
        sim_q: f64,
        q_spread: Option<(f64, f64)>,
        violation: Option<f64>,
        p_spread: Option<(f64, f64)>,
        valid: Option<bool>,
        note: Option<&str>,
    ) {
        let opt = |v: Option<f64>| v.map_or("null".to_string(), json::num);
        let spread = |s: Option<(f64, f64)>| {
            s.map_or("null".to_string(), |(lo, hi)| {
                format!("[{},{}]", json::num(lo), json::num(hi))
            })
        };
        let mut cell = format!(
            "{{\"scheduler\":{},\"bound\":{},\"sim_quantile\":{},\"quantile_spread\":{},\
             \"violation\":{},\"violation_spread\":{},\"valid\":{}",
            json::string(scheduler),
            opt(bound),
            json::num(sim_q),
            spread(q_spread),
            opt(violation),
            spread(p_spread),
            valid.map_or("null".to_string(), |v| v.to_string()),
        );
        if let Some(n) = note {
            cell.push_str(&format!(",\"note\":{}", json::string(n)));
        }
        cell.push('}');
        self.cur.as_mut().expect("cell outside section").1.push(cell);
    }

    fn close_section(&mut self) {
        let (head, cells) = self.cur.take().expect("no open section");
        self.sections.push(format!("{head}[{}]}}", cells.join(",")));
    }

    fn minplus_check(&mut self, optimizer: f64, convolution: f64) {
        self.tail = format!(
            ",\"minplus_check\":{{\"optimizer\":{},\"convolution\":{},\"abs_diff\":{}}}",
            json::num(optimizer),
            json::num(convolution),
            json::num((optimizer - convolution).abs())
        );
    }

    fn render(&self) -> String {
        let doc =
            format!("{},\"sections\":[{}]{}}}\n", self.head, self.sections.join(","), self.tail);
        debug_assert!(json::validate(&doc).is_ok());
        doc
    }
}
