//! Ablations over the design choices called out in `DESIGN.md`:
//!
//! 1. **Optimizer**: the paper's explicit procedure (Eqs. (40)–(42))
//!    vs. the exact numeric minimization of Eq. (38) — value gap and
//!    runtime.
//! 2. **Slack splitting**: the exact infimal convolution identity
//!    (Eq. (33)) vs. a naive equal split `σ_k = σ/N` of the violation
//!    slack.
//! 3. **γ-grid resolution**: bound quality as a function of the outer
//!    grid density.
//! 4. **Monte Carlo engine**: parallel speedup over the sequential
//!    baseline, with an equality check on the merged statistics.
//!
//! The studies probe fixed implementation trade-offs, so unlike the
//! figure experiments they take no scenario parameters; the scenario
//! contributes the Monte Carlo defaults for ablation 4.

use super::simulate_cell;
use crate::error::Error;
use crate::opts::RunOpts;
use crate::{flows_for_utilization, tandem, CAPACITY, EPSILON};
use nc_core::e2e::netbound;
use nc_core::e2e::optimizer::{explicit, solve, NodeParams};
use nc_core::PathScheduler;
use nc_sim::{SchedulerKind, SimConfig};
use nc_traffic::{Ebb, ExpBound, Mmoo};
use std::hint::black_box;
use std::time::Instant;

fn homogeneous(gamma: f64, rho_c: f64, delta: f64, hops: usize) -> Vec<NodeParams> {
    (1..=hops)
        .map(|h| NodeParams { c_eff: CAPACITY - (h as f64 - 1.0) * gamma, r: rho_c + gamma, delta })
        .collect()
}

pub(crate) fn run(opts: &RunOpts) -> Result<(), Error> {
    ablation_optimizer();
    ablation_slack_split();
    ablation_gamma_grid();
    ablation_engine(opts)
}

/// Explicit (paper) vs numeric (exact) optimizer.
fn ablation_optimizer() {
    println!("# Ablation 1 — explicit (Eqs. 40–42) vs numeric optimizer for Eq. (38)");
    println!(
        "{:>4} {:>8} {:>12} {:>12} {:>9} {:>12} {:>12}",
        "H", "Δ", "d(explicit)", "d(numeric)", "gap[%]", "t(expl)[µs]", "t(num)[µs]"
    );
    let (gamma, rho_c, sigma) = (0.05, 40.0, 400.0);
    for hops in [1usize, 2, 5, 10, 20] {
        // Large negative Δ exposes the explicit procedure's K = 0 choice
        // (X = −Δ), which the paper itself flags as possibly suboptimal.
        for delta in [f64::NEG_INFINITY, -20.0, -10.0, -2.0, 0.0, 10.0, f64::INFINITY] {
            let params = homogeneous(gamma, rho_c, delta, hops);
            let run_e = || explicit(CAPACITY, gamma, rho_c, delta, hops, sigma).expect("feasible");
            let run_n = || solve(&params, sigma).expect("feasible");
            let (e, n) = (run_e(), run_n());
            let (t_e, t_n) = (per_call(run_e), per_call(run_n));
            println!(
                "{:>4} {:>8} {:>12.4} {:>12.4} {:>9.3} {:>12.2} {:>12.2}",
                hops,
                format_delta(delta),
                e.delay,
                n.delay,
                100.0 * (e.delay - n.delay) / n.delay,
                t_e * 1e6,
                t_n * 1e6,
            );
        }
    }
}

/// Seconds per call of `f`: the median over five batches, each
/// doubled in length until it lasts at least a millisecond. One
/// `Instant` pair around a single call of 0.1–2 µs reads mostly timer
/// and cache noise (the first, cold call alone takes ~20 µs).
fn per_call<R>(f: impl Fn() -> R) -> f64 {
    const BATCH_SECS: f64 = 2.5e-4;
    let batch = |calls: u64| {
        let t = Instant::now();
        for _ in 0..calls {
            black_box(f());
        }
        t.elapsed().as_secs_f64()
    };
    let mut calls = 1u64;
    while batch(calls) < BATCH_SECS {
        calls *= 2;
    }
    let mut times: Vec<f64> = (0..5).map(|_| batch(calls) / calls as f64).collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

fn format_delta(d: f64) -> String {
    if d == f64::INFINITY {
        "+inf".into()
    } else if d == f64::NEG_INFINITY {
        "-inf".into()
    } else {
        format!("{d}")
    }
}

/// Exact Eq. (33) slack splitting vs equal split σ_k = σ/N.
fn ablation_slack_split() {
    println!("\n# Ablation 2 — Eq. (33) exact slack split vs equal split (σ at eps = 1e-9)");
    println!("{:>4} {:>14} {:>14} {:>9}", "H", "σ(exact)", "σ(equal)", "gain[%]");
    // Heterogeneous decays: with identical α the optimal and equal
    // splits coincide by symmetry; mixed moment parameters are where
    // Eq. (33) pays.
    let gamma = 0.05;
    let through = Ebb::new(1.0, 15.0, 0.5);
    for hops in [1usize, 2, 5, 10, 20] {
        let cross: Vec<Ebb> =
            (0..hops).map(|h| Ebb::new(1.0, 40.0, if h % 2 == 0 { 0.08 } else { 0.25 })).collect();
        let exact = netbound::sigma_for(&through, &cross, gamma, EPSILON);
        // Equal split: each of the H+1 terms gets σ/(H+1) and must reach
        // eps/(H+1): σ_equal = (H+1)·max_k σ_k(eps/(H+1)).
        let mut terms: Vec<ExpBound> = Vec::new();
        for (h, c) in cross.iter().enumerate() {
            let b = c.interval_bound().geometric_sum(gamma);
            terms.push(if h + 1 < hops { b.geometric_sum(gamma) } else { b });
        }
        terms.push(through.interval_bound().geometric_sum(gamma));
        let n = terms.len() as f64;
        let equal = terms.iter().map(|t| t.sigma_for(EPSILON / n).unwrap_or(0.0)).sum::<f64>();
        println!(
            "{:>4} {:>14.2} {:>14.2} {:>9.2}",
            hops,
            exact,
            equal,
            100.0 * (equal - exact) / equal
        );
    }
}

/// Bound quality vs γ-grid density (re-implementing the outer search at
/// several resolutions, no refinement).
fn ablation_gamma_grid() {
    println!("\n# Ablation 3 — γ-grid density vs bound quality (FIFO, H = 10, U = 50%)");
    println!("{:>8} {:>12} {:>10}", "points", "d [ms]", "loss[%]");
    let n_half = flows_for_utilization(0.50) / 2;
    let t = tandem(n_half, n_half, 10, PathScheduler::Fifo);
    // Reference: the production search (s and γ grids + refinement).
    let reference = t.delay_bound(EPSILON).expect("feasible");
    let s_star = reference.s;
    let ref_delay = reference.bound.delay;
    // Hold s at the production optimum and vary only the γ grid (no
    // refinement), isolating the γ-resolution sensitivity.
    let path = t.path_at(s_star).expect("reference s is feasible");
    let gmax = path.gamma_max();
    for points in [4usize, 8, 16, 32, 64, 128] {
        let mut best = f64::INFINITY;
        for i in 1..points {
            let g = gmax * i as f64 / points as f64;
            if let Some(b) = path.delay_bound_at_gamma(EPSILON, g) {
                best = best.min(b.delay);
            }
        }
        println!("{:>8} {:>12.3} {:>10.3}", points, best, 100.0 * (best - ref_delay) / ref_delay);
    }
    println!("reference (s and γ optimized with refinement): {ref_delay:.3} ms at s = {s_star:.4}");
}

/// Parallel engine speedup and determinism on a validation-sized cell.
fn ablation_engine(opts: &RunOpts) -> Result<(), Error> {
    println!("\n# Ablation 4 — Monte Carlo engine ({} reps x {} slots)", opts.reps, opts.slots);
    let cfg = SimConfig {
        capacity: 20.0,
        hops: 2,
        n_through: 40,
        n_cross: 60,
        source: Mmoo::paper_source(),
        scheduler: SchedulerKind::Fifo,
        warmup: 5_000,
        packet_size: None,
    };
    // Wall-clock vs thread count; the merged statistics must be
    // identical across runs.
    let par = opts.monte_carlo();
    let lane = [opts.lane(cfg)];
    let t0 = Instant::now();
    let seq = simulate_cell(&par.clone().threads(1), &["engine-seq".into()], &lane)?.remove(0);
    let t_seq = t0.elapsed();
    let workers = nc_sim::effective_threads(par.threads, par.reps);
    let t1 = Instant::now();
    let parallel = simulate_cell(&par, &["engine-par".into()], &lane)?.remove(0);
    let t_par = t1.elapsed();
    let identical = seq.merged == parallel.merged;
    println!(
        "threads=1: {:.2}s   threads={workers}: {:.2}s   speedup: {:.2}x   bitwise identical: {}",
        t_seq.as_secs_f64(),
        t_par.as_secs_f64(),
        t_seq.as_secs_f64() / t_par.as_secs_f64().max(1e-9),
        if identical { "yes" } else { "NO" }
    );
    Ok(())
}
