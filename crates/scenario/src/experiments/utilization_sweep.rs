//! Delay bounds vs. total utilization (the paper's Fig. 2, Example 1):
//! `U_0` held constant, total utilization swept over a grid, one table
//! section per path length, with BMUX/FIFO/EDF columns and the
//! FIFO/BMUX ratio.

use crate::error::Error;
use crate::model::UtilizationSweep;
use crate::opts::RunOpts;
use crate::sweep::SweepEngine;
use crate::{flows_for_utilization, fmt, sim_overlay, tandem, OVERLAY_EPS};
use nc_core::PathScheduler;
use std::ops::Range;

/// One grid point of the sweep, in print order.
struct Cell {
    hops: usize,
    u: f64,
    n_cross: usize,
}

pub(crate) fn run(p: &UtilizationSweep, opts: &RunOpts) -> Result<(), Error> {
    let n_through = flows_for_utilization(p.u_through);
    println!(
        "# N0 = {n_through} (U0 = {:.0}%), eps = {:.0e}, EDF: d*_0 = d/H, d*_c = {} d/H",
        p.u_through * 100.0,
        p.epsilon,
        p.edf_cross_ratio
    );
    if opts.sim {
        println!(
            "# overlay: simulated FIFO q(1-{OVERLAY_EPS:.0e}), {} reps x {} slots, seed {:#x}",
            opts.reps, opts.slots, opts.seed
        );
    }
    // Build the whole grid up front, then compute every cell's bounds
    // in parallel and print in grid order — byte-identical to the
    // serial nested loops for any thread count.
    let mut cells: Vec<Cell> = Vec::new();
    let mut sections: Vec<Range<usize>> = Vec::new();
    for &hops in &p.hops {
        let start = cells.len();
        let mut u = p.u_start;
        while u <= p.u_stop {
            let n_total = flows_for_utilization(u);
            cells.push(Cell { hops, u, n_cross: n_total.saturating_sub(n_through) });
            u += p.u_step;
        }
        sections.push(start..cells.len());
    }
    let bounds = SweepEngine::new(opts.threads).run(cells.len(), |i| {
        let c = &cells[i];
        let bmux = tandem(n_through, c.n_cross, c.hops, PathScheduler::Bmux)
            .delay_bound(p.epsilon)
            .map(|b| b.bound.delay);
        let fifo = tandem(n_through, c.n_cross, c.hops, PathScheduler::Fifo)
            .delay_bound(p.epsilon)
            .map(|b| b.bound.delay);
        let edf = tandem(n_through, c.n_cross, c.hops, PathScheduler::Fifo)
            .edf_delay_bound_fixed_point(p.epsilon, p.edf_cross_ratio)
            .map(|(b, _)| b.bound.delay);
        (bmux, fifo, edf)
    });
    for (section, &hops) in sections.into_iter().zip(&p.hops) {
        println!("\n## H = {hops}");
        println!(
            "{:>6} {:>6} {:>10} {:>10} {:>10} {:>12}{}",
            "U[%]",
            "Nc",
            "BMUX",
            "FIFO",
            "EDF",
            "FIFO/BMUX",
            if opts.sim { "  simFIFO q [spread]" } else { "" }
        );
        for i in section {
            let c = &cells[i];
            let (bmux, fifo, edf) = bounds[i];
            let ratio = match (fifo, bmux) {
                (Some(f), Some(b)) => format!("{:12.4}", f / b),
                _ => format!("{:>12}", "-"),
            };
            let overlay = if opts.sim {
                format!("  {}", sim_overlay(opts, n_through, c.n_cross, c.hops)?)
            } else {
                String::new()
            };
            println!(
                "{:>6.0} {:>6} {} {} {} {}{}",
                c.u * 100.0,
                c.n_cross,
                fmt(bmux),
                fmt(fifo),
                fmt(edf),
                ratio,
                overlay
            );
        }
    }
    Ok(())
}
