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
        for u in grid(p) {
            let n_total = flows_for_utilization(u);
            cells.push(Cell { hops, u, n_cross: n_total.saturating_sub(n_through) });
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

/// The utilizations `u_start + k·u_step`, `k = 0, 1, …`, up to `u_stop`.
/// The relative tolerance on `u_stop` keeps a last point that lies on
/// the grid but lands a rounding error above `u_stop`.
fn grid(p: &UtilizationSweep) -> impl Iterator<Item = f64> + '_ {
    let limit = p.u_stop * (1.0 + 1e-9);
    (0..).map(|k| p.u_start + k as f64 * p.u_step).take_while(move |&u| u <= limit)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep(u_start: f64, u_step: f64, u_stop: f64) -> UtilizationSweep {
        UtilizationSweep {
            hops: vec![2],
            u_through: 0.15,
            u_start,
            u_step,
            u_stop,
            edf_cross_ratio: 10.0,
            epsilon: 1e-9,
        }
    }

    #[test]
    fn grid_keeps_a_stop_that_lies_on_it() {
        // 0.20 + 15 · 0.05 lands a rounding error away from 0.95.
        let percents: Vec<f64> =
            grid(&sweep(0.20, 0.05, 0.95)).map(|u| (u * 100.0).round()).collect();
        assert_eq!(percents.len(), 16);
        assert_eq!(percents.first(), Some(&20.0));
        assert_eq!(percents.last(), Some(&95.0));
        // Fig. 2's `u_stop: 0.951` gives the same grid.
        assert_eq!(grid(&sweep(0.20, 0.05, 0.951)).count(), 16);
        // A stop between two grid points ends at the point below it.
        assert_eq!(grid(&sweep(0.30, 0.20, 0.69)).count(), 2);
    }
}
