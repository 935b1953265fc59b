//! Delay bounds vs. path length `H` with `N_0 = N_c` (the paper's
//! Fig. 4, Example 3), including the additive node-by-node BMUX
//! baseline.

use crate::error::Error;
use crate::model::PathSweep;
use crate::opts::RunOpts;
use crate::sweep::SweepEngine;
use crate::{flows_for_utilization, fmt, sim_overlay, tandem, OVERLAY_EPS};
use nc_core::PathScheduler;
use std::ops::Range;

/// One grid point of the sweep, in print order.
struct Cell {
    hops: usize,
    n_half: usize,
}

pub(crate) fn run(p: &PathSweep, opts: &RunOpts) -> Result<(), Error> {
    println!("# eps = {:.0e}, EDF: d*_0 = d/H, d*_c = {} d/H", p.epsilon, p.edf_cross_ratio);
    if opts.sim {
        println!(
            "# overlay: simulated FIFO q(1-{OVERLAY_EPS:.0e}), {} reps x {} slots, seed {:#x}",
            opts.reps, opts.slots, opts.seed
        );
    }
    let mut cells: Vec<Cell> = Vec::new();
    let mut sections: Vec<Range<usize>> = Vec::new();
    for &u in &p.utilizations {
        let start = cells.len();
        let n_half = flows_for_utilization(u) / 2;
        for &hops in &p.hops {
            cells.push(Cell { hops, n_half });
        }
        sections.push(start..cells.len());
    }
    let bounds = SweepEngine::new(opts.threads).run(cells.len(), |i| {
        let c = &cells[i];
        let additive =
            tandem(c.n_half, c.n_half, c.hops, PathScheduler::Bmux).additive_bmux_delay(p.epsilon);
        let bmux = tandem(c.n_half, c.n_half, c.hops, PathScheduler::Bmux)
            .delay_bound(p.epsilon)
            .map(|b| b.bound.delay);
        let fifo = tandem(c.n_half, c.n_half, c.hops, PathScheduler::Fifo)
            .delay_bound(p.epsilon)
            .map(|b| b.bound.delay);
        let edf = tandem(c.n_half, c.n_half, c.hops, PathScheduler::Fifo)
            .edf_delay_bound_fixed_point(p.epsilon, p.edf_cross_ratio)
            .map(|(b, _)| b.bound.delay);
        (additive, bmux, fifo, edf)
    });
    for (section, &u) in sections.into_iter().zip(&p.utilizations) {
        let n_half = flows_for_utilization(u) / 2;
        println!("\n## U = {:.0}% (N0 = Nc = {n_half})", u * 100.0);
        println!(
            "{:>4} {:>12} {:>10} {:>10} {:>10}{}",
            "H",
            "BMUX-add",
            "BMUX",
            "FIFO",
            "EDF",
            if opts.sim { "  simFIFO q [spread]" } else { "" }
        );
        for i in section {
            let c = &cells[i];
            let (additive, bmux, fifo, edf) = bounds[i];
            let overlay = if opts.sim {
                format!("  {}", sim_overlay(opts, c.n_half, c.n_half, c.hops)?)
            } else {
                String::new()
            };
            println!(
                "{:>4} {:>12} {} {} {}{}",
                c.hops,
                fmt(additive).trim_start(),
                fmt(bmux),
                fmt(fifo),
                fmt(edf),
                overlay
            );
        }
    }
    Ok(())
}
