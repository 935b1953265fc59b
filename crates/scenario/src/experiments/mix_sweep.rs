//! Delay bounds vs. traffic mix `U_c/U` at constant total utilization
//! (the paper's Fig. 3, Example 2), with EDF evaluated in both
//! deadline regimes of the example.

use crate::error::Error;
use crate::model::MixSweep;
use crate::opts::RunOpts;
use crate::sweep::SweepEngine;
use crate::{flows_for_utilization, fmt, sim_overlay, tandem, OVERLAY_EPS};
use nc_core::PathScheduler;
use std::ops::Range;

/// One grid point of the sweep, in print order.
struct Cell {
    hops: usize,
    mix: f64,
    n_through: usize,
    n_cross: usize,
}

pub(crate) fn run(p: &MixSweep, opts: &RunOpts) -> Result<(), Error> {
    let n_total = flows_for_utilization(p.u_total);
    println!("# N_total = {n_total}, eps = {:.0e}", p.epsilon);
    if opts.sim {
        println!(
            "# overlay: simulated FIFO q(1-{OVERLAY_EPS:.0e}), {} reps x {} slots, seed {:#x}",
            opts.reps, opts.slots, opts.seed
        );
    }
    // Grid in print order; degenerate mixes (no through or no cross
    // flows) are skipped here exactly as the serial loop skipped them.
    let mut cells: Vec<Cell> = Vec::new();
    let mut sections: Vec<Range<usize>> = Vec::new();
    for &hops in &p.hops {
        let start = cells.len();
        for mix_pct in (p.mix_start..=p.mix_stop).step_by(p.mix_step) {
            let mix = mix_pct as f64 / 100.0;
            let n_cross = ((n_total as f64) * mix).round() as usize;
            let n_through = n_total - n_cross;
            if n_through == 0 || n_cross == 0 {
                continue;
            }
            cells.push(Cell { hops, mix, n_through, n_cross });
        }
        sections.push(start..cells.len());
    }
    let bounds = SweepEngine::new(opts.threads).run(cells.len(), |i| {
        let c = &cells[i];
        let bmux = tandem(c.n_through, c.n_cross, c.hops, PathScheduler::Bmux)
            .delay_bound(p.epsilon)
            .map(|b| b.bound.delay);
        let fifo = tandem(c.n_through, c.n_cross, c.hops, PathScheduler::Fifo)
            .delay_bound(p.epsilon)
            .map(|b| b.bound.delay);
        // e.g. d*_0 = d*_c / 2 ⇔ cross deadlines twice the through
        // ones (ratio 2).
        let edf_short = tandem(c.n_through, c.n_cross, c.hops, PathScheduler::Fifo)
            .edf_delay_bound_fixed_point(p.epsilon, p.edf_ratio_short)
            .map(|(b, _)| b.bound.delay);
        // e.g. d*_0 = 2 d*_c ⇔ cross deadlines half the through ones
        // (ratio 1/2).
        let edf_long = tandem(c.n_through, c.n_cross, c.hops, PathScheduler::Fifo)
            .edf_delay_bound_fixed_point(p.epsilon, p.edf_ratio_long)
            .map(|(b, _)| b.bound.delay);
        (bmux, fifo, edf_short, edf_long)
    });
    for (section, &hops) in sections.into_iter().zip(&p.hops) {
        println!("\n## H = {hops}");
        println!(
            "{:>6} {:>6} {:>6} {:>10} {:>10} {:>12} {:>12}{}",
            "Uc/U",
            "N0",
            "Nc",
            "BMUX",
            "FIFO",
            "EDF(d0<dc)",
            "EDF(d0>dc)",
            if opts.sim { "  simFIFO q [spread]" } else { "" }
        );
        for i in section {
            let c = &cells[i];
            let (bmux, fifo, edf_short, edf_long) = bounds[i];
            let edf_short = fmt(edf_short);
            let edf_long = fmt(edf_long);
            let overlay = if opts.sim {
                format!("  {}", sim_overlay(opts, c.n_through, c.n_cross, c.hops)?)
            } else {
                String::new()
            };
            println!(
                "{:>6.2} {:>6} {:>6} {} {} {:>12} {:>12}{}",
                c.mix,
                c.n_through,
                c.n_cross,
                fmt(bmux),
                fmt(fifo),
                edf_short.trim(),
                edf_long.trim(),
                overlay,
            );
        }
    }
    Ok(())
}
