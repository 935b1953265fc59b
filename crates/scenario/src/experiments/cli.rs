//! The CLI experiments: single bound queries, cross-flow sweeps, and
//! tandem simulations (the scenario forms of `linksched
//! bound`/`sweep`/`simulate`).

use super::simulate_cell;
use crate::error::Error;
use crate::model::{Bound, CrossSweep, Simulate};
use crate::opts::RunOpts;
use crate::sched::path_scheduler;
use nc_core::MmooTandem;
use nc_core::PathScheduler;
use nc_sim::{DelayStats, Lane, SimConfig};
use nc_traffic::Mmoo;

pub(crate) fn bound(p: &Bound) -> Result<(), Error> {
    let sched = path_scheduler(p.sched);
    let t = MmooTandem {
        source: Mmoo::paper_source(),
        n_through: p.through,
        n_cross: p.cross,
        capacity: p.capacity,
        hops: p.hops,
        scheduler: sched,
    };
    println!(
        "H = {}, C = {} Mbps, N0 = {}, Nc = {} (U = {:.1}%), scheduler {}",
        p.hops,
        p.capacity,
        p.through,
        p.cross,
        t.utilization() * 100.0,
        sched
    );
    // try_delay_bound distinguishes an unstable/infeasible tandem (exit
    // code 7) from invalid inputs (exit code 4).
    let b = t.try_delay_bound(p.epsilon)?;
    println!(
        "P(W > {:.3} ms) < {:.0e}   [s = {:.4}, γ = {:.4}, σ = {:.1} kb]",
        b.bound.delay, p.epsilon, b.s, b.bound.gamma, b.bound.sigma
    );
    if let Some(l) = p.packet {
        let corrected = nc_core::packetized_delay_bound(b.bound.delay, l, p.capacity, p.hops);
        println!("non-preemptive packets of {l} kb: P(W > {corrected:.3} ms) < {:.0e}", p.epsilon);
    }
    Ok(())
}

pub(crate) fn cross_sweep(p: &CrossSweep, opts: &RunOpts) {
    println!(
        "# delay bounds [ms] vs cross flows (H = {}, N0 = {}, eps = {:.0e})",
        p.hops, p.through, p.epsilon
    );
    println!("{:>6} {:>7} {:>10} {:>10} {:>10}", "Nc", "U[%]", "BMUX", "FIFO", "SP");
    let steps = 10usize;
    let rows = crate::SweepEngine::new(opts.threads).run(steps, |row| {
        let nc = p.cross_max * (row + 1) / steps;
        let mk = |s: PathScheduler| {
            MmooTandem {
                source: Mmoo::paper_source(),
                n_through: p.through,
                n_cross: nc,
                capacity: p.capacity,
                hops: p.hops,
                scheduler: s,
            }
            .delay_bound(p.epsilon)
            .map(|b| format!("{:10.2}", b.bound.delay))
            .unwrap_or_else(|| format!("{:>10}", "-"))
        };
        (nc, mk(PathScheduler::Bmux), mk(PathScheduler::Fifo), mk(PathScheduler::ThroughPriority))
    });
    for (nc, bmux, fifo, sp) in rows {
        let u = (p.through + nc) as f64 * Mmoo::paper_source().mean_rate() / p.capacity;
        println!("{nc:>6} {:>7.1} {bmux} {fifo} {sp}", u * 100.0);
    }
}

pub(crate) fn simulate(p: &Simulate, opts: &RunOpts) -> Result<DelayStats, Error> {
    let cfg = SimConfig {
        capacity: p.capacity,
        hops: p.hops,
        n_through: p.through,
        n_cross: p.cross,
        source: Mmoo::paper_source(),
        scheduler: p.sched,
        warmup: (opts.slots / 100).max(1_000),
        packet_size: p.packet,
    };
    let capacity_note = match &p.capacities {
        Some(caps) => format!(
            "C = [{}] Mbps",
            caps.iter().map(|c| c.to_string()).collect::<Vec<_>>().join(", ")
        ),
        None => format!("C = {} Mbps", p.capacity),
    };
    println!(
        "simulating {} slots: H = {}, {capacity_note}, N0 = {}, Nc = {}, {:?}{}{}",
        opts.slots,
        p.hops,
        p.through,
        p.cross,
        p.sched,
        p.packet.map(|l| format!(", packets of {l} kb")).unwrap_or_default(),
        if opts.reps > 1 { format!(", {} reps", opts.reps) } else { String::new() },
    );
    // Replication i runs under the i-th seed derived from the master
    // seed, so the merge is bitwise-identical for every thread count.
    let lane = Lane::new(cfg).capacities(p.capacities.clone());
    let stats = simulate_cell(&opts.monte_carlo(), &["simulate".into()], &[lane])?.remove(0).merged;
    if stats.is_empty() {
        return Err(Error::Runtime("no samples recorded (all within warm-up?)".into()));
    }
    println!("samples: {}", stats.len());
    println!("mean:    {:>8.2} ms", stats.mean().unwrap_or(f64::NAN));
    for q in [0.5, 0.9, 0.99, 0.999, 0.9999] {
        if let Some(v) = stats.quantile(q) {
            println!("q{:<6} {:>8.2} ms", format!("{:.4}", q), v);
        }
    }
    println!("max:     {:>8.2} ms", stats.max().unwrap_or(f64::NAN));
    Ok(stats)
}
