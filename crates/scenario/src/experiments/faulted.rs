//! Fault ablation: how link faults erode the analytical delay bounds.
//!
//! For each scheduler the experiment computes the *nominal* analytical
//! bound `d` (faults are not modelled by the calculus — the bound
//! assumes healthy links), then simulates the tandem twice with
//! identical seeds: once clean and once under the scenario's `faults`
//! block. The table reports the empirical violation rate `P(W > d)` on
//! both, plus the faulted `q(1 − ε)` quantile. On clean links a valid
//! bound keeps `P(W > d) ≤ ε`; the faulted column shows by how many
//! orders of magnitude injected outages, degradations, stalls, and
//! drops break that guarantee — and whether the scheduler choice
//! changes the damage. Fair-queueing rows (GPS/SCFQ) are measured
//! against the BMUX envelope, as in the validation experiment.

use super::simulate_cell;
use crate::error::Error;
use crate::model::Faulted;
use crate::opts::RunOpts;
use crate::{fmt, parse_sched};
use nc_core::MmooTandem;
use nc_sim::SimConfig;
use nc_traffic::Mmoo;

/// `Scenario::check` guarantees `opts.faults` holds a non-empty plan
/// that fits `p.hops`.
pub(crate) fn run(p: &Faulted, opts: &RunOpts) -> Result<(), Error> {
    let source = Mmoo::paper_source();
    println!(
        "# Bound-violation rates on clean vs faulted links (C = {} kb/ms, eps = {:.0e})",
        p.capacity, p.epsilon
    );
    println!(
        "# H = {}, N0 = {}, Nc = {} (U ≈ {:.0}%), {} reps x {} slots, master seed {:#x}",
        p.hops,
        p.through,
        p.cross,
        (p.through + p.cross) as f64 * source.mean_rate() / p.capacity * 100.0,
        opts.reps,
        opts.slots,
        opts.seed
    );
    println!(
        "{:>18} {:>10} {:>14} {:>14} {:>16} {:>14}",
        "scheduler", "bound", "clean P(W>d)", "fault P(W>d)", "fault q(1-eps)", "note"
    );
    for case in &p.schedulers {
        let (analysis_sched, sim_sched) = parse_sched(&case.sched).map_err(Error::Runtime)?;
        let fair = sim_sched.delta().is_none();
        let bound = MmooTandem {
            source,
            n_through: p.through,
            n_cross: p.cross,
            capacity: p.capacity,
            hops: p.hops,
            scheduler: analysis_sched,
        }
        .delay_bound(p.epsilon)
        .map(|b| b.bound.delay);
        let cfg = SimConfig {
            capacity: p.capacity,
            hops: p.hops,
            n_through: p.through,
            n_cross: p.cross,
            source,
            scheduler: sim_sched,
            warmup: super::TANDEM_WARMUP,
            packet_size: None,
        };
        // The row's clean and faulted runs share one arrival stream. One
        // plan per row, not one for the whole table: ten lanes of deep
        // faulted queues stepped together ran slower than five plans of
        // two (EXPERIMENTS.md).
        let faulted = opts.lane(cfg);
        let cells = [format!("clean-{}", case.label), format!("faulted-{}", case.label)];
        let lanes = [faulted.clone().faults(None), faulted];
        let mut reports = simulate_cell(&opts.monte_carlo(), &cells, &lanes)?.into_iter();
        let (Some(clean), Some(faulted)) = (reports.next(), reports.next()) else {
            unreachable!("two lanes per row");
        };
        let q_fault = faulted.merged.quantile(1.0 - p.epsilon).unwrap_or(f64::NAN);
        let (clean_col, fault_col, note) = match bound {
            Some(d) => {
                let v_clean = clean.merged.violation_fraction(d);
                let v_fault = faulted.merged.violation_fraction(d);
                let note = if fair {
                    "vs BMUX"
                } else if v_fault > p.epsilon && v_clean <= p.epsilon {
                    "faults break it"
                } else if v_fault <= p.epsilon {
                    "holds"
                } else {
                    "invalid clean"
                };
                (format!("{v_clean:14.2e}"), format!("{v_fault:14.2e}"), note)
            }
            None => (format!("{:>14}", "-"), format!("{:>14}", "-"), "-"),
        };
        println!(
            "{:>18} {} {clean_col} {fault_col} {q_fault:>16.2} {note:>14}",
            case.label,
            fmt(bound)
        );
    }
    Ok(())
}
