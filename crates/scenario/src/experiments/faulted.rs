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

use super::all_replications_ran;
use crate::error::Error;
use crate::model::Faulted;
use crate::opts::RunOpts;
use crate::{fmt, is_fair_queueing, parse_sched};
use nc_core::{MmooTandem, PathScheduler};
use nc_sim::{MonteCarloReport, SimConfig};
use nc_traffic::Mmoo;

pub(crate) fn run(p: &Faulted, opts: &RunOpts) -> Result<(), Error> {
    let plan = opts.faults.as_ref().ok_or_else(|| Error::Scenario {
        path: None,
        detail: "a `faulted` experiment needs a non-empty top-level `faults` block".into(),
    })?;
    plan.check_hops(p.hops)?;
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
    // The same options minus the fault plan drive the clean baseline,
    // so seeds and thread count stay aligned.
    let mut clean_opts = opts.clone();
    clean_opts.faults = None;
    for case in &p.schedulers {
        let (analysis_sched, sim_sched) = parse_sched(&case.sched).map_err(Error::Runtime)?;
        let fair = is_fair_queueing(&case.sched);
        let bound_sched = if fair { PathScheduler::Bmux } else { analysis_sched };
        let bound = MmooTandem {
            source,
            n_through: p.through,
            n_cross: p.cross,
            capacity: p.capacity,
            hops: p.hops,
            scheduler: bound_sched,
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
        let clean = run_cell(&clean_opts, cfg, bound, &format!("clean-{}", case.label))?;
        let mut faulted = run_cell(opts, cfg, bound, &format!("faulted-{}", case.label))?;
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

/// One Monte Carlo cell through the engine (streaming mode with the
/// bound as an exact threshold); folds the metric shard into the global
/// registry for the artifact writers.
fn run_cell(
    opts: &RunOpts,
    cfg: SimConfig,
    bound: Option<f64>,
    cell: &str,
) -> Result<MonteCarloReport, Error> {
    let thresholds: Vec<f64> = bound.into_iter().collect();
    let report = opts.monte_carlo(&thresholds).run(cfg)?;
    nc_telemetry::merge_global(&report.metrics);
    all_replications_ran(report, cell)
}
