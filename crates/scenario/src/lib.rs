//! Declarative experiment scenarios for the linksched reproduction of
//! *"Does Link Scheduling Matter on Long Paths?"* (ICDCS 2010).
//!
//! A [`Scenario`] is one JSON document describing an experiment —
//! topology, MMOO traffic mix, schedulers, analysis options, and the
//! Monte Carlo overlay defaults. The [`Engine`] runs it through one
//! code path: analysis, the optional simulation overlay, and the
//! telemetry artifacts of [`RunArtifacts`].
//!
//! `linksched run` executes shipped scenario files
//! (`examples/scenarios/*.json`, one per figure) through the engine;
//! this crate is also the single home for the shared helpers
//! ([`tandem`], [`flows_for_utilization`], [`parse_sched`],
//! [`RunOpts`]).
//!
//! # Quickstart
//!
//! ```
//! use nc_scenario::{Engine, Scenario};
//!
//! let scenario = Scenario::from_json(
//!     r#"{
//!       "name": "demo",
//!       "experiment": "bound",
//!       "params": {"hops": 5, "through": 100, "cross": 200}
//!     }"#,
//! )
//! .unwrap();
//! let opts = Engine::default_opts(&scenario);
//! let summary = Engine::new(scenario, opts).run().unwrap();
//! assert!(summary.delay_stats.is_none()); // analysis-only: no simulation
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

mod artifacts;
pub mod bench_harness;
mod engine;
mod error;
mod experiments;
mod model;
mod opts;
mod sched;
mod sweep;

pub use artifacts::{sim_overlay, RunArtifacts, OVERLAY_EPS};
pub use engine::{Engine, RunSummary};
pub use error::Error;
pub use model::{
    Bound, CrossSweep, Experiment, Faulted, MixSweep, PathSweep, Scenario, SimDefaults, Simulate,
    UtilizationSweep, Validate, ValidateCase,
};
pub use opts::{RunOpts, USAGE};
pub use sched::parse_sched;
pub use sweep::SweepEngine;

use nc_core::{MmooTandem, PathScheduler};
use nc_traffic::Mmoo;

/// The paper's per-flow mean rate used in the utilization convention
/// (`U = N · 0.15 / C`; the exact MMOO mean is ≈0.1486).
pub const FLOW_MEAN: f64 = 0.15;

/// The paper's link capacity in kb per 1 ms slot (100 Mbps).
pub const CAPACITY: f64 = 100.0;

/// The paper's violation probability.
pub const EPSILON: f64 = 1e-9;

/// Number of flows corresponding to a utilization fraction `u` under
/// the paper's convention.
pub fn flows_for_utilization(u: f64) -> usize {
    (u * CAPACITY / FLOW_MEAN).round() as usize
}

/// Builds the paper's tandem for given flow counts.
pub fn tandem(n_through: usize, n_cross: usize, hops: usize, sched: PathScheduler) -> MmooTandem {
    MmooTandem {
        source: Mmoo::paper_source(),
        n_through,
        n_cross,
        capacity: CAPACITY,
        hops,
        scheduler: sched,
    }
}

/// Formats an optional delay value for table output.
pub fn fmt(d: Option<f64>) -> String {
    match d {
        Some(v) if v.is_finite() => format!("{v:10.2}"),
        _ => format!("{:>10}", "-"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_round_trip() {
        assert_eq!(flows_for_utilization(0.15), 100);
        assert_eq!(flows_for_utilization(0.50), 333);
        assert_eq!(flows_for_utilization(0.95), 633);
    }

    #[test]
    fn tandem_matches_paper_defaults() {
        let t = tandem(100, 233, 5, PathScheduler::Fifo);
        assert_eq!(t.capacity, CAPACITY);
        assert!((t.utilization() - 0.495).abs() < 0.02);
    }

    #[test]
    fn fmt_handles_missing() {
        assert!(fmt(None).contains('-'));
        assert!(fmt(Some(12.345)).contains("12.3"));
    }
}
