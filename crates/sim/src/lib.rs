//! Discrete-time tandem-network simulator for link-scheduling
//! experiments.
//!
//! The paper *"Does Link Scheduling Matter on Long Paths?"* is purely
//! analytical; this crate supplies the executable system its bounds are
//! about, so that every probabilistic delay bound in `nc-core` can be
//! checked against an actual packet/fluid system:
//!
//! * a slotted time model (the paper's `T = 1 ms` discrete time),
//! * real schedulers: FIFO, static priority, EDF — the Δ-schedulers —
//!   plus GPS, which is *not* a Δ-scheduler and exercises the boundary
//!   of the paper's class,
//! * the tandem topology of Fig. 1: a through aggregate crossing `H`
//!   nodes, with fresh cross traffic entering at every node and leaving
//!   after one hop; one simulation can serve the same arrivals to
//!   several lanes (schedulers, capacities, fault plans) at once,
//! * Markov-modulated on-off sources matching `nc-traffic`'s MMOO
//!   model, per flow and as ON-count aggregates,
//! * single-node trace replay ([`replay_single_node`]), which executes
//!   the adversarial scenarios of Theorem 2,
//! * delay statistics for bound validation: an exact histogram of
//!   whole-slot delays with nearest-rank quantiles and violation
//!   fractions, merged across replications by adding counts,
//! * [`run_indexed`], the one worker loop behind both the Monte Carlo
//!   engine ([`MonteCarlo`]) and `nc-scenario`'s analytical sweeps.
//!
//! # Example
//!
//! Simulate 20 through and 40 cross MMOO flows across 3 FIFO nodes and
//! measure the 99.9th-percentile end-to-end delay:
//!
//! ```
//! use nc_sim::{SchedulerKind, SimConfig, TandemSim};
//!
//! let cfg = SimConfig {
//!     capacity: 30.0,
//!     hops: 3,
//!     n_through: 20,
//!     n_cross: 40,
//!     scheduler: SchedulerKind::Fifo,
//!     ..SimConfig::default()
//! };
//! let mut sim = TandemSim::new(cfg, 42);
//! let stats = sim.run(20_000);
//! assert!(stats.quantile(0.999).unwrap() >= stats.quantile(0.5).unwrap());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

mod binomial;
mod error;
mod faults;
mod montecarlo;
mod node;
mod pool;
mod scheduler;
mod source;
mod stats;
mod tandem;

pub use error::Error;
pub use faults::{FaultCounters, FaultInjector, FaultModel, FaultPlan};
pub use montecarlo::{MonteCarlo, MonteCarloReport};
pub use node::{Chunk, Node, NodeCounters, NodePolicy, ServiceMode};
pub use pool::{effective_threads, run_indexed};
pub use scheduler::SchedulerKind;
pub use source::{MmooAggregate, MmooState};
#[allow(deprecated)]
pub use stats::{DelayStats, DEFAULT_RESERVOIR};
pub use tandem::{replay_single_node, Lane, LaneSim, SimConfig, TandemSim};
