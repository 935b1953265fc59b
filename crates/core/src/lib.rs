//! Δ-schedulers and probabilistic end-to-end delay bounds on long
//! paths — a complete implementation of the analysis in
//! J. Liebeherr, Y. Ghiassi-Farrokhfal, A. Burchard,
//! *"Does Link Scheduling Matter on Long Paths?"*, IEEE ICDCS 2010.
//!
//! # What this crate provides
//!
//! * **Δ-schedulers** ([`DeltaScheduler`], [`PathScheduler`]) — the
//!   paper's scheduler class (Definition 1): FIFO, static priority,
//!   blind multiplexing (BMUX), EDF, and arbitrary Δ-matrices.
//! * **Theorem 1** ([`statistical_leftover`], [`deterministic_leftover`])
//!   — statistical leftover service curves that capture a Δ-scheduler's
//!   operation at a single node.
//! * **Theorem 2** ([`delay_feasible`], [`min_feasible_delay`],
//!   [`adversarial_scenario`]) — the tight deterministic schedulability
//!   condition (Eq. (24)) and the greedy arrival construction showing
//!   its necessity for concave envelopes.
//! * **Single-node probabilistic bounds** ([`single_node_delay_bound`])
//!   — Eqs. (20)–(23).
//! * **End-to-end analysis** ([`TandemPath`], [`MmooTandem`], and the
//!   [`e2e`] module) — the network service curve (Eq. (30)), the closed
//!   forms of its bounding function (Eqs. (31)–(34)), the delay-bound
//!   optimization (Eq. (38)) with both the paper's explicit solution
//!   (Eqs. (40)–(42)) and an exact numeric solver, the BMUX/FIFO closed
//!   forms (Eqs. (43)–(44)), the additive node-by-node baseline of
//!   Example 3, and the EDF deadline fixed point of the numerical
//!   examples.
//!
//! # Quickstart
//!
//! End-to-end delay bound of 100 through MMOO flows across 5 FIFO
//! nodes with 200 cross flows per node, at violation probability 10⁻⁹:
//!
//! ```
//! use nc_core::{MmooTandem, PathScheduler};
//! use nc_traffic::Mmoo;
//!
//! let tandem = MmooTandem {
//!     source: Mmoo::paper_source(),
//!     n_through: 100,
//!     n_cross: 200,
//!     capacity: 100.0,           // 100 Mbps = 100 kb per 1 ms slot
//!     hops: 5,
//!     scheduler: PathScheduler::Fifo,
//! };
//! let fifo = tandem.delay_bound(1e-9).unwrap();
//! let bmux = MmooTandem { scheduler: PathScheduler::Bmux, ..tandem }
//!     .delay_bound(1e-9)
//!     .unwrap();
//! assert!(fifo.bound.delay <= bmux.bound.delay);  // BMUX dominates everything
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

mod delta;
pub mod e2e;
mod error;
mod packet;
pub mod scaling;
mod schedulability;
mod service;
mod single_node;

pub use delta::{DeltaScheduler, PathScheduler};
pub use e2e::deterministic::{deterministic_delay_bound, LeakyBucket};
pub use e2e::hetero::{HeteroNode, HeteroPath};
pub use e2e::{E2eDelayBound, MmooDelayBound, MmooTandem, TandemPath};
pub use error::Error;
pub use packet::{packetization_penalty, packetize_service, packetized_delay_bound};
pub use schedulability::{
    adversarial_scenario, delay_feasible, min_feasible_delay, AdversarialScenario,
};
pub use service::{deterministic_leftover, statistical_leftover, LeftoverService};
pub use single_node::{
    single_node_backlog_bound, single_node_delay_bound, NodeBacklogBound, NodeDelayBound,
};
