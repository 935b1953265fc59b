//! Typed errors for the analysis crate.
//!
//! The Eq. (38) solvers ([`solve`](crate::e2e::optimizer::solve),
//! [`explicit`](crate::e2e::optimizer::explicit)) panic on invalid
//! input and return `None` when infeasible;
//! [`MmooTandem::try_delay_bound`](crate::MmooTandem::try_delay_bound)
//! surfaces these conditions as values so callers — the scenario
//! engine, the CLI — can map them onto distinct exit codes instead of
//! aborting.

use std::fmt;

/// Everything that can go wrong evaluating a delay bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A parameter failed validation: empty path, negative or NaN `σ`,
    /// non-finite node rates, zero hops, …
    InvalidInput(String),
    /// The optimization problem of Eq. (38) has no feasible solution
    /// (a node's effective capacity does not exceed the interfering
    /// cross rate).
    Infeasible,
    /// The optimized bound came out NaN or infinite, so no finite
    /// bound exists to report.
    NonFinite(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidInput(msg) => write!(f, "invalid input: {msg}"),
            Error::Infeasible => write!(f, "the delay-bound optimization is infeasible"),
            Error::NonFinite(msg) => {
                write!(f, "solver produced no finite bound: {msg}")
            }
        }
    }
}

impl std::error::Error for Error {}
