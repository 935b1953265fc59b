//! Typed errors for the simulator crate.
//!
//! Invalid fault configurations and panicked Monte Carlo replications
//! surface as values instead of panics so callers (the scenario engine,
//! the CLI) can map them onto distinct process exit codes.

use std::fmt;

/// Everything that can go wrong constructing or replicating a
/// simulation.
#[derive(Debug)]
pub enum Error {
    /// A fault model or plan failed validation (probability outside
    /// `[0, 1]`, non-finite factor, plan/topology mismatch, …).
    FaultConfig(String),
    /// Replications of a Monte Carlo run panicked, so its statistics
    /// would describe fewer replications than the plan asked for.
    /// Reported only after every replication has run.
    ReplicationsPanicked {
        /// Replications that panicked.
        panicked: usize,
        /// Replications in the plan.
        reps: usize,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::FaultConfig(msg) => write!(f, "invalid fault configuration: {msg}"),
            Error::ReplicationsPanicked { panicked, reps } => {
                write!(f, "{panicked} of {reps} replication(s) panicked")
            }
        }
    }
}

impl std::error::Error for Error {}
