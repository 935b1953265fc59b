//! Typed errors for the simulator crate.
//!
//! Panicked Monte Carlo replications surface as a value instead of a
//! panic so callers (the scenario engine, the CLI) can map them onto a
//! process exit code.

use std::fmt;

/// What can go wrong replicating a simulation.
#[derive(Debug)]
pub enum Error {
    /// Replications of a Monte Carlo run panicked, so its statistics
    /// would describe fewer replications than the plan asked for.
    /// Reported only after every replication has run.
    ReplicationsPanicked {
        /// Replications in which `lane` panicked.
        panicked: usize,
        /// Replications in the plan.
        reps: usize,
        /// The lowest-index lane that panicked in any replication.
        lane: usize,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::ReplicationsPanicked { panicked, reps, lane } => {
                write!(f, "{panicked} of {reps} replication(s) panicked in lane {lane}")
            }
        }
    }
}

impl std::error::Error for Error {}
