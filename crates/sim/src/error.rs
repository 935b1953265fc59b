//! Typed errors for the simulator crate.
//!
//! Invalid fault configurations surface as values instead of panics so
//! callers (the scenario engine, the CLI) can map them onto distinct
//! process exit codes.

use std::fmt;

/// Everything that can go wrong constructing a simulation.
#[derive(Debug)]
pub enum Error {
    /// A fault model or plan failed validation (probability outside
    /// `[0, 1]`, non-finite factor, plan/topology mismatch, …).
    FaultConfig(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::FaultConfig(msg) => write!(f, "invalid fault configuration: {msg}"),
        }
    }
}

impl std::error::Error for Error {}
