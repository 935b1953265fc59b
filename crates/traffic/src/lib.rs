//! Stochastic traffic models for the network calculus.
//!
//! This crate provides the probabilistic substrate of the end-to-end
//! delay analysis in *"Does Link Scheduling Matter on Long Paths?"*
//! (ICDCS 2010):
//!
//! * [`ExpBound`] — exponential bounding functions `ε(σ) = M·e^{−ασ}`
//!   together with the algebra the multi-node analysis needs: the exact
//!   infimal convolution identity (Eq. (33) of the paper), geometric
//!   slot sums, and inversion `ε ↦ σ(ε)`.
//! * [`Ebb`] — arrival processes with Exponentially Bounded Burstiness
//!   (Yaron & Sidi), `P(A(s,t) > ρ(t−s) + σ) ≤ M·e^{−ασ}` (Eq. (27)),
//!   and their discrete-time statistical sample-path envelopes
//!   (Section IV).
//! * [`Mmoo`] — the two-state discrete-time Markov-modulated on-off
//!   source of the paper's numerical examples, with its effective
//!   bandwidth bound.
//! * [`StatEnvelope`] / [`DetEnvelope`] — statistical sample-path
//!   envelopes `P(sup_s {A(s,t) − G(t−s)} > σ) ≤ ε(σ)` (Eq. (2)) and
//!   their deterministic counterparts (Eq. (1)).
//!
//! # Units
//!
//! The paper's examples use slots of `T = 1 ms` and data in kilobits;
//! nothing in this crate depends on that choice, but all rates are
//! per-slot and all envelopes are functions of slot counts.
//!
//! # Example
//!
//! Build the paper's source aggregate and its EBB characterization:
//!
//! ```
//! use nc_traffic::Mmoo;
//!
//! let src = Mmoo::paper_source();             // P=1.5 kb, p11=0.989, p22=0.9
//! assert!((src.mean_rate() - 0.1486).abs() < 1e-3);
//! let agg = src.ebb(0.5, 100);                // 100 flows at s = 0.5
//! assert!(agg.rho() > 100.0 * src.mean_rate());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

mod bounding;
mod ebb;
mod envelope;
mod mmoo;

pub use bounding::ExpBound;
pub use ebb::Ebb;
pub use envelope::{DetEnvelope, StatEnvelope};
pub use mmoo::Mmoo;
