//! Min-plus (tropical) algebra for the network calculus.
//!
//! This crate provides the deterministic substrate used by the
//! `nc-core` analysis: wide-sense increasing piecewise-linear curves
//! together with the min-plus operations of the network calculus
//! (Le Boudec & Thiran; Chang) that the analysis and its cross-checks
//! run. It serves Theorem 1's leftover service curves, the single-node
//! delay and backlog deviations, and the deterministic γ = 0
//! cross-check of the end-to-end bound against a convolved network
//! service curve.
//!
//! # Concepts
//!
//! A *curve* `f` is a non-decreasing function `f : [0, ∞) → [0, ∞]` with
//! `f(t) = 0` for `t ≤ 0`. Curves model both *arrival envelopes* (upper
//! bounds on traffic over intervals, e.g. token buckets) and *service
//! curves* (lower bounds on forwarded traffic, e.g. rate-latency
//! functions or the burst-delay function `δ_d`).
//!
//! The central operators are
//!
//! * min-plus convolution `(f ∗ g)(t) = inf_{0≤s≤t} f(s) + g(t−s)`,
//!   exact for every pair of piecewise-linear curves,
//! * the horizontal deviation (delay bound) and vertical deviation
//!   (backlog bound) between an envelope and a service curve,
//! * the pointwise minimum, sum, `I(t > θ)` gate and the clamped
//!   difference `[f − g]₊` with its non-decreasing lower closure.
//!
//! # Example
//!
//! Delay and backlog of a token-bucket flow through a rate-latency server:
//!
//! ```
//! use nc_minplus::Curve;
//!
//! let envelope = Curve::token_bucket(1.0, 5.0);     // rate 1, bucket 5
//! let service = Curve::rate_latency(4.0, 2.0);      // rate 4, latency 2
//!
//! let delay = envelope.h_deviation(&service).unwrap();
//! let backlog = envelope.v_deviation(&service).unwrap();
//! assert!((delay - (2.0 + 5.0 / 4.0)).abs() < 1e-9);
//! assert!((backlog - (5.0 + 1.0 * 2.0)).abs() < 1e-9);
//! ```
//!
//! # Representation
//!
//! [`Curve`] stores a left-continuous piecewise-linear function as a
//! sorted list of segments; values may be `+∞` (used by the burst-delay
//! function `δ_d`). Curves are built from the constructors
//! ([`Curve::rate`], [`Curve::token_bucket`], [`Curve::rate_latency`],
//! [`Curve::delta`], [`Curve::zero`]) and the operators above, so every
//! curve satisfies the representation's invariants by construction.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

mod curve;
mod deviation;
mod ops;

pub use curve::{Curve, CurveError, Segment};
