//! Deterministic and statistical sample-path envelopes.

use crate::bounding::ExpBound;
use nc_minplus::Curve;

/// A deterministic sample-path envelope (Eq. (1)):
///
/// `sup_{0≤s≤t} { A(s,t) − E(t−s) } ≤ 0` for every sample path.
///
/// The canonical example is the leaky bucket `E(t) = B + R·t`.
///
/// # Example
///
/// ```
/// use nc_traffic::DetEnvelope;
///
/// let e = DetEnvelope::leaky_bucket(2.0, 10.0);
/// assert_eq!(e.curve().eval(5.0), 20.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DetEnvelope {
    curve: Curve,
}

impl DetEnvelope {
    /// Wraps an arbitrary non-decreasing curve as a deterministic envelope.
    pub fn new(curve: Curve) -> Self {
        DetEnvelope { curve }
    }

    /// The leaky-bucket envelope `E(t) = B + R·t` (for `t > 0`).
    ///
    /// # Panics
    ///
    /// Panics if `rate` or `burst` is negative or not finite.
    pub fn leaky_bucket(rate: f64, burst: f64) -> Self {
        DetEnvelope { curve: Curve::token_bucket(rate, burst) }
    }

    /// The envelope curve `E`.
    pub fn curve(&self) -> &Curve {
        &self.curve
    }

    /// Converts into a statistical envelope with the never-violated
    /// zero bounding function (`ε ≡ 0`), recovering the deterministic
    /// case of Eq. (2).
    pub fn into_stat(self) -> StatEnvelope {
        StatEnvelope { curve: self.curve, bound: ExpBound::zero() }
    }
}

/// A statistical sample-path envelope (Eq. (2)):
///
/// `P( sup_{0≤s≤t} { A(s,t) − G(t−s) } > σ ) ≤ ε(σ)`,
///
/// with an exponential bounding function `ε`. The end-to-end analysis of
/// Section IV uses linear envelopes `G(t) = (ρ+γ)·t`; Theorem 1 is
/// stated (and implemented in `nc-core`) for general concave `G`.
#[derive(Debug, Clone, PartialEq)]
pub struct StatEnvelope {
    curve: Curve,
    bound: ExpBound,
}

impl StatEnvelope {
    /// An envelope with an arbitrary curve `G` and bounding function `ε`.
    pub fn new(curve: Curve, bound: ExpBound) -> Self {
        StatEnvelope { curve, bound }
    }

    /// The linear envelope `G(t) = rate·t` with bounding function `bound`.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is negative or not finite.
    pub fn linear(rate: f64, bound: ExpBound) -> Self {
        StatEnvelope {
            curve: Curve::rate(rate).expect("envelope rate must be finite and non-negative"),
            bound,
        }
    }

    /// The envelope curve `G`.
    pub fn curve(&self) -> &Curve {
        &self.curve
    }

    /// The bounding function `ε`.
    pub fn bound(&self) -> &ExpBound {
        &self.bound
    }

    /// The envelope's long-run rate `lim G(t)/t`.
    pub fn rate(&self) -> f64 {
        self.curve.long_run_rate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn det_envelope_into_stat_has_the_zero_bound() {
        let e = DetEnvelope::leaky_bucket(1.0, 4.0).into_stat();
        assert!(e.bound().is_zero());
        assert_eq!(e.rate(), 1.0);
        assert_eq!(e.curve().eval_right(0.0), 4.0);
    }

    #[test]
    fn linear_envelope_accessors() {
        let e = StatEnvelope::linear(3.0, ExpBound::new(2.0, 0.5));
        assert_eq!(e.rate(), 3.0);
        assert!(!e.bound().is_zero());
        assert_eq!(e.curve().eval(2.0), 6.0);
        assert!((e.bound().eval(0.0) - 2.0).abs() < 1e-12);
    }
}
