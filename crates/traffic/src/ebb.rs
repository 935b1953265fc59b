//! Exponentially Bounded Burstiness (EBB) arrival processes.

use crate::bounding::ExpBound;
use crate::envelope::StatEnvelope;

/// An arrival process with Exponentially Bounded Burstiness (Eq. (27)):
///
/// `P( A(s,t) > ρ·(t−s) + σ ) ≤ M · e^{−α·σ}` for all `s ≤ t`, `σ ≥ 0`.
///
/// Written `A ∼ (M, ρ, α)` in the paper. The EBB class is expressive
/// enough to capture Markov-modulated processes (see
/// [`Mmoo::ebb`](crate::Mmoo::ebb)) and is closed under independent
/// aggregation.
///
/// # Example
///
/// ```
/// use nc_traffic::Ebb;
///
/// let a = Ebb::new(1.0, 20.0, 0.5);
/// let env = a.sample_path_envelope(1.0);     // G(t) = (ρ+γ)t, Section IV
/// assert!((env.rate() - 21.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ebb {
    m: f64,
    rho: f64,
    alpha: f64,
}

impl Ebb {
    /// Creates an EBB process `A ∼ (M, ρ, α)`.
    ///
    /// # Panics
    ///
    /// Panics unless `M ≥ 1`, `ρ ≥ 0`, and `α > 0` (all finite). The
    /// paper requires `M ≥ 1`: an EBB bound is a probability bound and
    /// must be vacuous at `σ = 0` for the union-bound machinery to hold.
    pub fn new(m: f64, rho: f64, alpha: f64) -> Self {
        assert!(m >= 1.0 && m.is_finite(), "Ebb: prefactor M must be finite and ≥ 1");
        assert!(rho >= 0.0 && rho.is_finite(), "Ebb: rate ρ must be finite and non-negative");
        assert!(alpha > 0.0 && alpha.is_finite(), "Ebb: decay α must be finite and positive");
        Ebb { m, rho, alpha }
    }

    /// The prefactor `M`.
    pub fn m(&self) -> f64 {
        self.m
    }

    /// The long-term rate bound `ρ`.
    pub fn rho(&self) -> f64 {
        self.rho
    }

    /// The exponential decay `α` of the burstiness bound.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The per-interval bounding function `ε(σ) = M·e^{−ασ}`.
    pub fn interval_bound(&self) -> ExpBound {
        ExpBound::new(self.m, self.alpha)
    }

    /// Discrete-time statistical sample-path envelope (Section IV):
    ///
    /// `G(t) = (ρ + γ)·t` with bounding function
    /// `ε(σ) = M·e^{−ασ} / (1 − e^{−αγ})`,
    ///
    /// valid for any `γ > 0` by a union bound over slot offsets.
    ///
    /// # Panics
    ///
    /// Panics if `gamma` is not strictly positive.
    pub fn sample_path_envelope(&self, gamma: f64) -> StatEnvelope {
        assert!(gamma > 0.0, "sample_path_envelope: gamma must be positive");
        StatEnvelope::linear(self.rho + gamma, self.interval_bound().geometric_sum(gamma))
    }
}

impl std::fmt::Display for Ebb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "EBB(M={}, ρ={}, α={})", self.m, self.rho, self.alpha)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_path_envelope_constants() {
        let a = Ebb::new(2.0, 10.0, 0.5);
        let env = a.sample_path_envelope(0.25);
        assert!((env.rate() - 10.25).abs() < 1e-12);
        let q = 1.0 - (-0.5 * 0.25_f64).exp();
        assert!((env.bound().prefactor() - 2.0 / q).abs() < 1e-9);
        assert!((env.bound().decay() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "M must be finite and ≥ 1")]
    fn rejects_small_prefactor() {
        let _ = Ebb::new(0.5, 1.0, 1.0);
    }
}
