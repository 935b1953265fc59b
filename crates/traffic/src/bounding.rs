//! Exponential bounding functions and their algebra.

use std::iter::repeat_n;

/// An exponential bounding function `ε(σ) = M · e^{−α·σ}`.
///
/// Bounding functions quantify the violation probability of statistical
/// envelopes (Eq. (2) of the paper) and statistical service curves
/// (Eq. (5)). The exponential family is closed under every operation the
/// multi-node analysis performs:
///
/// * **Infimal convolution** (optimal splitting of the slack `σ` between
///   several bounds, Eq. (33)): [`ExpBound::inf_convolution`].
/// * **Geometric slot sums** (discrete-time union bounds over time,
///   producing the `1/(1−e^{−αγ})` prefactors of Section IV):
///   [`ExpBound::geometric_sum`].
/// * **Scaling** (union bound over a fixed number of events).
///
/// A deterministic (never-violated) bound is represented by `M = 0`.
///
/// # Example
///
/// ```
/// use nc_traffic::ExpBound;
///
/// let e = ExpBound::new(2.0, 0.5);
/// assert!((e.eval(4.0) - 2.0 * (-2.0f64).exp()).abs() < 1e-12);
/// let sigma = e.sigma_for(1e-9).unwrap();
/// assert!((e.eval(sigma) - 1e-9).abs() < 1e-15);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExpBound {
    prefactor: f64,
    decay: f64,
}

impl ExpBound {
    /// Creates the bound `ε(σ) = prefactor · e^{−decay·σ}`.
    ///
    /// # Panics
    ///
    /// Panics if `prefactor < 0`, `decay ≤ 0`, or either is not finite.
    pub fn new(prefactor: f64, decay: f64) -> Self {
        assert!(
            prefactor >= 0.0 && prefactor.is_finite(),
            "ExpBound: prefactor must be finite and non-negative"
        );
        assert!(decay > 0.0 && decay.is_finite(), "ExpBound: decay must be finite and positive");
        ExpBound { prefactor, decay }
    }

    /// The deterministic (never violated) bound `ε ≡ 0`.
    ///
    /// The decay rate is irrelevant for a zero bound; a placeholder of
    /// `1.0` is used.
    pub fn zero() -> Self {
        ExpBound { prefactor: 0.0, decay: 1.0 }
    }

    /// The prefactor `M`.
    pub fn prefactor(&self) -> f64 {
        self.prefactor
    }

    /// The decay rate `α`.
    pub fn decay(&self) -> f64 {
        self.decay
    }

    /// Whether this is the deterministic zero bound.
    pub fn is_zero(&self) -> bool {
        self.prefactor == 0.0
    }

    /// Evaluates `ε(σ) = M·e^{−ασ}` (not clamped to `[0,1]`).
    pub fn eval(&self, sigma: f64) -> f64 {
        self.prefactor * (-self.decay * sigma).exp()
    }

    /// The slack `σ(ε) = ln(M/ε)/α` at which the bound equals `ε`,
    /// clamped at zero.
    ///
    /// Returns `None` for the zero bound (any σ works; no finite slack is
    /// needed) — callers treat this as `σ = 0`.
    pub fn sigma_for(&self, epsilon: f64) -> Option<f64> {
        assert!(epsilon > 0.0, "sigma_for: target violation probability must be positive");
        if self.is_zero() {
            return None;
        }
        Some(((self.prefactor / epsilon).ln() / self.decay).max(0.0))
    }

    /// Multiplies the prefactor by `k` (union bound over `k` events).
    ///
    /// # Panics
    ///
    /// Panics if `k` is negative or not finite.
    pub fn scale(&self, k: f64) -> Self {
        assert!(k >= 0.0 && k.is_finite(), "scale: factor must be finite and non-negative");
        ExpBound { prefactor: self.prefactor * k, decay: self.decay }
    }

    /// The discrete-time geometric sum `Σ_{j≥0} ε(σ + j·γ) =
    /// M·e^{−ασ} / (1 − e^{−αγ})`.
    ///
    /// This is the union bound over slot offsets used to turn an EBB
    /// interval bound into a sample-path envelope, and the `Σ_j` in the
    /// network bounding function Eq. (31).
    ///
    /// # Panics
    ///
    /// Panics if `gamma` is not strictly positive.
    pub fn geometric_sum(&self, gamma: f64) -> Self {
        assert!(gamma > 0.0, "geometric_sum: gamma must be positive");
        let denom = 1.0 - (-self.decay * gamma).exp();
        ExpBound { prefactor: self.prefactor / denom, decay: self.decay }
    }

    /// Exact infimal convolution
    /// `(ε₁ □ … □ ε_N)(σ) = inf { Σ ε_j(σ_j) : Σ σ_j = σ }`
    /// for exponential bounds — Eq. (33) of the paper:
    ///
    /// `inf = w · Π_j (M_j α_j)^{1/(α_j w)} · e^{−σ/w}`, with
    /// `w = Σ_j 1/α_j`.
    ///
    /// (The identity as printed in the paper is OCR-garbled; this form is
    /// re-derived by Lagrange multipliers and verified against numerical
    /// minimization in the tests.)
    ///
    /// Zero bounds are neutral: they consume no slack.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty.
    pub fn inf_convolution(bounds: &[ExpBound]) -> ExpBound {
        assert!(!bounds.is_empty(), "inf_convolution: need at least one bound");
        Self::inf_convolution_runs(bounds.iter().map(|&b| (b, 1)))
    }

    /// [`ExpBound::inf_convolution`] of run-length-encoded terms: each
    /// `(bound, k)` stands for `k` consecutive copies of `bound`.
    ///
    /// The sums of Eq. (33) still add `1/α` and `ln(Mα)/(αw)` once per
    /// copy, in order, so the result has the same bits as the expanded
    /// slice; only the `ln` and the divisions run once per run. Runs
    /// with `k = 0` contribute nothing, and if no term is left the
    /// result is [`ExpBound::zero`].
    pub fn inf_convolution_runs<I>(runs: I) -> ExpBound
    where
        I: IntoIterator<Item = (ExpBound, usize)>,
        I::IntoIter: Clone,
    {
        let active = runs.into_iter().filter(|(b, k)| *k > 0 && !b.is_zero());
        if active.clone().next().is_none() {
            return ExpBound::zero();
        }
        let w: f64 = active.clone().flat_map(|(b, k)| repeat_n(1.0 / b.decay, k)).sum();
        // ln M' = ln w + Σ ln(M_j α_j) / (α_j w)
        let ln_m: f64 = w.ln()
            + active
                .flat_map(|(b, k)| repeat_n((b.prefactor * b.decay).ln() / (b.decay * w), k))
                .sum::<f64>();
        ExpBound { prefactor: ln_m.exp(), decay: 1.0 / w }
    }
}

impl std::fmt::Display for ExpBound {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}·e^(-{}σ)", self.prefactor, self.decay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_and_sigma_roundtrip() {
        let e = ExpBound::new(3.0, 0.7);
        for target in [1e-3, 1e-6, 1e-9] {
            let s = e.sigma_for(target).unwrap();
            assert!((e.eval(s) - target).abs() / target < 1e-9);
        }
    }

    #[test]
    fn sigma_clamped_at_zero() {
        // Target above the prefactor: σ = 0 already suffices.
        let e = ExpBound::new(0.5, 1.0);
        assert_eq!(e.sigma_for(0.9).unwrap(), 0.0);
    }

    #[test]
    fn zero_bound_behaviour() {
        let z = ExpBound::zero();
        assert!(z.is_zero());
        assert_eq!(z.eval(0.0), 0.0);
        assert_eq!(z.sigma_for(1e-9), None);
        assert_eq!(ExpBound::inf_convolution(&[z, z]), z);
    }

    #[test]
    fn geometric_sum_matches_direct_sum() {
        let e = ExpBound::new(1.5, 0.8);
        let gamma = 0.3;
        let g = e.geometric_sum(gamma);
        for sigma in [0.0, 1.0, 5.0] {
            let direct: f64 = (0..10_000).map(|j| e.eval(sigma + j as f64 * gamma)).sum();
            assert!(
                (g.eval(sigma) - direct).abs() / direct < 1e-9,
                "σ={sigma}: {} vs {}",
                g.eval(sigma),
                direct
            );
        }
    }

    #[test]
    fn inf_convolution_identical_terms() {
        // N identical (M, α): result must be N·M·e^{−ασ/N}.
        let e = ExpBound::new(2.0, 0.5);
        let c = ExpBound::inf_convolution(&[e, e, e, e]);
        assert!((c.prefactor() - 8.0).abs() < 1e-9);
        assert!((c.decay() - 0.125).abs() < 1e-12);
    }

    #[test]
    fn inf_convolution_matches_numerical_minimum() {
        // Verify Eq. (33) against brute-force minimization over splits.
        let bounds = [ExpBound::new(2.0, 0.5), ExpBound::new(0.7, 1.3), ExpBound::new(5.0, 0.2)];
        let conv = ExpBound::inf_convolution(&bounds);
        for sigma in [0.5_f64, 2.0, 10.0, 25.0] {
            // Grid search over (σ₁, σ₂); σ₃ = σ − σ₁ − σ₂.
            let mut best = f64::INFINITY;
            let n = 400;
            for i in 0..=n {
                for j in 0..=(n - i) {
                    let s1 = sigma * i as f64 / n as f64;
                    let s2 = sigma * j as f64 / n as f64;
                    let s3 = sigma - s1 - s2;
                    let v = bounds[0].eval(s1) + bounds[1].eval(s2) + bounds[2].eval(s3);
                    if v < best {
                        best = v;
                    }
                }
            }
            let exact = conv.eval(sigma);
            assert!(
                (exact - best).abs() / best < 2e-3,
                "σ={sigma}: closed form {exact} vs grid {best}"
            );
            // The closed form is the true infimum: never above the grid value.
            assert!(exact <= best * (1.0 + 1e-12));
        }
    }

    #[test]
    fn inf_convolution_reproduces_paper_eps_net() {
        // With H−1 nodes contributing M/(1−e^{−αγ})² and one node
        // M/(1−e^{−αγ}), Eq. (31) must collapse to the closed form before
        // Eq. (34): ε_net = M·H·(1−e^{−αγ})^{−(2H−1)/H}·e^{−ασ/H}.
        let m = 1.0;
        let alpha = 0.4;
        let gamma = 0.05;
        let h = 7usize;
        let per_node = ExpBound::new(m, alpha).geometric_sum(gamma); // M/(1−e^{−αγ})
        let with_slots = per_node.geometric_sum(gamma); // M/(1−e^{−αγ})²
        let mut terms = vec![per_node];
        terms.extend(std::iter::repeat_n(with_slots, h - 1));
        let net = ExpBound::inf_convolution(&terms);
        let q = 1.0 - (-alpha * gamma).exp();
        let want_pref = m * h as f64 * q.powf(-(2.0 * h as f64 - 1.0) / h as f64);
        assert!(
            (net.prefactor() - want_pref).abs() / want_pref < 1e-9,
            "{} vs {want_pref}",
            net.prefactor()
        );
        assert!((net.decay() - alpha / h as f64).abs() < 1e-12);
    }

    #[test]
    fn inf_convolution_reproduces_eq_34() {
        // Adding the through-traffic envelope bound M/(1−e^{−αγ}) with
        // decay α to ε_net must give Eq. (34):
        // M(H+1)·(1−e^{−αγ})^{−2H/(H+1)}·e^{−ασ/(H+1)}.
        let m = 1.0;
        let alpha = 0.4;
        let gamma = 0.05;
        let h = 7usize;
        let per_node = ExpBound::new(m, alpha).geometric_sum(gamma);
        let with_slots = per_node.geometric_sum(gamma);
        let mut terms = vec![per_node];
        terms.extend(std::iter::repeat_n(with_slots, h - 1));
        terms.push(per_node); // ε_g of the through traffic
        let total = ExpBound::inf_convolution(&terms);
        let q = 1.0 - (-alpha * gamma).exp();
        let want_pref = m * (h as f64 + 1.0) * q.powf(-2.0 * h as f64 / (h as f64 + 1.0));
        assert!(
            (total.prefactor() - want_pref).abs() / want_pref < 1e-9,
            "{} vs {want_pref}",
            total.prefactor()
        );
        assert!((total.decay() - alpha / (h as f64 + 1.0)).abs() < 1e-12);
    }

    /// `inf_convolution` as it was before the run form: one `ln` per
    /// term, summed over a `Vec` of the non-zero terms.
    fn per_term_reference(bounds: &[ExpBound]) -> ExpBound {
        let active: Vec<&ExpBound> = bounds.iter().filter(|b| !b.is_zero()).collect();
        if active.is_empty() {
            return ExpBound::zero();
        }
        let w: f64 = active.iter().map(|b| 1.0 / b.decay).sum();
        let ln_m: f64 = w.ln()
            + active.iter().map(|b| (b.prefactor * b.decay).ln() / (b.decay * w)).sum::<f64>();
        ExpBound { prefactor: ln_m.exp(), decay: 1.0 / w }
    }

    fn bits(e: ExpBound) -> (u64, u64) {
        (e.prefactor().to_bits(), e.decay().to_bits())
    }

    #[test]
    fn runs_match_the_per_term_form_bitwise() {
        // Eq. (34)'s terms: H−1 slot-summed cross terms, the last node's
        // term, a deterministic (zero) term, and the through term.
        for alpha in [0.013, 0.4, 2.5] {
            for gamma in [1e-4, 0.05, 0.7] {
                let per_node = ExpBound::new(3.7, alpha).geometric_sum(gamma);
                let with_slots = per_node.geometric_sum(gamma);
                let through = ExpBound::new(1.0, 1.3 * alpha).geometric_sum(gamma);
                for h in 1..=40usize {
                    let runs =
                        [(with_slots, h - 1), (per_node, 1), (ExpBound::zero(), 2), (through, 1)];
                    let expanded: Vec<ExpBound> =
                        runs.iter().flat_map(|&(b, k)| std::iter::repeat_n(b, k)).collect();
                    let want = bits(per_term_reference(&expanded));
                    assert_eq!(bits(ExpBound::inf_convolution_runs(runs)), want, "H = {h}");
                    assert_eq!(bits(ExpBound::inf_convolution(&expanded)), want, "H = {h}");
                }
            }
        }
    }

    #[test]
    fn runs_without_active_terms_are_zero() {
        let z = ExpBound::zero();
        assert_eq!(ExpBound::inf_convolution_runs([(z, 3)]), z);
        assert_eq!(ExpBound::inf_convolution_runs([(ExpBound::new(2.0, 1.0), 0), (z, 1)]), z);
    }

    #[test]
    #[should_panic(expected = "decay must be finite and positive")]
    fn rejects_bad_decay() {
        let _ = ExpBound::new(1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "prefactor must be finite and non-negative")]
    fn rejects_bad_prefactor() {
        let _ = ExpBound::new(-1.0, 1.0);
    }
}
