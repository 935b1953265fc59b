//! The network bounding function ε_net (Eqs. (31) and (34)).

use nc_telemetry::Counter;
use nc_traffic::{Ebb, ExpBound};

static SIGMA_CALLS: Counter = Counter::new("core_netbound_sigma_calls_total");

/// Assembles the end-to-end bounding function for a path of `hops`
/// nodes: the through flow's sample-path envelope bound ε_g plus the
/// network service curve bound ε_net of Eq. (31),
///
/// `ε_net(σ) = inf_{Σσ_h=σ} [ ε_H(σ_H) + Σ_{h<H} Σ_{j≥0} ε_h(σ_h + jγ) ]`,
///
/// evaluated in closed form with the exponential identity (Eq. (33)).
/// Each per-node bound `ε_h` is the cross traffic's sample-path bound
/// `M·e^{−ασ}/(1−e^{−αγ})`; the inner slot sum contributes another
/// `1/(1−e^{−αγ})` at all but the last node. For the homogeneous case
/// this reproduces the paper's Eq. (34):
///
/// `ε(σ) = M(H+1)·(1−e^{−αγ})^{−2H/(H+1)}·e^{−ασ/(H+1)}`.
///
/// # Panics
///
/// Panics if `hops` is zero or `gamma` is not strictly positive.
pub fn total_bound(through: &Ebb, cross_per_node: &[Ebb], gamma: f64) -> ExpBound {
    assert!(!cross_per_node.is_empty(), "total_bound: need at least one hop");
    assert!(gamma > 0.0, "total_bound: gamma must be positive");
    let hops = cross_per_node.len();
    let mut terms: Vec<ExpBound> = Vec::with_capacity(hops + 1);
    for (h, cross) in cross_per_node.iter().enumerate() {
        let per_node = cross.interval_bound().geometric_sum(gamma);
        if h + 1 < hops {
            // Σ_{j≥0} ε_h(σ_h + jγ): one more geometric factor.
            terms.push(per_node.geometric_sum(gamma));
        } else {
            terms.push(per_node);
        }
    }
    // ε_g of the through traffic's sample-path envelope.
    terms.push(through.interval_bound().geometric_sum(gamma));
    ExpBound::inf_convolution(&terms)
}

/// The slack `σ(ε)` at which the assembled bound reaches the target
/// violation probability, i.e. the `σ` fed into the optimization of
/// Eq. (38). Returns `0` for deterministic inputs.
///
/// # Panics
///
/// As for [`total_bound`]; additionally if `epsilon` is not in `(0, 1)`.
pub fn sigma_for(through: &Ebb, cross_per_node: &[Ebb], gamma: f64, epsilon: f64) -> f64 {
    assert!(epsilon > 0.0 && epsilon < 1.0, "sigma_for: epsilon must be in (0,1)");
    SIGMA_CALLS.add(1);
    total_bound(through, cross_per_node, gamma).sigma_for(epsilon).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homogeneous_matches_eq_34() {
        let alpha = 0.4;
        let gamma = 0.05;
        let h = 7usize;
        let through = Ebb::new(1.0, 10.0, alpha);
        let cross = vec![Ebb::new(1.0, 40.0, alpha); h];
        let total = total_bound(&through, &cross, gamma);
        let q: f64 = 1.0 - (-alpha * gamma).exp();
        let want_pref = (h as f64 + 1.0) * q.powf(-2.0 * h as f64 / (h as f64 + 1.0));
        assert!((total.prefactor() - want_pref).abs() / want_pref < 1e-9);
        assert!((total.decay() - alpha / (h as f64 + 1.0)).abs() < 1e-12);
    }

    #[test]
    fn single_hop_is_single_node_combination() {
        let alpha = 0.4;
        let gamma = 0.1;
        let through = Ebb::new(1.0, 10.0, alpha);
        let cross = vec![Ebb::new(1.0, 40.0, alpha)];
        let total = total_bound(&through, &cross, gamma);
        // Two equal-decay geometric-sum terms: 2·(M/(1−q))·e^{−ασ/2}.
        let q: f64 = 1.0 - (-alpha * gamma).exp();
        assert!((total.prefactor() - 2.0 / q).abs() < 1e-9);
        assert!((total.decay() - alpha / 2.0).abs() < 1e-12);
    }

    #[test]
    fn sigma_grows_with_hops() {
        let alpha = 0.4;
        let gamma = 0.05;
        let through = Ebb::new(1.0, 10.0, alpha);
        let mut prev = 0.0;
        for h in 1..=10 {
            let cross = vec![Ebb::new(1.0, 40.0, alpha); h];
            let s = sigma_for(&through, &cross, gamma, 1e-9);
            assert!(s > prev, "σ must grow with H");
            prev = s;
        }
    }

    #[test]
    fn sigma_decreases_with_epsilon() {
        let alpha = 0.4;
        let through = Ebb::new(1.0, 10.0, alpha);
        let cross = vec![Ebb::new(1.0, 40.0, alpha); 5];
        let s9 = sigma_for(&through, &cross, 0.05, 1e-9);
        let s3 = sigma_for(&through, &cross, 0.05, 1e-3);
        assert!(s3 < s9);
    }

    #[test]
    fn mixed_decays_are_supported() {
        // The closed-form machinery handles a through flow with a
        // different moment parameter than the cross traffic.
        let through = Ebb::new(1.0, 10.0, 0.7);
        let cross = vec![Ebb::new(1.0, 40.0, 0.3); 3];
        let total = total_bound(&through, &cross, 0.05);
        let w = 1.0 / 0.7 + 3.0 / 0.3;
        assert!((total.decay() - 1.0 / w).abs() < 1e-12);
    }
}
