//! The additive node-by-node baseline (Example 3 / Fig. 4).
//!
//! Instead of composing a network service curve, this analysis bounds
//! the delay at each node separately and sums the per-node bounds,
//! propagating the through traffic's EBB envelope across nodes: at each
//! node the envelope's bounding function and the cross traffic's are
//! combined by the Eq. (33) infimal convolution
//! ([`ExpBound::inf_convolution`]), and the next node's sample-path
//! envelope costs one more union bound over slots
//! ([`ExpBound::geometric_sum`]). This is the discrete-time version of
//! the node-by-node analysis the paper compares against in Example 3;
//! its delay bounds grow like `O(H³ log H)`, against `Θ(H log H)` for
//! the network service curve — the gap Fig. 4 illustrates.
//!
//! The baseline is formulated for blind multiplexing: at each node the
//! through flow receives the leftover service
//! `S(t) = (C − ρ_c − γ)·t` with the cross traffic's sample-path bound.

use nc_traffic::{Ebb, ExpBound};

/// Per-node decomposition of the additive bound.
#[derive(Debug, Clone, PartialEq)]
pub struct AdditiveBound {
    /// Total end-to-end delay bound (sum of the per-node bounds).
    pub delay: f64,
    /// Per-node delay bounds.
    pub per_node: Vec<f64>,
    /// The free rate parameter used at every union-bound step.
    pub gamma: f64,
}

/// Computes the additive BMUX delay bound for a homogeneous path at a
/// fixed `gamma`, splitting the violation budget evenly across nodes.
///
/// At node `h` the through traffic has (interval) envelope rate
/// `ρ + (h−1)γ` with an exponential bound that accumulates one
/// inf-convolution with the cross bound and one geometric slot sum per
/// hop; the per-node delay is `σ_h / (C − ρ_c − γ)` with `σ_h` from the
/// combined bound at violation `ε/H`.
///
/// Returns `None` if any node is unstable (`ρ + Hγ ≥ C − ρ_c − γ`).
///
/// # Panics
///
/// Panics if `hops` is zero, `gamma` is not strictly positive, or
/// `epsilon` is not in `(0, 1)`.
pub fn additive_bmux_delay_at_gamma(
    capacity: f64,
    hops: usize,
    through: &Ebb,
    cross: &Ebb,
    epsilon: f64,
    gamma: f64,
) -> Option<AdditiveBound> {
    assert!(hops > 0, "additive_bmux_delay_at_gamma: need at least one hop");
    assert!(gamma > 0.0, "additive_bmux_delay_at_gamma: gamma must be positive");
    assert!(epsilon > 0.0 && epsilon < 1.0, "additive_bmux_delay_at_gamma: epsilon in (0,1)");
    let service_rate = capacity - cross.rho() - gamma;
    if service_rate <= 0.0 {
        return None;
    }
    let eps_node = epsilon / hops as f64;
    let cross_bound = cross.interval_bound().geometric_sum(gamma);

    // Through traffic's sample-path envelope entering node 1.
    let mut env_rate = through.rho() + gamma;
    let mut env_bound = through.interval_bound().geometric_sum(gamma);
    let mut per_node = Vec::with_capacity(hops);
    for _ in 0..hops {
        if env_rate >= service_rate {
            return None;
        }
        let combined = ExpBound::inf_convolution(&[env_bound, cross_bound]);
        let sigma_h = combined.sigma_for(eps_node).unwrap_or(0.0);
        per_node.push(sigma_h / service_rate);
        // Output of this node: same rate, with the Eq. (33) combination of
        // the through and cross bounds; the next node's sample-path
        // envelope costs one more union bound over slots.
        env_bound = combined.geometric_sum(gamma);
        env_rate += gamma;
    }
    Some(AdditiveBound { delay: per_node.iter().sum(), per_node, gamma })
}

/// Optimizes [`additive_bmux_delay_at_gamma`] over `gamma` by grid
/// search with refinement on `(0, (C − ρ_c − ρ)/(H+1))`.
///
/// Returns `None` if infeasible for every `gamma`.
pub fn additive_bmux_delay(
    capacity: f64,
    hops: usize,
    through: &Ebb,
    cross: &Ebb,
    epsilon: f64,
) -> Option<AdditiveBound> {
    let gamma_max = (capacity - cross.rho() - through.rho()) / (hops as f64 + 1.0);
    if gamma_max <= 0.0 {
        return None;
    }
    let mut best: Option<AdditiveBound> = None;
    let consider = |g: f64, best: &mut Option<AdditiveBound>| {
        if g <= 0.0 || g >= gamma_max {
            return;
        }
        if let Some(b) = additive_bmux_delay_at_gamma(capacity, hops, through, cross, epsilon, g) {
            if best.as_ref().is_none_or(|cur| b.delay < cur.delay) {
                *best = Some(b);
            }
        }
    };
    let n = 64usize;
    for i in 1..n {
        consider(gamma_max * i as f64 / n as f64, &mut best);
    }
    if let Some(cur) = best.clone() {
        let mut lo = (cur.gamma - gamma_max / n as f64).max(gamma_max * 1e-6);
        let mut hi = (cur.gamma + gamma_max / n as f64).min(gamma_max * (1.0 - 1e-6));
        for _ in 0..3 {
            let m = 32usize;
            for i in 0..=m {
                consider(lo + (hi - lo) * i as f64 / m as f64, &mut best);
            }
            let g = best.as_ref().expect("refinement keeps a best candidate").gamma;
            let step = (hi - lo) / m as f64;
            lo = (g - step).max(gamma_max * 1e-6);
            hi = (g + step).min(gamma_max * (1.0 - 1e-6));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::e2e::closed_forms::bmux_delay;
    use crate::e2e::netbound::sigma_for;

    fn setup() -> (f64, Ebb, Ebb) {
        // Rates chosen so stability holds for the hop counts we test.
        (100.0, Ebb::new(1.0, 20.0, 0.4), Ebb::new(1.0, 30.0, 0.4))
    }

    #[test]
    fn single_hop_close_to_network_bound() {
        // With H = 1 the two analyses use slightly different union-bound
        // bookkeeping but must be within a small factor.
        let (c, through, cross) = setup();
        let eps = 1e-6;
        let add = additive_bmux_delay(c, 1, &through, &cross, eps).unwrap();
        // Network version at its optimal gamma.
        let mut best = f64::INFINITY;
        for i in 1..200 {
            let g = (c - 50.0) / 2.0 * i as f64 / 200.0;
            let sigma = sigma_for(&through, &[cross; 1], g, eps);
            if let Some(d) = bmux_delay(c, g, cross.rho(), 1, sigma) {
                best = best.min(d);
            }
        }
        assert!(
            add.delay / best < 1.5 && add.delay / best > 0.66,
            "H=1 additive {} vs network {best}",
            add.delay
        );
    }

    #[test]
    fn additive_grows_superlinearly() {
        let (c, through, cross) = setup();
        let eps = 1e-9;
        let d5 = additive_bmux_delay(c, 5, &through, &cross, eps).unwrap().delay;
        let d20 = additive_bmux_delay(c, 20, &through, &cross, eps).unwrap().delay;
        // Linear growth would give a factor of 4; the additive analysis
        // must blow up much faster (≈ H³).
        assert!(d20 / d5 > 8.0, "additive growth too slow: {d20}/{d5}");
    }

    #[test]
    fn additive_dominates_network_bound_on_long_paths() {
        let (c, through, cross) = setup();
        let eps = 1e-9;
        for h in [2usize, 5, 10] {
            let add = additive_bmux_delay(c, h, &through, &cross, eps).unwrap().delay;
            let mut net = f64::INFINITY;
            let gmax = (c - through.rho() - cross.rho()) / (h as f64 + 1.0);
            for i in 1..200 {
                let g = gmax * i as f64 / 200.0;
                let sigma = sigma_for(&through, &vec![cross; h], g, eps);
                if let Some(d) = bmux_delay(c, g, cross.rho(), h, sigma) {
                    net = net.min(d);
                }
            }
            assert!(add > net, "additive {add} must exceed network bound {net} at H={h}");
        }
    }

    #[test]
    fn per_node_bounds_increase_along_path() {
        let (c, through, cross) = setup();
        let b = additive_bmux_delay(c, 8, &through, &cross, 1e-9).unwrap();
        for w in b.per_node.windows(2) {
            assert!(w[1] >= w[0], "per-node bounds must grow with the hop index");
        }
        assert!((b.per_node.iter().sum::<f64>() - b.delay).abs() < 1e-9);
    }

    #[test]
    fn infeasible_when_overloaded() {
        let through = Ebb::new(1.0, 60.0, 0.4);
        let cross = Ebb::new(1.0, 50.0, 0.4);
        assert_eq!(additive_bmux_delay(100.0, 3, &through, &cross, 1e-9), None);
    }
}
