//! Closed-form special cases of the optimization (Section IV).

use nc_telemetry::Counter;

static BMUX_CALLS: Counter = Counter::labeled("core_closed_form_calls_total", &[("form", "bmux")]);
static FIFO_CALLS: Counter = Counter::labeled("core_closed_form_calls_total", &[("form", "fifo")]);

/// Blind multiplexing (Eq. (43)): `Δ_{0,c} = ∞` gives
/// `θ_h ≡ 0` and `d(σ) = σ / (C − ρ_c − Hγ)` — the bound of Ciucu,
/// Burchard & Liebeherr (2006).
///
/// Returns `None` when `C − ρ_c − Hγ ≤ 0`.
pub fn bmux_delay(capacity: f64, gamma: f64, rho_c: f64, hops: usize, sigma: f64) -> Option<f64> {
    BMUX_CALLS.add(1);
    let margin = capacity - rho_c - hops as f64 * gamma;
    if margin <= 0.0 {
        return None;
    }
    Some(sigma / margin)
}

/// FIFO (Eq. (44)): `Δ_{0,c} = 0` gives, with `K` the smallest index
/// satisfying Eq. (40),
///
/// `d(σ) = σ/(C − ρ_c − Kγ) · (1 + Σ_{h>K} (h−K)γ / (C − (h−1)γ))`.
///
/// Returns `None` when infeasible.
pub fn fifo_delay(capacity: f64, gamma: f64, rho_c: f64, hops: usize, sigma: f64) -> Option<f64> {
    FIFO_CALLS.add(1);
    if capacity - rho_c - hops as f64 * gamma <= 0.0 {
        return None;
    }
    let term =
        |h: usize| (capacity - rho_c - h as f64 * gamma) / (capacity - (h as f64 - 1.0) * gamma);
    let k = (0..=hops).find(|&k| (k + 1..=hops).map(term).sum::<f64>() < 1.0)?;
    if k == 0 {
        // Eq. (41) sets X = 0 for K = 0; then every θ_h = σ/(C − (h−1)γ).
        return Some((1..=hops).map(|h| sigma / (capacity - (h as f64 - 1.0) * gamma)).sum());
    }
    let x = sigma / (capacity - rho_c - k as f64 * gamma);
    let sum: f64 = (k + 1..=hops)
        .map(|h| (h - k) as f64 * gamma / (capacity - (h as f64 - 1.0) * gamma))
        .sum();
    Some(x * (1.0 + sum))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::e2e::optimizer::{explicit, solve, NodeParams};

    fn homogeneous(
        capacity: f64,
        gamma: f64,
        rho_c: f64,
        delta: f64,
        hops: usize,
    ) -> Vec<NodeParams> {
        (1..=hops)
            .map(|h| NodeParams {
                c_eff: capacity - (h as f64 - 1.0) * gamma,
                r: rho_c + gamma,
                delta,
            })
            .collect()
    }

    #[test]
    fn bmux_matches_optimizer() {
        let (c, g, rc, h, sigma) = (100.0, 0.25, 35.0, 9usize, 420.0);
        let cf = bmux_delay(c, g, rc, h, sigma).unwrap();
        let sol = solve(&homogeneous(c, g, rc, f64::INFINITY, h), sigma).unwrap();
        assert!((cf - sol.delay).abs() / cf < 1e-6, "{cf} vs {}", sol.delay);
    }

    #[test]
    fn fifo_matches_explicit_procedure() {
        let (c, rc, sigma) = (100.0, 35.0, 420.0);
        for h in [1usize, 2, 5, 10, 25] {
            for g in [0.05, 0.25, 0.6] {
                if c - rc - (h as f64 + 1.0) * g <= 0.0 {
                    continue;
                }
                let cf = fifo_delay(c, g, rc, h, sigma).unwrap();
                let exp = explicit(c, g, rc, 0.0, h, sigma).unwrap();
                assert!(
                    (cf - exp.delay).abs() / cf < 1e-9,
                    "closed form {cf} vs explicit {} (H={h}, γ={g})",
                    exp.delay
                );
            }
        }
    }

    #[test]
    fn fifo_below_bmux_but_converges_for_small_cross_rate() {
        // The paper's key observation: for small ρ_c or large H, Eq. (40)
        // forces K → H and the FIFO bound approaches the BMUX bound.
        let (c, g, sigma) = (100.0, 0.1, 420.0);
        // Moderate cross rate, short path: a visible gap.
        let f1 = fifo_delay(c, g, 60.0, 2, sigma).unwrap();
        let b1 = bmux_delay(c, g, 60.0, 2, sigma).unwrap();
        assert!(f1 <= b1);
        // Small cross rate: ratio close to 1.
        let f2 = fifo_delay(c, g, 5.0, 2, sigma).unwrap();
        let b2 = bmux_delay(c, g, 5.0, 2, sigma).unwrap();
        assert!(f2 / b2 > 0.99, "FIFO/BMUX = {}", f2 / b2);
        // Long path at moderate load: ratio approaches 1.
        let f3 = fifo_delay(c, g, 60.0, 30, sigma).unwrap();
        let b3 = bmux_delay(c, g, 60.0, 30, sigma).unwrap();
        assert!(f3 / b3 > 0.95, "FIFO/BMUX = {}", f3 / b3);
    }

    #[test]
    fn infeasible_cases_are_none() {
        assert_eq!(bmux_delay(10.0, 1.0, 9.5, 3, 5.0), None);
        assert_eq!(fifo_delay(10.0, 1.0, 9.5, 3, 5.0), None);
    }

    #[test]
    fn fifo_single_hop_reduces_to_single_node_form() {
        // H = 1, K = 0 requires (C−ρc−γ)/C < 1 (always true) ⇒
        // X = σ/(C−ρc)·… per Eq. (41) with K=0 ⇒ X=0? Eq. (40) with K=0:
        // term = (C−ρc−γ)/C < 1 holds, so K=0 and X=0, θ₁ = σ/(C−ρc−γ)·…
        // The net effect must match the optimizer.
        let (c, g, rc, sigma) = (100.0, 0.5, 40.0, 100.0);
        let cf = fifo_delay(c, g, rc, 1, sigma).unwrap();
        let sol = solve(&homogeneous(c, g, rc, 0.0, 1), sigma).unwrap();
        assert!((cf - sol.delay).abs() / cf < 1e-6, "{cf} vs {}", sol.delay);
    }
}
