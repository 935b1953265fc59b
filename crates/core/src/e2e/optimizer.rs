//! The delay-bound optimization of Section IV (Eq. (38)).
//!
//! Minimize `d(σ) = X + Σ_h θ_h` subject to
//!
//! `(C − (h−1)γ)(X + θ_h) − (ρ_c + γ)·[X + Δ_{0,c}(θ_h)]₊ ≥ σ` for all
//! `h = 1..H`, with `θ_h, X ≥ 0` and `Δ_{0,c}(θ) = min(Δ_{0,c}, θ)`.
//!
//! Two solvers are provided:
//!
//! * [`solve`] — exact 1-D minimization over `X`. For fixed `X` the
//!   smallest feasible `θ_h(X)` is available in closed form because the
//!   constraint's left-hand side is strictly increasing in `θ_h`; the
//!   objective `X + Σ θ_h(X)` is then continuous and piecewise linear in
//!   `X`, so its minimum lies at `X = 0` or at one of the at most two
//!   kinks per node, and the solver evaluates exactly those points.
//! * [`explicit`] — the paper's explicit procedure (Eqs. (40)–(42)),
//!   which identifies the index `K` of nodes with `θ_h = 0` and sets `X`
//!   in closed form. The paper notes the choice is near-optimal; tests
//!   verify both solvers agree to within a fraction of a percent in the
//!   paper's regimes, with `solve` never worse.

use nc_telemetry as tel;

// The solver is counted, not timed: a timer's two clock reads would add
// about a fifth to every solve. The perfbench probe times `solve` directly.
static SOLVER_CALLS: tel::Counter = tel::Counter::new("core_solver_calls_total");
static SOLVER_EVALS: tel::Counter = tel::Counter::new("core_solver_evals_total");
static SOLVER_INFEASIBLE: tel::Counter = tel::Counter::new("core_solver_infeasible_total");
static EXPLICIT_CALLS: tel::Counter = tel::Counter::new("core_explicit_calls_total");
static EXPLICIT_FALLBACK: tel::Counter = tel::Counter::new("core_explicit_fallback_total");

/// Per-node constraint parameters of the optimization.
///
/// For a homogeneous path, node `h` (1-based) has
/// `c_eff = C − (h−1)γ` and `r = ρ_c + γ`; the non-homogeneous extension
/// at the end of Section IV uses per-node `C^h`, `ρ_c^h`, `Δ_{0,h}`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeParams {
    /// Effective service rate `C^h − (h−1)γ` after the convolution's
    /// per-node rate degradation.
    pub c_eff: f64,
    /// Cross-traffic envelope rate `ρ_c^h + γ` at this node.
    pub r: f64,
    /// Scheduler constant `Δ_{0,c}` at this node (may be `±∞`).
    pub delta: f64,
}

/// A solution of the optimization problem.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// The optimized variable `X = d − Σθ_h`.
    pub x: f64,
    /// Per-node `θ_h` values.
    pub thetas: Vec<f64>,
    /// The delay bound `d(σ) = X + Σθ_h`.
    pub delay: f64,
}

/// The smallest `θ ≥ 0` satisfying the node constraint
/// `c_eff·(X + θ) − r·[X + min(Δ, θ)]₊ ≥ σ` for a given `X ≥ 0`.
///
/// The left-hand side is strictly increasing in `θ` (slope `c_eff − r`
/// for `θ < Δ`, slope `c_eff` beyond), so the threshold is unique and
/// closed-form per branch.
pub(crate) fn theta_h(x: f64, p: &NodeParams, sigma: f64) -> f64 {
    debug_assert!(x >= 0.0);
    // Constraint value at θ = 0.
    let capped0 = p.delta.min(0.0); // Δ(0) = min(Δ, 0)
    let sub0 = (x + capped0).max(0.0);
    let g0 = p.c_eff * x - p.r * sub0 - sigma;
    if g0 >= 0.0 {
        return 0.0;
    }
    if p.delta <= 0.0 {
        // min(Δ, θ) = Δ for every θ ≥ 0: single branch.
        let sub = (x + p.delta).max(0.0); // [X + Δ]₊; Δ = −∞ ⇒ 0
        return ((sigma + p.r * sub) / p.c_eff - x).max(0.0);
    }
    // Δ > 0. Branch θ ∈ (0, Δ]: (c_eff − r)(X + θ) ≥ σ.
    debug_assert!(
        p.c_eff > p.r,
        "theta_h: feasibility requires c_eff > r when Δ > 0 (γ constraint of Eq. (32))"
    );
    let theta_a = sigma / (p.c_eff - p.r) - x;
    if theta_a <= p.delta {
        return theta_a.max(0.0);
    }
    // Branch θ > Δ: c_eff(X + θ) − r(X + Δ) ≥ σ.
    ((sigma + p.r * (x + p.delta)) / p.c_eff - x).max(p.delta)
}

/// Objective `d(X) = X + Σ_h θ_h(X)`.
fn objective(x: f64, params: &[NodeParams], sigma: f64) -> f64 {
    x + params.iter().map(|p| theta_h(x, p, sigma)).sum::<f64>()
}

/// The feasible point induced by `X`: each `θ_h` minimal for that `X`,
/// and `delay` equal to [`objective`] at `X`.
fn point(x: f64, params: &[NodeParams], sigma: f64) -> Solution {
    let thetas: Vec<f64> = params.iter().map(|p| theta_h(x, p, sigma)).collect();
    let delay = x + thetas.iter().sum::<f64>();
    Solution { x, thetas, delay }
}

/// The objective value `X + Σ_h θ_h(X)` of the *feasible point* induced
/// by an arbitrary `X ≥ 0` (each `θ_h` minimal for that `X`).
///
/// Exposed so that external tests and ablations can probe the
/// optimization landscape; [`solve`] returns the minimum over `X`.
///
/// # Panics
///
/// Panics if `x` or `sigma` is negative, or `params` is empty.
pub fn objective_check(x: f64, params: &[NodeParams], sigma: f64) -> f64 {
    assert!(x >= 0.0, "objective_check: x must be non-negative");
    assert!(sigma >= 0.0, "objective_check: sigma must be non-negative");
    assert!(!params.is_empty(), "objective_check: need at least one node");
    objective(x, params, sigma)
}

/// The `X` values at which node `p`'s `θ_h(X)` changes slope (either
/// may be non-finite or negative, i.e. absent):
///
/// * the Δ kink — for `0 < Δ < ∞` the branch switch `θ_h = Δ` at
///   `X = σ/(c−r) − Δ`; for finite `Δ ≤ 0` the clamp of `[X + Δ]₊` at
///   `X = −Δ`;
/// * the point where `θ_h` reaches 0, i.e. `c·X − r·[X + min(Δ, 0)]₊ = σ`.
fn kinks(p: &NodeParams, sigma: f64) -> [f64; 2] {
    let delta_kink = if !p.delta.is_finite() {
        f64::NAN
    } else if p.delta > 0.0 {
        sigma / (p.c_eff - p.r) - p.delta
    } else {
        -p.delta
    };
    let zero = if p.delta >= 0.0 {
        sigma / (p.c_eff - p.r)
    } else if p.delta == f64::NEG_INFINITY {
        sigma / p.c_eff
    } else {
        // c·X − r[X+Δ]₊ = σ: the root lies past the clamp iff σ ≥ −c·Δ.
        let a = (sigma + p.r * p.delta) / (p.c_eff - p.r);
        if a >= -p.delta {
            a
        } else {
            sigma / p.c_eff
        }
    };
    [delta_kink, zero]
}

/// Exact minimization of Eq. (38) over `X`. `params[h]` describes node
/// `h+1`.
///
/// `d(X) = X + Σθ_h(X)` is continuous and piecewise linear, and each
/// `θ_h` changes slope only where it reaches 0 and at its Δ kink (the
/// branch switch `X = σ/(c−r) − Δ` for `Δ > 0`, the clamp `X = −Δ` for
/// finite `Δ ≤ 0`). Past the last kink every `θ_h` is 0 and `d = X`
/// rises, so the minimum is attained at `X = 0` or at a kink: the
/// solver evaluates `d` there (at most `2H + 1` points) and keeps the
/// smallest value. `d` need not be
/// convex (for `Δ > 0` its slope can fall), which is why no descent or
/// bracketing step is used.
///
/// Returns `None` if the problem is infeasible (some node has
/// `c_eff ≤ r` with interfering cross traffic, or non-positive
/// effective capacity).
///
/// # Panics
///
/// Panics if `params` is empty, `sigma` is negative, NaN or infinite,
/// a node's `c_eff` or `r` is not finite, a node's `r` is negative, or
/// a node's `delta` is NaN.
pub fn solve(params: &[NodeParams], sigma: f64) -> Option<Solution> {
    assert!(!params.is_empty(), "solve: need at least one node");
    assert!(sigma >= 0.0 && sigma.is_finite(), "solve: sigma must be finite and non-negative");
    for p in params {
        assert!(p.c_eff.is_finite() && p.r.is_finite(), "solve: node rates must be finite");
        assert!(p.r >= 0.0, "solve: cross rate r must be non-negative");
        assert!(!p.delta.is_nan(), "solve: delta must not be NaN");
    }
    SOLVER_CALLS.add(1);
    let out = solve_inner(params, sigma);
    if out.is_none() {
        SOLVER_INFEASIBLE.add(1);
    }
    out
}

fn solve_inner(params: &[NodeParams], sigma: f64) -> Option<Solution> {
    // Feasibility: every node must eventually satisfy its constraint.
    if params.iter().any(|p| p.c_eff <= 0.0 || (p.delta > f64::NEG_INFINITY && p.c_eff <= p.r)) {
        return None;
    }
    let mut best_x = 0.0;
    let mut best_d = objective(0.0, params, sigma);
    let mut evals = 1u64;
    for x in params.iter().flat_map(|p| kinks(p, sigma)) {
        if x > 0.0 && x.is_finite() {
            evals += 1;
            let d = objective(x, params, sigma);
            if d < best_d {
                best_d = d;
                best_x = x;
            }
        }
    }
    SOLVER_EVALS.add(evals);
    Some(point(best_x, params, sigma))
}

/// The paper's explicit near-optimal procedure for a *homogeneous* path
/// (Eqs. (40)–(42)): find the smallest `K` with
/// `Σ_{h>K} (C − ρ_c − hγ)/(C − (h−1)γ) < 1`, set `X` per Eq. (41)
/// (Δ ≥ 0) or Eq. (42) (Δ ≤ 0), and `θ_h = θ_h(X)`.
///
/// Blind multiplexing (`Δ = +∞`) is solved in closed form
/// (`θ_h ≡ 0`, Eq. (43)).
///
/// Returns `None` if infeasible.
///
/// # Panics
///
/// Panics if `hops` is zero or `sigma` is negative.
pub fn explicit(
    capacity: f64,
    gamma: f64,
    rho_c: f64,
    delta: f64,
    hops: usize,
    sigma: f64,
) -> Option<Solution> {
    assert!(hops > 0, "explicit: need at least one hop");
    assert!(sigma >= 0.0, "explicit: sigma must be non-negative");
    EXPLICIT_CALLS.add(1);
    let h_f = hops as f64;
    if capacity - rho_c - h_f * gamma <= 0.0 {
        return None;
    }
    let params: Vec<NodeParams> = (1..=hops)
        .map(|h| NodeParams { c_eff: capacity - (h as f64 - 1.0) * gamma, r: rho_c + gamma, delta })
        .collect();
    if delta == f64::INFINITY {
        // BMUX, Eq. (43): θ ≡ 0, X = σ/(C − ρ_c − Hγ).
        let x = sigma / (capacity - rho_c - h_f * gamma);
        return Some(point(x, &params, sigma));
    }
    // Eq. (40): smallest K with Σ_{h>K} (C−ρ_c−hγ)/(C−(h−1)γ) < 1,
    // additionally requiring θ_h(X) > Δ for h > K when Δ ≥ 0.
    let term =
        |h: usize| (capacity - rho_c - h as f64 * gamma) / (capacity - (h as f64 - 1.0) * gamma);
    'k_loop: for k in 0..=hops {
        let tail: f64 = (k + 1..=hops).map(term).sum();
        if tail >= 1.0 {
            continue;
        }
        let x = if delta >= 0.0 {
            if k >= 1 {
                sigma / (capacity - rho_c - k as f64 * gamma)
            } else {
                0.0
            }
        } else if k >= 1 {
            let a = sigma / (capacity - (k as f64 - 1.0) * gamma);
            let b = (sigma + (rho_c + gamma) * delta) / (capacity - rho_c - k as f64 * gamma);
            a.max(b).max(0.0)
        } else {
            -delta
        };
        if !x.is_finite() {
            // Δ = −∞ with K = 0: fall back to the next K.
            continue;
        }
        if delta >= 0.0 && delta.is_finite() {
            for h in k + 1..=hops {
                if theta_h(x, &params[h - 1], sigma) <= delta {
                    continue 'k_loop;
                }
            }
        }
        return Some(point(x, &params, sigma));
    }
    // No admissible K: fall back to the numeric solver's answer.
    EXPLICIT_FALLBACK.add(1);
    solve(&params, sigma)
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn theta_zero_when_constraint_already_met() {
        let p = NodeParams { c_eff: 10.0, r: 4.0, delta: 0.0 };
        assert_eq!(theta_h(10.0, &p, 5.0), 0.0);
    }

    #[test]
    fn theta_fifo_branch() {
        // Δ = 0: c(x+θ) − r·x = σ ⇒ θ = (σ + r·x)/c − x.
        let p = NodeParams { c_eff: 10.0, r: 4.0, delta: 0.0 };
        let x = 0.5;
        let sigma = 20.0;
        let want = (sigma + 4.0 * x) / 10.0 - x;
        assert!((theta_h(x, &p, sigma) - want).abs() < 1e-12);
    }

    #[test]
    fn theta_bmux_branch() {
        // Δ = ∞: (c − r)(x+θ) = σ.
        let p = NodeParams { c_eff: 10.0, r: 4.0, delta: f64::INFINITY };
        let x = 0.5;
        let sigma = 20.0;
        let want = sigma / 6.0 - x;
        assert!((theta_h(x, &p, sigma) - want).abs() < 1e-12);
    }

    #[test]
    fn theta_negative_delta_excludes_cross_when_x_small() {
        // Δ = −2, X = 1 < 2: [X+Δ]₊ = 0 ⇒ θ = σ/c − x.
        let p = NodeParams { c_eff: 10.0, r: 4.0, delta: -2.0 };
        let x = 1.0;
        let sigma = 20.0;
        assert!((theta_h(x, &p, sigma) - (2.0 - 1.0)).abs() < 1e-12);
    }

    #[test]
    fn theta_positive_delta_two_branches() {
        let p = NodeParams { c_eff: 10.0, r: 4.0, delta: 1.0 };
        let x = 0.0;
        // Small σ: θ stays below Δ: θ = σ/(c−r).
        assert!((theta_h(x, &p, 3.0) - 0.5).abs() < 1e-12);
        // Large σ: beyond Δ: θ = (σ + r·Δ)/c.
        let sigma = 60.0;
        let want = (sigma + 4.0 * 1.0) / 10.0;
        assert!((theta_h(x, &p, sigma) - want).abs() < 1e-12);
    }

    #[test]
    fn theta_is_continuous_at_branch_point() {
        let p = NodeParams { c_eff: 10.0, r: 4.0, delta: 1.0 };
        // σ at which θ_a = Δ exactly: σ = (c−r)(x+Δ), with x = 0: σ = 6.
        let below = theta_h(0.0, &p, 6.0 - 1e-9);
        let above = theta_h(0.0, &p, 6.0 + 1e-9);
        assert!((below - above).abs() < 1e-8);
    }

    #[test]
    fn theta_satisfies_constraint_with_equality_when_positive() {
        for delta in [f64::NEG_INFINITY, -3.0, 0.0, 2.0, f64::INFINITY] {
            let p = NodeParams { c_eff: 10.0, r: 4.0, delta };
            for x in [0.0, 0.5, 2.0, 8.0] {
                for sigma in [1.0, 10.0, 100.0] {
                    let th = theta_h(x, &p, sigma);
                    let lhs = p.c_eff * (x + th) - p.r * (x + p.delta.min(th)).max(0.0);
                    assert!(
                        lhs >= sigma - 1e-7,
                        "constraint violated: Δ={delta}, x={x}, σ={sigma}, θ={th}, lhs={lhs}"
                    );
                    if th > 1e-12 && (th > p.delta + 1e-12 || p.delta <= 0.0) {
                        assert!(
                            lhs <= sigma + 1e-6 * sigma.max(1.0),
                            "θ not minimal: Δ={delta}, x={x}, σ={sigma}, θ={th}, lhs={lhs}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn solve_bmux_matches_closed_form_eq43() {
        let (c, g, rc, h) = (100.0, 0.2, 40.0, 8usize);
        let params = homogeneous(c, g, rc, f64::INFINITY, h);
        let sigma = 500.0;
        let sol = solve(&params, sigma).unwrap();
        let want = sigma / (c - rc - h as f64 * g);
        assert!((sol.delay - want).abs() / want < 1e-6, "{} vs {want}", sol.delay);
        // The optimum is flat in X near X* for BMUX (trading X against
        // θ_H one-for-one), so only the total is pinned down.
        assert!((sol.x + sol.thetas.iter().sum::<f64>() - want).abs() / want < 1e-6);
    }

    #[test]
    fn solve_never_worse_than_explicit() {
        let (c, rc) = (100.0, 40.0);
        let sigma = 300.0;
        for h in [1usize, 2, 5, 10, 20] {
            for delta in [f64::NEG_INFINITY, -10.0, -1.0, 0.0, 1.0, 10.0, f64::INFINITY] {
                for g in [0.05, 0.2, 0.5] {
                    if c - rc - (h as f64 + 1.0) * g <= 0.0 {
                        continue;
                    }
                    let params = homogeneous(c, g, rc, delta, h);
                    let sol = solve(&params, sigma).unwrap();
                    let exp = explicit(c, g, rc, delta, h, sigma).unwrap();
                    assert!(
                        sol.delay <= exp.delay * (1.0 + 1e-6),
                        "numeric {} worse than explicit {} (H={h}, Δ={delta}, γ={g})",
                        sol.delay,
                        exp.delay
                    );
                    // And the explicit choice is near-optimal, as the paper
                    // claims — in the regimes the paper uses it. For large
                    // *negative* finite Δ the paper's K = 0 prescription
                    // (X = −Δ) is visibly suboptimal (the paper itself notes
                    // "we do not claim that these choices are optimal"), so
                    // the closeness assertion is restricted accordingly.
                    if delta >= 0.0 || delta.is_infinite() || -delta <= 0.5 * sol.delay {
                        assert!(
                            exp.delay <= sol.delay * 1.05 + 1e-9,
                            "explicit {} far from optimal {} (H={h}, Δ={delta}, γ={g})",
                            exp.delay,
                            sol.delay
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn solve_solutions_are_feasible() {
        let (c, rc) = (100.0, 60.0);
        let sigma = 800.0;
        for h in [2usize, 7] {
            for delta in [-5.0, 0.0, 3.0] {
                let g = 0.3;
                let params = homogeneous(c, g, rc, delta, h);
                let sol = solve(&params, sigma).unwrap();
                for (p, th) in params.iter().zip(&sol.thetas) {
                    let lhs = p.c_eff * (sol.x + th) - p.r * (sol.x + p.delta.min(*th)).max(0.0);
                    assert!(lhs >= sigma - 1e-6 * sigma, "infeasible solution");
                }
                assert!((sol.delay - (sol.x + sol.thetas.iter().sum::<f64>())).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn fifo_bound_between_priority_and_bmux() {
        let (c, g, rc, h) = (100.0, 0.2, 40.0, 10usize);
        let sigma = 500.0;
        let pr = solve(&homogeneous(c, g, rc, f64::NEG_INFINITY, h), sigma).unwrap().delay;
        let fifo = solve(&homogeneous(c, g, rc, 0.0, h), sigma).unwrap().delay;
        let bmux = solve(&homogeneous(c, g, rc, f64::INFINITY, h), sigma).unwrap().delay;
        assert!(pr <= fifo + 1e-9);
        assert!(fifo <= bmux + 1e-9);
    }

    #[test]
    fn delay_monotone_in_delta() {
        let (c, g, rc, h) = (100.0, 0.2, 40.0, 5usize);
        let sigma = 400.0;
        let mut prev = 0.0;
        for delta in [f64::NEG_INFINITY, -20.0, -5.0, 0.0, 5.0, 20.0, f64::INFINITY] {
            let d = solve(&homogeneous(c, g, rc, delta, h), sigma).unwrap().delay;
            assert!(d >= prev - 1e-7, "delay not monotone in Δ at {delta}: {d} < {prev}");
            prev = d;
        }
    }

    #[test]
    fn infeasible_when_cross_rate_exceeds_capacity() {
        let params = homogeneous(100.0, 0.2, 101.0, 0.0, 3);
        assert_eq!(solve(&params, 10.0), None);
    }

    #[test]
    fn solve_finds_the_minimum_of_a_non_convex_objective() {
        // Δ > 0 makes d(X) non-convex: slopes 0.4 on [0, 9), 0 on
        // [9, 10), 1 beyond, so d(0) = (σ + r·Δ)/c = 6.4 is optimal.
        let p = [NodeParams { c_eff: 10.0, r: 4.0, delta: 1.0 }];
        let sigma = 60.0;
        assert!((objective(9.0, &p, sigma) - 10.0).abs() < 1e-12);
        assert!((objective(9.5, &p, sigma) - 10.0).abs() < 1e-12);
        let sol = solve(&p, sigma).unwrap();
        assert!((sol.delay - 6.4).abs() < 1e-12, "{}", sol.delay);
        assert_eq!(sol.x, 0.0);
    }

    #[test]
    fn solve_handles_a_margin_underflow() {
        // The service margin c_eff − r is the smallest representable
        // gap below 10 (~1.8e-15) while σ is huge, so σ/(c_eff − r)
        // overflows. With Δ = −5 the cross term vanishes for X < 5, so
        // d(0) = σ/c_eff is both feasible and optimal.
        let r = f64::from_bits(10.0f64.to_bits() - 1); // nextafter(10, -∞)
        let p = NodeParams { c_eff: 10.0, r, delta: -5.0 };
        assert!(p.c_eff > p.r, "margin must be positive for the case to be feasible");
        let sigma = 1e300;
        assert!(!(sigma / (p.c_eff - p.r)).is_finite(), "σ/margin must overflow");
        let sol = solve(&[p], sigma).expect("feasible despite the overflowing margin");
        let want = sigma / p.c_eff;
        assert!((sol.delay - want).abs() <= 1e-9 * want, "delay {} should be {want}", sol.delay);
        let th = sol.thetas[0];
        let lhs = p.c_eff * (sol.x + th) - p.r * (sol.x + p.delta.min(th)).max(0.0);
        assert!(lhs >= sigma * (1.0 - 1e-9), "solution infeasible: lhs = {lhs}");
    }

    const P: NodeParams = NodeParams { c_eff: 10.0, r: 4.0, delta: 0.0 };

    #[test]
    #[should_panic(expected = "need at least one node")]
    fn solve_rejects_an_empty_path() {
        solve(&[], 1.0);
    }

    #[test]
    #[should_panic(expected = "sigma must be finite and non-negative")]
    fn solve_rejects_negative_sigma() {
        solve(&[P], -1.0);
    }

    #[test]
    #[should_panic(expected = "sigma must be finite and non-negative")]
    fn solve_rejects_nan_sigma() {
        solve(&[P], f64::NAN);
    }

    #[test]
    #[should_panic(expected = "sigma must be finite and non-negative")]
    fn solve_rejects_infinite_sigma() {
        solve(&[P], f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "node rates must be finite")]
    fn solve_rejects_nan_capacity() {
        solve(&[NodeParams { c_eff: f64::NAN, ..P }], 1.0);
    }

    #[test]
    #[should_panic(expected = "node rates must be finite")]
    fn solve_rejects_infinite_cross_rate() {
        solve(&[NodeParams { r: f64::INFINITY, ..P }], 1.0);
    }

    #[test]
    #[should_panic(expected = "cross rate r must be non-negative")]
    fn solve_rejects_negative_cross_rate() {
        solve(&[NodeParams { r: -1.0, ..P }], 1.0);
    }

    #[test]
    #[should_panic(expected = "delta must not be NaN")]
    fn solve_rejects_nan_delta() {
        solve(&[NodeParams { delta: f64::NAN, ..P }], 1.0);
    }

    /// One random node: `r < c_eff` so every Δ kind is feasible, with Δ
    /// drawn from −∞, negative, 0, positive, and +∞.
    fn random_node() -> impl proptest::strategy::Strategy<Value = NodeParams> {
        use proptest::prelude::*;
        (
            1.0f64..100.0,
            0.0f64..0.95,
            prop_oneof![
                Just(f64::NEG_INFINITY),
                -50.0f64..-1e-3,
                Just(0.0),
                1e-3f64..50.0,
                Just(f64::INFINITY),
            ],
        )
            .prop_map(|(c_eff, frac, delta)| NodeParams { c_eff, r: frac * c_eff, delta })
    }

    proptest::proptest! {
        #[test]
        fn solve_is_never_worse_than_a_dense_oracle(
            params in proptest::collection::vec(random_node(), 1..=12),
            sigma in 0.1f64..5000.0,
        ) {
            // Past σ/min-margin every θ_h is 0 and d = X rises, so the
            // dense grid over [0, x_hi] brackets the true minimum.
            let margin = params
                .iter()
                .map(|p| if p.delta == f64::NEG_INFINITY { p.c_eff } else { p.c_eff - p.r })
                .fold(f64::INFINITY, f64::min);
            let x_hi = sigma / margin;
            let n = 20_000;
            let oracle = (0..=n)
                .map(|i| objective(x_hi * i as f64 / n as f64, &params, sigma))
                .fold(f64::INFINITY, f64::min);
            let sol = solve(&params, sigma).unwrap();
            proptest::prop_assert!(
                sol.delay <= oracle * (1.0 + 1e-12),
                "solve {} worse than the dense oracle {oracle}",
                sol.delay
            );
            proptest::prop_assert!(sol.x >= 0.0);
            for (p, &th) in params.iter().zip(&sol.thetas) {
                proptest::prop_assert!(th >= 0.0);
                let lhs = p.c_eff * (sol.x + th) - p.r * (sol.x + p.delta.min(th)).max(0.0);
                proptest::prop_assert!(
                    lhs >= sigma * (1.0 - 1e-9),
                    "infeasible θ = {th} at {p:?}: lhs = {lhs}, σ = {sigma}"
                );
            }
        }
    }

    #[test]
    fn single_hop_delay_is_sigma_over_margin() {
        // H = 1: the paper notes θ¹ = d is optimal for all schedulers; the
        // resulting delay solves C·d − (ρ_c+γ)·min(d, …)… For FIFO it is
        // σ/(C − ρ_c − γ)·…: check against a direct 2-variable sweep.
        let p = [NodeParams { c_eff: 100.0, r: 40.0, delta: 0.0 }];
        let sigma = 120.0;
        let sol = solve(&p, sigma).unwrap();
        // Brute force over (x, θ).
        let mut best = f64::INFINITY;
        for i in 0..=4000 {
            let x = 4.0 * i as f64 / 4000.0;
            let th = theta_h(x, &p[0], sigma);
            best = best.min(x + th);
        }
        assert!(sol.delay <= best + 1e-6, "{} vs {best}", sol.delay);
    }
}
