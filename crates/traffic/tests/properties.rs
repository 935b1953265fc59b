//! Property-based and empirical tests for the traffic models.

use nc_traffic::{Ebb, ExpBound, Mmoo};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

proptest! {
    #[test]
    fn exp_bound_sigma_inverts_eval(m in 1.0f64..1e6, alpha in 1e-3f64..10.0, eps in 1e-12f64..0.5) {
        let b = ExpBound::new(m, alpha);
        let sigma = b.sigma_for(eps).unwrap();
        // eval(σ) ≤ ε always (σ clamped at 0 can only decrease eval below M ≥ ε… not
        // necessarily: clamping happens when M < ε, then eval(0) = M < ε). Either way:
        prop_assert!(b.eval(sigma) <= eps.max(m).min(eps * (1.0 + 1e-9)) || b.eval(sigma) <= m + 1e-12);
        // And whenever no clamping occurred the inversion is exact.
        if sigma > 0.0 {
            prop_assert!((b.eval(sigma) - eps).abs() / eps < 1e-6);
        }
    }

    #[test]
    fn inf_convolution_never_above_any_split(
        m1 in 1.0f64..100.0, a1 in 0.05f64..5.0,
        m2 in 1.0f64..100.0, a2 in 0.05f64..5.0,
        sigma in 0.0f64..50.0, frac in 0.0f64..1.0,
    ) {
        let b1 = ExpBound::new(m1, a1);
        let b2 = ExpBound::new(m2, a2);
        let conv = ExpBound::inf_convolution(&[b1, b2]);
        let split = b1.eval(sigma * frac) + b2.eval(sigma * (1.0 - frac));
        prop_assert!(conv.eval(sigma) <= split * (1.0 + 1e-9),
            "inf-convolution {} above split {split}", conv.eval(sigma));
    }

    #[test]
    fn geometric_sum_dominates_head(m in 1.0f64..100.0, a in 0.05f64..5.0, g in 0.01f64..5.0, sigma in 0.0f64..20.0) {
        let b = ExpBound::new(m, a);
        let s = b.geometric_sum(g);
        prop_assert!(s.eval(sigma) >= b.eval(sigma));
    }

    #[test]
    fn mmoo_eb_bounds(p11 in 0.5f64..0.999, p22 in 0.5f64..0.999, peak in 0.1f64..10.0, s in 0.01f64..5.0) {
        prop_assume!(p11 + p22 >= 1.0);
        let src = Mmoo::new(p11, p22, peak);
        let eb = src.effective_bandwidth(s);
        prop_assert!(eb >= src.mean_rate() - 1e-9, "eb {eb} below mean {}", src.mean_rate());
        prop_assert!(eb <= src.peak_rate() + 1e-9, "eb {eb} above peak {}", src.peak_rate());
    }

    #[test]
    fn ebb_envelope_rate_dominates_rho(rho in 0.0f64..100.0, alpha in 0.05f64..5.0, gamma in 0.01f64..5.0) {
        let e = Ebb::new(1.0, rho, alpha).sample_path_envelope(gamma);
        prop_assert!((e.rate() - (rho + gamma)).abs() < 1e-9);
        prop_assert!(e.bound().prefactor() >= 1.0);
    }
}

/// Simulates an MMOO sample path and verifies the Chernoff interval
/// bound `P(A(0,t) > N·eb(s)·t + σ) ≤ e^{−sσ}` empirically: the
/// empirical violation frequency must not exceed the bound (with slack
/// for sampling noise).
#[test]
fn mmoo_ebb_interval_bound_holds_empirically() {
    let src = Mmoo::paper_source();
    let s = 0.7;
    let n_flows = 20usize;
    let ebb = src.ebb(s, n_flows);
    let t = 50usize; // slots
    let sigma = 8.0; // kb
    let bound = (-(s * sigma)).exp(); // M = 1

    let mut rng = StdRng::seed_from_u64(0x1CDC_5201);
    let trials = 60_000usize;
    let mut violations = 0usize;
    for _ in 0..trials {
        let mut total = 0.0;
        // Independent flows, each started in its stationary distribution.
        for _ in 0..n_flows {
            let mut on = rng.random::<f64>() < src.stationary_on();
            for _ in 0..t {
                if on {
                    total += src.peak();
                }
                let stay = if on { src.p22() } else { src.p11() };
                if rng.random::<f64>() >= stay {
                    on = !on;
                }
            }
        }
        if total > ebb.rho() * t as f64 + sigma {
            violations += 1;
        }
    }
    let freq = violations as f64 / trials as f64;
    assert!(
        freq <= bound * 1.5 + 5.0 / trials as f64,
        "empirical violation rate {freq} exceeds EBB bound {bound}"
    );
}

/// The effective bandwidth at moment `s` must dominate the empirical
/// log-MGF rate `log E[e^{s·A(t)}]/(s·t)` of simulated sample paths.
#[test]
fn mmoo_effective_bandwidth_dominates_empirical_mgf() {
    let src = Mmoo::paper_source();
    let s = 0.4;
    let t = 30usize;
    let eb = src.effective_bandwidth(s);

    let mut rng = StdRng::seed_from_u64(42);
    let trials = 40_000usize;
    let mut acc = 0.0_f64;
    for _ in 0..trials {
        let mut a = 0.0;
        let mut on = rng.random::<f64>() < src.stationary_on();
        for _ in 0..t {
            if on {
                a += src.peak();
            }
            let stay = if on { src.p22() } else { src.p11() };
            if rng.random::<f64>() >= stay {
                on = !on;
            }
        }
        acc += (s * a).exp();
    }
    let emp = (acc / trials as f64).ln() / (s * t as f64);
    assert!(
        emp <= eb * (1.0 + 0.02),
        "empirical effective bandwidth {emp} exceeds analytical bound {eb}"
    );
}
