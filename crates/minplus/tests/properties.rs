//! Property-based tests for the min-plus algebra.
//!
//! These exercise the algebraic laws that the network calculus relies on:
//! commutativity/associativity of ∗, distribution over min, monotonicity,
//! and the semiring identities with δ₀ (neutral) and the zero curve
//! (absorbing), and check every route of the convolution against a
//! brute-force infimum.

use nc_minplus::Curve;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Strategy: a random rate-latency curve (convex).
fn rate_latency() -> impl Strategy<Value = Curve> {
    (0.01f64..50.0, 0.0f64..20.0).prop_map(|(r, t)| Curve::rate_latency(r, t))
}

/// Strategy: a random concave envelope (min of up to 3 token buckets).
fn concave() -> impl Strategy<Value = Curve> {
    prop::collection::vec((0.01f64..50.0, 0.0f64..100.0), 1..4).prop_map(|v| {
        v.into_iter()
            .map(|(r, b)| Curve::token_bucket(r, b))
            .reduce(|acc, tb| acc.min(&tb))
            .expect("at least one bucket")
    })
}

/// Strategy: a random convex service curve (rate-latency or burst-delay).
fn convex() -> impl Strategy<Value = Curve> {
    prop_oneof![rate_latency(), (0.0f64..20.0).prop_map(Curve::delta), Just(Curve::zero()),]
}

/// Strategy: shapes that are in general neither concave nor convex,
/// which only the segment merge convolves: a burst followed by convex
/// growth, a rate-latency curve capped by an envelope (convex, then
/// concave), and a gated envelope (flat, then an interior jump).
fn mixed() -> impl Strategy<Value = Curve> {
    prop_oneof![
        (concave(), rate_latency()).prop_map(|(f, g)| f.add(&g)),
        (rate_latency(), concave()).prop_map(|(f, g)| f.min(&g)),
        (concave(), 0.0f64..20.0).prop_map(|(f, theta)| f.gate(theta)),
    ]
}

/// Strategy: every curve shape.
fn any_curve() -> impl Strategy<Value = Curve> {
    prop_oneof![concave(), convex(), mixed()]
}

/// `inf_{0≤s≤t} f(s) + g(t−s)` by brute force over a uniform `s` grid of
/// `steps` cells refined by every breakpoint `s = x` of `f` and
/// `t − s = x` of `g`. Between these candidates `s ↦ f(s) + g(t−s)` is
/// linear, and the left-continuous operands take their lower values at
/// the candidates themselves, so the minimum over the candidates is the
/// exact infimum. Each candidate is a split `(s, t − s)` evaluated as
/// given, so a breakpoint of `g` is not moved across its jump by rounding.
fn brute_convolve_at(f: &Curve, g: &Curve, t: f64, steps: usize) -> f64 {
    let grid = (0..=steps).map(|k| t * k as f64 / steps as f64).map(|s| (s, t - s));
    let f_breaks = f.segments().iter().filter(|s| s.x <= t).map(|s| (s.x, t - s.x));
    let g_breaks = g.segments().iter().filter(|s| s.x <= t).map(|s| (t - s.x, s.x));
    grid.chain(f_breaks)
        .chain(g_breaks)
        .map(|(s, u)| f.eval(s) + g.eval(u))
        .fold(f64::INFINITY, f64::min)
}

/// Points at which curves are compared.
const PROBE: [f64; 9] = [0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 200.0];

fn assert_close(a: f64, b: f64, ctx: &str) {
    if a.is_infinite() || b.is_infinite() {
        assert_eq!(a.is_infinite(), b.is_infinite(), "{ctx}: {a} vs {b}");
    } else {
        let tol = 1e-6 * (1.0 + a.abs().max(b.abs()));
        assert!((a - b).abs() <= tol, "{ctx}: {a} vs {b}");
    }
}

// The properties below, as functions of their inputs, so that the
// saved regression cases re-run through them by name.

fn commutes(a: &Curve, b: &Curve) -> Result<(), TestCaseError> {
    let ab = a.convolve(b);
    let ba = b.convolve(a);
    for t in PROBE {
        assert_close(ab.eval(t), ba.eval(t), &format!("(a∗b)(t)≠(b∗a)(t) at t={t}"));
    }
    Ok(())
}

fn dominated_by_operands(a: &Curve, b: &Curve) -> Result<(), TestCaseError> {
    // (f ∗ g)(t) ≤ min(f(t) + g(0⁺), f(0⁺) + g(t)) ≤ f(t) + g(t) additive…
    // The simplest universal law: f ∗ g ≤ f (taking s = t) up to g(0) = 0,
    // and f ∗ g ≤ g likewise.
    let c = a.convolve(b);
    for t in PROBE {
        let v = c.eval(t);
        prop_assert!(v <= a.eval(t) + 1e-6 * (1.0 + a.eval(t).abs()) || a.eval(t).is_infinite());
        prop_assert!(v <= b.eval(t) + 1e-6 * (1.0 + b.eval(t).abs()) || b.eval(t).is_infinite());
    }
    Ok(())
}

fn min_commutes_and_lowers(a: &Curve, b: &Curve) -> Result<(), TestCaseError> {
    let m = a.min(b);
    let m2 = b.min(a);
    for t in PROBE {
        assert_close(m.eval(t), m2.eval(t), "min commutes");
        assert_close(m.eval(t), a.eval(t).min(b.eval(t)), &format!("min value at t={t}"));
    }
    Ok(())
}

fn adds_pointwise(a: &Curve, b: &Curve) -> Result<(), TestCaseError> {
    let s = a.add(b);
    for t in PROBE {
        assert_close(s.eval(t), a.eval(t) + b.eval(t), &format!("add value at t={t}"));
    }
    Ok(())
}

fn leftover_is_clamped_difference(c: f64, g: &Curve) -> Result<(), TestCaseError> {
    // The Theorem-1 shape [Ct − G(t)]₊ with C above the long-run rate.
    prop_assume!(g.long_run_rate() < c);
    let rate = Curve::rate(c).unwrap();
    let s = rate.sub_clamped_closure(g);
    for t in PROBE {
        assert_close(s.eval(t), (c * t - g.eval(t)).max(0.0), &format!("leftover at t={t}"));
    }
    Ok(())
}

fn agrees_with_grid(a: &Curve, b: &Curve) -> Result<(), TestCaseError> {
    // Every route of `convolve` must return the brute-force infimum.
    let exact = a.convolve(b);
    let dt = 0.25;
    for i in 0..128 {
        let t = i as f64 * dt;
        let e = exact.eval(t);
        let brute = brute_convolve_at(a, b, t, 64);
        if e.is_infinite() || brute.is_infinite() {
            continue; // a jump to +∞ may sit within rounding of t
        }
        let tol = 1e-6 * (1.0 + e.abs().max(brute.abs()));
        prop_assert!(e <= brute + tol, "exact {e} above brute force {brute} at t={t}");
        prop_assert!(
            e >= brute - tol,
            "exact {e} below brute force {brute} at t={t}\nA={a:?}\nB={b:?}\nE={exact:?}"
        );
    }
    Ok(())
}

fn long_run_rate_is_min(a: &Curve, b: &Curve) -> Result<(), TestCaseError> {
    let c = a.convolve(b);
    let want = a.long_run_rate().min(b.long_run_rate());
    assert_close(c.long_run_rate(), want, "long-run rate of convolution");
    Ok(())
}

/// Runs one saved case through a property: a rejected case fails too,
/// since a saved case is there to be checked.
fn replay(property: &str, outcome: Result<(), TestCaseError>) {
    if let Err(e) = outcome {
        panic!("{property}: {e:?}");
    }
}

/// Every property of shape `(a, b)`.
fn replay_pair(a: &Curve, b: &Curve) {
    replay("commutes", commutes(a, b));
    replay("dominated_by_operands", dominated_by_operands(a, b));
    replay("min_commutes_and_lowers", min_commutes_and_lowers(a, b));
    replay("adds_pointwise", adds_pointwise(a, b));
    replay("agrees_with_grid", agrees_with_grid(a, b));
    replay("long_run_rate_is_min", long_run_rate_is_min(a, b));
}

/// `min(token_bucket(r1, b1), token_bucket(r2, b2))` where the second
/// bucket's line passes through `(x, y)`: the two-segment concave curve
/// `[(0, b1, r1), (x, y, r2)]`, up to the rounding of the crossing.
fn two_buckets(r1: f64, b1: f64, x: f64, y: f64, r2: f64) -> Curve {
    Curve::token_bucket(r1, b1).min(&Curve::token_bucket(r2, y - r2 * x))
}

// Failure cases proptest once shrank to, kept as named tests.

#[test]
fn saved_case_bucket_against_pure_rate() {
    let a = Curve::token_bucket(0.01, 12.501376466158089);
    let b = Curve::rate(37.702691342599955).unwrap();
    replay_pair(&a, &b);
    replay_pair(&b, &a);
}

#[test]
fn saved_case_bucket_against_two_buckets() {
    let a = Curve::token_bucket(14.394153468180836, 5.717890315824628);
    let b = two_buckets(
        24.43514280093814,
        33.10340256393754,
        2.543829022957358,
        95.26222800107153,
        10.655120732764615,
    );
    assert_eq!(b.segments().len(), 2);
    replay_pair(&a, &b);
    replay_pair(&b, &a);
}

#[test]
fn saved_case_leftover_of_two_buckets() {
    let c = 97.1837087603537;
    let g = two_buckets(
        36.450681236408506,
        78.0711557432863,
        0.225701775893222,
        86.29813923086144,
        2.7702335418015163,
    );
    assert_eq!(g.segments().len(), 2);
    replay("leftover_is_clamped_difference", leftover_is_clamped_difference(c, &g));
}

proptest! {
    #[test]
    fn convolution_commutes(a in any_curve(), b in any_curve()) {
        commutes(&a, &b)?;
    }

    #[test]
    fn convolution_associates_on_convex(a in convex(), b in convex(), c in convex()) {
        let l = a.convolve(&b).convolve(&c);
        let r = a.convolve(&b.convolve(&c));
        for t in PROBE {
            assert_close(l.eval(t), r.eval(t), &format!("associativity at t={t}"));
        }
    }

    #[test]
    fn convolution_is_dominated_by_operands(a in any_curve(), b in any_curve()) {
        dominated_by_operands(&a, &b)?;
    }

    #[test]
    fn delta_zero_is_identity(a in any_curve()) {
        let c = a.convolve(&Curve::delta(0.0));
        for t in PROBE {
            assert_close(c.eval(t), a.eval(t), &format!("δ₀ identity at t={t}"));
        }
    }

    #[test]
    fn delta_shift_composes(a in any_curve(), d1 in 0.0f64..10.0, d2 in 0.0f64..10.0) {
        let l = a.shift_right(d1).shift_right(d2);
        let r = a.shift_right(d1 + d2);
        for t in PROBE {
            assert_close(l.eval(t), r.eval(t), &format!("shift composition at t={t}"));
        }
    }

    #[test]
    fn min_is_commutative_and_lower(a in any_curve(), b in any_curve()) {
        min_commutes_and_lowers(&a, &b)?;
    }

    #[test]
    fn add_is_pointwise(a in concave(), b in concave()) {
        adds_pointwise(&a, &b)?;
    }

    #[test]
    fn sub_clamped_of_rate_minus_concave(c in 10.0f64..100.0, g in concave()) {
        leftover_is_clamped_difference(c, &g)?;
    }

    #[test]
    fn gate_matches_indicator(a in any_curve(), theta in 0.0f64..20.0) {
        let gated = a.gate(theta);
        for t in PROBE {
            let want = if t > theta { a.eval(t) } else { 0.0 };
            assert_close(gated.eval(t), want, &format!("gate at t={t}, θ={theta}"));
        }
    }

    #[test]
    fn h_deviation_is_sound(f in concave(), g in convex()) {
        // If h = h_deviation, then f(t) ≤ g(t + h + ε) for all probed t.
        if let Some(h) = f.h_deviation(&g) {
            for t in PROBE {
                let lhs = f.eval(t);
                let rhs = g.eval(t + h + 1e-6);
                prop_assert!(
                    lhs <= rhs + 1e-5 * (1.0 + lhs.abs()) || rhs.is_infinite(),
                    "delay bound violated at t={t}: f={lhs}, g(t+h)={rhs}, h={h}"
                );
            }
        }
    }

    #[test]
    fn v_deviation_is_sound(f in concave(), g in convex()) {
        if let Some(v) = f.v_deviation(&g) {
            for t in PROBE {
                let d = f.eval(t) - g.eval(t);
                prop_assert!(d <= v + 1e-6 * (1.0 + v), "backlog bound violated at t={t}");
            }
        }
    }

    #[test]
    fn convolution_agrees_with_grid(a in any_curve(), b in any_curve()) {
        agrees_with_grid(&a, &b)?;
    }

    #[test]
    fn long_run_rate_of_convolution_is_min(a in concave(), b in concave()) {
        long_run_rate_is_min(&a, &b)?;
    }

    #[test]
    fn convolution_is_monotone(a in any_curve(), b in any_curve(), c in 0.0f64..10.0) {
        // f ≤ f' pointwise ⇒ f ∗ g ≤ f' ∗ g, and lifting f by a
        // constant can lift the convolution by at most that constant.
        let lifted = a.add(&Curve::token_bucket(0.0, c));
        let low = a.convolve(&b);
        let high = lifted.convolve(&b);
        for t in PROBE {
            let (lo, hi) = (low.eval(t), high.eval(t));
            if lo.is_infinite() || hi.is_infinite() {
                prop_assert_eq!(lo.is_infinite(), hi.is_infinite(), "jump moved at t={}", t);
                continue;
            }
            let tol = 1e-6 * (1.0 + lo.abs());
            prop_assert!(hi >= lo - tol, "monotonicity broken at t={}: {} < {}", t, hi, lo);
            prop_assert!(hi <= lo + c + tol, "lift exceeded constant at t={}: {} > {} + {}", t, hi, lo, c);
        }
    }
}
