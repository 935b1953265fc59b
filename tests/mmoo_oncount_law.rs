//! The ON-count `MmooAggregate` steps `k' = Bin(k, p22) + Bin(n − k,
//! 1 − p11)`. These tests check its one-step law from a fixed state
//! against two references, by Pearson χ² tests at a fixed significance
//! level:
//!
//! * the exact pmf of `k'`, the convolution of the two binomial pmfs
//!   (computed here from log-factorials, not from the sampler's pmf
//!   recurrence);
//! * `n` per-flow `MmooState` chains stepped one by one (a two-sample
//!   test of homogeneity).
//!
//! Bins whose expected count is below 5 are pooled into their
//! neighbours, tails included. The number of draws per case is
//! `ONCOUNT_CHI2_DRAWS` (default 20 000); CI reruns the tests in
//! release with more.
//!
//! A last test steps aggregates so large that `p11^n` and `p22^k`
//! underflow, where the sampler must split its inversions into chunks,
//! and checks the long-run ON fraction against `π_ON`.

use linksched::sim::{MmooAggregate, MmooState};
use linksched::traffic::Mmoo;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Significance level of each χ² test.
const ALPHA: f64 = 1e-6;

/// Pooled bins must expect at least this many draws.
const MIN_EXPECTED: f64 = 5.0;

/// Flow counts: empty, single, the validate tandem's through and cross
/// aggregates, and one large enough for long inversion searches.
const FLOWS: [usize; 5] = [0, 1, 40, 60, 533];

fn draws() -> usize {
    std::env::var("ONCOUNT_CHI2_DRAWS").ok().and_then(|v| v.parse().ok()).unwrap_or(20_000)
}

/// The paper's source, and a fast-switching one whose ON flows leave
/// more often than they stay (`p22 < 1/2`).
fn models() -> [Mmoo; 2] {
    [Mmoo::paper_source(), Mmoo::new(0.7, 0.4, 1.0)]
}

fn ln_factorials(n: usize) -> Vec<f64> {
    let mut lf = vec![0.0; n + 1];
    for i in 1..=n {
        lf[i] = lf[i - 1] + (i as f64).ln();
    }
    lf
}

/// The pmf of `Bin(m, p)`, from `ln C(m, j) + j ln p + (m − j) ln(1 − p)`.
fn binomial_pmf(m: usize, p: f64, lf: &[f64]) -> Vec<f64> {
    (0..=m)
        .map(|j| {
            let ln = lf[m] - lf[j] - lf[m - j] + j as f64 * p.ln() + (m - j) as f64 * (-p).ln_1p();
            ln.exp()
        })
        .collect()
}

/// The exact pmf of the next ON count from `k` of `n` flows ON.
fn exact_law(model: Mmoo, n: usize, k: usize) -> Vec<f64> {
    let lf = ln_factorials(n);
    let stay = binomial_pmf(k, model.p22(), &lf);
    let turn = binomial_pmf(n - k, 1.0 - model.p11(), &lf);
    let mut law = vec![0.0; n + 1];
    for (i, a) in stay.iter().enumerate() {
        for (j, b) in turn.iter().enumerate() {
            law[i + j] += a * b;
        }
    }
    law
}

/// Histogram of the next ON count over `draws` one-step draws of the
/// aggregate from `k` of `n` flows ON.
fn aggregate_counts(model: Mmoo, n: usize, k: usize, draws: usize, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let start = MmooAggregate::with_on_count(model, n, k);
    let mut counts = vec![0; n + 1];
    for _ in 0..draws {
        let mut agg = start.clone();
        let emitted = agg.step(&mut rng);
        assert_eq!(emitted, k as f64 * model.peak());
        counts[agg.on_count()] += 1;
    }
    counts
}

/// The same histogram from `n` per-flow chains, the first `k` ON.
fn per_flow_counts(model: Mmoo, n: usize, k: usize, draws: usize, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut counts = vec![0; n + 1];
    for _ in 0..draws {
        let on = (0..n)
            .filter(|&i| {
                let mut flow = MmooState::with_state(model, i < k);
                flow.step(&mut rng);
                flow.is_on()
            })
            .count();
        counts[on] += 1;
    }
    counts
}

/// Groups consecutive bins, left to right, until each group's
/// `expected` sum reaches [`MIN_EXPECTED`]; a short last group joins
/// the one before it. Returns the group boundaries (exclusive ends).
fn pool(expected: &[f64]) -> Vec<usize> {
    let mut ends = Vec::new();
    let mut acc = 0.0;
    for (i, e) in expected.iter().enumerate() {
        acc += e;
        if acc >= MIN_EXPECTED {
            ends.push(i + 1);
            acc = 0.0;
        }
    }
    match ends.last_mut() {
        Some(last) => *last = expected.len(),
        None => ends.push(expected.len()),
    }
    ends
}

fn pooled(values: &[f64], ends: &[usize]) -> Vec<f64> {
    let mut start = 0;
    ends.iter()
        .map(|&end| {
            let s = values[start..end].iter().sum();
            start = end;
            s
        })
        .collect()
}

/// `ln Γ(a)` for a positive multiple of 1/2, by recurrence from
/// `Γ(1) = 1` or `Γ(1/2) = √π`.
fn ln_gamma_half(a: f64) -> f64 {
    let mut x = if a.fract() == 0.0 { 1.0 } else { 0.5 };
    let mut ln = if x == 1.0 { 0.0 } else { std::f64::consts::PI.sqrt().ln() };
    while x < a {
        ln += x.ln();
        x += 1.0;
    }
    ln
}

/// The χ² upper tail `P(X ≥ x)` for `df` degrees of freedom: the
/// regularized upper incomplete gamma `Q(df/2, x/2)`, by its series
/// below `a + 1` and its continued fraction above (Numerical Recipes,
/// §6.2). With no degrees of freedom (one pooled bin, which holds
/// every draw) it is 1.
fn chi2_upper_tail(x: f64, df: usize) -> f64 {
    let (a, x) = (df as f64 / 2.0, x / 2.0);
    if df == 0 || x <= 0.0 {
        return 1.0;
    }
    let prefix = (-x + a * x.ln() - ln_gamma_half(a)).exp();
    if x < a + 1.0 {
        let (mut term, mut sum, mut ap) = (1.0 / a, 1.0 / a, a);
        while term.abs() > sum.abs() * 1e-15 {
            ap += 1.0;
            term *= x / ap;
            sum += term;
        }
        1.0 - sum * prefix
    } else {
        let tiny = 1e-300;
        let mut b = x + 1.0 - a;
        let mut c = 1.0 / tiny;
        let mut d = 1.0 / b;
        let mut h = d;
        for i in 1..10_000 {
            let an = -(i as f64) * (i as f64 - a);
            b += 2.0;
            d = an * d + b;
            d = if d.abs() < tiny { tiny } else { d };
            c = b + an / c;
            c = if c.abs() < tiny { tiny } else { c };
            d = 1.0 / d;
            let delta = d * c;
            h *= delta;
            if (delta - 1.0).abs() < 1e-15 {
                break;
            }
        }
        prefix * h
    }
}

/// Pearson goodness of fit of `counts` to the pmf `law`; returns the
/// p-value.
fn fit_p_value(counts: &[u64], law: &[f64]) -> f64 {
    let total = counts.iter().sum::<u64>() as f64;
    let expected: Vec<f64> = law.iter().map(|p| p * total).collect();
    let ends = pool(&expected);
    let observed = pooled(&counts.iter().map(|&c| c as f64).collect::<Vec<_>>(), &ends);
    let expected = pooled(&expected, &ends);
    let stat: f64 = observed.iter().zip(&expected).map(|(o, e)| (o - e).powi(2) / e).sum();
    chi2_upper_tail(stat, ends.len() - 1)
}

/// Pearson test that two equal-size samples share one law; returns
/// the p-value.
fn homogeneity_p_value(a: &[u64], b: &[u64]) -> f64 {
    let expected: Vec<f64> = a.iter().zip(b).map(|(&x, &y)| (x + y) as f64 / 2.0).collect();
    let ends = pool(&expected);
    let to_f64 = |c: &[u64]| c.iter().map(|&c| c as f64).collect::<Vec<_>>();
    let (a, b) = (pooled(&to_f64(a), &ends), pooled(&to_f64(b), &ends));
    let expected = pooled(&expected, &ends);
    let stat: f64 = (0..ends.len())
        .map(|i| ((a[i] - expected[i]).powi(2) + (b[i] - expected[i]).powi(2)) / expected[i])
        .sum();
    chi2_upper_tail(stat, ends.len() - 1)
}

/// Every (model, n, k) case with its seed.
fn cases() -> Vec<(Mmoo, usize, usize, u64)> {
    let mut cases = Vec::new();
    for (m, model) in models().into_iter().enumerate() {
        for n in FLOWS {
            for k in [0, n / 2, n] {
                cases.push((model, n, k, (m as u64) << 32 | (n as u64) << 16 | k as u64));
            }
        }
    }
    cases
}

#[test]
fn chi2_reference_matches_known_quantiles() {
    // Tabulated 99.9% quantiles of χ² with 1, 2, 10, 30 and 100
    // degrees of freedom.
    for (x, df) in [(10.828, 1), (13.816, 2), (29.588, 10), (59.703, 30), (149.449, 100)] {
        let tail = chi2_upper_tail(x, df);
        assert!((tail - 1e-3).abs() < 1e-6, "df {df}: P(X ≥ {x}) = {tail}");
    }
    assert!((chi2_upper_tail(2.0, 2) - (-1.0f64).exp()).abs() < 1e-14);
}

#[test]
fn one_step_law_matches_the_exact_pmf() {
    let draws = draws();
    for (model, n, k, seed) in cases() {
        let counts = aggregate_counts(model, n, k, draws, seed);
        let law = exact_law(model, n, k);
        let p = fit_p_value(&counts, &law);
        assert!(p >= ALPHA, "{model} n = {n}, k = {k}: χ² p-value {p:e} < {ALPHA:e}");
    }
}

#[test]
fn one_step_law_matches_per_flow_chains() {
    let draws = draws();
    for (model, n, k, seed) in cases() {
        let agg = aggregate_counts(model, n, k, draws, seed);
        let flows = per_flow_counts(model, n, k, draws, !seed);
        let p = homogeneity_p_value(&agg, &flows);
        assert!(p >= ALPHA, "{model} n = {n}, k = {k}: χ² p-value {p:e} < {ALPHA:e}");
    }
}

#[test]
fn huge_aggregates_keep_the_stationary_on_fraction() {
    // 0.9^20 000 and 0.989^180 000 (paper source), 0.6^66 000 and
    // 0.7^133 000 (fast source) all underflow to zero.
    let n = 200_000;
    for (model, slots, seed) in [(Mmoo::paper_source(), 2_000, 41), (models()[1], 1_000, 43)] {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut agg = MmooAggregate::stationary(model, n, &mut rng);
        let pi = model.stationary_on();
        let mut sum = 0.0;
        for slot in 0..slots {
            let frac = agg.on_count() as f64 / n as f64;
            // Ten stationary standard deviations of one slot's fraction.
            let spread = 10.0 * (pi * (1.0 - pi) / n as f64).sqrt();
            assert!((frac - pi).abs() < spread, "{model} slot {slot}: ON fraction {frac}");
            sum += frac;
            agg.step(&mut rng);
        }
        let mean = sum / slots as f64;
        assert!((mean - pi).abs() < 5e-4, "{model}: long-run ON fraction {mean} vs π_ON {pi}");
    }
}
