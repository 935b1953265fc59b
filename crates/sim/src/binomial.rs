//! Exact binomial sampling by sequential inversion.
//!
//! The MMOO aggregates draw two binomials per slot, with small means
//! (~0.6 flows for the paper's source at N = 60), so inversion from 0
//! costs one uniform and O(1 + mean) pmf steps. The `(1 − q)^m` starting
//! values are tabulated at construction, so a draw calls no `exp`, `ln`
//! or `powi` (DESIGN.md, "Simulator arrivals").

use rand::{Rng, RngExt};

/// The smallest `P(X = 0) = (1 − q)^m` an inversion starts from. Counts
/// whose `(1 − q)^m` would fall below it (or underflow to 0, where the
/// search would run to `m`) are split into chunks that stay above it,
/// and the chunks' draws are summed: independent `Bin(m_i, q)` draws sum
/// to `Bin(Σ m_i, q)`, so the split is exact.
const POW_FLOOR: f64 = 1e-300;

/// `Bin(m, p)` for a fixed `p` and any trial count `m`.
#[derive(Debug, Clone)]
pub(crate) struct Binomial {
    /// Whether `p > 1/2`: the inversion then counts the rarer failures
    /// (probability `q = 1 − p`) and a draw returns `m` minus them.
    flip: bool,
    /// `q / (1 − q)`, the ratio in `P(X = j + 1) = P(X = j)·(m − j)/(j + 1)·q/(1 − q)`.
    odds: f64,
    /// `pow[m] = (1 − q)^m` for every `m` up to the chunk length
    /// `pow.len() − 1` (at least 1).
    pow: Vec<f64>,
}

impl Binomial {
    /// A sampler of `Bin(m, p)`, tabulated for trial counts up to
    /// `max_m` (larger counts are split into chunks).
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ p ≤ 1`.
    pub(crate) fn new(p: f64, max_m: usize) -> Self {
        assert!((0.0..=1.0).contains(&p), "Binomial: p must lie in [0, 1]");
        let flip = p > 0.5;
        let q = if flip { 1.0 - p } else { p };
        let ln_keep = (-q).ln_1p();
        // The largest m with (1 − q)^m ≥ POW_FLOOR; the cast saturates
        // to usize::MAX when q = 0 (ln_keep = −0, the ratio is +∞).
        let chunk = (POW_FLOOR.ln() / ln_keep).floor() as usize;
        let len = max_m.min(chunk).max(1);
        let pow = (0..=len).map(|m| (m as f64 * ln_keep).exp()).collect();
        Binomial { flip, odds: q / (1.0 - q), pow }
    }

    /// Draws `Bin(m, p)`.
    pub(crate) fn sample<R: Rng + ?Sized>(&self, m: usize, rng: &mut R) -> usize {
        let chunk = self.pow.len() - 1;
        let mut rare = 0;
        let mut left = m;
        while left > 0 {
            let c = left.min(chunk);
            rare += self.invert(c, rng);
            left -= c;
        }
        if self.flip {
            m - rare
        } else {
            rare
        }
    }

    /// `Bin(m, q)` for `m ≤ chunk` by sequential search from 0: the
    /// least `j` with `u < P(X ≤ j)`, stopping at `m` if rounding leaves
    /// `u` above the whole sum.
    fn invert<R: Rng + ?Sized>(&self, m: usize, rng: &mut R) -> usize {
        let mut u = rng.random::<f64>();
        let mut pmf = self.pow[m];
        let mut j = 0;
        while u >= pmf && j < m {
            u -= pmf;
            pmf *= (m - j) as f64 / (j + 1) as f64 * self.odds;
            j += 1;
        }
        j
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn degenerate_probabilities_are_exact() {
        let mut rng = StdRng::seed_from_u64(1);
        let never = Binomial::new(0.0, 50);
        let always = Binomial::new(1.0, 50);
        for m in [0, 1, 7, 50, 10_000] {
            assert_eq!(never.sample(m, &mut rng), 0);
            assert_eq!(always.sample(m, &mut rng), m);
        }
    }

    #[test]
    fn chunks_keep_the_starting_pmf_normal() {
        for p in [1e-9, 0.011, 0.1, 0.5, 0.9, 0.989] {
            let b = Binomial::new(p, 200_000);
            let last = *b.pow.last().expect("non-empty table");
            assert!(last >= POW_FLOOR * 0.999 && last.is_normal(), "p = {p}: {last:e}");
        }
        // Small aggregates tabulate only what they can draw.
        assert_eq!(Binomial::new(0.1, 60).pow.len(), 61);
        assert_eq!(Binomial::new(0.1, 0).pow.len(), 2);
    }

    #[test]
    fn mean_and_variance_match_across_chunks() {
        // m = 50 000 at q = 0.1 spans several chunks (0.9^m underflows).
        let mut rng = StdRng::seed_from_u64(9);
        for (p, m) in [(0.1, 50_000usize), (0.97, 50_000), (0.3, 25)] {
            let b = Binomial::new(p, m);
            let draws = 4_000;
            let xs: Vec<f64> = (0..draws).map(|_| b.sample(m, &mut rng) as f64).collect();
            let mean = xs.iter().sum::<f64>() / draws as f64;
            let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (draws - 1) as f64;
            let (want_mean, want_var) = (m as f64 * p, m as f64 * p * (1.0 - p));
            assert!(
                (mean - want_mean).abs() < 5.0 * (want_var / draws as f64).sqrt(),
                "p = {p}, m = {m}: mean {mean} vs {want_mean}"
            );
            assert!((var / want_var - 1.0).abs() < 0.15, "p = {p}, m = {m}: var {var}");
        }
    }
}
