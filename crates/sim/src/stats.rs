//! Delay statistics for bound validation: exact and bounded-memory
//! streaming collection, both mergeable.

use rand::splitmix64;

/// A collection of (virtual) delay samples, one per through-traffic
/// emission slot.
///
/// Two representations share one API:
///
/// * **Exact** ([`DelayStats::new`]): every sample is retained;
///   quantiles and violation fractions are exact. Memory grows with
///   the run length.
/// * **Streaming** ([`DelayStats::streaming`]): bounded memory. Count,
///   mean, second moment, and max are tracked exactly (Welford /
///   Chan), quantiles come from a fixed-size uniform reservoir
///   (Vitter's algorithm R), and violation fractions are exact for
///   thresholds registered up front via
///   [`DelayStats::streaming_with_thresholds`] (reservoir-estimated
///   otherwise).
///
/// Both representations support [`DelayStats::merge`], so statistics
/// collected by independent simulation replications — e.g. on separate
/// threads by [`crate::MonteCarlo`] — combine into one summary.
/// Merging is deterministic: the same sequence of `record`/`merge`
/// operations always produces bitwise-identical state, regardless of
/// which thread executed the replications.
///
/// # Example
///
/// ```
/// use nc_sim::DelayStats;
///
/// let mut s = DelayStats::new();
/// for d in [1.0, 2.0, 3.0, 4.0, 100.0] {
///     s.record(d);
/// }
/// assert_eq!(s.quantile(0.5), Some(3.0));
/// assert_eq!(s.max(), Some(100.0));
/// assert!((s.violation_fraction(3.5) - 0.4).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct DelayStats {
    count: u64,
    sum: f64,
    /// Sum of squared deviations from the running mean (Welford).
    m2: f64,
    max: f64,
    repr: Repr,
}

#[derive(Debug, Clone)]
enum Repr {
    Exact {
        samples: Vec<f64>,
        sorted: bool,
    },
    Reservoir {
        cap: usize,
        samples: Vec<f64>,
        sorted: bool,
        /// SplitMix64 state driving reservoir replacement decisions.
        rng: u64,
        /// `(threshold, strictly-above count)` pairs, exact.
        thresholds: Vec<(f64, u64)>,
    },
}

impl Default for DelayStats {
    fn default() -> Self {
        DelayStats::new()
    }
}

impl DelayStats {
    /// An empty exact collection.
    pub fn new() -> Self {
        DelayStats {
            count: 0,
            sum: 0.0,
            m2: 0.0,
            max: f64::NEG_INFINITY,
            repr: Repr::Exact { samples: Vec::new(), sorted: true },
        }
    }

    /// An empty streaming collection holding at most `reservoir`
    /// samples for quantile estimation.
    ///
    /// # Panics
    ///
    /// Panics if `reservoir` is zero.
    pub fn streaming(reservoir: usize) -> Self {
        Self::streaming_with_thresholds(reservoir, &[])
    }

    /// An empty streaming collection that additionally tracks the exact
    /// violation count for each given threshold (used to validate
    /// analytical bounds without retaining samples).
    ///
    /// # Panics
    ///
    /// Panics if `reservoir` is zero or any threshold is NaN.
    pub fn streaming_with_thresholds(reservoir: usize, thresholds: &[f64]) -> Self {
        assert!(reservoir > 0, "DelayStats: reservoir capacity must be positive");
        assert!(thresholds.iter().all(|d| !d.is_nan()), "DelayStats: NaN threshold");
        DelayStats {
            count: 0,
            sum: 0.0,
            m2: 0.0,
            max: f64::NEG_INFINITY,
            repr: Repr::Reservoir {
                cap: reservoir,
                samples: Vec::new(),
                sorted: true,
                // Fixed origin: determinism must not depend on ambient state.
                rng: 0xA5A5_5EED_0F0F_D1CE,
                thresholds: thresholds.iter().map(|&d| (d, 0)).collect(),
            },
        }
    }

    /// An empty collection with this one's configuration (mode,
    /// reservoir capacity, tracked thresholds).
    pub fn fresh(&self) -> Self {
        match &self.repr {
            Repr::Exact { .. } => DelayStats::new(),
            Repr::Reservoir { cap, thresholds, .. } => {
                let ds: Vec<f64> = thresholds.iter().map(|&(d, _)| d).collect();
                DelayStats::streaming_with_thresholds(*cap, &ds)
            }
        }
    }

    /// Releases the retained samples' spare capacity (a growing sample
    /// buffer can hold up to twice what it uses).
    pub(crate) fn shrink_to_fit(&mut self) {
        match &mut self.repr {
            Repr::Exact { samples, .. } | Repr::Reservoir { samples, .. } => {
                samples.shrink_to_fit()
            }
        }
    }

    /// Whether this collection is in bounded-memory streaming mode.
    pub fn is_streaming(&self) -> bool {
        matches!(self.repr, Repr::Reservoir { .. })
    }

    /// Records one delay sample.
    ///
    /// # Panics
    ///
    /// Panics if the sample is negative or NaN.
    pub fn record(&mut self, delay: f64) {
        assert!(delay >= 0.0 && !delay.is_nan(), "record: delays are non-negative");
        // Welford: delta against the pre-update mean, residual against
        // the post-update mean.
        let mean_old = self.mean_raw();
        self.count += 1;
        self.sum += delay;
        let mean_new = self.sum / self.count as f64;
        self.m2 += (delay - mean_old) * (delay - mean_new);
        if delay > self.max {
            self.max = delay;
        }
        match &mut self.repr {
            Repr::Exact { samples, sorted } => {
                samples.push(delay);
                *sorted = false;
            }
            Repr::Reservoir { cap, samples, sorted, rng, thresholds } => {
                for (d, over) in thresholds.iter_mut() {
                    if delay > *d {
                        *over += 1;
                    }
                }
                if samples.len() < *cap {
                    // Take the whole reservoir at once: doubling growth
                    // would leave each outgrown buffer behind as a heap
                    // fragment.
                    if samples.len() == samples.capacity() {
                        samples.reserve_exact(*cap - samples.len());
                    }
                    samples.push(delay);
                    *sorted = false;
                } else {
                    // Algorithm R: the i-th item (1-based, i = count)
                    // replaces a uniform slot with probability cap/i.
                    let j = uniform_below(rng, self.count);
                    if (j as usize) < *cap {
                        samples[j as usize] = delay;
                        *sorted = false;
                    }
                }
            }
        }
    }

    /// The mean over what has been recorded so far, `0` when empty
    /// (internal; public API returns `Option`).
    fn mean_raw(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Number of samples recorded (not the number retained).
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean delay, or `None` if empty. Exact in both modes.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Unbiased sample variance, or `None` with fewer than two samples.
    /// Exact in both modes.
    pub fn variance(&self) -> Option<f64> {
        (self.count > 1).then(|| self.m2 / (self.count - 1) as f64)
    }

    /// Maximum observed delay, or `None` if empty. Exact in both modes.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Empirical `q`-quantile (nearest-rank): exact in exact mode,
    /// reservoir-estimated in streaming mode. `None` if empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not in `[0, 1]`.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile: q must be in [0,1]");
        if self.count == 0 {
            return None;
        }
        let samples = self.sorted_samples();
        let n = samples.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        Some(samples[rank - 1])
    }

    /// Fraction of samples strictly above `d` — the empirical
    /// `P(W > d)`. Exact in exact mode and for registered thresholds in
    /// streaming mode; otherwise estimated from the reservoir.
    pub fn violation_fraction(&self, d: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        match &self.repr {
            Repr::Exact { samples, .. } => {
                let over = samples.iter().filter(|&&x| x > d).count();
                over as f64 / self.count as f64
            }
            Repr::Reservoir { samples, thresholds, .. } => {
                if let Some(&(_, over)) = thresholds.iter().find(|&&(t, _)| t == d) {
                    return over as f64 / self.count as f64;
                }
                let over = samples.iter().filter(|&&x| x > d).count();
                over as f64 / samples.len() as f64
            }
        }
    }

    /// A one-sided upper confidence limit for the violation probability
    /// `P(W > d)` at (approximately) the given confidence level, using
    /// the normal approximation with a +1 correction that keeps the
    /// limit strictly positive for zero observed violations.
    ///
    /// Used to assert `bound ≥ P(W > d)` statistically: the analytical
    /// violation probability should not exceed this limit when the
    /// bound is valid.
    ///
    /// # Panics
    ///
    /// Panics if `confidence` is not in `(0, 1)` or no samples exist.
    pub fn violation_upper_conf(&self, d: f64, confidence: f64) -> f64 {
        assert!(confidence > 0.0 && confidence < 1.0, "violation_upper_conf: bad confidence");
        assert!(self.count > 0, "violation_upper_conf: no samples");
        let n = self.count as f64;
        let k = self.violation_fraction(d) * n;
        // Wilson-style upper limit with a conservative +1 success.
        let z = normal_quantile(confidence);
        let p = (k + 1.0) / (n + 1.0);
        (p + z * (p * (1.0 - p) / n).sqrt()).min(1.0)
    }

    /// The retained samples (all of them in exact mode, the reservoir
    /// in streaming mode; order unspecified).
    pub fn samples(&self) -> &[f64] {
        match &self.repr {
            Repr::Exact { samples, .. } => samples,
            Repr::Reservoir { samples, .. } => samples,
        }
    }

    /// The thresholds registered for exact violation tracking, with
    /// their strictly-above counts (empty in exact mode).
    pub fn thresholds(&self) -> Vec<(f64, u64)> {
        match &self.repr {
            Repr::Exact { .. } => Vec::new(),
            Repr::Reservoir { thresholds, .. } => thresholds.clone(),
        }
    }

    /// Merges another collection into this one, as if every sample
    /// recorded into `other` had been recorded here (exactly for
    /// count/mean/variance/max/registered thresholds; via uniform
    /// subsampling for streaming quantiles).
    ///
    /// The result's mode follows `self`: merging into an exact
    /// collection requires `other` to be exact too (a reservoir cannot
    /// be un-subsampled), while a streaming collection absorbs both
    /// kinds.
    ///
    /// # Panics
    ///
    /// Panics if `self` is exact but `other` is streaming, or if both
    /// are streaming with different registered thresholds.
    pub fn merge(&mut self, other: &DelayStats) {
        if other.count == 0 {
            return;
        }
        // Moment merge (Chan et al.): exact in every mode.
        let (na, nb) = (self.count as f64, other.count as f64);
        let delta = other.mean_raw() - self.mean_raw();
        self.m2 +=
            other.m2 + if self.count == 0 { 0.0 } else { delta * delta * na * nb / (na + nb) };
        self.count += other.count;
        self.sum += other.sum;
        if other.max > self.max {
            self.max = other.max;
        }
        match (&mut self.repr, &other.repr) {
            (Repr::Exact { samples, sorted }, Repr::Exact { samples: os, .. }) => {
                samples.extend_from_slice(os);
                *sorted = false;
            }
            (Repr::Exact { .. }, Repr::Reservoir { .. }) => {
                panic!("DelayStats::merge: cannot merge a streaming collection into an exact one");
            }
            (
                Repr::Reservoir { cap, samples, sorted, rng, thresholds },
                Repr::Exact { samples: os, .. },
            ) => {
                // Exact samples continue the stream one by one.
                for (t, &x) in os.iter().enumerate() {
                    for (d, over) in thresholds.iter_mut() {
                        if x > *d {
                            *over += 1;
                        }
                    }
                    let seen = self.count - os.len() as u64 + t as u64 + 1;
                    if samples.len() < *cap {
                        samples.push(x);
                    } else {
                        let j = uniform_below(rng, seen);
                        if (j as usize) < *cap {
                            samples[j as usize] = x;
                        }
                    }
                }
                *sorted = false;
            }
            (
                Repr::Reservoir { cap, samples, sorted, rng, thresholds },
                Repr::Reservoir { samples: os, thresholds: ot, .. },
            ) => {
                assert_eq!(
                    thresholds.iter().map(|&(d, _)| d).collect::<Vec<_>>(),
                    ot.iter().map(|&(d, _)| d).collect::<Vec<_>>(),
                    "DelayStats::merge: streaming collections track different thresholds"
                );
                for ((_, over), &(_, o_over)) in thresholds.iter_mut().zip(ot) {
                    *over += o_over;
                }
                // Weighted reservoir union: each retained sample stands
                // for population/retained items of its source.
                let nb = other.count;
                let na = self.count - nb;
                let merged = merge_reservoirs(samples, na, os, nb, *cap, rng);
                *samples = merged;
                *sorted = false;
            }
        }
    }

    fn sorted_samples(&mut self) -> &[f64] {
        let (samples, sorted) = match &mut self.repr {
            Repr::Exact { samples, sorted } => (samples, sorted),
            Repr::Reservoir { samples, sorted, .. } => (samples, sorted),
        };
        if !*sorted {
            samples.sort_by(|a, b| a.partial_cmp(b).expect("delays are not NaN"));
            *sorted = true;
        }
        samples
    }
}

/// Uniform draw in `[0, n)` from a SplitMix64 state via Lemire
/// multiply-shift with rejection (exactly uniform, deterministic).
fn uniform_below(state: &mut u64, n: u64) -> u64 {
    debug_assert!(n > 0);
    loop {
        let x = splitmix64(state);
        let m = (x as u128) * (n as u128);
        let lo = m as u64;
        if lo >= n || lo >= (u64::MAX - n + 1) % n {
            return (m >> 64) as u64;
        }
    }
}

/// Draws a `cap`-sized uniform subsample of the union of two uniform
/// subsamples: `a` retaining from a population of `na` items, `b` from
/// `nb`. At each step a source is chosen with probability proportional
/// to the population weight its remaining retained samples represent,
/// and a uniform remaining sample is taken from it — the standard
/// distributed-reservoir merge. Outcome is fully determined by `rng`.
fn merge_reservoirs(a: &[f64], na: u64, b: &[f64], nb: u64, cap: usize, rng: &mut u64) -> Vec<f64> {
    let mut a = a.to_vec();
    let mut b = b.to_vec();
    let wa_per = if a.is_empty() { 0.0 } else { na as f64 / a.len() as f64 };
    let wb_per = if b.is_empty() { 0.0 } else { nb as f64 / b.len() as f64 };
    let mut out = Vec::with_capacity(cap);
    let (mut ia, mut ib) = (0usize, 0usize);
    while out.len() < cap && (ia < a.len() || ib < b.len()) {
        let wa = (a.len() - ia) as f64 * wa_per;
        let wb = (b.len() - ib) as f64 * wb_per;
        let take_a = if ib >= b.len() {
            true
        } else if ia >= a.len() {
            false
        } else {
            // Deterministic uniform in [0, 1) from the shared state.
            let u = (splitmix64(rng) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            u * (wa + wb) < wa
        };
        let (src, i) = if take_a { (&mut a, &mut ia) } else { (&mut b, &mut ib) };
        let j = *i + uniform_below(rng, (src.len() - *i) as u64) as usize;
        src.swap(*i, j);
        out.push(src[*i]);
        *i += 1;
    }
    out
}

/// Approximate standard-normal quantile (Acklam's rational
/// approximation; relative error below 1e-9 over (0, 1)).
fn normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0);
    // Coefficients from Peter Acklam's algorithm.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    let p_low = 0.02425;
    if p < p_low {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - p_low {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_nearest_rank() {
        let mut s = DelayStats::new();
        for d in [5.0, 1.0, 3.0, 2.0, 4.0] {
            s.record(d);
        }
        assert_eq!(s.quantile(0.0), Some(1.0));
        assert_eq!(s.quantile(0.2), Some(1.0));
        assert_eq!(s.quantile(0.5), Some(3.0));
        assert_eq!(s.quantile(1.0), Some(5.0));
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn empty_stats() {
        let mut s = DelayStats::new();
        assert!(s.is_empty());
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.mean(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.variance(), None);
        assert_eq!(s.violation_fraction(1.0), 0.0);
    }

    #[test]
    fn violation_fraction_counts_strictly_above() {
        let mut s = DelayStats::new();
        for d in [1.0, 2.0, 2.0, 3.0] {
            s.record(d);
        }
        assert!((s.violation_fraction(2.0) - 0.25).abs() < 1e-12);
        assert!((s.violation_fraction(0.5) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn upper_conf_exceeds_point_estimate() {
        let mut s = DelayStats::new();
        for i in 0..1000 {
            s.record(if i % 100 == 0 { 10.0 } else { 1.0 });
        }
        let frac = s.violation_fraction(5.0);
        let upper = s.violation_upper_conf(5.0, 0.99);
        assert!(upper > frac);
        assert!(upper < 0.05);
    }

    #[test]
    fn upper_conf_positive_with_zero_violations() {
        let mut s = DelayStats::new();
        for _ in 0..1000 {
            s.record(1.0);
        }
        assert!(s.violation_upper_conf(5.0, 0.99) > 0.0);
    }

    #[test]
    fn normal_quantile_sanity() {
        assert!((normal_quantile(0.5)).abs() < 1e-9);
        assert!((normal_quantile(0.975) - 1.959964).abs() < 1e-4);
        assert!((normal_quantile(0.025) + 1.959964).abs() < 1e-4);
    }

    #[test]
    fn merge_combines_samples() {
        let mut a = DelayStats::new();
        a.record(1.0);
        let mut b = DelayStats::new();
        b.record(3.0);
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.quantile(1.0), Some(3.0));
        assert_eq!(a.mean(), Some(2.0));
        assert!((a.variance().unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn mean_variance_match_two_pass() {
        let data: Vec<f64> = (0..500).map(|i| ((i * 37) % 113) as f64 / 7.0).collect();
        let mut s = DelayStats::new();
        for &d in &data {
            s.record(d);
        }
        let mean = data.iter().sum::<f64>() / data.len() as f64;
        let var =
            data.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / (data.len() - 1) as f64;
        assert!((s.mean().unwrap() - mean).abs() < 1e-9);
        assert!((s.variance().unwrap() - var).abs() < 1e-9);
    }

    #[test]
    fn streaming_moments_are_exact() {
        let mut exact = DelayStats::new();
        let mut stream = DelayStats::streaming(16);
        for i in 0..10_000u64 {
            let d = ((i * 2_654_435_761) % 1000) as f64 / 10.0;
            exact.record(d);
            stream.record(d);
        }
        assert_eq!(stream.len(), exact.len());
        assert!((stream.mean().unwrap() - exact.mean().unwrap()).abs() < 1e-9);
        assert!((stream.variance().unwrap() - exact.variance().unwrap()).abs() < 1e-6);
        assert_eq!(stream.max(), exact.max());
        assert_eq!(stream.samples().len(), 16);
    }

    #[test]
    fn streaming_reservoir_is_roughly_uniform() {
        // Record 0..10_000; a 1000-slot reservoir's mean should sit
        // near the population mean.
        let mut s = DelayStats::streaming(1000);
        for i in 0..10_000 {
            s.record(i as f64);
        }
        let rmean = s.samples().iter().sum::<f64>() / s.samples().len() as f64;
        assert!((rmean - 5000.0).abs() < 500.0, "reservoir mean {rmean}");
        let q50 = s.quantile(0.5).unwrap();
        assert!((q50 - 5000.0).abs() < 700.0, "reservoir median {q50}");
    }

    #[test]
    fn streaming_thresholds_are_exact() {
        let mut s = DelayStats::streaming_with_thresholds(8, &[50.0]);
        for i in 0..1000 {
            s.record(i as f64 % 100.0);
        }
        // Values 51..=99 occur 10 times each: 490 strictly above 50.
        assert!((s.violation_fraction(50.0) - 0.49).abs() < 1e-12);
    }

    #[test]
    fn streaming_merge_matches_single_pass_exactly_on_moments() {
        let data: Vec<f64> = (0..5000).map(|i| ((i * 97) % 211) as f64).collect();
        let mut single = DelayStats::streaming_with_thresholds(64, &[100.0]);
        for &d in &data {
            single.record(d);
        }
        let mut left = DelayStats::streaming_with_thresholds(64, &[100.0]);
        let mut right = DelayStats::streaming_with_thresholds(64, &[100.0]);
        for &d in &data[..1234] {
            left.record(d);
        }
        for &d in &data[1234..] {
            right.record(d);
        }
        left.merge(&right);
        assert_eq!(left.len(), single.len());
        assert!((left.mean().unwrap() - single.mean().unwrap()).abs() < 1e-9);
        assert!((left.variance().unwrap() - single.variance().unwrap()).abs() < 1e-6);
        assert_eq!(left.max(), single.max());
        assert_eq!(left.violation_fraction(100.0), single.violation_fraction(100.0));
        assert_eq!(left.samples().len(), 64);
    }

    #[test]
    fn streaming_absorbs_exact() {
        let mut stream = DelayStats::streaming_with_thresholds(32, &[5.0]);
        let mut exact = DelayStats::new();
        for i in 0..100 {
            exact.record(i as f64 / 10.0);
        }
        stream.merge(&exact);
        assert_eq!(stream.len(), 100);
        assert!((stream.violation_fraction(5.0) - 0.49).abs() < 1e-12);
        assert_eq!(stream.samples().len(), 32);
    }

    #[test]
    #[should_panic(expected = "cannot merge a streaming collection into an exact one")]
    fn exact_rejects_streaming_merge() {
        let mut exact = DelayStats::new();
        exact.record(1.0);
        let mut stream = DelayStats::streaming(4);
        stream.record(2.0);
        exact.merge(&stream);
    }

    #[test]
    fn merge_with_empty_is_identity_both_ways() {
        let mut a = DelayStats::streaming(8);
        for i in 0..100 {
            a.record(i as f64);
        }
        let before_mean = a.mean();
        let before_samples = a.samples().to_vec();
        a.merge(&DelayStats::streaming(8));
        assert_eq!(a.mean(), before_mean);
        assert_eq!(a.samples(), &before_samples[..]);

        let mut empty = DelayStats::streaming(8);
        empty.merge(&a);
        assert_eq!(empty.len(), a.len());
        assert_eq!(empty.mean(), a.mean());
    }

    #[test]
    fn merge_determinism_same_inputs_same_bits() {
        let run = || {
            let mut a = DelayStats::streaming_with_thresholds(32, &[10.0]);
            let mut b = DelayStats::streaming_with_thresholds(32, &[10.0]);
            for i in 0..777 {
                a.record((i % 91) as f64);
                b.record((i % 53) as f64);
            }
            a.merge(&b);
            (a.samples().to_vec(), a.mean().unwrap().to_bits(), a.variance().unwrap().to_bits())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn fresh_copies_configuration() {
        let s = DelayStats::streaming_with_thresholds(16, &[1.0, 2.0]);
        let f = s.fresh();
        assert!(f.is_streaming());
        assert!(f.is_empty());
        assert_eq!(f.thresholds(), vec![(1.0, 0), (2.0, 0)]);
        assert!(!DelayStats::new().fresh().is_streaming());
    }
}
