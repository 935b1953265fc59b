//! Delay statistics for bound validation: an exact, mergeable histogram
//! of whole-slot delays.

/// A collection of (virtual) delay samples, one per through-traffic
/// emission slot, kept as an exact histogram: `counts[d]` is the number
/// of samples of `d` slots.
///
/// Every delay the simulator records is a whole number of slots, so the
/// histogram loses nothing: the count, mean, maximum, nearest-rank
/// quantiles and violation fractions `P(W > d)` are all exact, and
/// memory is one counter per slot up to the largest delay.
///
/// [`DelayStats::merge`] adds counts, so statistics collected by
/// independent simulation replications — e.g. on separate threads by
/// [`crate::MonteCarlo`] — combine into exactly the collection one pass
/// over every sample would give, in any merge order.
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
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DelayStats {
    count: u64,
    /// `counts[d]`: samples of `d` slots. Empty, or ends in a nonzero
    /// count, so equal collections compare equal.
    counts: Vec<u64>,
}

impl DelayStats {
    /// An empty collection.
    pub fn new() -> Self {
        DelayStats::default()
    }

    /// Records one delay sample, in slots. A fractional delay is
    /// counted in slot `ceil(delay)`, which errs on the side of an
    /// upper-bound check.
    ///
    /// # Panics
    ///
    /// Panics if the sample is negative, NaN or infinite.
    pub fn record(&mut self, delay: f64) {
        assert!(delay >= 0.0 && delay.is_finite(), "record: delays are finite and non-negative");
        let slot = delay.ceil() as usize;
        if slot >= self.counts.len() {
            self.counts.resize(slot + 1, 0);
        }
        self.counts[slot] += 1;
        self.count += 1;
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean delay, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        let sum: u128 = self.counts.iter().enumerate().map(|(d, &n)| d as u128 * n as u128).sum();
        (self.count > 0).then(|| sum as f64 / self.count as f64)
    }

    /// Maximum recorded delay, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then(|| (self.counts.len() - 1) as f64)
    }

    /// Empirical `q`-quantile (nearest rank: the `⌈q·n⌉`-th smallest
    /// sample, at least the first). `None` if empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not in `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile: q must be in [0,1]");
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        self.counts
            .iter()
            .position(|&n| {
                seen += n;
                seen >= rank
            })
            .map(|d| d as f64)
    }

    /// Fraction of samples strictly above `d` — the empirical
    /// `P(W > d)`. `0` if empty.
    pub fn violation_fraction(&self, d: f64) -> f64 {
        if self.count == 0 || d.is_nan() {
            return 0.0;
        }
        // Whole-slot samples above `d` are those of at least ⌊d⌋ + 1.
        let first = if d < 0.0 { 0 } else { (d.floor() as usize).saturating_add(1) };
        let over: u64 = self.counts.get(first..).unwrap_or_default().iter().sum();
        over as f64 / self.count as f64
    }

    /// Merges another collection into this one, as if every sample
    /// recorded into `other` had been recorded here.
    pub fn merge(&mut self, other: &DelayStats) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (n, &m) in self.counts.iter_mut().zip(&other.counts) {
            *n += m;
        }
        self.count += other.count;
    }

    // Names the perfbench probe still imports; ROADMAP item 4's
    // benchmark PR removes them together with its uses.

    /// An empty collection; the reservoir and thresholds are ignored.
    #[doc(hidden)]
    #[deprecated(note = "DelayStats is always exact; use DelayStats::new")]
    pub fn streaming_with_thresholds(_reservoir: usize, _thresholds: &[f64]) -> Self {
        DelayStats::new()
    }

    /// An empty collection.
    #[doc(hidden)]
    #[deprecated(note = "DelayStats has one configuration; use DelayStats::new")]
    pub fn fresh(&self) -> Self {
        DelayStats::new()
    }
}

/// The old reservoir capacity, kept for the perfbench probe; ROADMAP
/// item 4's benchmark PR removes it. Nothing reads it.
#[doc(hidden)]
#[deprecated(note = "DelayStats is always exact and has no reservoir")]
pub const DEFAULT_RESERVOIR: usize = 65_536;

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
        let s = DelayStats::new();
        assert!(s.is_empty());
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.mean(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.violation_fraction(1.0), 0.0);
    }

    #[test]
    fn violation_fraction_counts_strictly_above() {
        let mut s = DelayStats::new();
        for d in [1.0, 2.0, 2.0, 3.0] {
            s.record(d);
        }
        assert_eq!(s.violation_fraction(2.0), 0.25);
        assert_eq!(s.violation_fraction(1.5), 0.75);
        assert_eq!(s.violation_fraction(0.5), 1.0);
        assert_eq!(s.violation_fraction(-1.0), 1.0);
        assert_eq!(s.violation_fraction(3.0), 0.0);
        assert_eq!(s.violation_fraction(f64::INFINITY), 0.0);
    }

    #[test]
    fn fractional_delays_count_in_their_ceiling_slot() {
        let mut s = DelayStats::new();
        for d in [0.25, 2.0, 2.5] {
            s.record(d);
        }
        let mut whole = DelayStats::new();
        for d in [1.0, 2.0, 3.0] {
            whole.record(d);
        }
        assert_eq!(s, whole);
        assert_eq!(s.max(), Some(3.0));
        // 2.5 is counted as 3 > 2.7: conservative for a bound check.
        assert_eq!(s.violation_fraction(2.7), 1.0 / 3.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_delays_are_rejected() {
        DelayStats::new().record(-0.5);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn infinite_delays_are_rejected() {
        DelayStats::new().record(f64::INFINITY);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = DelayStats::new();
        a.record(1.0);
        let mut b = DelayStats::new();
        b.record(3.0);
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.quantile(1.0), Some(3.0));
        assert_eq!(a.mean(), Some(2.0));
        let mut c = b.clone();
        c.merge(&DelayStats::new());
        assert_eq!(c, b);
    }
}
