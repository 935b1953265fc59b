//! Mergeable metrics: counters, gauges, and log-bucketed histograms.
//!
//! The design requirement is the same one [`DelayStats`] in `nc-sim`
//! satisfies for delay samples: per-replication metric shards must
//! merge in a deterministic (replication-index) order into a result
//! that does not depend on which thread produced which shard. Counters
//! and histogram bucket counts are integers, so their merge is exact;
//! histogram `sum` is an f64 accumulated in merge order, which is
//! deterministic because the merge order is.
//!
//! [`DelayStats`]: ../../nc_sim/struct.DelayStats.html

use crate::ENABLED;
use std::collections::BTreeMap;

/// Smallest histogram bucket boundary exponent: values at or below
/// `2^HIST_MIN_EXP` land in the first bucket.
pub const HIST_MIN_EXP: i32 = -20;
/// Largest finite bucket boundary exponent: values above `2^HIST_MAX_EXP`
/// land in the overflow (`+Inf`) bucket.
pub const HIST_MAX_EXP: i32 = 43;
/// Total bucket count (finite boundaries plus the overflow bucket).
pub const HIST_BUCKETS: usize = (HIST_MAX_EXP - HIST_MIN_EXP + 2) as usize;

/// A fixed-layout log-bucketed histogram over non-negative `f64`
/// samples: power-of-two bucket boundaries from `2^-20` to `2^43`,
/// plus exact count/sum/min/max.
///
/// Bucket `i` holds samples `v` with
/// `2^(HIST_MIN_EXP+i-1) < v ≤ 2^(HIST_MIN_EXP+i)`; the first bucket
/// additionally absorbs everything below its boundary and the last
/// bucket (`le = +Inf`) everything above `2^43`. The fixed layout makes
/// merging two histograms a plain element-wise add — associative on
/// every integer field and commutative on all fields.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    buckets: [u64; HIST_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: [0; HIST_BUCKETS],
        }
    }

    /// The bucket index a sample falls into.
    pub fn bucket_index(v: f64) -> usize {
        if v.is_nan() || v <= f64::powi(2.0, HIST_MIN_EXP) {
            return 0; // ≤ smallest boundary, zero, negative, or NaN
        }
        let bits = v.to_bits();
        let exp = ((bits >> 52) & 0x7ff) as i32 - 1023;
        let exact_power_of_two = bits & ((1u64 << 52) - 1) == 0;
        let i = exp - HIST_MIN_EXP + if exact_power_of_two { 0 } else { 1 };
        i.clamp(0, (HIST_BUCKETS - 1) as i32) as usize
    }

    /// The inclusive upper boundary of bucket `i` (`+Inf` for the last).
    pub fn bucket_le(i: usize) -> f64 {
        if i >= HIST_BUCKETS - 1 {
            f64::INFINITY
        } else {
            f64::powi(2.0, HIST_MIN_EXP + i as i32)
        }
    }

    /// Records one sample. No-op without the `enabled` feature.
    #[inline]
    pub fn record(&mut self, v: f64) {
        if !ENABLED {
            return;
        }
        self.count += 1;
        self.sum += v;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
        self.buckets[Self::bucket_index(v)] += 1;
    }

    /// Merges another histogram into this one: exact on `count`,
    /// `min`, `max`, and every bucket; `sum` accumulates in call order.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.min < self.min {
            self.min = other.min;
        }
        if other.max > self.max {
            self.max = other.max;
        }
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest recorded sample, `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample, `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of recorded samples, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then_some(self.sum / self.count as f64)
    }

    /// The raw bucket counts, aligned with [`Histogram::bucket_le`].
    pub fn buckets(&self) -> &[u64; HIST_BUCKETS] {
        &self.buckets
    }

    /// Upper bound on the `q`-quantile: the boundary of the first
    /// bucket whose cumulative count reaches `q·count` (clamped to the
    /// recorded max for interior buckets). `None` when empty.
    pub fn quantile_upper_bound(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            cum += b;
            if cum >= rank {
                return Some(Self::bucket_le(i).min(self.max));
            }
        }
        Some(self.max)
    }
}

/// Sorted label pairs identifying one series of a metric.
pub type Labels = Vec<(String, String)>;

/// The identity of one time series: metric name plus sorted labels.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Metric name (Prometheus conventions: `snake_case`, counters end
    /// in `_total`).
    pub name: String,
    /// Sorted `(key, value)` label pairs; empty for unlabelled series.
    pub labels: Labels,
}

impl MetricKey {
    fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Labels =
            labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        labels.sort();
        MetricKey { name: name.to_string(), labels }
    }
}

/// One metric value.
///
/// The histogram variant is stored inline on purpose: registries are
/// dominated by histogram series, so boxing would cost a pointer chase
/// per record on the hot path to save nothing in practice.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotone event count; merges by addition.
    Counter(u64),
    /// Point-in-time value; merges by maximum (high-watermark
    /// semantics — shards that must not collide should use distinct
    /// labels).
    Gauge(f64),
    /// Distribution of samples; merges element-wise.
    Histogram(Histogram),
}

/// A mergeable collection of named metric series, ordered by key.
///
/// The `BTreeMap` layout gives deterministic iteration (and therefore
/// deterministic export output) independent of insertion order. All
/// recording methods are no-ops without the `enabled` feature, so an
/// uninstrumented build carries empty sets around at zero cost.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricSet {
    entries: BTreeMap<MetricKey, MetricValue>,
}

impl MetricSet {
    /// An empty set.
    pub const fn new() -> Self {
        MetricSet { entries: BTreeMap::new() }
    }

    /// Whether no series have been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of distinct series.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Iterates the series in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&MetricKey, &MetricValue)> {
        self.entries.iter()
    }

    /// Looks up a series.
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&MetricValue> {
        self.entries.get(&MetricKey::new(name, labels))
    }

    /// The value of a counter series, `0` if absent.
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        match self.get(name, labels) {
            Some(MetricValue::Counter(n)) => *n,
            _ => 0,
        }
    }

    /// Adds to a counter series, creating it at zero first.
    ///
    /// # Panics
    ///
    /// Panics if the series exists with a non-counter type.
    #[inline]
    pub fn counter_add(&mut self, name: &str, labels: &[(&str, &str)], n: u64) {
        if !ENABLED {
            return;
        }
        match self.entries.entry(MetricKey::new(name, labels)).or_insert(MetricValue::Counter(0)) {
            MetricValue::Counter(c) => *c += n,
            other => panic!("counter_add: series `{name}` already has type {other:?}"),
        }
    }

    /// Sets a gauge series to `v` (overwriting).
    ///
    /// # Panics
    ///
    /// Panics if the series exists with a non-gauge type.
    #[inline]
    pub fn gauge_set(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        if !ENABLED {
            return;
        }
        match self.entries.entry(MetricKey::new(name, labels)).or_insert(MetricValue::Gauge(v)) {
            MetricValue::Gauge(g) => *g = v,
            other => panic!("gauge_set: series `{name}` already has type {other:?}"),
        }
    }

    /// Records a sample into a histogram series, creating it first.
    ///
    /// # Panics
    ///
    /// Panics if the series exists with a non-histogram type.
    #[inline]
    pub fn observe(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        if !ENABLED {
            return;
        }
        match self
            .entries
            .entry(MetricKey::new(name, labels))
            .or_insert_with(|| MetricValue::Histogram(Histogram::new()))
        {
            MetricValue::Histogram(h) => h.record(v),
            other => panic!("observe: series `{name}` already has type {other:?}"),
        }
    }

    /// Inserts a pre-built histogram as a series (e.g. one accumulated
    /// shard-locally on a hot path), merging if the series exists.
    pub fn histogram_merge(&mut self, name: &str, labels: &[(&str, &str)], h: &Histogram) {
        if !ENABLED || h.count() == 0 {
            return;
        }
        match self
            .entries
            .entry(MetricKey::new(name, labels))
            .or_insert_with(|| MetricValue::Histogram(Histogram::new()))
        {
            MetricValue::Histogram(mine) => mine.merge(h),
            other => panic!("histogram_merge: series `{name}` already has type {other:?}"),
        }
    }

    /// Merges another set into this one: counters add, gauges take the
    /// maximum, histograms merge element-wise. Call in a deterministic
    /// shard order (e.g. replication index) for reproducible sums.
    ///
    /// # Panics
    ///
    /// Panics if a series exists in both sets with different types.
    pub fn merge(&mut self, other: &MetricSet) {
        for (key, value) in &other.entries {
            match self.entries.entry(key.clone()) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(value.clone());
                }
                std::collections::btree_map::Entry::Occupied(mut e) => match (e.get_mut(), value) {
                    (MetricValue::Counter(a), MetricValue::Counter(b)) => *a += b,
                    (MetricValue::Gauge(a), MetricValue::Gauge(b)) => *a = a.max(*b),
                    (MetricValue::Histogram(a), MetricValue::Histogram(b)) => a.merge(b),
                    (a, b) => {
                        panic!("merge: series `{}` type mismatch {a:?} vs {b:?}", key.name)
                    }
                },
            }
        }
    }
}

#[cfg(all(test, feature = "enabled"))]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(Histogram::bucket_le(0), f64::powi(2.0, HIST_MIN_EXP));
        assert_eq!(Histogram::bucket_le(HIST_BUCKETS - 2), f64::powi(2.0, HIST_MAX_EXP));
        assert_eq!(Histogram::bucket_le(HIST_BUCKETS - 1), f64::INFINITY);
    }

    #[test]
    fn bucket_index_respects_le_semantics() {
        // Exact powers of two sit in the bucket whose boundary they equal.
        for i in 0..HIST_BUCKETS - 1 {
            let le = Histogram::bucket_le(i);
            assert_eq!(Histogram::bucket_index(le), i, "le boundary of bucket {i}");
            assert_eq!(Histogram::bucket_index(le * 1.0001), i + 1, "just above bucket {i}");
        }
        assert_eq!(Histogram::bucket_index(0.0), 0);
        assert_eq!(Histogram::bucket_index(-3.0), 0);
        assert_eq!(Histogram::bucket_index(f64::INFINITY), HIST_BUCKETS - 1);
        assert_eq!(Histogram::bucket_index(1e300), HIST_BUCKETS - 1);
    }

    #[test]
    fn record_tracks_count_sum_min_max() {
        let mut h = Histogram::new();
        assert_eq!(h.min(), None);
        for v in [1.0, 4.0, 0.25] {
            h.record(v);
        }
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 5.25);
        assert_eq!(h.min(), Some(0.25));
        assert_eq!(h.max(), Some(4.0));
        assert_eq!(h.mean(), Some(1.75));
    }

    #[test]
    fn quantile_upper_bound_brackets_samples() {
        let mut h = Histogram::new();
        for i in 1..=100 {
            h.record(i as f64);
        }
        let q99 = h.quantile_upper_bound(0.99).unwrap();
        assert!((99.0..=128.0).contains(&q99), "{q99}");
        assert_eq!(h.quantile_upper_bound(1.0), Some(100.0));
    }

    #[test]
    fn metric_set_records_and_merges() {
        let mut a = MetricSet::new();
        a.counter_add("x_total", &[], 2);
        a.counter_add("x_total", &[("node", "0")], 1);
        a.gauge_set("g", &[], 1.5);
        a.observe("h", &[], 3.0);

        let mut b = MetricSet::new();
        b.counter_add("x_total", &[], 5);
        b.gauge_set("g", &[], 0.5);
        b.observe("h", &[], 9.0);

        a.merge(&b);
        assert_eq!(a.counter_value("x_total", &[]), 7);
        assert_eq!(a.counter_value("x_total", &[("node", "0")]), 1);
        assert_eq!(a.get("g", &[]), Some(&MetricValue::Gauge(1.5)));
        match a.get("h", &[]).unwrap() {
            MetricValue::Histogram(h) => {
                assert_eq!(h.count(), 2);
                assert_eq!(h.max(), Some(9.0));
            }
            other => panic!("wrong type {other:?}"),
        }
    }

    #[test]
    fn labels_are_order_insensitive() {
        let mut s = MetricSet::new();
        s.counter_add("c_total", &[("a", "1"), ("b", "2")], 1);
        s.counter_add("c_total", &[("b", "2"), ("a", "1")], 1);
        assert_eq!(s.len(), 1);
        assert_eq!(s.counter_value("c_total", &[("a", "1"), ("b", "2")]), 2);
    }

    #[test]
    #[should_panic(expected = "type")]
    fn type_mismatch_panics() {
        let mut s = MetricSet::new();
        s.counter_add("x", &[], 1);
        s.gauge_set("x", &[], 1.0);
    }
}

#[cfg(all(test, not(feature = "enabled")))]
mod disabled_tests {
    use super::*;

    #[test]
    fn recording_is_a_no_op_when_disabled() {
        let mut h = Histogram::new();
        h.record(1.0);
        assert_eq!(h.count(), 0);
        let mut s = MetricSet::new();
        s.counter_add("x_total", &[], 3);
        s.gauge_set("g", &[], 1.0);
        s.observe("h", &[], 2.0);
        assert!(s.is_empty());
    }
}
