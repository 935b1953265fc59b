//! Property-based tests for `DelayStats`, the exact histogram of
//! whole-slot delays, against a sorted-vector reference: the count,
//! mean, max, nearest-rank quantiles and violation fractions equal the
//! reference's, and any split of a sample stream, merged back, equals
//! collecting it in one pass.

use linksched::sim::DelayStats;
use proptest::collection::vec;
use proptest::prelude::*;

/// Whole-slot samples: `raw` folded into `0..width`, so a narrow width
/// gives many ties.
fn slots(raw: &[u32], width: u32) -> Vec<f64> {
    raw.iter().map(|&x| (x % width) as f64).collect()
}

/// Collects `data` in one pass.
fn single_pass(data: &[f64]) -> DelayStats {
    let mut s = DelayStats::new();
    for &d in data {
        s.record(d);
    }
    s
}

/// Collects `data` split at `cuts` (interpreted modulo the length) and
/// merges the pieces in order.
fn split_merge(data: &[f64], cuts: &[usize]) -> DelayStats {
    let mut points: Vec<usize> = cuts.iter().map(|&c| c % (data.len() + 1)).collect();
    points.sort_unstable();
    let mut merged = DelayStats::new();
    let mut start = 0;
    for &p in points.iter().chain(std::iter::once(&data.len())) {
        merged.merge(&single_pass(&data[start..p]));
        start = p;
    }
    merged
}

/// The nearest-rank `q`-quantile of sorted samples: the `⌈q·n⌉`-th
/// smallest, at least the first.
fn reference_quantile(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    sorted[((q * n as f64).ceil() as usize).clamp(1, n) - 1]
}

/// The fraction of samples strictly above `d`.
fn reference_violation(data: &[f64], d: f64) -> f64 {
    data.iter().filter(|&&x| x > d).count() as f64 / data.len() as f64
}

proptest! {
    #[test]
    fn histogram_matches_the_sorted_reference(
        raw in vec(0u32..100_000, 1..300),
        width in 1u32..400,
        q in 0.0f64..=1.0,
        d_whole in 0u32..420,
        d_frac in -1.0f64..420.0,
    ) {
        let data = slots(&raw, width);
        let mut sorted = data.clone();
        sorted.sort_by(f64::total_cmp);
        let s = single_pass(&data);
        prop_assert_eq!(s.len(), data.len());
        prop_assert_eq!(s.max(), sorted.last().copied());
        // The running sum of whole numbers is exact, so the means agree
        // to the bit.
        let mean = data.iter().sum::<f64>() / data.len() as f64;
        prop_assert_eq!(s.mean().map(f64::to_bits), Some(mean.to_bits()));
        for q in [q, 0.0, 0.5, 0.9, 0.999, 1.0] {
            prop_assert_eq!(s.quantile(q), Some(reference_quantile(&sorted, q)), "q = {}", q);
        }
        for d in [d_whole as f64, d_frac] {
            prop_assert_eq!(s.violation_fraction(d), reference_violation(&data, d), "d = {}", d);
        }
    }

    #[test]
    fn exact_two_way_split_equals_single_pass(
        raw in vec(0u32..100_000, 1..200),
        width in 1u32..1000,
        cut in 0usize..200,
    ) {
        let data = slots(&raw, width);
        prop_assert_eq!(split_merge(&data, &[cut]), single_pass(&data));
    }

    #[test]
    fn exact_multi_way_split_equals_single_pass(
        raw in vec(0u32..100_000, 1..200),
        width in 1u32..1000,
        cuts in vec(0usize..200, 0..5),
    ) {
        let data = slots(&raw, width);
        prop_assert_eq!(split_merge(&data, &cuts), single_pass(&data));
    }

    #[test]
    fn merging_empty_is_identity(raw in vec(0u32..100_000, 1..100), width in 1u32..1000) {
        let s = single_pass(&slots(&raw, width));
        let mut merged = s.clone();
        merged.merge(&DelayStats::new());
        prop_assert_eq!(&merged, &s);
        let mut empty = DelayStats::new();
        empty.merge(&s);
        prop_assert_eq!(&empty, &s);
    }
}
