//! Source-generic tandem paths: any [`TrafficSource`] workloads —
//! including *different* source types for through and cross traffic —
//! with the outer optimization over the moment parameter `s`.

use crate::delta::PathScheduler;
use crate::e2e::{additive, E2eDelayBound, TandemPath};
use nc_telemetry as tel;
use nc_traffic::TrafficSource;

static S_EVALS: tel::Counter = tel::Counter::new("core_s_evals_total");

/// A homogeneous tandem whose through and cross aggregates come from
/// (possibly different) [`TrafficSource`] models.
///
/// Both aggregates are characterized at a *common* moment parameter `s`
/// (each is EBB at every `s`, so any shared `s` is valid and the
/// optimizer picks the best one).
///
/// # Example
///
/// A CBR probe against Markov-modulated cross traffic:
///
/// ```
/// use nc_core::{PathScheduler, SourceTandem};
/// use nc_traffic::{CbrSource, Mmoo};
///
/// let probe = CbrSource::new(5.0);
/// let cross = Mmoo::paper_source();
/// let tandem = SourceTandem {
///     through_source: &probe,
///     n_through: 1,
///     cross_source: &cross,
///     n_cross: 200,
///     capacity: 100.0,
///     hops: 4,
///     scheduler: PathScheduler::Fifo,
/// };
/// let bound = tandem.delay_bound(1e-9).unwrap();
/// assert!(bound.bound.delay > 0.0);
/// ```
#[derive(Clone, Copy)]
pub struct SourceTandem<'a> {
    /// The through-traffic per-flow model.
    pub through_source: &'a dyn TrafficSource,
    /// Number of through flows.
    pub n_through: usize,
    /// The cross-traffic per-flow model (per node).
    pub cross_source: &'a dyn TrafficSource,
    /// Number of cross flows per node.
    pub n_cross: usize,
    /// Link capacity `C`.
    pub capacity: f64,
    /// Path length `H`.
    pub hops: usize,
    /// Scheduler at every node.
    pub scheduler: PathScheduler,
}

impl std::fmt::Debug for SourceTandem<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SourceTandem")
            .field("n_through", &self.n_through)
            .field("n_cross", &self.n_cross)
            .field("capacity", &self.capacity)
            .field("hops", &self.hops)
            .field("scheduler", &self.scheduler)
            .finish_non_exhaustive()
    }
}

/// An end-to-end bound annotated with the moment parameter that
/// achieved it (source-generic counterpart of
/// [`crate::MmooDelayBound`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SourceDelayBound {
    /// The optimized bound.
    pub bound: E2eDelayBound,
    /// The moment parameter `s` at which it was found.
    pub s: f64,
}

impl<'a> SourceTandem<'a> {
    /// The tandem path at a fixed moment parameter `s`, or `None` if
    /// the EBB rates at this `s` exceed capacity. Zero flow counts are
    /// modelled as an empty (zero-rate) EBB aggregate.
    pub fn path_at(&self, s: f64) -> Option<TandemPath> {
        let through = self.aggregate(self.through_source, s, self.n_through);
        let cross = self.aggregate(self.cross_source, s, self.n_cross);
        let path = TandemPath::new(self.capacity, self.hops, through, cross, self.scheduler);
        path.is_stable().then_some(path)
    }

    fn aggregate(&self, src: &dyn TrafficSource, s: f64, n: usize) -> nc_traffic::Ebb {
        if n == 0 {
            nc_traffic::Ebb::new(1.0, 0.0, s)
        } else {
            src.ebb(s, n)
        }
    }

    /// Long-run utilization
    /// `(n_through·mean_t + n_cross·mean_c)/C`.
    pub fn utilization(&self) -> f64 {
        (self.n_through as f64 * self.through_source.mean_rate()
            + self.n_cross as f64 * self.cross_source.mean_rate())
            / self.capacity
    }

    /// The largest useful moment parameter: beyond it the EBB rates
    /// exceed capacity (or a source overflows numerically).
    fn s_upper(&self) -> f64 {
        let cap = self.through_source.s_max().min(self.cross_source.s_max()).min(100.0);
        let total = |s: f64| {
            self.n_through as f64 * self.through_source.effective_bandwidth(s)
                + self.n_cross as f64 * self.cross_source.effective_bandwidth(s)
        };
        let mut lo = 1e-4_f64.min(cap / 2.0);
        let mut hi = lo;
        while total(hi) < self.capacity && hi < cap {
            lo = hi;
            hi = (hi * 2.0).min(cap);
            if hi >= cap {
                return cap;
            }
        }
        for _ in 0..60 {
            let mid = (lo * hi).sqrt();
            if total(mid) < self.capacity {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    pub(crate) fn s_grid(&self) -> Vec<f64> {
        let s_hi = self.s_upper();
        let s_lo = (s_hi * 1e-4).max(1e-5);
        let n = 28usize;
        (0..=n)
            .map(|i| s_lo * (s_hi / s_lo).powf(i as f64 / n as f64))
            .filter(|s| *s > 0.0)
            .collect()
    }

    /// Shared outer s-optimization: evaluates `f` on a log grid of `s`,
    /// keeps the best (smallest delay), then refines locally.
    pub(crate) fn optimize_over_s<F>(&self, f: F) -> Option<(E2eDelayBound, f64, f64)>
    where
        F: Fn(&TandemPath) -> Option<(E2eDelayBound, f64)>,
    {
        let mut best: Option<(E2eDelayBound, f64, f64)> = None;
        let consider = |s: f64, best: &mut Option<(E2eDelayBound, f64, f64)>| {
            S_EVALS.add(1);
            if let Some(path) = self.path_at(s) {
                if let Some((b, aux)) = f(&path) {
                    if best.as_ref().is_none_or(|(cur, _, _)| b.delay < cur.delay) {
                        *best = Some((b, s, aux));
                    }
                }
            }
        };
        let grid = self.s_grid();
        for &s in &grid {
            consider(s, &mut best);
        }
        if let Some((_, s_best, _)) = best {
            let factor = (grid.last().copied().unwrap_or(1.0)
                / grid.first().copied().unwrap_or(1e-5))
            .powf(1.0 / grid.len().max(1) as f64);
            let mut lo = s_best / factor;
            let mut hi = s_best * factor;
            for _ in 0..2 {
                let m = 10usize;
                for i in 0..=m {
                    consider(lo * (hi / lo).powf(i as f64 / m as f64), &mut best);
                }
                let s = best.as_ref().expect("refinement keeps a candidate").1;
                let f = (hi / lo).powf(1.0 / m as f64);
                lo = s / f;
                hi = s * f;
            }
        }
        best
    }

    /// The end-to-end delay bound, optimized over both `s` and `γ`.
    ///
    /// Returns `None` if the path is unstable at every `s`.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is not in `(0, 1)`.
    pub fn delay_bound(&self, epsilon: f64) -> Option<SourceDelayBound> {
        let _span = tel::span("core.source_tandem.delay_bound");
        self.optimize_over_s(|path| path.delay_bound(epsilon).map(|b| (b, 0.0)))
            .map(|(bound, s, _)| SourceDelayBound { bound, s })
    }

    /// EDF fixed-point bound (see
    /// [`TandemPath::edf_delay_bound_fixed_point`]), optimized over `s`.
    /// Returns the bound, its `s`, and the converged per-node through
    /// deadline `d*_0`.
    pub fn edf_delay_bound_fixed_point(
        &self,
        epsilon: f64,
        cross_over_through: f64,
    ) -> Option<(SourceDelayBound, f64)> {
        let _span = tel::span("core.source_tandem.edf_fixed_point");
        self.optimize_over_s(|path| path.edf_delay_bound_fixed_point(epsilon, cross_over_through))
            .map(|(bound, s, d0)| (SourceDelayBound { bound, s }, d0))
    }

    /// The additive node-by-node BMUX baseline of Example 3, optimized
    /// over `s` (and internally over `γ`).
    pub fn additive_bmux_delay(&self, epsilon: f64) -> Option<f64> {
        let _span = tel::span("core.source_tandem.additive_bmux");
        let mut best: Option<f64> = None;
        for s in self.s_grid() {
            let through = self.aggregate(self.through_source, s, self.n_through);
            let cross = self.aggregate(self.cross_source, s, self.n_cross);
            if let Some(b) =
                additive::additive_bmux_delay(self.capacity, self.hops, &through, &cross, epsilon)
            {
                if best.is_none_or(|cur| b.delay < cur) {
                    best = Some(b.delay);
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MmooTandem;
    use nc_traffic::{CbrSource, Mmoo, Mmp, PoissonBatch};

    #[test]
    fn matches_mmoo_tandem_for_mmoo_sources() {
        let src = Mmoo::paper_source();
        let st = SourceTandem {
            through_source: &src,
            n_through: 100,
            cross_source: &src,
            n_cross: 150,
            capacity: 100.0,
            hops: 3,
            scheduler: PathScheduler::Fifo,
        };
        let mt = MmooTandem {
            source: src,
            n_through: 100,
            n_cross: 150,
            capacity: 100.0,
            hops: 3,
            scheduler: PathScheduler::Fifo,
        };
        let a = st.delay_bound(1e-9).unwrap().bound.delay;
        let b = mt.delay_bound(1e-9).unwrap().bound.delay;
        assert!((a - b).abs() / b < 1e-9, "{a} vs {b}");
    }

    #[test]
    fn mixed_sources_cbr_probe() {
        let probe = CbrSource::new(5.0);
        let cross = Mmoo::paper_source();
        let st = SourceTandem {
            through_source: &probe,
            n_through: 1,
            cross_source: &cross,
            n_cross: 200,
            capacity: 100.0,
            hops: 4,
            scheduler: PathScheduler::Fifo,
        };
        let b = st.delay_bound(1e-9).unwrap();
        assert!(b.bound.delay > 0.0 && b.bound.delay.is_finite());
    }

    #[test]
    fn multi_state_source_is_usable_end_to_end() {
        let video = Mmp::new(
            vec![vec![0.90, 0.10, 0.00], vec![0.05, 0.90, 0.05], vec![0.00, 0.20, 0.80]],
            vec![0.0, 0.3, 0.9],
        );
        let st = SourceTandem {
            through_source: &video,
            n_through: 50,
            cross_source: &video,
            n_cross: 50,
            capacity: 100.0,
            hops: 5,
            scheduler: PathScheduler::Fifo,
        };
        let fifo = st.delay_bound(1e-9).unwrap().bound.delay;
        let bmux = SourceTandem { scheduler: PathScheduler::Bmux, ..st }
            .delay_bound(1e-9)
            .unwrap()
            .bound
            .delay;
        assert!(fifo <= bmux * (1.0 + 1e-9));
    }

    #[test]
    fn poisson_cross_traffic_bounds_exist() {
        let probe = Mmoo::paper_source();
        let cross = PoissonBatch::new(0.02, 1.5); // mean 0.03/slot
        let st = SourceTandem {
            through_source: &probe,
            n_through: 50,
            cross_source: &cross,
            n_cross: 1000,
            capacity: 100.0,
            hops: 3,
            scheduler: PathScheduler::Fifo,
        };
        assert!(st.utilization() < 1.0);
        let b = st.delay_bound(1e-6).unwrap();
        assert!(b.bound.delay.is_finite());
    }

    #[test]
    fn unstable_mixed_tandem_is_none() {
        let probe = CbrSource::new(60.0);
        let cross = Mmoo::paper_source();
        let st = SourceTandem {
            through_source: &probe,
            n_through: 1,
            cross_source: &cross,
            n_cross: 400, // ≈ 60 mean: total ≈ 120 > 100
            capacity: 100.0,
            hops: 2,
            scheduler: PathScheduler::Fifo,
        };
        assert!(st.delay_bound(1e-6).is_none());
    }
}
