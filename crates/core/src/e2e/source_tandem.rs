//! Source-generic tandem paths: any [`TrafficSource`] workloads —
//! including *different* source types for through and cross traffic —
//! with the outer optimization over the moment parameter `s`.

use crate::delta::PathScheduler;
use crate::e2e::{additive, E2eDelayBound, TandemPath};
use nc_telemetry as tel;
use nc_traffic::TrafficSource;

static S_EVALS: tel::Counter = tel::Counter::new("core_s_evals_total");
static S_PRUNED: tel::Counter = tel::Counter::new("core_s_pruned_total");

/// Relative margin by which a moment parameter's delay floor must
/// exceed the best bound before the `s` search skips it; it absorbs
/// the rounding of the floor and of the bounds it is compared with.
const PRUNE_MARGIN: f64 = 1e-9;

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

/// The best `(bound, s, aux)` of an `s` search, if any `s` gave a bound.
type Best = Option<(E2eDelayBound, f64, f64)>;

/// The local refinement of an `s` search: two rounds of 11 log-spaced
/// points, the first spanning one grid factor either side of the best
/// `s`, the second one step of the first round either side of the best
/// `s` after it. Does nothing if no grid point gave a bound.
fn refine(grid: &[f64], best: &mut Best, mut consider: impl FnMut(f64, &mut Best)) {
    let Some(s_best) = best.as_ref().map(|b| b.1) else {
        return;
    };
    let factor = (grid.last().copied().unwrap_or(1.0) / grid.first().copied().unwrap_or(1e-5))
        .powf(1.0 / grid.len().max(1) as f64);
    let mut lo = s_best / factor;
    let mut hi = s_best * factor;
    for _ in 0..2 {
        let m = 10usize;
        for i in 0..=m {
            consider(lo * (hi / lo).powf(i as f64 / m as f64), best);
        }
        let s = best.as_ref().expect("refinement keeps a candidate").1;
        let f = (hi / lo).powf(1.0 / m as f64);
        lo = s / f;
        hi = s * f;
    }
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

    /// Shared outer s-optimization, an exact branch-and-bound: the same
    /// best `(bound, s, aux)` as scanning `f` over a log grid of `s`
    /// (first minimum wins) and then twice over 11 points around the
    /// best `s` (strict improvement wins), but without evaluating `f`
    /// where it cannot win.
    ///
    /// Every bound `f` returns at a path is a [`TandemPath`] delay bound
    /// at some `γ` and `Δ`, so it is at least the path's
    /// [`TandemPath::delay_floor`] `σ(γ_max)/C`. A stable `s` whose floor
    /// exceeds the best delay so far (by a relative `1e-9`, for
    /// rounding) is skipped and counted in `core_s_pruned_total`. The
    /// grid is visited in ascending floor order, keeping the smallest
    /// `(delay, grid index)`, so ties go to the smallest `s` as in the
    /// ascending scan; the refinement keeps its order.
    pub(crate) fn optimize_over_s<F>(&self, epsilon: f64, f: F) -> Best
    where
        F: Fn(&TandemPath) -> Option<(E2eDelayBound, f64)>,
    {
        let beaten = |floor: f64, best: &Best| {
            best.as_ref().is_some_and(|(cur, _, _)| floor * (1.0 - PRUNE_MARGIN) > cur.delay)
        };
        let grid = self.s_grid();
        let mut stable: Vec<(f64, usize, TandemPath)> = grid
            .iter()
            .enumerate()
            .filter_map(|(i, &s)| self.path_at(s).map(|p| (p.delay_floor(epsilon), i, p)))
            .collect();
        // Unstable points count as evaluated, as in the scan.
        S_EVALS.add((grid.len() - stable.len()) as u64);
        stable.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut best: Best = None;
        let mut best_index = usize::MAX;
        for (floor, i, path) in stable {
            if beaten(floor, &best) {
                S_PRUNED.add(1);
                continue;
            }
            S_EVALS.add(1);
            if let Some((b, aux)) = f(&path) {
                let wins = best.as_ref().is_none_or(|(cur, _, _)| {
                    b.delay < cur.delay || (b.delay == cur.delay && i < best_index)
                });
                if wins {
                    best = Some((b, grid[i], aux));
                    best_index = i;
                }
            }
        }
        let consider = |s: f64, best: &mut Best| {
            let Some(path) = self.path_at(s) else {
                S_EVALS.add(1);
                return;
            };
            if beaten(path.delay_floor(epsilon), best) {
                S_PRUNED.add(1);
                return;
            }
            S_EVALS.add(1);
            if let Some((b, aux)) = f(&path) {
                if best.as_ref().is_none_or(|(cur, _, _)| b.delay < cur.delay) {
                    *best = Some((b, s, aux));
                }
            }
        };
        refine(&grid, &mut best, consider);
        best
    }

    /// The scan [`SourceTandem::optimize_over_s`] prunes: `f` at every
    /// grid point, then at every refinement point.
    #[cfg(test)]
    fn optimize_over_s_exhaustive<F>(&self, f: F) -> Best
    where
        F: Fn(&TandemPath) -> Option<(E2eDelayBound, f64)>,
    {
        let consider = |s: f64, best: &mut Best| {
            if let Some((b, aux)) = self.path_at(s).and_then(|path| f(&path)) {
                if best.as_ref().is_none_or(|(cur, _, _)| b.delay < cur.delay) {
                    *best = Some((b, s, aux));
                }
            }
        };
        let grid = self.s_grid();
        let mut best = None;
        for &s in &grid {
            consider(s, &mut best);
        }
        refine(&grid, &mut best, consider);
        best
    }

    /// The end-to-end delay bound, optimized over both `s` and `γ`:
    /// the branch-and-bound `s` search of a log grid with local
    /// refinement, which skips every `s` whose floor `σ(γ_max)/C`
    /// already exceeds the best bound; `γ` is handled inside
    /// [`TandemPath::delay_bound`].
    ///
    /// Returns `None` if the path is unstable at every `s`.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is not in `(0, 1)`.
    pub fn delay_bound(&self, epsilon: f64) -> Option<SourceDelayBound> {
        let _span = tel::span("core.source_tandem.delay_bound");
        self.optimize_over_s(epsilon, |path| path.delay_bound(epsilon).map(|b| (b, 0.0)))
            .map(|(bound, s, _)| SourceDelayBound { bound, s })
    }

    /// EDF fixed-point bound (see
    /// [`TandemPath::edf_delay_bound_fixed_point`]), optimized over `s`
    /// by the same branch-and-bound as [`SourceTandem::delay_bound`]:
    /// the fixed point returns a delay bound at some `Δ`, so the floor
    /// `σ(γ_max)/C` rules out an `s` without running it there.
    /// Returns the bound, its `s`, and the converged per-node through
    /// deadline `d*_0`.
    pub fn edf_delay_bound_fixed_point(
        &self,
        epsilon: f64,
        cross_over_through: f64,
    ) -> Option<(SourceDelayBound, f64)> {
        let _span = tel::span("core.source_tandem.edf_fixed_point");
        self.optimize_over_s(epsilon, |path| {
            path.edf_delay_bound_fixed_point(epsilon, cross_over_through)
        })
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
    use crate::e2e::netbound;
    use crate::MmooTandem;
    use nc_traffic::{CbrSource, Mmoo, Mmp, PoissonBatch};
    use proptest::prelude::*;

    /// A per-flow traffic model the properties draw from.
    #[derive(Debug, Clone, Copy)]
    enum Model {
        PaperMmoo,
        Cbr(f64),
        Poisson { lambda: f64, batch: f64 },
    }

    impl Model {
        fn build(self) -> Box<dyn TrafficSource> {
            match self {
                Model::PaperMmoo => Box::new(Mmoo::paper_source()),
                Model::Cbr(rate) => Box::new(CbrSource::new(rate)),
                Model::Poisson { lambda, batch } => Box::new(PoissonBatch::new(lambda, batch)),
            }
        }
    }

    fn model() -> impl Strategy<Value = Model> {
        prop_oneof![
            Just(Model::PaperMmoo),
            (0.01f64..1.0).prop_map(Model::Cbr),
            (0.005f64..0.5, 0.2f64..3.0)
                .prop_map(|(lambda, batch)| Model::Poisson { lambda, batch }),
        ]
    }

    /// Flow counts, zero (an empty aggregate) included.
    fn flows(max: usize) -> impl Strategy<Value = usize> {
        prop_oneof![Just(0usize), 1usize..=max]
    }

    fn epsilon() -> impl Strategy<Value = f64> {
        prop_oneof![Just(1e-9), Just(1e-6), Just(1e-3)]
    }

    /// Every kind of `Δ`: `−∞` (SP), negative, `0` (FIFO), positive and
    /// `+∞` (BMUX).
    fn delta() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(f64::NEG_INFINITY),
            -100.0f64..-1e-3,
            Just(0.0),
            1e-3f64..100.0,
            Just(f64::INFINITY),
        ]
    }

    /// A tandem of `hops` nodes whose long-run utilization is `load`
    /// (the capacity is derived from it; 100 if no flow has a rate).
    fn tandem<'a>(
        through: &'a dyn TrafficSource,
        n_through: usize,
        cross: &'a dyn TrafficSource,
        n_cross: usize,
        load: f64,
        hops: usize,
        scheduler: PathScheduler,
    ) -> SourceTandem<'a> {
        let mean = n_through as f64 * through.mean_rate() + n_cross as f64 * cross.mean_rate();
        let capacity = if mean > 0.0 { mean / load } else { 100.0 };
        SourceTandem {
            through_source: through,
            n_through,
            cross_source: cross,
            n_cross,
            capacity,
            hops,
            scheduler,
        }
    }

    /// Every bit of an `s` search's result: the bound's witnesses
    /// (θ_h included), its `s` and the EDF `d*_0` (0 otherwise).
    fn witness_bits(best: &Best) -> Option<Vec<u64>> {
        best.as_ref().map(|(b, s, aux)| {
            [b.delay, b.epsilon, b.sigma, b.gamma, b.x, *s, *aux]
                .iter()
                .chain(&b.thetas)
                .map(|v| v.to_bits())
                .collect()
        })
    }

    /// The schedulers of the differential property: FIFO, BMUX, SP,
    /// `Δ > 0`, `Δ < 0`, and the EDF fixed point at deadline ratios
    /// 10, 2 and 0.5 (`None`: the scheduler field is not used).
    const SEARCHES: [(PathScheduler, Option<f64>); 8] = [
        (PathScheduler::Fifo, None),
        (PathScheduler::Bmux, None),
        (PathScheduler::ThroughPriority, None),
        (PathScheduler::Delta(2.5), None),
        (PathScheduler::Delta(-2.5), None),
        (PathScheduler::Fifo, Some(10.0)),
        (PathScheduler::Fifo, Some(2.0)),
        (PathScheduler::Fifo, Some(0.5)),
    ];

    proptest! {
        /// The branch-and-bound returns the exhaustive scan's result bit
        /// for bit: same bound, witnesses, `s` and EDF deadline.
        #[test]
        fn pruned_search_matches_the_exhaustive_scan_bitwise(
            through in model(),
            n_through in flows(300),
            cross in model(),
            n_cross in flows(600),
            load in prop_oneof![0.01f64..0.9, 0.9f64..0.999],
            hops in 1usize..=50,
            search in 0usize..SEARCHES.len(),
            eps in epsilon(),
        ) {
            let (through, cross) = (through.build(), cross.build());
            let (scheduler, edf_ratio) = SEARCHES[search];
            let st = tandem(&*through, n_through, &*cross, n_cross, load, hops, scheduler);
            let (pruned, exhaustive) = match edf_ratio {
                None => {
                    let f = |p: &TandemPath| p.delay_bound(eps).map(|b| (b, 0.0));
                    (st.optimize_over_s(eps, f), st.optimize_over_s_exhaustive(f))
                }
                Some(ratio) => {
                    let f = |p: &TandemPath| p.edf_delay_bound_fixed_point(eps, ratio);
                    (st.optimize_over_s(eps, f), st.optimize_over_s_exhaustive(f))
                }
            };
            prop_assert_eq!(
                witness_bits(&pruned),
                witness_bits(&exhaustive),
                "{:?} (EDF ratio {:?}, ε = {}): pruned {:?} vs exhaustive {:?}",
                st,
                edf_ratio,
                eps,
                pruned.as_ref().map(|b| (b.0.delay, b.1)),
                exhaustive.as_ref().map(|b| (b.0.delay, b.1))
            );
        }

        /// The floor the search prunes with is a lower bound: at every
        /// `γ ∈ (0, γ_max)` and every `Δ`, `σ(γ) ≥ σ(γ_max)` and the
        /// bound is at least `σ(γ_max)/C` (up to the pruning margin).
        #[test]
        fn delay_floor_is_below_every_bound_at_the_path(
            through in model(),
            n_through in flows(300),
            cross in model(),
            n_cross in flows(600),
            load in prop_oneof![0.01f64..0.9, 0.9f64..0.999],
            hops in 1usize..=50,
            s_share in 0.0f64..1.0,
            gamma_share in prop_oneof![1e-9f64..1e-3, 1e-3f64..1.0],
            delta in delta(),
            eps in epsilon(),
        ) {
            let (through, cross) = (through.build(), cross.build());
            let st = tandem(&*through, n_through, &*cross, n_cross, load, hops, PathScheduler::Fifo);
            let grid = st.s_grid();
            let (s_lo, s_hi) = (grid[0], grid[grid.len() - 1]);
            let s = s_lo * (s_hi / s_lo).powf(s_share);
            let path = st.path_at(s).map(|p| p.with_scheduler(PathScheduler::Delta(delta)));
            prop_assume!(path.is_some());
            let path = path.unwrap();
            let gamma_max = path.gamma_max();
            let floor = path.delay_floor(eps);
            let sigma_max = netbound::sigma_for(
                path.through(),
                &vec![*path.cross(); hops],
                gamma_max,
                eps,
            );
            if let Some(b) = path.delay_bound_at_gamma(eps, gamma_share * gamma_max) {
                prop_assert!(
                    b.sigma >= sigma_max,
                    "σ({}) = {} < σ(γ_max = {gamma_max}) = {sigma_max}",
                    b.gamma,
                    b.sigma
                );
                prop_assert!(
                    b.delay >= floor * (1.0 - PRUNE_MARGIN),
                    "d = {} < σ(γ_max)/C = {floor} at γ = {}, Δ = {delta}, {:?}",
                    b.delay,
                    b.gamma,
                    path
                );
            }
        }
    }

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
