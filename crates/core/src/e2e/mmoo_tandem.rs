//! The paper's MMOO tandem (Section V) and the outer optimization over
//! the effective-bandwidth moment parameter `s`.

use crate::delta::PathScheduler;
use crate::e2e::{additive, E2eDelayBound, TandemPath};
use crate::Error;
use nc_telemetry as tel;
use nc_traffic::{Ebb, Mmoo};

static S_EVALS: tel::Counter = tel::Counter::new("core_s_evals_total");
static S_PRUNED: tel::Counter = tel::Counter::new("core_s_pruned_total");

/// Relative margin by which a moment parameter's delay floor must
/// exceed the best bound before the `s` search skips it; it absorbs
/// the rounding of the floor and of the bounds it is compared with.
const PRUNE_MARGIN: f64 = 1e-9;

/// A tandem path whose through and cross aggregates are built from the
/// paper's MMOO sources, with the outer optimization over the
/// effective-bandwidth moment parameter `s`.
///
/// This is the object that regenerates the paper's figures: utilization
/// is `U = (n_through + n_cross)·mean_rate/C` per the Section V
/// convention. Both aggregates are characterized at a common `s` (each
/// is EBB at every `s`, so any shared `s` is valid and the search picks
/// the best one).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MmooTandem {
    /// The per-flow MMOO source.
    pub source: Mmoo,
    /// Number of through flows `N_0`.
    pub n_through: usize,
    /// Number of cross flows per node `N_c`.
    pub n_cross: usize,
    /// Link capacity `C`.
    pub capacity: f64,
    /// Path length `H`.
    pub hops: usize,
    /// Scheduler at every node.
    pub scheduler: PathScheduler,
}

/// An end-to-end bound annotated with the moment parameter that
/// achieved it.
#[derive(Debug, Clone, PartialEq)]
pub struct MmooDelayBound {
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

impl MmooTandem {
    /// The tandem path at a fixed moment parameter `s`, or `None` if
    /// the EBB rates at this `s` exceed capacity, or if `e^{sP}`
    /// overflows so that `eb(s)` has no value (skipping such an `s`
    /// leaves every bound sound). Zero flow counts are modelled as an
    /// empty (zero-rate) EBB aggregate.
    pub fn path_at(&self, s: f64) -> Option<TandemPath> {
        if !(s * self.source.peak()).exp().is_finite() {
            return None;
        }
        let (through, cross) = self.aggregates(s);
        let path = TandemPath::new(self.capacity, self.hops, through, cross, self.scheduler);
        path.is_stable().then_some(path)
    }

    /// The through and cross aggregates at `s`, from one evaluation of
    /// the source's effective bandwidth (`n` flows are
    /// [`Mmoo::ebb`]`(s, n)`).
    fn aggregates(&self, s: f64) -> (Ebb, Ebb) {
        let eb = self.source.effective_bandwidth(s);
        let aggregate =
            |n: usize| if n == 0 { Ebb::new(1.0, 0.0, s) } else { Ebb::new(1.0, n as f64 * eb, s) };
        (aggregate(self.n_through), aggregate(self.n_cross))
    }

    /// Total utilization `(N_0 + N_c)·mean/C`.
    pub fn utilization(&self) -> f64 {
        (self.n_through + self.n_cross) as f64 * self.source.mean_rate() / self.capacity
    }

    /// The largest useful moment parameter: beyond it the EBB rates
    /// exceed capacity (capped at `min(600/P, 100)`, below where
    /// `e^{sP}` overflows).
    fn s_upper(&self) -> f64 {
        let cap = (600.0 / self.source.peak_rate()).min(100.0);
        let total = |s: f64| {
            let eb = self.source.effective_bandwidth(s);
            self.n_through as f64 * eb + self.n_cross as f64 * eb
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

    fn s_grid(&self) -> Vec<f64> {
        let s_hi = self.s_upper();
        let s_lo = (s_hi * 1e-4).max(1e-5);
        let n = 28usize;
        (0..=n)
            .map(|i| s_lo * (s_hi / s_lo).powf(i as f64 / n as f64))
            .filter(|s| *s > 0.0)
            .collect()
    }

    /// The outer `s` search, an exact branch-and-bound: the same best
    /// `(bound, s, aux)` as scanning `f` over a log grid of `s` (first
    /// minimum wins) and then twice over 11 points around the best `s`
    /// (strict improvement wins), but without evaluating `f` where it
    /// cannot win.
    ///
    /// Every bound `f` returns at a path is a [`TandemPath`] delay bound
    /// at some `γ` and `Δ`, so it is at least the path's
    /// [`TandemPath::delay_floor`] `σ(γ_max)/C`. A stable `s` whose floor
    /// exceeds the best delay so far (by a relative `1e-9`, for
    /// rounding) is skipped and counted in `core_s_pruned_total`. The
    /// grid is visited in ascending floor order, keeping the smallest
    /// `(delay, grid index)`, so ties go to the smallest `s` as in the
    /// ascending scan; the refinement keeps its order.
    fn optimize_over_s<F>(&self, epsilon: f64, f: F) -> Best
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

    /// The scan [`MmooTandem::optimize_over_s`] prunes: `f` at every
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
    pub fn delay_bound(&self, epsilon: f64) -> Option<MmooDelayBound> {
        let _span = tel::span("core.source_tandem.delay_bound");
        self.optimize_over_s(epsilon, |path| path.delay_bound(epsilon).map(|b| (b, 0.0)))
            .map(|(bound, s, _)| MmooDelayBound { bound, s })
    }

    /// Guard-railed variant of [`MmooTandem::delay_bound`]: reports a
    /// bad `epsilon` as [`Error::InvalidInput`] instead of panicking,
    /// a tandem unstable at every `s` as [`Error::Infeasible`], and a
    /// NaN/∞ bound as [`Error::NonFinite`] — so callers (the scenario
    /// engine, the CLI) can map each cause onto a distinct exit code.
    pub fn try_delay_bound(&self, epsilon: f64) -> Result<MmooDelayBound, Error> {
        if !(epsilon > 0.0 && epsilon < 1.0) {
            return Err(Error::InvalidInput(format!(
                "delay_bound: epsilon must be in (0, 1), got {epsilon}"
            )));
        }
        match self.delay_bound(epsilon) {
            Some(b) if b.bound.delay.is_finite() => Ok(b),
            Some(b) => Err(Error::NonFinite(format!(
                "delay bound evaluated to {} (U = {:.3})",
                b.bound.delay,
                self.utilization()
            ))),
            None => Err(Error::Infeasible),
        }
    }

    /// EDF fixed-point bound (see
    /// [`TandemPath::edf_delay_bound_fixed_point`]), optimized over `s`
    /// by the same branch-and-bound as [`MmooTandem::delay_bound`]: the
    /// fixed point returns a delay bound at some `Δ`, so the floor
    /// `σ(γ_max)/C` rules out an `s` without running it there. Returns
    /// the bound, its `s`, and the converged per-node through deadline
    /// `d*_0`.
    pub fn edf_delay_bound_fixed_point(
        &self,
        epsilon: f64,
        cross_over_through: f64,
    ) -> Option<(MmooDelayBound, f64)> {
        let _span = tel::span("core.source_tandem.edf_fixed_point");
        self.optimize_over_s(epsilon, |path| {
            path.edf_delay_bound_fixed_point(epsilon, cross_over_through)
        })
        .map(|(bound, s, d0)| (MmooDelayBound { bound, s }, d0))
    }

    /// The additive node-by-node BMUX baseline of Example 3, optimized
    /// over the `s` grid (and internally over `γ`).
    pub fn additive_bmux_delay(&self, epsilon: f64) -> Option<f64> {
        let _span = tel::span("core.source_tandem.additive_bmux");
        let mut best: Option<f64> = None;
        for s in self.s_grid() {
            let (through, cross) = self.aggregates(s);
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
    use proptest::prelude::*;

    /// The paper's source, or an MMOO source drawn with
    /// `p11 ∈ [0.5, 0.999)`, `p22 ∈ [1 − p11, 0.999]` and
    /// `peak ∈ [0.1, 10)`.
    fn source() -> impl Strategy<Value = Mmoo> {
        prop_oneof![
            Just(Mmoo::paper_source()),
            (0.5f64..0.999, 0.0f64..=1.0, 0.1f64..10.0).prop_map(|(p11, share, peak)| {
                let p22_lo = 1.0 - p11;
                let p22 = p22_lo + share * (0.999 - p22_lo);
                // Rounding may leave p11 + p22 an ulp below 1.
                let p22 = if p11 + p22 < 1.0 { p22.next_up() } else { p22 };
                Mmoo::new(p11, p22, peak)
            }),
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
    fn tandem(
        source: Mmoo,
        n_through: usize,
        n_cross: usize,
        load: f64,
        hops: usize,
        scheduler: PathScheduler,
    ) -> MmooTandem {
        let mean = (n_through + n_cross) as f64 * source.mean_rate();
        let capacity = if mean > 0.0 { mean / load } else { 100.0 };
        MmooTandem { source, n_through, n_cross, capacity, hops, scheduler }
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
            source in source(),
            n_through in flows(300),
            n_cross in flows(600),
            load in prop_oneof![0.01f64..0.9, 0.9f64..0.999],
            hops in 1usize..=50,
            search in 0usize..SEARCHES.len(),
            eps in epsilon(),
        ) {
            let (scheduler, edf_ratio) = SEARCHES[search];
            let t = tandem(source, n_through, n_cross, load, hops, scheduler);
            let (pruned, exhaustive) = match edf_ratio {
                None => {
                    let f = |p: &TandemPath| p.delay_bound(eps).map(|b| (b, 0.0));
                    (t.optimize_over_s(eps, f), t.optimize_over_s_exhaustive(f))
                }
                Some(ratio) => {
                    let f = |p: &TandemPath| p.edf_delay_bound_fixed_point(eps, ratio);
                    (t.optimize_over_s(eps, f), t.optimize_over_s_exhaustive(f))
                }
            };
            prop_assert_eq!(
                witness_bits(&pruned),
                witness_bits(&exhaustive),
                "{:?} (EDF ratio {:?}, ε = {}): pruned {:?} vs exhaustive {:?}",
                t,
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
            source in source(),
            n_through in flows(300),
            n_cross in flows(600),
            load in prop_oneof![0.01f64..0.9, 0.9f64..0.999],
            hops in 1usize..=50,
            s_share in 0.0f64..1.0,
            gamma_share in prop_oneof![1e-9f64..1e-3, 1e-3f64..1.0],
            delta in delta(),
            eps in epsilon(),
        ) {
            let t = tandem(source, n_through, n_cross, load, hops, PathScheduler::Fifo);
            let grid = t.s_grid();
            let (s_lo, s_hi) = (grid[0], grid[grid.len() - 1]);
            let s = s_lo * (s_hi / s_lo).powf(s_share);
            let path = t.path_at(s).map(|p| p.with_scheduler(PathScheduler::Delta(delta)));
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
    fn refinement_past_the_overflow_of_e_sp_skips_those_s() {
        // Two flows on C = 100: the grid tops out at s = 100, and the
        // refinement steps to s ≈ 146, where e^{sP} overflows for P ≥ 5.
        for (peak, want) in [(5.0, 0.00490), (5.5, 0.00538), (6.0, 0.00591), (8.0, 0.00806)] {
            let t = MmooTandem {
                source: Mmoo::new(0.989, 0.9, peak),
                n_through: 1,
                n_cross: 1,
                capacity: 100.0,
                hops: 2,
                scheduler: PathScheduler::Fifo,
            };
            let b = t.delay_bound(1e-9).expect("a stable tandem has a bound");
            assert!((b.bound.delay - want).abs() < 5e-6, "P = {peak}: {}", b.bound.delay);
            assert!((b.s * peak).exp().is_finite(), "P = {peak}: s = {}", b.s);
        }
    }
}
