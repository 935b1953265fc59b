//! End-to-end delay analysis across a tandem of Δ-scheduler nodes
//! (Section IV of the paper).
//!
//! The central object is [`TandemPath`]: a through flow crossing `H`
//! nodes of capacity `C`, with i.i.d. EBB cross traffic at every node
//! and a common Δ-scheduler (Fig. 1 of the paper). Its
//! [`TandemPath::delay_bound`] computes the probabilistic end-to-end
//! delay bound by
//!
//! 1. assembling the network bounding function (Eqs. (31)/(34)) and
//!    inverting it at the target violation probability to get `σ`,
//! 2. solving the optimization problem of Eq. (38) for `d(σ)`,
//! 3. minimizing numerically over the free rate `γ` (Eq. (32)).
//!
//! [`MmooTandem`] adds the outer optimization over the effective-
//! bandwidth moment parameter `s` for the paper's Markov-modulated
//! on-off workloads, and the EDF deadline fixed point used in the
//! numerical examples.

pub mod additive;
pub mod closed_forms;
pub mod deterministic;
mod gamma;
pub mod hetero;
mod mmoo_tandem;
pub mod netbound;
pub mod optimizer;

use crate::delta::PathScheduler;
pub use mmoo_tandem::{MmooDelayBound, MmooTandem};
use nc_telemetry as tel;
use nc_traffic::Ebb;

static DELAY_BOUND_CALLS: tel::Counter = tel::Counter::new("core_delay_bound_calls_total");
static DELAY_BOUND_SECONDS: tel::Timing = tel::Timing::new("core_delay_bound_seconds");
static EDF_ITERATIONS: tel::Counter = tel::Counter::new("core_edf_fixed_point_iterations_total");
static EDF_NONCONVERGED: tel::Counter = tel::Counter::new("core_edf_nonconverged_total");
static EDF_SECONDS: tel::Timing = tel::Timing::new("core_edf_fixed_point_seconds");

/// Relative tolerance of the EDF deadline fixed point: the final
/// bracket width (`ratio > 1`) or step (`ratio ≤ 1`) is at most
/// `EDF_TOL·d`.
const EDF_TOL: f64 = 1e-9;
/// Iteration caps of the two fixed-point loops; exhausting one is
/// counted as `core_edf_nonconverged_total`.
const EDF_BRACKET_CAP: usize = 100;
const EDF_ASCENT_CAP: usize = 200;

/// A homogeneous tandem path (Fig. 1): `hops` nodes of rate `capacity`,
/// a through EBB aggregate, i.i.d. EBB cross aggregates, and one
/// Δ-scheduler used at every node.
#[derive(Debug, Clone, PartialEq)]
pub struct TandemPath {
    capacity: f64,
    hops: usize,
    through: Ebb,
    cross: Ebb,
    scheduler: PathScheduler,
}

/// A probabilistic end-to-end delay bound together with the witnesses
/// of its computation.
#[derive(Debug, Clone, PartialEq)]
pub struct E2eDelayBound {
    /// The delay bound `d` with `P(W > d) < ε`.
    pub delay: f64,
    /// Target violation probability `ε`.
    pub epsilon: f64,
    /// The slack `σ` consumed by the bounding functions.
    pub sigma: f64,
    /// The free rate parameter `γ` at which the bound was found.
    pub gamma: f64,
    /// The optimization variable `X = d − Σθ_h`.
    pub x: f64,
    /// Per-node `θ_h` of the optimization (Eq. (38)).
    pub thetas: Vec<f64>,
}

impl TandemPath {
    /// Creates a path description.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not positive/finite or `hops` is zero.
    /// (Stability — `ρ + ρ_c < C` — is *not* required here; an unstable
    /// path simply has no finite delay bound.)
    pub fn new(
        capacity: f64,
        hops: usize,
        through: Ebb,
        cross: Ebb,
        scheduler: PathScheduler,
    ) -> Self {
        assert!(capacity > 0.0 && capacity.is_finite(), "TandemPath: capacity must be positive");
        assert!(hops > 0, "TandemPath: need at least one hop");
        TandemPath { capacity, hops, through, cross, scheduler }
    }

    /// Link capacity `C`.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Path length `H`.
    pub fn hops(&self) -> usize {
        self.hops
    }

    /// The through aggregate.
    pub fn through(&self) -> &Ebb {
        &self.through
    }

    /// The per-node cross aggregate.
    pub fn cross(&self) -> &Ebb {
        &self.cross
    }

    /// The scheduler in use at every node.
    pub fn scheduler(&self) -> PathScheduler {
        self.scheduler
    }

    /// Returns a copy of the path with a different scheduler (all other
    /// parameters unchanged) — convenient for scheduler comparisons.
    pub fn with_scheduler(&self, scheduler: PathScheduler) -> Self {
        TandemPath { scheduler, ..self.clone() }
    }

    /// The upper end of the admissible `γ` range (Eq. (32)):
    /// `(H+1)·γ < C − ρ_c − ρ`.
    pub fn gamma_max(&self) -> f64 {
        (self.capacity - self.cross.rho() - self.through.rho()) / (self.hops as f64 + 1.0)
    }

    /// Whether the long-run load is below capacity (`ρ + ρ_c < C`).
    pub fn is_stable(&self) -> bool {
        self.gamma_max() > 0.0
    }

    /// `σ(γ_max)/C`: no bound this path yields, at any `γ` and any
    /// scheduler, lies below it (up to rounding). Node 1 has
    /// `c_eff = C`, so every branch of Eq. (38) gives `X + θ_1 ≥ σ(γ)/C`,
    /// and `σ(γ) ≥ σ(γ_max)` because every term of Eq. (34) carries
    /// `1/(1 − e^{−αγ})` factors. Not counted as a σ call.
    ///
    /// # Panics
    ///
    /// Panics if the path is unstable or `epsilon` is not in `(0, 1)`.
    pub(crate) fn delay_floor(&self, epsilon: f64) -> f64 {
        let sigma = netbound::sigma_for_runs_uncounted(
            &self.through,
            [(self.cross, self.hops)],
            self.gamma_max(),
            epsilon,
            &mut Vec::with_capacity(3),
        );
        sigma / self.capacity
    }

    /// The path as one segment of `hops` equal nodes.
    fn segment(&self) -> [gamma::Segment; 1] {
        [gamma::Segment {
            capacity: self.capacity,
            cross: self.cross,
            delta: self.scheduler.delta(),
            len: self.hops,
        }]
    }

    /// The end-to-end delay bound at a *fixed* `γ` (steps 1–2 of the
    /// pipeline; no outer optimization).
    ///
    /// Returns `None` if `γ` is outside `(0, γ_max)`, no finite `σ`
    /// reaches `epsilon` at this `γ`, or the optimization is infeasible.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is not in `(0, 1)`.
    pub fn delay_bound_at_gamma(&self, epsilon: f64, gamma: f64) -> Option<E2eDelayBound> {
        assert!(epsilon > 0.0 && epsilon < 1.0, "delay_bound_at_gamma: epsilon must be in (0,1)");
        gamma::at_gamma(&self.through, &self.segment(), self.gamma_max(), epsilon, gamma)
    }

    /// The probabilistic end-to-end delay bound
    /// `P(W > d) < epsilon`, optimized over `γ` (grid search with local
    /// refinement over `(0, γ_max)`).
    ///
    /// Returns `None` for unstable paths.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is not in `(0, 1)`.
    ///
    /// # Example
    ///
    /// ```
    /// use nc_core::{PathScheduler, TandemPath};
    /// use nc_traffic::Mmoo;
    ///
    /// let src = Mmoo::paper_source();
    /// let s = 0.05;
    /// let path = TandemPath::new(
    ///     100.0,                       // C = 100 kb/ms
    ///     5,                           // H = 5 nodes
    ///     src.ebb(s, 100),             // 100 through flows
    ///     src.ebb(s, 100),             // 100 cross flows per node
    ///     PathScheduler::Fifo,
    /// );
    /// let bound = path.delay_bound(1e-9).unwrap();
    /// assert!(bound.delay > 0.0);
    /// ```
    pub fn delay_bound(&self, epsilon: f64) -> Option<E2eDelayBound> {
        let _timer = DELAY_BOUND_SECONDS.start();
        DELAY_BOUND_CALLS.add(1);
        gamma::search(&self.through, &self.segment(), self.gamma_max(), epsilon)
    }

    /// Delay bound under the paper's EDF deadline convention, which is
    /// *self-referential*: per-node deadlines are set from the computed
    /// end-to-end bound itself, `d*_0 = d^{e2e}/H` and
    /// `d*_c = cross_over_through · d*_0` (the paper uses
    /// `cross_over_through = 10` in Examples 1 and 3).
    ///
    /// The bound is a fixed point `d = T(d)`, where `T(d)` is
    /// [`TandemPath::delay_bound`] at `Δ = (1 − ratio)·d/H`. The delay
    /// bound rises with `Δ`, so `T` is monotone in `d` and each case has
    /// a solver that cannot miss:
    ///
    /// * `ratio > 1` (`Δ < 0`): `T` falls, so `g(d) = T(d) − d` has one
    ///   root, bracketed by `g(0) = d_FIFO > 0 ≥ g(d_FIFO)`. Illinois
    ///   (modified regula falsi) shrinks the bracket to `≤ 1e-9·d` and
    ///   returns its upper end `b`, which carries the certificate
    ///   `T(b) ≤ b`.
    /// * `ratio ≤ 1` (`Δ ≥ 0`): `T` rises, so plain iteration
    ///   `d ← T(d)` from `d_FIFO` climbs to the least fixed point; it
    ///   stops at the first `d` with `T(d) ≤ (1 + 1e-9)·d`.
    ///
    /// Either way the returned bound is `T(d)` at the returned
    /// per-node deadline `d*_0 = d/H`, so it is a sound EDF bound for
    /// exactly those deadlines.
    ///
    /// Returns `None` for unstable paths, or if either loop exhausts its
    /// iteration cap; the latter is counted in
    /// `core_edf_nonconverged_total`.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is not in `(0, 1)` or `cross_over_through`
    /// is not strictly positive.
    pub fn edf_delay_bound_fixed_point(
        &self,
        epsilon: f64,
        cross_over_through: f64,
    ) -> Option<(E2eDelayBound, f64)> {
        assert!(
            cross_over_through > 0.0 && cross_over_through.is_finite(),
            "edf_delay_bound_fixed_point: deadline ratio must be positive"
        );
        if !self.is_stable() {
            return None;
        }
        let _timer = EDF_SECONDS.start();
        let h = self.hops as f64;
        let t = |d: f64| {
            EDF_ITERATIONS.add(1);
            let delta = (1.0 - cross_over_through) * d / h;
            self.with_scheduler(PathScheduler::Delta(delta)).delay_bound(epsilon)
        };
        let fifo = self.with_scheduler(PathScheduler::Fifo).delay_bound(epsilon)?.delay;
        if cross_over_through > 1.0 {
            // Keep g(lo) > 0 ≥ g(hi); `moved_hi` records which end the
            // previous step replaced.
            let (mut lo, mut g_lo) = (0.0, fifo);
            let mut hi = fifo;
            let mut at_hi = t(hi)?;
            let mut g_hi = at_hi.delay - hi;
            let mut moved_hi = None;
            for _ in 0..EDF_BRACKET_CAP {
                if g_hi == 0.0 || hi - lo <= EDF_TOL * hi {
                    return Some((at_hi, hi / h));
                }
                let c = lo + (hi - lo) * g_lo / (g_lo - g_hi);
                let at_c = t(c)?;
                let g_c = at_c.delay - c;
                // Illinois: halve the value kept at an end that survives
                // two steps in a row, so that end moves too.
                if g_c <= 0.0 {
                    (hi, g_hi, at_hi) = (c, g_c, at_c);
                    if moved_hi == Some(true) {
                        g_lo *= 0.5;
                    }
                    moved_hi = Some(true);
                } else {
                    (lo, g_lo) = (c, g_c);
                    if moved_hi == Some(false) {
                        g_hi *= 0.5;
                    }
                    moved_hi = Some(false);
                }
            }
        } else {
            let mut d = fifo;
            for _ in 0..EDF_ASCENT_CAP {
                let at_d = t(d)?;
                if at_d.delay <= (1.0 + EDF_TOL) * d {
                    return Some((at_d, d / h));
                }
                d = at_d.delay;
            }
        }
        EDF_NONCONVERGED.add(1);
        None
    }
}

#[cfg(test)]
mod try_bound_tests {
    use super::*;
    use crate::Error;
    use nc_traffic::Mmoo;

    fn tandem(n_flows: usize) -> MmooTandem {
        MmooTandem {
            source: Mmoo::paper_source(),
            n_through: n_flows,
            n_cross: n_flows,
            capacity: 100.0,
            hops: 3,
            scheduler: PathScheduler::Fifo,
        }
    }

    #[test]
    fn try_delay_bound_matches_panicking_api_when_ok() {
        let t = tandem(100);
        let want = t.delay_bound(1e-6).unwrap().bound.delay;
        let got = t.try_delay_bound(1e-6).unwrap().bound.delay;
        assert_eq!(want.to_bits(), got.to_bits());
    }

    #[test]
    fn try_delay_bound_rejects_bad_epsilon_as_value() {
        for eps in [0.0, 1.0, -0.5, f64::NAN, 2.0] {
            assert!(matches!(tandem(100).try_delay_bound(eps), Err(Error::InvalidInput(_))));
        }
    }

    #[test]
    fn try_delay_bound_reports_overload_as_infeasible() {
        // 4000 + 4000 flows at mean ≈ 0.174 kb/ms each on C = 100
        // overloads the link: no finite bound at any moment parameter.
        assert_eq!(tandem(4000).try_delay_bound(1e-6), Err(Error::Infeasible));
    }

    #[test]
    fn gamma_with_no_finite_sigma_has_no_bound() {
        // 1 − e^{−αγ} rounds to 0 for γ = 1e-18, so the slot-sum
        // prefactor and σ overflow: no bound at this γ, and no panic.
        let src = Mmoo::paper_source();
        let path =
            TandemPath::new(100.0, 3, src.ebb(0.05, 100), src.ebb(0.05, 100), PathScheduler::Fifo);
        assert!(path.gamma_max() > 1e-18);
        assert_eq!(path.delay_bound_at_gamma(1e-6, 1e-18), None);
        assert!(path.delay_bound_at_gamma(1e-6, 0.5 * path.gamma_max()).is_some());
    }
}

#[cfg(test)]
mod edf_fixed_point_tests {
    use super::*;
    use nc_traffic::Mmoo;
    use proptest::strategy::Strategy;

    const EPS: f64 = 1e-9;

    /// Fig. 2's through aggregate (N0 = 100) against `n_cross` cross
    /// flows per node at moment parameter `s`.
    fn fig2_path(hops: usize, n_cross: usize, s: f64) -> TandemPath {
        let src = Mmoo::paper_source();
        TandemPath::new(100.0, hops, src.ebb(s, 100), src.ebb(s, n_cross), PathScheduler::Fifo)
    }

    /// `T(d)`: the bound at the deadlines the fixed point derives from `d`.
    fn t(path: &TandemPath, ratio: f64, d: f64) -> f64 {
        let delta = (1.0 - ratio) * d / path.hops() as f64;
        path.with_scheduler(PathScheduler::Delta(delta)).delay_bound(EPS).unwrap().delay
    }

    /// The damped iteration `d ← (d + T(d))/2` the bracketed solver
    /// replaced, kept as a reference: `None` where it hits its cap.
    fn damped_reference(path: &TandemPath, ratio: f64) -> Option<f64> {
        let mut d = path.with_scheduler(PathScheduler::Fifo).delay_bound(EPS)?.delay;
        for _ in 0..200 {
            let next = (d + t(path, ratio, d)) / 2.0;
            let done = (next - d).abs() <= 1e-9 * d.max(1e-9);
            d = next;
            if done {
                return Some(d);
            }
        }
        None
    }

    fn bound(path: &TandemPath, sched: PathScheduler) -> f64 {
        path.with_scheduler(sched).delay_bound(EPS).unwrap().delay
    }

    #[test]
    fn bracketed_result_carries_its_certificate() {
        let path = fig2_path(10, 300, 0.03);
        let (b, d0) = path.edf_delay_bound_fixed_point(EPS, 10.0).unwrap();
        let d = d0 * 10.0;
        // The reported bound is T at the reported deadline (up to the
        // rounding of d*_0·H), and sits on the certified side T(d) ≤ d ...
        assert!((b.delay - t(&path, 10.0, d)).abs() <= 1e-12 * d);
        assert!(b.delay <= d, "T(d) = {} > d = {d}", b.delay);
        // ... while one bracket width below d, T still lies above the
        // diagonal: the root is within 1e-9·d.
        let lo = d * (1.0 - EDF_TOL);
        assert!(t(&path, 10.0, lo) > lo, "bracket wider than 1e-9·d at d = {d}");
    }

    #[test]
    fn fig2_h10_high_load_cell_converges() {
        // H = 10, U = 95% (Nc = 533): the damped iteration oscillates
        // to its cap at this s, which used to print `-` in Fig. 2.
        let path = fig2_path(10, 533, 0.0049);
        assert_eq!(damped_reference(&path, 10.0), None);
        let (b, _) = path.edf_delay_bound_fixed_point(EPS, 10.0).unwrap();
        let sp = bound(&path, PathScheduler::ThroughPriority);
        let fifo = bound(&path, PathScheduler::Fifo);
        assert!(sp <= b.delay && b.delay <= fifo, "SP {sp}, EDF {}, FIFO {fifo}", b.delay);
    }

    #[test]
    fn equal_deadlines_return_the_fifo_bound() {
        let path = fig2_path(5, 200, 0.04);
        let fifo = path.with_scheduler(PathScheduler::Fifo).delay_bound(EPS).unwrap();
        let (b, d0) = path.edf_delay_bound_fixed_point(EPS, 1.0).unwrap();
        assert_eq!(b, fifo);
        assert_eq!(d0.to_bits(), (fifo.delay / 5.0).to_bits());
    }

    #[test]
    fn shorter_cross_deadlines_climb_to_a_fixed_point() {
        let path = fig2_path(5, 300, 0.03);
        let (b, d0) = path.edf_delay_bound_fixed_point(EPS, 0.5).unwrap();
        let d = d0 * 5.0;
        let fifo = bound(&path, PathScheduler::Fifo);
        let bmux = bound(&path, PathScheduler::Bmux);
        assert!(fifo <= b.delay && b.delay <= bmux, "FIFO {fifo}, EDF {}, BMUX {bmux}", b.delay);
        assert!(d <= b.delay && b.delay <= d * (1.0 + EDF_TOL), "T({d}) = {}", b.delay);
    }

    const RATIOS: [f64; 15] =
        [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.5, 2.0, 3.0, 5.0, 10.0, 20.0];

    proptest::proptest! {
        #[test]
        fn agrees_with_the_damped_iteration_wherever_it_converges(
            hops in 1usize..=12,
            ratio in (0usize..RATIOS.len()).prop_map(|i| RATIOS[i]),
            n_cross in 20usize..=450,
            s in 0.01f64..0.1,
        ) {
            let path = fig2_path(hops, n_cross, s);
            proptest::prop_assume!(path.is_stable());
            if let Some(want) = damped_reference(&path, ratio) {
                let (got, _) = path.edf_delay_bound_fixed_point(EPS, ratio).unwrap();
                proptest::prop_assert!(
                    (got.delay - want).abs() <= 1e-8 * want,
                    "H = {hops}, ratio = {ratio}: {} vs damped {want}",
                    got.delay
                );
            }
        }
    }
}
