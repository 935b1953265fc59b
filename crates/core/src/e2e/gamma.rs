//! The search over the free rate `γ` of Eq. (32), shared by
//! [`TandemPath`](super::TandemPath) and [`HeteroPath`](super::HeteroPath).
//!
//! One γ-evaluation assembles `σ` (Eq. (34)) and solves Eq. (38) for
//! `(d, X)` in buffers the search allocates once, so it allocates
//! nothing; the `θ_h` are built only for the winning `γ`.

use super::optimizer::{self, Kink, NodeParams};
use super::{netbound, E2eDelayBound};
use nc_telemetry as tel;
use nc_traffic::{Ebb, ExpBound};

static GAMMA_EVALS: tel::Counter = tel::Counter::new("core_gamma_evals_total");

/// `len` consecutive nodes with the same capacity, cross aggregate and
/// scheduler constant.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Segment {
    pub capacity: f64,
    pub cross: Ebb,
    pub delta: f64,
    pub len: usize,
}

/// The bound at one `γ`, without the `θ_h`.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    delay: f64,
    x: f64,
    sigma: f64,
    gamma: f64,
}

/// Evaluates one path at many `γ` in reused buffers. The path is its
/// through aggregate, its nodes in order as segments, and the upper end
/// `γ_max` of the admissible `γ` range.
struct Evaluator<'a> {
    through: &'a Ebb,
    segments: &'a [Segment],
    gamma_max: f64,
    epsilon: f64,
    params: Vec<NodeParams>,
    terms: Vec<(ExpBound, usize)>,
    kinks: Vec<Kink>,
}

impl<'a> Evaluator<'a> {
    fn new(through: &'a Ebb, segments: &'a [Segment], gamma_max: f64, epsilon: f64) -> Self {
        assert!(epsilon > 0.0 && epsilon < 1.0, "delay_bound_at_gamma: epsilon must be in (0,1)");
        let hops = segments.iter().map(|s| s.len).sum::<usize>();
        Evaluator {
            through,
            segments,
            gamma_max,
            epsilon,
            params: Vec::with_capacity(hops),
            terms: Vec::with_capacity(2 * segments.len() + 1),
            kinks: Vec::with_capacity(2 * hops),
        }
    }

    /// Node `h` (0-based) at `γ`: `c_eff = C^h − h·γ`, `r = ρ_c^h + γ`.
    fn fill_params(&mut self, gamma: f64) {
        self.params.clear();
        for s in self.segments {
            for _ in 0..s.len {
                let h = self.params.len();
                self.params.push(NodeParams {
                    c_eff: s.capacity - h as f64 * gamma,
                    r: s.cross.rho() + gamma,
                    delta: s.delta,
                });
            }
        }
    }

    /// `(d, X, σ)` at `γ`, or `None` if `γ` is outside `(0, γ_max)`, no
    /// finite `σ` reaches `ε`, or Eq. (38) is infeasible.
    fn eval(&mut self, gamma: f64) -> Option<Candidate> {
        if gamma <= 0.0 || gamma >= self.gamma_max {
            return None;
        }
        GAMMA_EVALS.add(1);
        let cross_runs = self.segments.iter().map(|s| (s.cross, s.len));
        let sigma = netbound::sigma_for_runs(
            self.through,
            cross_runs,
            gamma,
            self.epsilon,
            &mut self.terms,
        );
        if !sigma.is_finite() {
            // The slot-sum prefactor 1/(1 − e^{−αγ}) overflowed: no
            // finite slack reaches ε at this γ.
            return None;
        }
        self.fill_params(gamma);
        let (delay, x) = optimizer::minimize(&self.params, sigma, &mut self.kinks)?;
        Some(Candidate { delay, x, sigma, gamma })
    }

    /// The full bound of a candidate, `θ_h` included.
    fn bound(&mut self, c: Candidate) -> E2eDelayBound {
        self.fill_params(c.gamma);
        let sol = optimizer::point(c.x, &self.params, c.sigma);
        E2eDelayBound {
            delay: sol.delay,
            epsilon: self.epsilon,
            sigma: c.sigma,
            gamma: c.gamma,
            x: sol.x,
            thetas: sol.thetas,
        }
    }
}

/// The bound at a fixed `γ` (no search).
///
/// # Panics
///
/// Panics if `epsilon` is not in `(0, 1)`.
pub(crate) fn at_gamma(
    through: &Ebb,
    segments: &[Segment],
    gamma_max: f64,
    epsilon: f64,
    gamma: f64,
) -> Option<E2eDelayBound> {
    let mut eval = Evaluator::new(through, segments, gamma_max, epsilon);
    let c = eval.eval(gamma)?;
    Some(eval.bound(c))
}

/// The bound minimized over `γ ∈ (0, γ_max)`: a 27-point grid, then
/// three rounds of 17 points spanning one step of the previous round
/// either side of the best `γ` so far.
///
/// Returns `None` if `γ_max` is not positive and finite, or no `γ`
/// gives a bound.
///
/// # Panics
///
/// Panics if the range is non-empty and `epsilon` is not in `(0, 1)`.
pub(crate) fn search(
    through: &Ebb,
    segments: &[Segment],
    gamma_max: f64,
    epsilon: f64,
) -> Option<E2eDelayBound> {
    if !(gamma_max > 0.0 && gamma_max.is_finite()) {
        return None;
    }
    let mut eval = Evaluator::new(through, segments, gamma_max, epsilon);
    let mut best: Option<Candidate> = None;
    let mut consider = |g: f64, best: &mut Option<Candidate>| {
        if let Some(c) = eval.eval(g) {
            if best.is_none_or(|cur| c.delay < cur.delay) {
                *best = Some(c);
            }
        }
    };
    let n = 28usize;
    for i in 1..n {
        consider(gamma_max * i as f64 / n as f64, &mut best);
    }
    let step0 = gamma_max / n as f64;
    if let Some(cur) = best {
        let mut lo = (cur.gamma - step0).max(gamma_max * 1e-9);
        let mut hi = (cur.gamma + step0).min(gamma_max * (1.0 - 1e-9));
        for _ in 0..3 {
            let m = 16usize;
            for i in 0..=m {
                consider(lo + (hi - lo) * i as f64 / m as f64, &mut best);
            }
            let g = best.expect("refinement keeps a candidate").gamma;
            let step = (hi - lo) / m as f64;
            lo = (g - step).max(gamma_max * 1e-9);
            hi = (g + step).min(gamma_max * (1.0 - 1e-9));
        }
    }
    best.map(|c| eval.bound(c))
}
