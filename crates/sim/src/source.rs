//! Slotted traffic sources.

use crate::binomial::Binomial;
use nc_traffic::{Mmoo, Mmp, PoissonBatch};
use rand::{Rng, RngExt};

/// Simulation state of one MMOO flow (see
/// [`nc_traffic::Mmoo`] for the analytical model).
#[derive(Debug, Clone)]
pub struct MmooState {
    model: Mmoo,
    on: bool,
}

impl MmooState {
    /// Creates a flow in a fixed initial state.
    pub fn with_state(model: Mmoo, on: bool) -> Self {
        MmooState { model, on }
    }

    /// Creates a flow whose initial state is drawn from the stationary
    /// distribution (the analytical envelopes assume stationarity).
    pub fn stationary<R: Rng + ?Sized>(model: Mmoo, rng: &mut R) -> Self {
        let on = rng.random::<f64>() < model.stationary_on();
        MmooState { model, on }
    }

    /// Whether the flow is currently ON.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// The underlying analytical model.
    pub fn model(&self) -> &Mmoo {
        &self.model
    }

    /// Advances one slot: emits `peak` if ON, then performs the state
    /// transition.
    pub fn step<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        let emitted = if self.on { self.model.peak() } else { 0.0 };
        let stay = if self.on { self.model.p22() } else { self.model.p11() };
        if rng.random::<f64>() >= stay {
            self.on = !self.on;
        }
        emitted
    }
}

/// An aggregate of `n` i.i.d. MMOO flows, stepped as its ON-count
/// chain.
///
/// The flows are exchangeable, so the emission depends only on the
/// number `k` of flows ON, and `k` is itself a Markov chain: each ON
/// flow stays ON with probability `p22` and each OFF flow turns ON with
/// probability `1 − p11`, independently, so
/// `k' = Bin(k, p22) + Bin(n − k, 1 − p11)` (DESIGN.md, "Simulator
/// arrivals"). A step draws those two binomials instead of one uniform
/// per flow. The law of the emission process is that of `n` flows
/// stepped one by one with [`MmooState`]; the sample paths differ.
#[derive(Debug, Clone)]
pub struct MmooAggregate {
    model: Mmoo,
    n: usize,
    on_count: usize,
    /// `Bin(·, p22)`: the ON flows that stay ON.
    stay_on: Binomial,
    /// `Bin(·, 1 − p11)`: the OFF flows that turn ON.
    turn_on: Binomial,
}

impl MmooAggregate {
    /// `n` i.i.d. stationary flows of the given model: the ON count is
    /// drawn from `Bin(n, π_ON)`.
    pub fn stationary<R: Rng + ?Sized>(model: Mmoo, n: usize, rng: &mut R) -> Self {
        let on_count = Binomial::new(model.stationary_on(), n).sample(n, rng);
        Self::with_on_count(model, n, on_count)
    }

    /// `n` flows of the given model, `on_count` of them ON.
    ///
    /// # Panics
    ///
    /// Panics if `on_count > n`.
    pub fn with_on_count(model: Mmoo, n: usize, on_count: usize) -> Self {
        assert!(on_count <= n, "MmooAggregate: {on_count} flows ON out of {n}");
        MmooAggregate {
            model,
            n,
            on_count,
            stay_on: Binomial::new(model.p22(), n),
            turn_on: Binomial::new(1.0 - model.p11(), n),
        }
    }

    /// Number of flows in the aggregate.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the aggregate is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of flows currently ON.
    pub fn on_count(&self) -> usize {
        self.on_count
    }

    /// The per-flow analytical model.
    pub fn model(&self) -> &Mmoo {
        &self.model
    }

    /// Advances one slot: returns the emission of the flows that are
    /// ON, then draws the next ON count.
    ///
    /// Generic so a concrete generator (the tandem simulator's
    /// `StdRng`) inlines into the binomial draws.
    pub fn step<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        let k = self.on_count;
        let emitted = k as f64 * self.model.peak();
        self.on_count = self.stay_on.sample(k, rng) + self.turn_on.sample(self.n - k, rng);
        emitted
    }
}

/// Draws a state from the stationary distribution `pi` by inversion
/// (one uniform draw).
fn stationary_state<R: Rng + ?Sized>(pi: &[f64], rng: &mut R) -> usize {
    let u = rng.random::<f64>();
    let mut acc = 0.0;
    for (i, &p) in pi.iter().enumerate() {
        acc += p;
        if u < acc {
            return i;
        }
    }
    pi.len() - 1
}

/// One slot of an MMP flow in `state`: returns the state's rate, then
/// moves to the next state by inversion on the transition row (one
/// uniform draw; the state is kept if rounding leaves `u` above the
/// row's running sum).
fn mmp_step<R: Rng + ?Sized>(model: &Mmp, state: &mut usize, rng: &mut R) -> f64 {
    let emitted = model.rates()[*state];
    let u = rng.random::<f64>();
    let mut acc = 0.0;
    for (j, &p) in model.transition()[*state].iter().enumerate() {
        acc += p;
        if u < acc {
            *state = j;
            break;
        }
    }
    emitted
}

/// Simulation state of one general Markov-modulated flow (see
/// [`nc_traffic::Mmp`] for the analytical model).
#[derive(Debug, Clone)]
pub struct MmpState {
    model: Mmp,
    state: usize,
}

impl MmpState {
    /// Creates a flow in a fixed initial state.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    pub fn with_state(model: Mmp, state: usize) -> Self {
        assert!(state < model.states(), "MmpState: state out of range");
        MmpState { model, state }
    }

    /// Creates a flow whose initial state is drawn from the stationary
    /// distribution.
    pub fn stationary<R: Rng + ?Sized>(model: Mmp, rng: &mut R) -> Self {
        let state = stationary_state(&model.stationary(), rng);
        MmpState { model, state }
    }

    /// Current modulation state.
    pub fn state(&self) -> usize {
        self.state
    }

    /// Advances one slot: emits the current state's rate, then performs
    /// the state transition.
    pub fn step<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        mmp_step(&self.model, &mut self.state, rng)
    }
}

/// An aggregate of independent general Markov-modulated flows: one
/// shared model and one state index per flow, stepped in flow order
/// with the same draws as a [`MmpState`] per flow.
#[derive(Debug, Clone)]
pub struct MmpAggregate {
    model: Mmp,
    states: Vec<usize>,
}

impl MmpAggregate {
    /// `n` i.i.d. stationary flows of the given model.
    pub fn stationary<R: Rng + ?Sized>(model: &Mmp, n: usize, rng: &mut R) -> Self {
        let pi = model.stationary();
        let states = (0..n).map(|_| stationary_state(&pi, rng)).collect();
        MmpAggregate { model: model.clone(), states }
    }

    /// Number of flows in the aggregate.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether the aggregate is empty.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Advances one slot: returns the flows' summed rates (left to
    /// right), then performs every flow's state transition.
    pub fn step<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        let model = &self.model;
        self.states.iter_mut().map(|state| mmp_step(model, state, rng)).sum()
    }
}

/// The largest share of `λ` one run of Knuth's sampler takes on:
/// `e^{−500} ≈ 7·10⁻²¹⁸` is still a normal `f64`, while `e^{−λ}`
/// underflows for `λ ≳ 745` and would end every run at ~745 batches.
const POISSON_PART: f64 = 500.0;

/// Simulation wrapper for a batch-Poisson source.
///
/// Draws `Poisson(λ)` batches per slot with Knuth's product-of-uniforms
/// sampler. Larger `λ` are split into equal parts of at most
/// [`POISSON_PART`] and the parts' draws summed, which is exact:
/// independent Poisson draws sum to a Poisson of the summed means.
#[derive(Debug, Clone)]
pub struct PoissonBatchSim {
    model: PoissonBatch,
    /// Number of equal parts `λ` is split into.
    parts: u32,
    /// `e^{−λ/parts}`, the stopping level of each part's sampler.
    exp_neg_part: f64,
}

impl PoissonBatchSim {
    /// Wraps the analytical model for simulation.
    pub fn new(model: PoissonBatch) -> Self {
        let parts = (model.lambda() / POISSON_PART).ceil().max(1.0) as u32;
        let exp_neg_part = (-model.lambda() / f64::from(parts)).exp();
        PoissonBatchSim { model, parts, exp_neg_part }
    }

    /// Advances one slot: returns the data of this slot's
    /// `Poisson(λ)` batches.
    pub fn step<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        let mut k = 0u64;
        for _ in 0..self.parts {
            let mut p = rng.random::<f64>();
            while p > self.exp_neg_part {
                k += 1;
                p *= rng.random::<f64>();
            }
        }
        k as f64 * self.model.batch()
    }
}

/// Replays a fixed per-slot arrival schedule; emits `0` past the end of
/// the trace.
#[derive(Debug, Clone)]
pub struct TraceSource {
    slots: Vec<f64>,
    pos: usize,
}

impl TraceSource {
    /// Creates a trace source from per-slot amounts.
    pub fn new(slots: Vec<f64>) -> Self {
        TraceSource { slots, pos: 0 }
    }

    /// Whether the trace has been fully replayed.
    pub fn is_done(&self) -> bool {
        self.pos >= self.slots.len()
    }

    /// Advances one slot: returns the trace's amount for it (`0` past
    /// the end).
    pub fn step(&mut self) -> f64 {
        let v = self.slots.get(self.pos).copied().unwrap_or(0.0);
        self.pos += 1;
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mmoo_long_run_rate_matches_mean() {
        let model = Mmoo::paper_source();
        let mut rng = StdRng::seed_from_u64(7);
        let mut agg = MmooAggregate::stationary(model, 50, &mut rng);
        let slots = 200_000usize;
        let mut total = 0.0;
        for _ in 0..slots {
            total += agg.step(&mut rng);
        }
        let per_flow = total / (slots as f64 * 50.0);
        let want = model.mean_rate();
        assert!(
            (per_flow - want).abs() / want < 0.05,
            "empirical rate {per_flow} vs analytical {want}"
        );
    }

    #[test]
    fn mmoo_on_fraction_matches_stationary() {
        let model = Mmoo::paper_source();
        let mut rng = StdRng::seed_from_u64(11);
        let mut agg = MmooAggregate::stationary(model, 100, &mut rng);
        let mut on_slots = 0usize;
        let slots = 50_000usize;
        for _ in 0..slots {
            on_slots += agg.on_count();
            agg.step(&mut rng);
        }
        let frac = on_slots as f64 / (slots * 100) as f64;
        assert!((frac - model.stationary_on()).abs() < 0.01);
    }

    #[test]
    fn poisson_mean_rate() {
        // λ = 800 and 2000 are past the e^{−λ} underflow (λ ≳ 745), so
        // they exercise the split into parts.
        for (lambda, slots) in [(0.3, 200_000usize), (800.0, 4_000), (2000.0, 2_000)] {
            let model = PoissonBatch::new(lambda, 2.0);
            let mut src = PoissonBatchSim::new(model);
            let mut rng = StdRng::seed_from_u64(3);
            let total: f64 = (0..slots).map(|_| src.step(&mut rng)).sum();
            let batches = total / (slots as f64 * model.batch());
            // Five standard errors of the mean of `slots` Poisson(λ) draws.
            let tol = 5.0 * (lambda / slots as f64).sqrt();
            assert!((batches - lambda).abs() < tol, "λ = {lambda}: mean {batches}");
        }
    }

    #[test]
    fn mmp_two_state_matches_mmoo_statistics() {
        let mmoo = Mmoo::paper_source();
        let mmp = Mmp::from_mmoo(&mmoo);
        let mut rng = StdRng::seed_from_u64(17);
        let mut agg = MmpAggregate::stationary(&mmp, 50, &mut rng);
        let slots = 100_000usize;
        let mut total = 0.0;
        for _ in 0..slots {
            total += agg.step(&mut rng);
        }
        let per_flow = total / (slots as f64 * 50.0);
        assert!(
            (per_flow - mmoo.mean_rate()).abs() / mmoo.mean_rate() < 0.05,
            "MMP empirical rate {per_flow} vs MMOO mean {}",
            mmoo.mean_rate()
        );
    }

    #[test]
    fn mmp_three_state_long_run_rate() {
        let video = Mmp::new(
            vec![vec![0.90, 0.10, 0.00], vec![0.05, 0.90, 0.05], vec![0.00, 0.20, 0.80]],
            vec![0.0, 1.0, 3.0],
        );
        let want = video.mean_rate();
        let mut rng = StdRng::seed_from_u64(23);
        let mut agg = MmpAggregate::stationary(&video, 20, &mut rng);
        let slots = 200_000usize;
        let mut total = 0.0;
        for _ in 0..slots {
            total += agg.step(&mut rng);
        }
        let per_flow = total / (slots as f64 * 20.0);
        assert!((per_flow - want).abs() / want < 0.05, "empirical {per_flow} vs analytical {want}");
    }

    #[test]
    fn trace_replays_and_pads_with_zero() {
        let mut t = TraceSource::new(vec![1.0, 2.0]);
        assert_eq!(t.step(), 1.0);
        assert!(!t.is_done());
        assert_eq!(t.step(), 2.0);
        assert!(t.is_done());
        assert_eq!(t.step(), 0.0);
    }
}
