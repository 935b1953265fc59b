//! Slotted traffic sources.

use nc_traffic::{CbrSource, Mmoo, Mmp, PoissonBatch};
use rand::{Rng, RngExt};

/// A slotted traffic source: each call to [`Source::pull`] returns the
/// amount of data emitted in the next slot.
///
/// The trait is object-safe (`&mut dyn Rng` rather than a generic
/// parameter) so heterogeneous source mixes can be boxed.
pub trait Source {
    /// Data emitted in the next slot.
    fn pull(&mut self, rng: &mut dyn Rng) -> f64;
}

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

impl Source for MmooState {
    fn pull(&mut self, rng: &mut dyn Rng) -> f64 {
        self.step(rng)
    }
}

/// `⌈p·2⁵³⌉`: the integer form of the stay test `u ≥ p` on a uniform
/// `u = (w >> 11)·2⁻⁵³` drawn from a 64-bit word `w` (the `f64` draw of
/// [`rand::RngExt::random`]). The scaling by 2⁵³ and the ceiling are both
/// exact in `f64`, so `(w >> 11) ≥ ⌈p·2⁵³⌉` holds exactly when `u ≥ p`.
fn stay_threshold(p: f64) -> u64 {
    (p * (1u64 << 53) as f64).ceil() as u64
}

/// An aggregate of independent MMOO flows, stepped jointly.
///
/// Stored as a struct of arrays: one shared model, one ON flag per
/// flow, and the count of flows currently ON. Each step draws one
/// 64-bit word per flow, in flow order, exactly as stepping a
/// [`MmooState`] per flow would, and the emission is read from a
/// per-aggregate table indexed by the ON count, so sample paths and
/// emitted amounts are bit-identical to the per-flow loop.
#[derive(Debug, Clone)]
pub struct MmooAggregate {
    model: Mmoo,
    on: Vec<bool>,
    on_count: usize,
    /// [`stay_threshold`] of `p11` (stay OFF) and `p22` (stay ON).
    stay_off: u64,
    stay_on: u64,
    /// `emitted[k]`: the left-to-right `f64` sum of the per-flow
    /// emissions when `k` flows are ON (OFF flows add an exact `0.0`).
    emitted: Vec<f64>,
}

impl MmooAggregate {
    /// `n` i.i.d. stationary flows of the given model (one draw per
    /// flow, in flow order, as [`MmooState::stationary`]).
    pub fn stationary<R: Rng + ?Sized>(model: Mmoo, n: usize, rng: &mut R) -> Self {
        let on: Vec<bool> = (0..n).map(|_| MmooState::stationary(model, rng).is_on()).collect();
        let mut emitted = Vec::with_capacity(n + 1);
        emitted.push(std::iter::repeat_n(0.0, n).sum::<f64>());
        for k in 1..=n {
            emitted.push(emitted[k - 1] + model.peak());
        }
        MmooAggregate {
            model,
            on_count: on.iter().filter(|&&on| on).count(),
            on,
            stay_off: stay_threshold(model.p11()),
            stay_on: stay_threshold(model.p22()),
            emitted,
        }
    }

    /// Number of flows in the aggregate.
    pub fn len(&self) -> usize {
        self.on.len()
    }

    /// Whether the aggregate is empty.
    pub fn is_empty(&self) -> bool {
        self.on.is_empty()
    }

    /// Number of flows currently ON.
    pub fn on_count(&self) -> usize {
        self.on_count
    }

    /// The per-flow analytical model.
    pub fn model(&self) -> &Mmoo {
        &self.model
    }

    /// Advances one slot: returns the aggregate emission of the flows
    /// that are ON, then performs every flow's state transition.
    ///
    /// Generic so a concrete generator (the tandem simulator's
    /// `StdRng`) inlines into the per-flow loop.
    pub fn step<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        let emitted = self.emitted[self.on_count];
        let (stay_off, stay_on) = (self.stay_off, self.stay_on);
        let mut on_count = 0;
        for on in &mut self.on {
            let stay = if *on { stay_on } else { stay_off };
            *on ^= rng.next_u64() >> 11 >= stay;
            on_count += usize::from(*on);
        }
        self.on_count = on_count;
        emitted
    }
}

impl Source for MmooAggregate {
    fn pull(&mut self, rng: &mut dyn Rng) -> f64 {
        self.step(rng)
    }
}

impl Source for CbrSource {
    fn pull(&mut self, _rng: &mut dyn Rng) -> f64 {
        self.rate()
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

impl Source for MmpState {
    fn pull(&mut self, rng: &mut dyn Rng) -> f64 {
        self.step(rng)
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

impl Source for MmpAggregate {
    fn pull(&mut self, rng: &mut dyn Rng) -> f64 {
        self.step(rng)
    }
}

/// Simulation wrapper for a batch-Poisson source.
#[derive(Debug, Clone)]
pub struct PoissonBatchSim {
    model: PoissonBatch,
    /// `e^{-λ}`, the stopping level of Knuth's sampler.
    exp_neg_lambda: f64,
}

impl PoissonBatchSim {
    /// Wraps the analytical model for simulation.
    pub fn new(model: PoissonBatch) -> Self {
        PoissonBatchSim { model, exp_neg_lambda: (-model.lambda()).exp() }
    }
}

impl Source for PoissonBatchSim {
    fn pull(&mut self, rng: &mut dyn Rng) -> f64 {
        // Knuth's Poisson sampler; λ is small (per-slot) in all uses.
        let mut k = 0u32;
        let mut p = 1.0;
        loop {
            p *= rng.random::<f64>();
            if p <= self.exp_neg_lambda {
                break;
            }
            k += 1;
            if k > 1_000_000 {
                break; // λ pathologically large; cap rather than spin
            }
        }
        k as f64 * self.model.batch()
    }
}

/// Replays a fixed per-slot arrival schedule (used for the Theorem-2
/// adversarial scenarios); emits `0` past the end of the trace.
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
}

impl Source for TraceSource {
    fn pull(&mut self, _rng: &mut dyn Rng) -> f64 {
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

    /// A generator that replays one fixed word.
    struct Word(u64);

    impl Rng for Word {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    #[test]
    fn stay_threshold_is_the_float_stay_test() {
        let half_eps = f64::EPSILON / 2.0;
        for p in [0.0, 1.0, half_eps, 1.0 - half_eps, 0.1, 1.0 / 3.0, 0.5, 0.9, 0.989] {
            let t = stay_threshold(p);
            for m in [t.saturating_sub(1), t, t + 1] {
                if m >= 1 << 53 {
                    continue;
                }
                for low in [0, 0x7ff] {
                    let w = m << 11 | low;
                    let leaves = Word(w).random::<f64>() >= p;
                    assert_eq!(w >> 11 >= t, leaves, "p = {p}, word {w:#x}");
                }
            }
        }
        assert_eq!((stay_threshold(0.0), stay_threshold(1.0)), (0, 1 << 53));
    }

    #[test]
    fn mmoo_long_run_rate_matches_mean() {
        let model = Mmoo::paper_source();
        let mut rng = StdRng::seed_from_u64(7);
        let mut agg = MmooAggregate::stationary(model, 50, &mut rng);
        let slots = 200_000usize;
        let mut total = 0.0;
        for _ in 0..slots {
            total += agg.pull(&mut rng);
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
            agg.pull(&mut rng);
        }
        let frac = on_slots as f64 / (slots * 100) as f64;
        assert!((frac - model.stationary_on()).abs() < 0.01);
    }

    #[test]
    fn cbr_is_constant() {
        let mut c = CbrSource::new(2.5);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10 {
            assert_eq!(c.pull(&mut rng), 2.5);
        }
    }

    #[test]
    fn poisson_mean_rate() {
        let model = PoissonBatch::new(0.3, 2.0);
        let mut src = PoissonBatchSim::new(model);
        let mut rng = StdRng::seed_from_u64(3);
        let slots = 200_000usize;
        let total: f64 = (0..slots).map(|_| src.pull(&mut rng)).sum();
        let rate = total / slots as f64;
        assert!((rate - model.mean_rate()).abs() / model.mean_rate() < 0.05);
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
            total += agg.pull(&mut rng);
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
            total += agg.pull(&mut rng);
        }
        let per_flow = total / (slots as f64 * 20.0);
        assert!((per_flow - want).abs() / want < 0.05, "empirical {per_flow} vs analytical {want}");
    }

    #[test]
    fn trace_replays_and_pads_with_zero() {
        let mut t = TraceSource::new(vec![1.0, 2.0]);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(t.pull(&mut rng), 1.0);
        assert!(!t.is_done());
        assert_eq!(t.pull(&mut rng), 2.0);
        assert!(t.is_done());
        assert_eq!(t.pull(&mut rng), 0.0);
    }
}
