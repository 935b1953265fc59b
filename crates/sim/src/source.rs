//! Slotted traffic sources.

use crate::binomial::Binomial;
use nc_traffic::Mmoo;
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
}
