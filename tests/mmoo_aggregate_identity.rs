//! The struct-of-arrays `MmooAggregate` reproduces the per-flow
//! reference loop bit for bit: stepping it and a `Vec<MmooState>` from
//! the same seed yields the same emission bits, the same ON count, and
//! leaves both generators at the same next word.

use linksched::sim::{MmooAggregate, MmooState, Source};
use linksched::traffic::Mmoo;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The smallest stay probability the model admits next to the largest
/// one below 1 (`p11 + p22 ≥ 1` must still hold): the edges of the
/// open interval (0, 1).
const TINY: f64 = f64::EPSILON / 2.0;
const NEAR_ONE: f64 = 1.0 - f64::EPSILON / 2.0;

/// `(p11, p22)` pairs: the paper's source, the (0, 1) edges in both
/// orders, dyadic values whose `p·2⁵³` is an integer, and non-dyadic
/// ones.
const STAY: [(f64, f64); 7] = [
    (0.989, 0.9),
    (TINY, NEAR_ONE),
    (NEAR_ONE, TINY),
    (NEAR_ONE, NEAR_ONE),
    (0.5, 0.5),
    (0.1, 0.9),
    (1.0 / 3.0, 0.75),
];

/// Per-ON-slot emissions: the paper's 1.5, non-dyadic values whose
/// repeated sums round, and one whose sums overflow to infinity.
const PEAK: [f64; 5] = [1.5, 0.1, 1.0 / 3.0, 7.3e-5, f64::MAX / 4.0];

/// A seeded stream in which every other word (on average) is replaced
/// by one whose uniform `u = (w >> 11)·2⁻⁵³` lies at or next to a stay
/// probability `p`: the draws where `u ≥ p` and an off-by-one integer
/// test part ways, which a plain stream hits with probability ~2⁻⁵³.
#[derive(Clone)]
struct EdgeRng {
    inner: StdRng,
    edges: Vec<u64>,
}

impl EdgeRng {
    fn new(model: Mmoo, seed: u64) -> Self {
        let mut edges = Vec::new();
        for p in [model.p11(), model.p22()] {
            let m = (p * (1u64 << 53) as f64).ceil() as u64;
            for u in [m - 1, m, m + 1].into_iter().filter(|&u| u < 1 << 53) {
                edges.push(u << 11 | 0x5a5);
            }
        }
        EdgeRng { inner: StdRng::seed_from_u64(seed), edges }
    }
}

impl Rng for EdgeRng {
    fn next_u64(&mut self) -> u64 {
        let w = self.inner.next_u64();
        match w & 1 {
            0 => self.edges[(w >> 1) as usize % self.edges.len()],
            _ => w,
        }
    }
}

/// Steps both implementations `slots` times on two copies of `rng`,
/// alternating the generic `step` and the object-safe `Source::pull`,
/// and checks every slot.
fn assert_identical<R: Rng + Clone>(
    model: Mmoo,
    n: usize,
    rng: R,
    slots: usize,
) -> Result<(), String> {
    let mut ref_rng = rng.clone();
    let mut rng = rng;
    let mut flows: Vec<MmooState> =
        (0..n).map(|_| MmooState::stationary(model, &mut ref_rng)).collect();
    let mut agg = MmooAggregate::stationary(model, n, &mut rng);
    for slot in 0..=slots {
        let on = flows.iter().filter(|f| f.is_on()).count();
        if agg.on_count() != on {
            return Err(format!("{model} n={n} slot {slot}: ON count {} vs {on}", agg.on_count()));
        }
        if rng.clone().next_u64() != ref_rng.clone().next_u64() {
            return Err(format!("{model} n={n} slot {slot}: generators diverged"));
        }
        if slot == slots {
            break;
        }
        let want: f64 = flows.iter_mut().map(|f| f.step(&mut ref_rng)).sum();
        let got = if slot % 2 == 0 { agg.step(&mut rng) } else { agg.pull(&mut rng) };
        if got.to_bits() != want.to_bits() {
            return Err(format!("{model} n={n} slot {slot}: emitted {got:e} vs {want:e}"));
        }
    }
    Ok(())
}

#[test]
fn every_flow_count_up_to_200_matches_the_reference() {
    for n in 0..=200 {
        for (i, &(p11, p22)) in STAY.iter().enumerate() {
            let model = Mmoo::new(p11, p22, PEAK[i % PEAK.len()]);
            let seed = 0x5eed ^ n as u64;
            assert_identical(model, n, StdRng::seed_from_u64(seed), 40).unwrap();
            assert_identical(model, n, EdgeRng::new(model, seed), 40).unwrap();
        }
    }
}

#[test]
fn empty_aggregate_emits_the_empty_sum() {
    let mut rng = StdRng::seed_from_u64(1);
    let mut agg = MmooAggregate::stationary(Mmoo::paper_source(), 0, &mut rng);
    let empty: f64 = std::iter::empty::<f64>().sum();
    assert_eq!(agg.step(&mut rng).to_bits(), empty.to_bits());
    assert!(agg.is_empty());
}

proptest! {
    #[test]
    fn aggregate_is_bit_identical_to_per_flow_steps(
        n in 0usize..=200,
        stay in 0usize..STAY.len(),
        peak in 0usize..PEAK.len(),
        seed in 0u64..u64::MAX,
        slots in 1usize..400,
    ) {
        let (p11, p22) = STAY[stay];
        let model = Mmoo::new(p11, p22, PEAK[peak]);
        let plain = assert_identical(model, n, StdRng::seed_from_u64(seed), slots);
        let edged = assert_identical(model, n, EdgeRng::new(model, seed), slots);
        if let Err(msg) = plain.and(edged) {
            prop_assert!(false, "{msg}");
        }
    }
}
