//! Deterministic schedulability (Eq. (24)) and the tightness
//! construction of Theorem 2.

use crate::delta::DeltaScheduler;
use nc_minplus::Curve;
use nc_telemetry as tel;
use nc_traffic::DetEnvelope;

static CHECKS: tel::Counter = tel::Counter::new("core_schedulability_checks_total");
static BISECTIONS: tel::Counter = tel::Counter::new("core_schedulability_bisections_total");

/// `sup_{t>0} [ Σ_k G_k(t + δ_k) − C·t ]` for piecewise-linear
/// envelopes, where `δ_k` may be negative (shift right) or positive
/// (shift left). Returns `+∞` when the envelope rates exceed `C`.
///
/// The function inside the sup is piecewise linear; the supremum is
/// attained at a shifted breakpoint, approached at `t → 0⁺`, or at the
/// tail. Midpoints and a far point guard against open-interval suprema
/// at jumps (cf. the same technique in `nc-minplus`'s deviations).
pub(crate) fn sup_excess(capacity: f64, terms: &[(&Curve, f64)]) -> f64 {
    let total_rate: f64 = terms.iter().map(|(c, _)| c.long_run_rate()).sum();
    if total_rate > capacity + 1e-12 {
        return f64::INFINITY;
    }
    let mut ts: Vec<f64> = vec![0.0];
    for (curve, delta) in terms {
        for x in curve.segments().iter().map(|s| s.x) {
            let t = x - delta;
            if t > 0.0 && t.is_finite() {
                ts.push(t);
            }
        }
    }
    ts.sort_by(|a, b| a.partial_cmp(b).expect("candidate times are not NaN"));
    ts.dedup_by(|a, b| (*a - *b).abs() <= 1e-12);
    let mids: Vec<f64> = ts.windows(2).map(|w| 0.5 * (w[0] + w[1])).collect();
    let t_last = ts.last().copied().unwrap_or(0.0);
    ts.extend(mids);
    ts.push(t_last + 1.0);
    ts.push(2.0 * t_last + 16.0);

    let mut best = f64::NEG_INFINITY;
    for &t in &ts {
        // Left and right limits at the candidate.
        let mut left = -capacity * t;
        let mut right = -capacity * t;
        for (curve, delta) in terms {
            left += curve.eval(t + delta);
            right += curve.eval_right(t + delta);
        }
        best = best.max(left).max(right);
    }
    best.max(0.0)
}

/// The deterministic schedulability condition (Eq. (24)):
///
/// `sup_{t>0} [ Σ_{k∈N_j} E_k(t + Δ_{j,k}(d)) − C·t ] ≤ C·d`.
///
/// If it holds, no arrival of flow `j` is ever delayed by more than `d`
/// (sufficiency). For concave envelopes the condition is also necessary
/// (Theorem 2): see [`adversarial_scenario`].
///
/// # Panics
///
/// Panics if dimensions mismatch, `capacity` is not positive/finite, or
/// `d` is negative.
pub fn delay_feasible(
    capacity: f64,
    sched: &DeltaScheduler,
    envelopes: &[DetEnvelope],
    j: usize,
    d: f64,
) -> bool {
    assert!(capacity > 0.0 && capacity.is_finite(), "delay_feasible: capacity must be positive");
    assert!(d >= 0.0 && !d.is_nan(), "delay_feasible: delay must be non-negative");
    CHECKS.add(1);
    assert_eq!(envelopes.len(), sched.flows(), "delay_feasible: one envelope per flow required");
    assert!(j < sched.flows(), "delay_feasible: flow index out of range");
    let terms: Vec<(&Curve, f64)> = sched
        .interfering(j)
        .into_iter()
        .map(|k| (envelopes[k].curve(), sched.delta_capped(j, k, d)))
        .collect();
    sup_excess(capacity, &terms) <= capacity * d + 1e-9 * capacity.max(1.0)
}

/// The smallest delay bound `d` for which Eq. (24) holds, found by
/// bisection (the condition is monotone in `d` whenever the aggregate
/// envelope rate is below `C`, which bisection requires and the function
/// checks).
///
/// Returns `None` if no finite delay bound exists (aggregate rate at or
/// above capacity, or the search cap of `10⁹` time units is exceeded).
///
/// # Panics
///
/// As for [`delay_feasible`].
pub fn min_feasible_delay(
    capacity: f64,
    sched: &DeltaScheduler,
    envelopes: &[DetEnvelope],
    j: usize,
) -> Option<f64> {
    let _span = tel::span("core.schedulability.min_feasible_delay");
    let rate_sum: f64 =
        sched.interfering(j).into_iter().map(|k| envelopes[k].curve().long_run_rate()).sum();
    if rate_sum > capacity {
        return None;
    }
    let mut hi = 1.0_f64;
    while !delay_feasible(capacity, sched, envelopes, j, hi) {
        hi *= 2.0;
        if hi > 1e9 {
            return None;
        }
    }
    let mut lo = 0.0_f64;
    for _ in 0..200 {
        BISECTIONS.add(1);
        let mid = 0.5 * (lo + hi);
        if delay_feasible(capacity, sched, envelopes, j, mid) {
            hi = mid;
        } else {
            lo = mid;
        }
        if hi - lo <= 1e-12 * (1.0 + hi) {
            break;
        }
    }
    Some(hi)
}

/// A greedy arrival scenario that *violates* a target delay bound `d`
/// for flow `j`, per the necessity proof of Theorem 2: every flow sends
/// exactly at its envelope from time 0, and flow `j` has a tagged
/// arrival at `t_star` that cannot be served by `t_star + d`.
#[derive(Debug, Clone, PartialEq)]
pub struct AdversarialScenario {
    /// The time of the tagged flow-`j` arrival whose delay exceeds `d`.
    pub t_star: f64,
    /// The violated delay target.
    pub d: f64,
    /// The amount by which Eq. (24) is violated at `t_star`
    /// (`Σ E_k(t* + Δ_{j,k}(d)) − C(t* + d)`).
    pub excess: f64,
    /// Per-flow cumulative arrival functions `A_k = E_k` (greedy).
    pub arrivals: Vec<Curve>,
}

impl AdversarialScenario {
    /// Slots the scenario into per-flow, per-slot arrival increments on
    /// a grid of step `dt` covering `[0, horizon]`, for replay in a
    /// packet/fluid simulator: `out[k][i] = E_k((i+1)·dt) − E_k(i·dt)`.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not strictly positive or `horizon < dt`.
    pub fn slotted_arrivals(&self, dt: f64, horizon: f64) -> Vec<Vec<f64>> {
        assert!(dt > 0.0 && dt.is_finite(), "slotted_arrivals: dt must be positive");
        assert!(horizon >= dt, "slotted_arrivals: horizon must cover at least one slot");
        let n = (horizon / dt).ceil() as usize;
        self.arrivals
            .iter()
            .map(|e| {
                (0..n)
                    .map(|i| (e.eval((i + 1) as f64 * dt) - e.eval(i as f64 * dt)).max(0.0))
                    .collect()
            })
            .collect()
    }
}

/// Constructs the Theorem-2 adversarial scenario for a delay target `d`
/// that violates Eq. (24), or returns `None` if `d` is feasible (then no
/// such scenario exists for concave envelopes — the condition is tight).
///
/// # Panics
///
/// As for [`delay_feasible`]; additionally panics if any envelope is not
/// concave (Theorem 2's necessity requires concavity).
pub fn adversarial_scenario(
    capacity: f64,
    sched: &DeltaScheduler,
    envelopes: &[DetEnvelope],
    j: usize,
    d: f64,
) -> Option<AdversarialScenario> {
    for e in envelopes {
        assert!(
            e.curve().is_concave(),
            "adversarial_scenario: Theorem 2 requires concave envelopes"
        );
    }
    if delay_feasible(capacity, sched, envelopes, j, d) {
        return None;
    }
    // Find the violating t*: argmax of Σ E_k(t + Δ_{j,k}(d)) − C·t.
    let terms: Vec<(&Curve, f64)> = sched
        .interfering(j)
        .into_iter()
        .map(|k| (envelopes[k].curve(), sched.delta_capped(j, k, d)))
        .collect();
    let eval = |t: f64| -> f64 {
        terms.iter().map(|(c, delta)| c.eval_right(t + delta)).sum::<f64>() - capacity * t
    };
    // Candidates as in sup_excess.
    let mut ts: Vec<f64> = vec![0.0];
    for (curve, delta) in &terms {
        for x in curve.segments().iter().map(|s| s.x) {
            let t = x - delta;
            if t > 0.0 && t.is_finite() {
                ts.push(t);
            }
        }
    }
    ts.sort_by(|a, b| a.partial_cmp(b).expect("candidate times are not NaN"));
    let mids: Vec<f64> = ts.windows(2).map(|w| 0.5 * (w[0] + w[1])).collect();
    let t_last = ts.last().copied().unwrap_or(0.0);
    ts.extend(mids);
    ts.push(t_last + 1.0);
    ts.push(2.0 * t_last + 16.0);
    let (t_star, sup) = ts
        .iter()
        .map(|&t| (t, eval(t)))
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("sup values are not NaN"))
        .expect("candidate list is non-empty");
    let excess = sup - capacity * d;
    if excess <= 0.0 {
        return None; // numerical edge: treat as feasible
    }
    // Use a strictly positive tagged-arrival time: the greedy scenario
    // needs an arrival of flow j at t*, and t* = 0 means "immediately
    // after 0"; nudge onto the first slot boundary in that case.
    let t_star = if t_star > 0.0 { t_star } else { 1.0e-6 };
    Some(AdversarialScenario {
        t_star,
        d,
        excess,
        arrivals: envelopes.iter().map(|e| e.curve().clone()).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FIFO with leaky buckets at an uncongested link: the known tight
    /// bound is d = ΣB_k / C (Cruz).
    #[test]
    fn fifo_leaky_bucket_tight_bound() {
        let c = 10.0;
        let sched = DeltaScheduler::fifo(3);
        let envs = vec![
            DetEnvelope::leaky_bucket(2.0, 4.0),
            DetEnvelope::leaky_bucket(3.0, 6.0),
            DetEnvelope::leaky_bucket(1.0, 5.0),
        ];
        let d = min_feasible_delay(c, &sched, &envs, 0).unwrap();
        assert!((d - 15.0 / 10.0).abs() < 1e-6, "FIFO bound {d} ≠ ΣB/C");
    }

    /// Static priority, tagged flow lowest: the known tight bound for the
    /// low-priority flow solves sup_t [E_hp(t+d) + E_lp(t) − Ct] = Cd.
    #[test]
    fn sp_low_priority_bound_exceeds_fifo() {
        let c = 10.0;
        let envs = vec![DetEnvelope::leaky_bucket(2.0, 4.0), DetEnvelope::leaky_bucket(3.0, 6.0)];
        let fifo = min_feasible_delay(c, &DeltaScheduler::fifo(2), &envs, 0).unwrap();
        let bmux = min_feasible_delay(c, &DeltaScheduler::bmux(2, 0), &envs, 0).unwrap();
        assert!(bmux >= fifo - 1e-9, "BMUX {bmux} must dominate FIFO {fifo}");
        // Closed form for BMUX with leaky buckets:
        // sup_t[B0 + r0 t + Bc + rc(t+d) − Ct] = B0+Bc+rc·d at t→0 ⇒
        // d = (B0+Bc)/(C−rc).
        assert!((bmux - 10.0 / 7.0).abs() < 1e-6, "BMUX bound {bmux}");
    }

    /// High-priority flow: only its own burst matters.
    #[test]
    fn sp_high_priority_bound_is_own_burst() {
        let c = 10.0;
        let envs = vec![DetEnvelope::leaky_bucket(2.0, 4.0), DetEnvelope::leaky_bucket(3.0, 6.0)];
        let sched = DeltaScheduler::static_priority(&[0, 1]);
        let d = min_feasible_delay(c, &sched, &envs, 0).unwrap();
        assert!((d - 4.0 / 10.0).abs() < 1e-6, "high-priority bound {d} ≠ B0/C");
    }

    /// EDF bounds lie between the strict-priority extremes and respond
    /// monotonically to the deadline gap.
    #[test]
    fn edf_interpolates_with_deadline_gap() {
        let c = 10.0;
        let envs = vec![DetEnvelope::leaky_bucket(2.0, 4.0), DetEnvelope::leaky_bucket(3.0, 6.0)];
        let hi =
            min_feasible_delay(c, &DeltaScheduler::static_priority(&[0, 1]), &envs, 0).unwrap();
        let lo = min_feasible_delay(c, &DeltaScheduler::bmux(2, 0), &envs, 0).unwrap();
        let mut prev = hi - 1e-12;
        for gap in [-5.0, -1.0, 0.0, 1.0, 5.0] {
            // Δ_{0,1} = gap: d*_0 = d*_c + gap.
            let sched = DeltaScheduler::from_matrix(vec![vec![0.0, gap], vec![-gap, 0.0]]);
            let d = min_feasible_delay(c, &sched, &envs, 0).unwrap();
            assert!(d >= hi - 1e-9 && d <= lo + 1e-9, "EDF bound {d} outside [{hi}, {lo}]");
            assert!(d >= prev - 1e-9, "EDF bound must grow with Δ");
            prev = d;
        }
    }

    #[test]
    fn infeasible_when_overloaded() {
        let c = 4.0;
        let sched = DeltaScheduler::fifo(2);
        let envs = vec![DetEnvelope::leaky_bucket(2.0, 4.0), DetEnvelope::leaky_bucket(3.0, 6.0)];
        assert_eq!(min_feasible_delay(c, &sched, &envs, 0), None);
    }

    #[test]
    fn adversarial_scenario_exists_iff_infeasible() {
        let c = 10.0;
        let sched = DeltaScheduler::fifo(2);
        let envs = vec![DetEnvelope::leaky_bucket(2.0, 4.0), DetEnvelope::leaky_bucket(3.0, 6.0)];
        let d_tight = min_feasible_delay(c, &sched, &envs, 0).unwrap();
        assert!(adversarial_scenario(c, &sched, &envs, 0, d_tight * 1.01).is_none());
        let sc = adversarial_scenario(c, &sched, &envs, 0, d_tight * 0.9).unwrap();
        assert!(sc.excess > 0.0);
        assert!(sc.t_star >= 0.0);
        assert_eq!(sc.arrivals.len(), 2);
    }

    #[test]
    fn slotted_arrivals_sum_to_envelope() {
        let c = 10.0;
        let sched = DeltaScheduler::fifo(2);
        let envs = vec![DetEnvelope::leaky_bucket(2.0, 4.0), DetEnvelope::leaky_bucket(3.0, 6.0)];
        let sc = adversarial_scenario(c, &sched, &envs, 0, 0.5).unwrap();
        let slots = sc.slotted_arrivals(1.0, 10.0);
        let total: f64 = slots[0].iter().sum();
        assert!((total - envs[0].curve().eval(10.0)).abs() < 1e-9);
        // First slot carries the burst.
        assert!(slots[1][0] >= 6.0);
    }
}
