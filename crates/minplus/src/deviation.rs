//! Horizontal and vertical deviations (delay and backlog bounds).

use crate::curve::{Curve, EPS};

impl Curve {
    /// Vertical deviation `sup_{t≥0} [f(t) − g(t)]`, the backlog bound of
    /// an arrival envelope `f` at a server with service curve `g`.
    ///
    /// Returns `None` when the supremum is infinite (long-run rate of `f`
    /// exceeds that of `g`, or `f` becomes `+∞` while `g` stays finite).
    pub fn v_deviation(&self, g: &Curve) -> Option<f64> {
        if self.long_run_rate() > g.long_run_rate() + EPS {
            return None;
        }
        let mut best = 0.0_f64;
        let mut xs: Vec<f64> = self.xs().chain(g.xs()).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).expect("breakpoints are not NaN"));
        xs.dedup();
        for &x in &xs {
            for (fv, gv) in [(self.eval(x), g.eval(x)), (self.eval_right(x), g.eval_right(x))] {
                if fv.is_infinite() {
                    if gv.is_finite() {
                        return None;
                    }
                    continue;
                }
                if gv.is_infinite() {
                    continue;
                }
                best = best.max(fv - gv);
            }
        }
        Some(best)
    }

    /// Horizontal deviation
    /// `h(f, g) = sup_{t≥0} inf { d ≥ 0 : f(t) ≤ g(t + d) }`,
    /// the delay bound of an arrival envelope `f` at a server with
    /// service curve `g`.
    ///
    /// Returns `None` when the deviation is infinite (the server is too
    /// slow in the long run, or never provides enough service to cover a
    /// level that `f` reaches).
    ///
    /// # Example
    ///
    /// ```
    /// use nc_minplus::Curve;
    /// let f = Curve::token_bucket(1.0, 5.0);
    /// let g = Curve::rate_latency(4.0, 2.0);
    /// assert!((f.h_deviation(&g).unwrap() - 3.25).abs() < 1e-9);
    /// ```
    pub fn h_deviation(&self, g: &Curve) -> Option<f64> {
        if self.long_run_rate() > g.long_run_rate() + EPS {
            return None;
        }
        // Candidate abscissae: breakpoints of f, plus the points where
        // f(t) crosses one of g's breakpoint levels (there the pseudo-
        // inverse changes slope).
        let mut ts: Vec<f64> = self.xs().collect();
        for x in g.xs() {
            for level in [g.eval(x), g.eval_right(x)] {
                if !level.is_finite() {
                    continue;
                }
                if let Some(t) = self.pseudo_inverse(level) {
                    ts.push(t);
                }
            }
        }
        ts.sort_by(|a, b| a.partial_cmp(b).expect("breakpoints are not NaN"));
        ts.dedup_by(|a, b| (*a - *b).abs() <= EPS);
        // φ(t) = g⁻¹(f(t)) − t is piecewise linear between candidates but can
        // jump where g⁻¹ is discontinuous (flat pieces of g); midpoints and a
        // far tail point capture the open-interval suprema.
        let mut extra: Vec<f64> = ts.windows(2).map(|w| 0.5 * (w[0] + w[1])).collect();
        let t_last = ts.last().copied().unwrap_or(0.0);
        extra.push(t_last + 1.0);
        extra.push(2.0 * t_last + 16.0);
        ts.extend(extra);
        let mut best = 0.0_f64;
        for &t in &ts {
            for fv in [self.eval(t), self.eval_right(t)] {
                if fv <= 0.0 {
                    continue;
                }
                match g.pseudo_inverse(fv) {
                    Some(u) => best = best.max(u - t),
                    None => return None,
                }
            }
        }
        Some(best.max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backlog_token_bucket_rate_latency() {
        // b + rT = 5 + 2 = 7.
        let f = Curve::token_bucket(1.0, 5.0);
        let g = Curve::rate_latency(4.0, 2.0);
        assert!((f.v_deviation(&g).unwrap() - 7.0).abs() < 1e-9);
    }

    #[test]
    fn delay_token_bucket_rate_latency() {
        // T + b/R = 2 + 5/4.
        let f = Curve::token_bucket(1.0, 5.0);
        let g = Curve::rate_latency(4.0, 2.0);
        assert!((f.h_deviation(&g).unwrap() - 3.25).abs() < 1e-9);
    }

    #[test]
    fn deviations_infinite_when_underprovisioned() {
        let f = Curve::token_bucket(5.0, 1.0);
        let g = Curve::rate_latency(2.0, 1.0);
        assert_eq!(f.h_deviation(&g), None);
        assert_eq!(f.v_deviation(&g), None);
    }

    #[test]
    fn delay_against_delta_service() {
        // δ_d guarantees delay exactly d for any finite envelope.
        let f = Curve::token_bucket(3.0, 10.0);
        let g = Curve::delta(4.0);
        assert!((f.h_deviation(&g).unwrap() - 4.0).abs() < 1e-9);
        // Backlog: everything that arrives in d time: b + r·d.
        assert!((f.v_deviation(&g).unwrap() - 22.0).abs() < 1e-9);
    }

    #[test]
    fn zero_envelope_has_zero_deviation() {
        let f = Curve::zero();
        let g = Curve::rate_latency(1.0, 5.0);
        assert_eq!(f.h_deviation(&g), Some(0.0));
        assert_eq!(f.v_deviation(&g), Some(0.0));
    }

    #[test]
    fn envelope_against_bounded_service_is_infinite() {
        // g ≡ 0 never serves: infinite delay for any positive envelope.
        let f = Curve::token_bucket(1.0, 1.0);
        let g = Curve::zero();
        assert_eq!(f.h_deviation(&g), None);
    }

    #[test]
    fn delay_equal_rates_finite_when_burst_covered() {
        // f = t, g = rate-latency(1, T): delay = T.
        let f = Curve::rate(1.0).unwrap();
        let g = Curve::rate_latency(1.0, 3.0);
        assert!((f.h_deviation(&g).unwrap() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn pad_convolution_delay_consistency() {
        // Delay through two rate-latency servers via network service curve.
        let f = Curve::token_bucket(1.0, 5.0);
        let s1 = Curve::rate_latency(4.0, 2.0);
        let s2 = Curve::rate_latency(3.0, 1.0);
        let net = s1.convolve(&s2);
        let d = f.h_deviation(&net).unwrap();
        // net = rate-latency(3, 3): delay = 3 + 5/3.
        assert!((d - (3.0 + 5.0 / 3.0)).abs() < 1e-9);
    }
}
