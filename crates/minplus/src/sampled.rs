//! Dense uniform-grid curve representation.

use crate::curve::{Curve, CurveError};
use nc_telemetry as tel;

static GRID_CONVOLUTION: tel::Counter = tel::Counter::new("minplus_grid_convolution_total");
static GRID_CONVOLUTION_SECONDS: tel::Timing = tel::Timing::new("minplus_grid_convolution_seconds");
static GRID_DECONVOLUTION: tel::Counter = tel::Counter::new("minplus_grid_deconvolution_total");
static GRID_DECONVOLUTION_SECONDS: tel::Timing =
    tel::Timing::new("minplus_grid_deconvolution_seconds");

/// A curve sampled on the uniform grid `0, dt, 2·dt, …, (n−1)·dt`.
///
/// `SampledCurve` is the general-purpose fallback representation for
/// min-plus operations that have no efficient exact algorithm on
/// arbitrary piecewise-linear curves. Grid operations are `O(n²)` and
/// approximate the true operator to within one grid cell of curve
/// growth; refine `dt` to tighten.
///
/// # Example
///
/// ```
/// use nc_minplus::{Curve, SampledCurve};
///
/// let f = Curve::token_bucket(1.0, 5.0);
/// let s = SampledCurve::from_curve(&f, 0.5, 32);
/// assert_eq!(s.eval(0), 0.0);            // f(0) = 0
/// assert_eq!(s.eval(2), 6.0);            // f(1) = 5 + 1
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SampledCurve {
    dt: f64,
    values: Vec<f64>,
}

impl SampledCurve {
    /// Samples `curve` at `n` grid points with step `dt`.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not strictly positive/finite or `n` is zero.
    pub fn from_curve(curve: &Curve, dt: f64, n: usize) -> Self {
        assert!(dt > 0.0 && dt.is_finite(), "from_curve: dt must be positive and finite");
        assert!(n > 0, "from_curve: need at least one sample");
        let values = (0..n).map(|i| curve.eval(i as f64 * dt)).collect();
        SampledCurve { dt, values }
    }

    /// Builds a sampled curve directly from values.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not strictly positive/finite, `values` is empty,
    /// or the values are decreasing or negative.
    pub fn from_values(dt: f64, values: Vec<f64>) -> Self {
        assert!(dt > 0.0 && dt.is_finite(), "from_values: dt must be positive and finite");
        assert!(!values.is_empty(), "from_values: need at least one sample");
        for w in values.windows(2) {
            assert!(w[1] >= w[0], "from_values: samples must be non-decreasing");
        }
        assert!(values[0] >= 0.0, "from_values: samples must be non-negative");
        SampledCurve { dt, values }
    }

    /// Grid step.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the sample vector is empty (never true for constructed values).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Value at grid index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn eval(&self, i: usize) -> f64 {
        self.values[i]
    }

    /// The sample values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Grid min-plus convolution `h[k] = min_{i+j=k} f[i] + g[j]`.
    ///
    /// The result has the length of the shorter operand. Grids must match.
    ///
    /// Allocates the result; for hot loops that reuse a buffer, see
    /// [`SampledCurve::convolve_into`] (bitwise-identical output).
    ///
    /// # Panics
    ///
    /// Panics if the grid steps differ.
    pub fn convolve(&self, other: &SampledCurve) -> SampledCurve {
        let mut out = Vec::new();
        self.convolve_into(other, &mut out);
        SampledCurve { dt: self.dt, values: out }
    }

    /// [`SampledCurve::convolve`] into a caller-provided buffer.
    ///
    /// `out` is cleared and filled with the `min(self.len(),
    /// other.len())` result samples; its existing capacity is reused,
    /// so a loop convolving same-sized curves performs no per-call
    /// allocation. The samples written are bitwise-identical to what
    /// [`SampledCurve::convolve`] returns.
    ///
    /// # Panics
    ///
    /// Panics if the grid steps differ.
    pub fn convolve_into(&self, other: &SampledCurve, out: &mut Vec<f64>) {
        assert!(
            (self.dt - other.dt).abs() < 1e-12,
            "convolve: grid steps must match ({} vs {})",
            self.dt,
            other.dt
        );
        GRID_CONVOLUTION.add(1);
        let _timer = GRID_CONVOLUTION_SECONDS.start();
        let n = self.values.len().min(other.values.len());
        out.clear();
        out.resize(n, f64::INFINITY);
        for (i, &a) in self.values.iter().enumerate().take(n) {
            if a.is_infinite() {
                continue;
            }
            for (j, &b) in other.values.iter().enumerate().take(n - i) {
                let v = a + b;
                if v < out[i + j] {
                    out[i + j] = v;
                }
            }
        }
    }

    /// Grid min-plus deconvolution `h[k] = max_{j : k+j < n} f[k+j] − g[j]`,
    /// clamped at zero.
    ///
    /// Allocates the result; for hot loops that reuse a buffer, see
    /// [`SampledCurve::deconvolve_into`] (bitwise-identical output).
    ///
    /// # Errors
    ///
    /// Returns [`CurveError::ShortHorizon`] if `other` has fewer samples
    /// than `self`: the supremum at small `k` would then silently lose
    /// candidates `j ≥ other.len()`, making the computed envelope
    /// misleadingly small (an unsound bound).
    ///
    /// # Panics
    ///
    /// Panics if the grid steps differ.
    pub fn deconvolve(&self, other: &SampledCurve) -> Result<SampledCurve, CurveError> {
        let mut out = Vec::new();
        self.deconvolve_into(other, &mut out)?;
        Ok(SampledCurve { dt: self.dt, values: out })
    }

    /// [`SampledCurve::deconvolve`] into a caller-provided buffer.
    ///
    /// `out` is cleared and filled with the `self.len()` result samples;
    /// its existing capacity is reused. The samples written are
    /// bitwise-identical to what [`SampledCurve::deconvolve`] returns.
    ///
    /// # Errors
    ///
    /// Returns [`CurveError::ShortHorizon`] if `other` has fewer samples
    /// than `self` (see [`SampledCurve::deconvolve`]); `out` is left
    /// cleared in that case.
    ///
    /// # Panics
    ///
    /// Panics if the grid steps differ.
    pub fn deconvolve_into(
        &self,
        other: &SampledCurve,
        out: &mut Vec<f64>,
    ) -> Result<(), CurveError> {
        assert!(
            (self.dt - other.dt).abs() < 1e-12,
            "deconvolve: grid steps must match ({} vs {})",
            self.dt,
            other.dt
        );
        out.clear();
        let n = self.values.len();
        if other.values.len() < n {
            return Err(CurveError::ShortHorizon { needed: n, got: other.values.len() });
        }
        GRID_DECONVOLUTION.add(1);
        let _timer = GRID_DECONVOLUTION_SECONDS.start();
        out.resize(n, 0.0);
        for (k, slot) in out.iter_mut().enumerate() {
            let mut best: f64 = 0.0;
            for (j, &g) in other.values.iter().enumerate().take(n - k) {
                if g.is_infinite() {
                    continue;
                }
                let v = self.values[k + j] - g;
                if v > best {
                    best = v;
                }
            }
            *slot = best;
        }
        // Deconvolution of non-decreasing curves need not be monotone on a
        // truncated horizon; enforce the non-decreasing closure.
        let mut running = 0.0_f64;
        for v in out.iter_mut() {
            running = running.max(*v);
            *v = running;
        }
        Ok(())
    }

    /// Pointwise minimum of two sampled curves on the same grid.
    ///
    /// # Panics
    ///
    /// Panics if the grid steps differ.
    pub fn min(&self, other: &SampledCurve) -> SampledCurve {
        assert!((self.dt - other.dt).abs() < 1e-12, "min: grid steps must match");
        let n = self.values.len().min(other.values.len());
        let values = (0..n).map(|i| self.values[i].min(other.values[i])).collect();
        SampledCurve { dt: self.dt, values }
    }

    /// Pointwise sum of two sampled curves on the same grid.
    ///
    /// # Panics
    ///
    /// Panics if the grid steps differ.
    pub fn add(&self, other: &SampledCurve) -> SampledCurve {
        assert!((self.dt - other.dt).abs() < 1e-12, "add: grid steps must match");
        let n = self.values.len().min(other.values.len());
        let values = (0..n).map(|i| self.values[i] + other.values[i]).collect();
        SampledCurve { dt: self.dt, values }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_round_trip() {
        let f = Curve::token_bucket(2.0, 3.0);
        let s = SampledCurve::from_curve(&f, 0.25, 64);
        assert_eq!(s.len(), 64);
        for i in 0..64 {
            let t = i as f64 * 0.25;
            assert_eq!(s.eval(i), f.eval(t), "mismatch at {t}");
        }
    }

    #[test]
    fn grid_convolution_matches_exact_rate_latency() {
        let a = Curve::rate_latency(4.0, 1.0);
        let b = Curve::rate_latency(2.0, 2.0);
        let exact = a.convolve(&b);
        let sa = SampledCurve::from_curve(&a, 0.125, 128);
        let sb = SampledCurve::from_curve(&b, 0.125, 128);
        let got = sa.convolve(&sb);
        for i in 0..got.len() {
            let t = i as f64 * 0.125;
            let e = exact.eval(t);
            assert!(
                (got.eval(i) - e).abs() < 1e-9,
                "grid conv mismatch at t={t}: {} vs {e}",
                got.eval(i)
            );
        }
    }

    #[test]
    fn grid_convolution_grid_mismatch_panics() {
        let a = SampledCurve::from_values(0.5, vec![0.0, 1.0]);
        let b = SampledCurve::from_values(0.25, vec![0.0, 1.0]);
        let r = std::panic::catch_unwind(|| a.convolve(&b));
        assert!(r.is_err());
    }

    #[test]
    fn grid_deconvolution_output_envelope() {
        // γ_{1,5} ⊘ β_{4,2} = γ_{1,7}: check on the grid.
        let f = SampledCurve::from_curve(&Curve::token_bucket(1.0, 5.0), 0.5, 256);
        let g = SampledCurve::from_curve(&Curve::rate_latency(4.0, 2.0), 0.5, 256);
        let out = f.deconvolve(&g).unwrap();
        // Interior points (far from the horizon) must match b + r(t+T) = 7 + t.
        for i in 1..64 {
            let t = i as f64 * 0.5;
            assert!(
                (out.eval(i) - (7.0 + t)).abs() < 1e-9,
                "deconv mismatch at t={t}: {}",
                out.eval(i)
            );
        }
    }

    #[test]
    fn deconvolve_rejects_short_horizon() {
        // Regression: a shorter subtrahend used to be silently truncated,
        // losing sup candidates and under-reporting the envelope.
        let f = SampledCurve::from_curve(&Curve::token_bucket(1.0, 5.0), 0.5, 256);
        let g = SampledCurve::from_curve(&Curve::rate_latency(4.0, 2.0), 0.5, 64);
        assert_eq!(
            f.deconvolve(&g).unwrap_err(),
            CurveError::ShortHorizon { needed: 256, got: 64 }
        );
        // A longer subtrahend is fine and covers every candidate.
        let g = SampledCurve::from_curve(&Curve::rate_latency(4.0, 2.0), 0.5, 300);
        assert!(f.deconvolve(&g).is_ok());
    }

    #[test]
    fn into_variants_are_bitwise_identical_and_reuse_buffers() {
        let f = SampledCurve::from_curve(&Curve::token_bucket(1.0, 5.0), 0.25, 128);
        let g = SampledCurve::from_curve(&Curve::rate_latency(4.0, 2.0), 0.25, 128);
        let mut buf = Vec::with_capacity(128);
        let cap = buf.capacity();
        f.convolve_into(&g, &mut buf);
        assert_eq!(buf.as_slice(), f.convolve(&g).values(), "convolve_into must match bitwise");
        assert_eq!(buf.capacity(), cap, "convolve_into must reuse the buffer");
        f.deconvolve_into(&g, &mut buf).unwrap();
        assert_eq!(
            buf.as_slice(),
            f.deconvolve(&g).unwrap().values(),
            "deconvolve_into must match bitwise"
        );
        assert_eq!(buf.capacity(), cap, "deconvolve_into must reuse the buffer");
    }

    #[test]
    fn min_and_add() {
        let a = SampledCurve::from_values(1.0, vec![0.0, 2.0, 4.0]);
        let b = SampledCurve::from_values(1.0, vec![0.0, 3.0, 3.0]);
        assert_eq!(a.min(&b).values(), &[0.0, 2.0, 3.0]);
        assert_eq!(a.add(&b).values(), &[0.0, 5.0, 7.0]);
    }
}
