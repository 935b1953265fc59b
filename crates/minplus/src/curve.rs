//! Piecewise-linear wide-sense-increasing curves.

use std::fmt;

/// Relative/absolute tolerance used when validating monotonicity and
/// merging collinear segments. Curves are numerical objects; exact
/// equality on `f64` breakpoints is not meaningful after a few
/// operations.
pub(crate) const EPS: f64 = 1e-9;

/// One linear piece of a [`Curve`].
///
/// A segment `(x, y, slope)` defines the curve on the half-open interval
/// `(x, x_next]` as `f(t) = y + slope · (t − x)`, where `x_next` is the
/// start of the following segment (or `+∞` for the last segment). The
/// value `y` is the right-limit `f(x⁺)`; the curve itself is
/// left-continuous, so `f(x)` belongs to the *previous* segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Start of the half-open interval `(x, x_next]`.
    pub x: f64,
    /// Value of the curve immediately after `x` (the right limit `f(x⁺)`).
    pub y: f64,
    /// Slope of the curve on `(x, x_next]`. Must be non-negative and
    /// finite; infinite growth is expressed with `y = +∞` instead.
    pub slope: f64,
}

impl Segment {
    /// Creates a segment.
    pub(crate) fn new(x: f64, y: f64, slope: f64) -> Self {
        Segment { x, y, slope }
    }

    /// Value of this segment's affine extension at `t`.
    pub(crate) fn value_at(&self, t: f64) -> f64 {
        if self.y.is_infinite() {
            f64::INFINITY
        } else if self.slope == 0.0 {
            // Avoid 0 · ∞ when t = ∞.
            self.y
        } else {
            self.y + self.slope * (t - self.x)
        }
    }
}

/// Error returned by the fallible constructor [`Curve::rate`].
#[derive(Debug, Clone, PartialEq)]
pub enum CurveError {
    /// A parameter (rate, burst, latency, …) is negative or not finite.
    BadParameter(&'static str),
}

impl fmt::Display for CurveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CurveError::BadParameter(p) => {
                write!(f, "parameter `{p}` must be finite and non-negative")
            }
        }
    }
}

impl std::error::Error for CurveError {}

/// A non-decreasing, left-continuous, piecewise-linear function
/// `f : [0, ∞) → [0, ∞]` with `f(t) = 0` for `t ≤ 0`.
///
/// `Curve` is the working representation for arrival envelopes and
/// service curves in the deterministic network calculus. Values may be
/// `+∞`, which is how the burst-delay function [`Curve::delta`] expresses
/// "everything is served after delay `d`".
///
/// # Example
///
/// ```
/// use nc_minplus::Curve;
///
/// let tb = Curve::token_bucket(2.0, 3.0);
/// assert_eq!(tb.eval(0.0), 0.0);        // f(t) = 0 for t ≤ 0
/// assert_eq!(tb.eval(1.0), 5.0);        // b + r·t for t > 0
/// assert_eq!(tb.eval_right(0.0), 3.0);  // the burst appears at 0⁺
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Curve {
    /// Sorted, normalized segments; invariants documented on [`Segment`].
    segments: Vec<Segment>,
}

impl Curve {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// The identically-zero curve.
    pub fn zero() -> Self {
        Curve { segments: vec![Segment::new(0.0, 0.0, 0.0)] }
    }

    /// The curve that is `+∞` for every `t > 0` (neutral element of
    /// pointwise minimum; absorbing for addition).
    pub(crate) fn infinite() -> Self {
        Curve { segments: vec![Segment::new(0.0, f64::INFINITY, 0.0)] }
    }

    /// Constant-rate service curve `f(t) = r·t`.
    ///
    /// # Errors
    ///
    /// Returns [`CurveError::BadParameter`] if `r` is negative or not finite.
    pub fn rate(r: f64) -> Result<Self, CurveError> {
        if !is_param(r) {
            return Err(CurveError::BadParameter("rate"));
        }
        Ok(Curve { segments: vec![Segment::new(0.0, 0.0, r)] })
    }

    /// Token-bucket (leaky-bucket) envelope `f(t) = b + r·t` for `t > 0`.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `b` is negative or not finite.
    pub fn token_bucket(r: f64, b: f64) -> Self {
        assert!(
            is_param(r) && is_param(b),
            "token_bucket: rate and burst must be finite and non-negative"
        );
        Curve { segments: vec![Segment::new(0.0, b, r)] }
    }

    /// Rate-latency service curve `f(t) = R·[t − T]₊`.
    ///
    /// # Panics
    ///
    /// Panics if `big_r` or `t_lat` is negative or not finite.
    pub fn rate_latency(big_r: f64, t_lat: f64) -> Self {
        assert!(
            is_param(big_r) && is_param(t_lat),
            "rate_latency: rate and latency must be finite and non-negative"
        );
        if t_lat == 0.0 {
            return Curve { segments: vec![Segment::new(0.0, 0.0, big_r)] };
        }
        Curve { segments: vec![Segment::new(0.0, 0.0, 0.0), Segment::new(t_lat, 0.0, big_r)] }
    }

    /// Burst-delay function `δ_d`: `0` for `t ≤ d`, `+∞` for `t > d`
    /// (Eq. (4) of the paper). `δ_0` is the neutral element of min-plus
    /// convolution.
    ///
    /// # Panics
    ///
    /// Panics if `d` is negative or not finite.
    pub fn delta(d: f64) -> Self {
        assert!(is_param(d), "delta: delay must be finite and non-negative");
        if d == 0.0 {
            Curve::infinite()
        } else {
            Curve {
                segments: vec![Segment::new(0.0, 0.0, 0.0), Segment::new(d, f64::INFINITY, 0.0)],
            }
        }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The normalized segments of this curve.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Evaluates `f(t)`. Returns `0` for `t ≤ 0`; the function is
    /// left-continuous, so at a breakpoint the value of the *earlier*
    /// piece is returned.
    pub fn eval(&self, t: f64) -> f64 {
        if t <= 0.0 {
            return 0.0;
        }
        // Find the segment whose interval (x, x_next] contains t:
        // the last segment with x < t.
        let i = match self.segments.partition_point(|s| s.x < t) {
            0 => return 0.0, // cannot happen: segments[0].x == 0 < t
            k => k - 1,
        };
        self.segments[i].value_at(t)
    }

    /// Evaluates the right limit `f(t⁺)`.
    pub fn eval_right(&self, t: f64) -> f64 {
        if t < 0.0 {
            return 0.0;
        }
        let i = match self.segments.partition_point(|s| s.x <= t) {
            0 => return 0.0,
            k => k - 1,
        };
        self.segments[i].value_at(t)
    }

    /// The asymptotic growth rate `lim_{t→∞} f(t)/t`; `+∞` if the curve
    /// takes infinite values.
    pub fn long_run_rate(&self) -> f64 {
        let last = self.segments.last().expect("curve has at least one segment");
        if last.y.is_infinite() {
            f64::INFINITY
        } else {
            last.slope
        }
    }

    /// Whether the curve is convex on `[0, ∞)` (no initial burst, slopes
    /// non-decreasing, and no upward jumps except a terminal jump to `+∞`).
    pub(crate) fn is_convex(&self) -> bool {
        // An initial finite jump at 0⁺ (a burst) breaks convexity, since
        // f(0) = 0 by convention. A jump straight to +∞ is δ₀, which is convex.
        let s0 = &self.segments[0];
        if s0.y > EPS && s0.y.is_finite() {
            return false;
        }
        for w in self.segments.windows(2) {
            let end = w[0].value_at(w[1].x);
            if w[1].y.is_infinite() {
                continue; // terminal jump to ∞ is allowed ("infinite slope")
            }
            if w[1].y > end + EPS * (1.0 + end.abs()) {
                return false; // interior jump
            }
            if w[1].slope + EPS < w[0].slope {
                return false;
            }
        }
        true
    }

    /// Whether the curve is concave on `(0, ∞)` (slopes non-increasing;
    /// an initial burst at `0⁺` is allowed, interior jumps are not).
    pub fn is_concave(&self) -> bool {
        if self.segments.iter().any(|s| s.y.is_infinite()) {
            return false;
        }
        for w in self.segments.windows(2) {
            let end = w[0].value_at(w[1].x);
            if w[1].y > end + EPS * (1.0 + end.abs()) {
                return false;
            }
            if w[1].slope > w[0].slope + EPS {
                return false;
            }
        }
        true
    }

    /// The lower pseudo-inverse `f⁻¹(y) = inf { t ≥ 0 : f(t) ≥ y }`.
    ///
    /// Returns `None` if `f` never reaches `y`.
    pub(crate) fn pseudo_inverse(&self, y: f64) -> Option<f64> {
        if y <= 0.0 {
            return Some(0.0);
        }
        for (i, s) in self.segments.iter().enumerate() {
            // f(x_i) < y ≤ f(x_i⁺) = s.y (a jump, or the start) ⇒ inf = x_i.
            if s.y >= y {
                return Some(s.x);
            }
            match self.segments.get(i + 1).map(|n| n.x) {
                Some(ex) => {
                    if s.value_at(ex) >= y {
                        // Reached strictly inside (x_i, ex].
                        return Some(s.x + (y - s.y) / s.slope);
                    }
                }
                None => {
                    if s.slope > 0.0 {
                        return Some(s.x + (y - s.y) / s.slope);
                    }
                    return None;
                }
            }
        }
        None
    }

    // ------------------------------------------------------------------
    // Transformations
    // ------------------------------------------------------------------

    /// Shifts the curve to the right: `t ↦ f(t − d)` (equivalently, the
    /// min-plus convolution with `δ_d`).
    ///
    /// # Panics
    ///
    /// Panics if `d` is negative or NaN.
    pub fn shift_right(&self, d: f64) -> Self {
        assert!(d >= 0.0 && d.is_finite(), "shift_right: d must be finite and non-negative");
        if d == 0.0 {
            return self.clone();
        }
        let mut segments = Vec::with_capacity(self.segments.len() + 1);
        segments.push(Segment::new(0.0, 0.0, 0.0));
        for s in &self.segments {
            segments.push(Segment::new(s.x + d, s.y, s.slope));
        }
        let mut c = Curve { segments };
        c.normalize();
        c
    }

    /// Adds a constant to the curve on `t > 0`: `t ↦ f(t) + c` for `t > 0`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is negative or NaN.
    pub(crate) fn add_constant(&self, c: f64) -> Self {
        assert!(c >= 0.0 && !c.is_nan(), "add_constant: c must be non-negative");
        if c == 0.0 {
            return self.clone();
        }
        let segments = self.segments.iter().map(|s| Segment::new(s.x, s.y + c, s.slope)).collect();
        let mut out = Curve { segments };
        out.normalize();
        out
    }

    /// Gates the curve by the indicator `1{t > θ}`: the result is `0` on
    /// `(0, θ]` and `f(t)` on `(θ, ∞)`.
    ///
    /// This is the `I(t > θ)` factor of Theorem 1 of the paper. Since `f`
    /// is non-negative and non-decreasing, the gated curve is again a
    /// valid curve.
    ///
    /// # Panics
    ///
    /// Panics if `theta` is negative or NaN.
    pub fn gate(&self, theta: f64) -> Self {
        assert!(theta >= 0.0 && !theta.is_nan(), "gate: theta must be non-negative");
        if theta == 0.0 {
            return self.clone();
        }
        let mut segments = vec![Segment::new(0.0, 0.0, 0.0)];
        // Value and slope of f just after θ.
        let i = match self.segments.partition_point(|s| s.x <= theta) {
            0 => 0,
            k => k - 1,
        };
        let s = &self.segments[i];
        segments.push(Segment::new(theta, s.value_at(theta).max(0.0), s.slope));
        for s in &self.segments[i + 1..] {
            segments.push(Segment::new(s.x, s.y, s.slope));
        }
        let mut c = Curve { segments };
        c.normalize();
        c
    }

    // ------------------------------------------------------------------
    // Internal helpers
    // ------------------------------------------------------------------

    /// Constructs a curve from segments produced by internal algorithms,
    /// normalizing without re-validating monotonicity (callers guarantee
    /// it up to floating-point noise, which normalization absorbs).
    pub(crate) fn from_raw_unchecked(segments: Vec<Segment>) -> Self {
        debug_assert!(!segments.is_empty() && segments[0].x == 0.0);
        let mut c = Curve { segments };
        c.normalize();
        c
    }

    /// Merges collinear neighbours, clamps tiny negatives to zero, and
    /// truncates everything after the first `+∞` segment.
    fn normalize(&mut self) {
        // Truncate after first infinite value (the function stays +∞).
        if let Some(pos) = self.segments.iter().position(|s| s.y.is_infinite()) {
            self.segments.truncate(pos + 1);
            let s = &mut self.segments[pos];
            s.y = f64::INFINITY;
            s.slope = 0.0;
        }
        for s in &mut self.segments {
            if s.y < 0.0 {
                debug_assert!(s.y > -1e-6, "normalize: significantly negative value {}", s.y);
                s.y = 0.0;
            }
            if s.slope < 0.0 {
                debug_assert!(
                    s.slope > -1e-6,
                    "normalize: significantly negative slope {}",
                    s.slope
                );
                s.slope = 0.0;
            }
        }
        let mut out: Vec<Segment> = Vec::with_capacity(self.segments.len());
        for s in self.segments.drain(..) {
            if let Some(prev) = out.last() {
                let end = prev.value_at(s.x);
                let scale = 1.0 + end.abs();
                let collinear = (prev.slope - s.slope).abs() <= EPS * (1.0 + prev.slope.abs())
                    && (end - s.y).abs() <= EPS * scale
                    || (prev.y.is_infinite() && s.y.is_infinite());
                if collinear {
                    continue; // prev already covers this piece
                }
            }
            out.push(s);
        }
        self.segments = out;
    }

    /// All breakpoint abscissae of the curve (starting with 0).
    pub(crate) fn xs(&self) -> impl Iterator<Item = f64> + '_ {
        self.segments.iter().map(|s| s.x)
    }

    /// Right limit `f(a⁺)` and slope of the piece that covers the open
    /// interval `(a, b)`, where no breakpoint of the curve lies inside
    /// `(a + EPS, b)`.
    ///
    /// The piece is looked up at a probe inside the interval, not just
    /// after `a`: a breakpoint within `EPS` of `a` (merged into `a` by the
    /// caller) must not leave its predecessor's slope on the whole
    /// interval. The piece is extrapolated back to `a`.
    pub(crate) fn piece_on(&self, a: f64, b: f64) -> (f64, f64) {
        let probe = if b.is_finite() { 0.5 * (a + b) } else { a + 1.0 };
        let i = self.segments.partition_point(|s| s.x < probe).saturating_sub(1);
        let s = &self.segments[i];
        if s.y.is_infinite() {
            (f64::INFINITY, 0.0)
        } else {
            (s.value_at(a), s.slope)
        }
    }
}

/// Whether `v` is a valid constructor parameter: finite and non-negative.
fn is_param(v: f64) -> bool {
    v.is_finite() && v >= 0.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zero_is_zero_everywhere() {
        let z = Curve::zero();
        assert_eq!(z.eval(-1.0), 0.0);
        assert_eq!(z.eval(0.0), 0.0);
        assert_eq!(z.eval(100.0), 0.0);
        assert_eq!(z.long_run_rate(), 0.0);
    }

    #[test]
    fn token_bucket_values() {
        let tb = Curve::token_bucket(2.0, 3.0);
        assert_eq!(tb.eval(0.0), 0.0);
        assert_eq!(tb.eval_right(0.0), 3.0);
        assert_eq!(tb.eval(1.0), 5.0);
        assert_eq!(tb.eval(10.0), 23.0);
        assert!(tb.is_concave());
        assert!(!tb.is_convex());
        assert_eq!(tb.long_run_rate(), 2.0);
    }

    #[test]
    fn rate_latency_values() {
        let rl = Curve::rate_latency(4.0, 2.0);
        assert_eq!(rl.eval(1.0), 0.0);
        assert_eq!(rl.eval(2.0), 0.0);
        assert_eq!(rl.eval(3.0), 4.0);
        assert!(rl.is_convex());
        assert!(!rl.is_concave() || rl.segments().len() == 1);
        assert_eq!(rl.long_run_rate(), 4.0);
    }

    #[test]
    fn zero_latency_rate_latency_is_rate() {
        assert_eq!(Curve::rate_latency(4.0, 0.0), Curve::rate(4.0).unwrap());
    }

    #[test]
    fn delta_values() {
        let d = Curve::delta(3.0);
        assert_eq!(d.eval(3.0), 0.0);
        assert_eq!(d.eval(3.0 + 1e-6), f64::INFINITY);
        assert!(d.is_convex());
        assert!(!d.is_concave());
        assert_eq!(d.long_run_rate(), f64::INFINITY);
    }

    #[test]
    fn delta_zero_is_infinite_after_zero() {
        let d = Curve::delta(0.0);
        assert_eq!(d.eval(0.0), 0.0);
        assert_eq!(d.eval(1e-12), f64::INFINITY);
    }

    #[test]
    fn eval_left_continuity_at_breakpoint() {
        // Jump of size 5 at t = 2.
        let c = Curve::from_raw_unchecked(vec![
            Segment::new(0.0, 0.0, 1.0),
            Segment::new(2.0, 7.0, 1.0),
        ]);
        assert_eq!(c.eval(2.0), 2.0); // left limit
        assert_eq!(c.eval_right(2.0), 7.0);
        assert_eq!(c.eval(3.0), 8.0);
    }

    #[test]
    fn pseudo_inverse_basic() {
        let rl = Curve::rate_latency(4.0, 2.0);
        assert_eq!(rl.pseudo_inverse(0.0), Some(0.0));
        assert_eq!(rl.pseudo_inverse(4.0), Some(3.0));
        assert_eq!(rl.pseudo_inverse(8.0), Some(4.0));
        let z = Curve::zero();
        assert_eq!(z.pseudo_inverse(1.0), None);
    }

    #[test]
    fn pseudo_inverse_at_jump() {
        let d = Curve::delta(3.0);
        // δ₃ reaches any finite positive level just after t = 3.
        assert_eq!(d.pseudo_inverse(10.0), Some(3.0));
        // Token bucket: the burst at 0⁺ absorbs small levels.
        let tb = Curve::token_bucket(1.0, 5.0);
        assert_eq!(tb.pseudo_inverse(4.0), Some(0.0));
        assert_eq!(tb.pseudo_inverse(5.0), Some(0.0));
        assert_eq!(tb.pseudo_inverse(6.0), Some(1.0));
    }

    #[test]
    fn shift_right_matches_eval() {
        let tb = Curve::token_bucket(2.0, 3.0);
        let sh = tb.shift_right(1.5);
        assert_eq!(sh.eval(1.0), 0.0);
        assert_eq!(sh.eval(1.5), 0.0);
        assert!((sh.eval(2.5) - tb.eval(1.0)).abs() < 1e-12);
    }

    #[test]
    fn gate_zeroes_prefix() {
        let r = Curve::rate(2.0).unwrap();
        let g = r.gate(3.0);
        assert_eq!(g.eval(3.0), 0.0);
        assert!((g.eval(4.0) - 8.0).abs() < 1e-12);
        assert_eq!(g.eval_right(3.0), 6.0);
    }

    #[test]
    fn gate_zero_is_identity() {
        let tb = Curve::token_bucket(1.0, 1.0);
        assert_eq!(tb.gate(0.0), tb);
    }

    #[test]
    fn add_constant_lifts_positive_times() {
        let c = Curve::rate(1.0).unwrap().add_constant(2.0);
        assert_eq!(c.eval(3.0), 5.0);
        assert_eq!(c.eval(0.0), 0.0);
    }

    #[test]
    fn normalize_merges_collinear() {
        let c = Curve::from_raw_unchecked(vec![
            Segment::new(0.0, 0.0, 1.0),
            Segment::new(1.0, 1.0, 1.0),
            Segment::new(2.0, 2.0, 1.0),
        ]);
        assert_eq!(c.segments().len(), 1);
    }

    proptest! {
        #[test]
        fn pseudo_inverse_galois(
            buckets in prop::collection::vec((0.01f64..50.0, 0.0f64..100.0), 1..4),
            y in 0.0f64..500.0,
        ) {
            // f(t) ≥ y for every t strictly beyond the pseudo-inverse.
            let f = buckets
                .iter()
                .map(|&(r, b)| Curve::token_bucket(r, b))
                .reduce(|acc, tb| acc.min(&tb))
                .unwrap();
            if let Some(t0) = f.pseudo_inverse(y) {
                prop_assert!(f.eval(t0 + 1e-6) >= y - 1e-6 * (1.0 + y));
            }
        }
    }
}
