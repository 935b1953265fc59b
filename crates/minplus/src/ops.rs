//! Pointwise and min-plus operations on [`Curve`]s.

use crate::curve::{Curve, CurveError, Segment, EPS};
use nc_telemetry as tel;

static CONVOLUTION: tel::Counter = tel::Counter::new("minplus_convolution_total");
static CONVOLUTION_SECONDS: tel::Timing = tel::Timing::new("minplus_convolution_seconds");
static SEGMENT_MERGE_CONVOLUTION: tel::Counter =
    tel::Counter::new("minplus_segment_merge_convolution_total");
static SEGMENT_MERGE_CONVOLUTION_SECONDS: tel::Timing =
    tel::Timing::new("minplus_segment_merge_convolution_seconds");
static DECONVOLUTION: tel::Counter = tel::Counter::new("minplus_deconvolution_total");
static DECONVOLUTION_SECONDS: tel::Timing = tel::Timing::new("minplus_deconvolution_seconds");

/// Pointwise combination operator used by the segment-merge algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PointwiseOp {
    Min,
    Max,
    Add,
    /// `max(f − g, 0)`; may produce a non-monotone function, which the
    /// caller rejects.
    SubClamped,
}

impl Curve {
    // ------------------------------------------------------------------
    // Pointwise operations
    // ------------------------------------------------------------------

    /// Pointwise minimum `t ↦ min(f(t), g(t))`.
    pub fn min(&self, other: &Curve) -> Curve {
        Curve::from_raw_unchecked(combine(self, other, PointwiseOp::Min))
    }

    /// Pointwise maximum `t ↦ max(f(t), g(t))`.
    pub fn max(&self, other: &Curve) -> Curve {
        Curve::from_raw_unchecked(combine(self, other, PointwiseOp::Max))
    }

    /// Pointwise sum `t ↦ f(t) + g(t)`.
    pub fn add(&self, other: &Curve) -> Curve {
        Curve::from_raw_unchecked(combine(self, other, PointwiseOp::Add))
    }

    /// Pointwise clamped difference `t ↦ [f(t) − g(t)]₊`.
    ///
    /// This is the "leftover service" shape `[C·t − arrivals]₊` of
    /// Theorem 1. The result of the subtraction must itself be
    /// non-decreasing, which holds in particular whenever `f` is convex
    /// and `g` is concave (the only case the end-to-end analysis needs).
    ///
    /// # Errors
    ///
    /// Returns [`CurveError::NotMonotone`] if `[f − g]₊` decreases
    /// anywhere, since it would then not be a valid curve.
    pub fn sub_clamped(&self, other: &Curve) -> Result<Curve, CurveError> {
        let raw = combine(self, other, PointwiseOp::SubClamped);
        // Validate monotonicity: within segments (slope ≥ 0) and across
        // breakpoints (no downward jumps).
        for s in &raw {
            if s.slope < -EPS {
                return Err(CurveError::NotMonotone);
            }
        }
        for w in raw.windows(2) {
            let end = if w[0].y.is_infinite() {
                f64::INFINITY
            } else {
                w[0].y + w[0].slope.max(0.0) * (w[1].x - w[0].x)
            };
            if w[1].y + EPS * (1.0 + end.abs()) < end {
                return Err(CurveError::NotMonotone);
            }
        }
        Ok(Curve::from_raw_unchecked(raw))
    }

    /// Pointwise clamped difference followed by the non-decreasing
    /// *lower* closure: `t ↦ inf_{s ≥ t} [f(s) − g(s)]₊`.
    ///
    /// Unlike [`Curve::sub_clamped`], this never fails: where `[f − g]₊`
    /// would dip, the closure replaces the curve by its future minimum,
    /// which is the largest non-decreasing *minorant* — the safe
    /// direction for a service curve (a lower service bound may only be
    /// weakened, never strengthened).
    pub fn sub_clamped_closure(&self, other: &Curve) -> Curve {
        match self.sub_clamped(other) {
            Ok(c) => c,
            Err(_) => {
                let raw = combine(self, other, PointwiseOp::SubClamped);
                lower_closure(raw)
            }
        }
    }

    // ------------------------------------------------------------------
    // Min-plus convolution
    // ------------------------------------------------------------------

    /// Min-plus convolution `(f ∗ g)(t) = inf_{0≤s≤t} f(s) + g(t−s)`.
    ///
    /// Exact for every pair of piecewise-linear curves. Cheap shapes are
    /// dispatched to specialized algorithms:
    ///
    /// * either operand is a burst-delay function `δ_d` (pure shift),
    /// * both operands are convex (slope-sort / "conveyor" algorithm),
    /// * both operands are concave (pointwise minimum),
    /// * one operand is convex with an initial latency whose remainder is
    ///   a plain rate (rate-latency vs. concave reduces to the concave
    ///   case after peeling the latency).
    ///
    /// Remaining mixed shapes go through the exact segment-merge
    /// algorithm ([`Curve::convolve_segment_merge`]).
    pub fn convolve(&self, other: &Curve) -> Curve {
        // Recursive cases (latency peeling) count as separate ops; the
        // timer histogram then records nested durations, which is fine
        // for a per-call latency distribution.
        CONVOLUTION.add(1);
        let _timer = CONVOLUTION_SECONDS.start();
        // δ_d is the shift operator; δ_0 is the identity.
        if let Some(d) = self.as_delta() {
            return other.shift_right(d);
        }
        if let Some(d) = other.as_delta() {
            return self.shift_right(d);
        }
        if self.is_concave() && other.is_concave() {
            // Concave ∧ f(0)=g(0)=0 ⇒ inf attained at s ∈ {0, t}.
            return self.min(other);
        }
        if self.is_convex() && other.is_convex() {
            return convolve_convex(self, other);
        }
        // Peel an initial latency from a convex operand: f = δ_T ∗ f',
        // then try the concave route on the remainder.
        if self.is_convex() {
            let (lat, rest) = self.peel_latency();
            if lat > 0.0 || rest.is_concave() {
                if rest.is_concave() && other.is_concave() {
                    return rest.min(other).shift_right(lat);
                }
                if lat > 0.0 {
                    return rest.convolve(other).shift_right(lat);
                }
            }
        }
        if other.is_convex() {
            let (lat, rest) = other.peel_latency();
            if rest.is_concave() && self.is_concave() {
                return rest.min(self).shift_right(lat);
            }
            if lat > 0.0 {
                return self.convolve(&rest).shift_right(lat);
            }
        }
        // General case: exact segment-merge over maximal convex runs.
        self.convolve_segment_merge(other)
    }

    /// Exact min-plus convolution of arbitrary piecewise-linear curves
    /// by maximal-convex-run decomposition.
    ///
    /// Each operand is written as a pointwise minimum of "constant plus
    /// convex" components, one per maximal convex run of its segments
    /// (`f = min_i (a_i + w_i)` with `w_i` convex). Convolution
    /// distributes over `min`, and for such components
    /// `(a + w) ∗ (b + z) = min(a + w, b + z, a + b + w ∗ z)`, so
    ///
    /// `f ∗ g = min(f, g, min_{i,j} (a_i + b_j + w_i ∗ z_j))`
    ///
    /// with every inner convolution convex⊗convex — solved exactly by
    /// the linear slope-sort merge. This avoids both the all-pairs
    /// breakpoint product of a naive exact algorithm and the
    /// approximation error of dense sampling: the number of runs is
    /// bounded by the number of slope decreases / upward jumps, which
    /// for the calculus' typical shapes (concave envelopes, convex
    /// service curves, and their sums) is far smaller than the
    /// breakpoint count.
    ///
    /// [`Curve::convolve`] dispatches here for shapes without a cheaper
    /// special case; calling it directly skips the shape probes.
    pub fn convolve_segment_merge(&self, other: &Curve) -> Curve {
        SEGMENT_MERGE_CONVOLUTION.add(1);
        let _timer = SEGMENT_MERGE_CONVOLUTION_SECONDS.start();
        let fu = convex_components(self);
        let gv = convex_components(other);
        // The endpoint candidates s ∈ {0, t} contribute min(f, g).
        let mut acc = self.min(other);
        for (a, w) in &fu {
            for (b, z) in &gv {
                let mut term = convolve_convex(w, z);
                let c = a + b;
                if c > 0.0 {
                    term = term.add_constant(c);
                }
                acc = acc.min(&term);
            }
        }
        acc
    }

    // ------------------------------------------------------------------
    // Min-plus deconvolution
    // ------------------------------------------------------------------

    /// Min-plus deconvolution `(f ⊘ g)(t) = sup_{u≥0} f(t+u) − g(u)`,
    /// exact for concave `f` and convex `g` (the output-envelope case of
    /// the network calculus).
    ///
    /// Returns `None` when the supremum is `+∞`, i.e. when `f` grows
    /// faster than `g` in the long run or `g` stays bounded while `f`
    /// does not.
    ///
    /// # Errors
    ///
    /// Returns [`CurveError::BadParameter`] if `f` is not concave or `g`
    /// is not convex; the candidate-point argument below relies on the
    /// concavity of `u ↦ f(t+u) − g(u)`.
    pub fn deconvolve(&self, other: &Curve) -> Result<Option<Curve>, CurveError> {
        DECONVOLUTION.add(1);
        let _timer = DECONVOLUTION_SECONDS.start();
        if !self.is_concave() {
            return Err(CurveError::BadParameter("deconvolve: f must be concave"));
        }
        if !other.is_convex() {
            return Err(CurveError::BadParameter("deconvolve: g must be convex"));
        }
        if self.long_run_rate() > other.long_run_rate() + EPS {
            return Ok(None);
        }
        // φ_t(u) = f(t+u) − g(u) is concave in u; its slope changes only
        // where a breakpoint of f (at t+u) or of g (at u) is crossed, so
        // the supremum over u is attained at one of those candidates.
        let eval_at = |t: f64| -> f64 {
            let mut us: Vec<f64> = vec![0.0];
            us.extend(other.xs());
            us.extend(self.xs().map(|x| x - t).filter(|u| *u > 0.0));
            let mut best = f64::NEG_INFINITY;
            for &u in &us {
                let gv = other.eval_right(u);
                if gv.is_infinite() {
                    continue;
                }
                let v = self.eval_right(t + u) - gv;
                if v > best {
                    best = v;
                }
            }
            best.max(0.0)
        };
        // As a function of t the deconvolution is concave; its breakpoints
        // lie among differences of the operands' breakpoints.
        let mut ts: Vec<f64> = vec![0.0];
        for xf in self.xs() {
            ts.push(xf);
            for xg in other.xs() {
                if xf - xg > 0.0 {
                    ts.push(xf - xg);
                }
            }
        }
        ts.sort_by(|a, b| a.partial_cmp(b).expect("breakpoints are not NaN"));
        ts.dedup_by(|a, b| (*a - *b).abs() <= EPS);
        let points: Vec<(f64, f64)> = ts.iter().map(|&t| (t, eval_at(t))).collect();
        let final_slope = self.long_run_rate();
        Ok(Some(
            Curve::from_points(&points, final_slope)
                .expect("deconvolution of valid curves is a valid curve"),
        ))
    }

    // ------------------------------------------------------------------
    // Shape helpers
    // ------------------------------------------------------------------

    /// If this curve is a burst-delay function `δ_d`, returns `d`.
    pub fn as_delta(&self) -> Option<f64> {
        let segs = self.segments();
        match segs {
            [s] if s.y.is_infinite() => Some(0.0),
            [a, b] if a.y == 0.0 && a.slope == 0.0 && b.y.is_infinite() => Some(b.x),
            _ => None,
        }
    }

    /// Splits a convex curve into `(latency, remainder)` where the curve
    /// equals `δ_latency ∗ remainder` and the remainder has no initial
    /// flat piece.
    fn peel_latency(&self) -> (f64, Curve) {
        let segs = self.segments();
        if segs.len() >= 2 && segs[0].y == 0.0 && segs[0].slope == 0.0 {
            let lat = segs[1].x;
            let mut rest = Vec::with_capacity(segs.len() - 1);
            for s in &segs[1..] {
                rest.push(Segment::new(s.x - lat, s.y, s.slope));
            }
            (lat, Curve::from_raw_unchecked(rest))
        } else {
            (0.0, self.clone())
        }
    }
}

/// Exact convolution of two convex curves by merging their slope pieces
/// in non-decreasing slope order ("conveyor" algorithm).
///
/// A terminal jump to `+∞` at domain end `L` acts as a piece of infinite
/// slope; the result's finite domain is the sum of the finite domains.
fn convolve_convex(f: &Curve, g: &Curve) -> Curve {
    // Decompose into (slope, length) pieces; `None` length = unbounded tail.
    fn pieces(c: &Curve) -> (Vec<(f64, f64)>, Option<f64>, bool) {
        // returns (bounded pieces, unbounded tail slope, ends_in_infinity)
        let segs = c.segments();
        let mut out = Vec::new();
        for (i, s) in segs.iter().enumerate() {
            if s.y.is_infinite() {
                return (out, None, true);
            }
            match segs.get(i + 1) {
                Some(n) => out.push((s.slope, n.x - s.x)),
                None => return (out, Some(s.slope), false),
            }
        }
        (out, None, true)
    }
    let (pf, tail_f, inf_f) = pieces(f);
    let (pg, tail_g, inf_g) = pieces(g);
    let mut all: Vec<(f64, f64)> = pf.into_iter().chain(pg).collect();
    all.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("slopes are not NaN"));
    // Unbounded tail: the smaller of the two tail slopes dominates for
    // large t; if both curves end in ∞ the result ends in ∞.
    let tail = match (tail_f, tail_g, inf_f, inf_g) {
        (Some(a), Some(b), _, _) => Some(a.min(b)),
        (Some(a), None, _, true) => Some(a),
        (None, Some(b), true, _) => Some(b),
        _ => None,
    };
    // Drop bounded pieces with slope ≥ tail slope: the tail serves them
    // cheaper, and keeping them would break convex ordering. (They can
    // only come from the curve that does NOT own the tail.)
    let mut segs: Vec<Segment> = Vec::new();
    let mut x = 0.0_f64;
    let mut y = 0.0_f64;
    for (slope, len) in all {
        if let Some(ts) = tail {
            if slope >= ts - EPS {
                break;
            }
        }
        segs.push(Segment::new(x, y, slope));
        x += len;
        y += slope * len;
    }
    match tail {
        Some(ts) => segs.push(Segment::new(x, y, ts)),
        None => segs.push(Segment::new(x, f64::INFINITY, 0.0)),
    }
    if segs[0].x != 0.0 {
        segs.insert(0, Segment::new(0.0, 0.0, segs[0].slope));
    }
    // Ensure domain starts at 0 (it does: x started at 0).
    Curve::from_raw_unchecked(segs)
}

/// Decomposes a curve into "constant plus convex" components, one per
/// maximal convex run: `f = min_i (a_i + w_i)` pointwise on `t > 0`,
/// where `a_i = f(x_i⁺)` at the run's start and `w_i` is a valid convex
/// [`Curve`] — a flat prefix up to the run start, the run's own pieces
/// shifted down by `a_i`, and a terminal jump to `+∞` where the run
/// ends (the last run instead keeps the curve's own tail).
///
/// Runs break exactly where convexity does: at a slope decrease or an
/// upward value jump (using the same tolerances as
/// [`Curve::is_convex`]). `Curve::infinite()` yields no components —
/// its only content is the `+∞` tail, which `min(f, g, …)` already
/// accounts for.
fn convex_components(f: &Curve) -> Vec<(f64, Curve)> {
    let segs = f.segments();
    // normalize() guarantees at most one infinite segment, at the end.
    let fin = segs.iter().position(|s| s.y.is_infinite()).unwrap_or(segs.len());
    if fin == 0 {
        return Vec::new();
    }
    let finite = &segs[..fin];
    // Half-open index ranges [start, end) of the maximal convex runs.
    let mut runs: Vec<(usize, usize)> = Vec::new();
    let mut start = 0usize;
    for j in 1..finite.len() {
        let prev = &finite[j - 1];
        let end_v = prev.value_at(finite[j].x);
        let jump_up = finite[j].y > end_v + EPS * (1.0 + end_v.abs());
        let slope_drop = finite[j].slope + EPS < prev.slope;
        if jump_up || slope_drop {
            runs.push((start, j));
            start = j;
        }
    }
    runs.push((start, finite.len()));
    let mut out = Vec::with_capacity(runs.len());
    for (ri, &(a, b)) in runs.iter().enumerate() {
        let x_start = finite[a].x;
        let base = finite[a].y;
        let mut w: Vec<Segment> = Vec::with_capacity(b - a + 2);
        if x_start > 0.0 {
            w.push(Segment::new(0.0, 0.0, 0.0));
        }
        for s in &finite[a..b] {
            w.push(Segment::new(s.x, s.y - base, s.slope));
        }
        // Close the run: an interior run ends where the next begins; the
        // last run inherits the curve's terminal jump, if any.
        let close = if ri + 1 < runs.len() {
            Some(finite[b].x)
        } else if fin < segs.len() {
            Some(segs[fin].x)
        } else {
            None
        };
        if let Some(xe) = close {
            w.push(Segment::new(xe, f64::INFINITY, 0.0));
        }
        out.push((base, Curve::from_raw_unchecked(w)));
    }
    out
}

/// Non-decreasing lower closure `f̃(t) = inf_{s ≥ t} f(s)` of a raw
/// (possibly non-monotone) segment list whose final segment has a
/// non-negative slope.
///
/// Right-to-left sweep: on a rising piece the closure follows the piece
/// until it exceeds the lowest value seen further right, then flattens;
/// on a falling piece the closure is flat at the piece's right-end value
/// (or lower).
fn lower_closure(raw: Vec<Segment>) -> Curve {
    debug_assert!(!raw.is_empty());
    let last = raw.last().expect("raw segment list is non-empty");
    debug_assert!(
        last.slope >= -EPS || last.y.is_infinite(),
        "lower_closure: final segment must be non-decreasing"
    );
    let mut out_rev: Vec<Segment> = Vec::with_capacity(raw.len());
    // Lowest value seen to the right of the current position.
    let mut lowest = f64::INFINITY;
    for i in (0..raw.len()).rev() {
        let s = raw[i];
        let end_x = raw.get(i + 1).map(|n| n.x);
        let end_v = match end_x {
            Some(x) => s.value_at(x),
            None => f64::INFINITY, // rising unbounded tail
        };
        if s.y.is_infinite() {
            // Piece is +∞: closure on it equals `lowest` (flat).
            if lowest.is_infinite() {
                out_rev.push(Segment::new(s.x, f64::INFINITY, 0.0));
            } else {
                out_rev.push(Segment::new(s.x, lowest, 0.0));
            }
            continue;
        }
        if s.slope >= 0.0 {
            // Rising: follows f while f ≤ lowest, flat at `lowest` after.
            if s.y >= lowest {
                out_rev.push(Segment::new(s.x, lowest, 0.0));
            } else if end_v <= lowest || s.slope == 0.0 {
                out_rev.push(Segment::new(s.x, s.y, s.slope));
            } else {
                let xc = s.x + (lowest - s.y) / s.slope;
                out_rev.push(Segment::new(xc, lowest, 0.0));
                out_rev.push(Segment::new(s.x, s.y, s.slope));
            }
            lowest = lowest.min(s.y);
        } else {
            // Falling: minimum over the piece is at its right end.
            let v = end_v.min(lowest);
            out_rev.push(Segment::new(s.x, v, 0.0));
            lowest = v;
        }
    }
    out_rev.reverse();
    Curve::from_raw_unchecked(out_rev)
}

/// Approximate equality used to detect crossing points, where the two
/// branch values agree only up to floating-point noise.
fn nearly_equal(a: f64, b: f64) -> bool {
    if a.is_infinite() || b.is_infinite() {
        return a == b;
    }
    (a - b).abs() <= 1e-7 * (1.0 + a.abs().max(b.abs()))
}

/// Merges the segment structures of two curves and combines them
/// pointwise, inserting crossing breakpoints for min/max and zero
/// crossings for clamped subtraction.
fn combine(f: &Curve, g: &Curve, op: PointwiseOp) -> Vec<Segment> {
    // 1. Union of breakpoints.
    let mut xs: Vec<f64> = f.xs().chain(g.xs()).collect();
    xs.sort_by(|a, b| a.partial_cmp(b).expect("breakpoints are not NaN"));
    xs.dedup_by(|a, b| (*a - *b).abs() <= EPS);
    // 2. Crossing points inside each interval.
    if matches!(op, PointwiseOp::Min | PointwiseOp::Max | PointwiseOp::SubClamped) {
        let mut crossings = Vec::new();
        for (i, &a) in xs.iter().enumerate() {
            let b = xs.get(i + 1).copied().unwrap_or(f64::INFINITY);
            let (vf, sf) = (f.eval_right(a), f.slope_right(a));
            let (vg, sg) = (g.eval_right(a), g.slope_right(a));
            if vf.is_infinite() || vg.is_infinite() {
                continue;
            }
            let dv = vf - vg;
            let ds = sf - sg;
            if ds.abs() > EPS && dv != 0.0 && dv.signum() != ds.signum() {
                let xc = a - dv / ds;
                if xc > a + EPS && xc < b - EPS {
                    crossings.push(xc);
                }
            }
        }
        xs.extend(crossings);
        xs.sort_by(|a, b| a.partial_cmp(b).expect("breakpoints are not NaN"));
        xs.dedup_by(|a, b| (*a - *b).abs() <= EPS);
    }
    // 3. Combine per interval.
    let mut out = Vec::with_capacity(xs.len());
    for &x in &xs {
        let (vf, sf) = (f.eval_right(x), f.slope_right(x));
        let (vg, sg) = (g.eval_right(x), g.slope_right(x));
        let (y, slope) = match op {
            PointwiseOp::Add => {
                if vf.is_infinite() || vg.is_infinite() {
                    (f64::INFINITY, 0.0)
                } else {
                    (vf + vg, sf + sg)
                }
            }
            PointwiseOp::Min => {
                // At an inserted crossing the two values agree only up to
                // floating-point noise; the *slope* choice decides which
                // branch the curve follows, so ties must compare approximately.
                let near = nearly_equal(vf, vg);
                if (near && sf <= sg) || (!near && vf < vg) {
                    (vf.min(vg), if vf.is_infinite() { 0.0 } else { sf })
                } else {
                    (vg.min(vf), if vg.is_infinite() { 0.0 } else { sg })
                }
            }
            PointwiseOp::Max => {
                let near = nearly_equal(vf, vg);
                if (near && sf >= sg) || (!near && vf > vg) {
                    (vf.max(vg), if vf.is_infinite() { 0.0 } else { sf })
                } else {
                    (vg.max(vf), if vg.is_infinite() { 0.0 } else { sg })
                }
            }
            PointwiseOp::SubClamped => {
                if vf.is_infinite() {
                    (f64::INFINITY, 0.0)
                } else if vg.is_infinite() {
                    (0.0, 0.0)
                } else {
                    let d = vf - vg;
                    let ds = sf - sg;
                    if nearly_equal(vf, vg) {
                        // Zero crossing: follow the rising difference, clamp
                        // the falling one.
                        if ds > 0.0 {
                            (d.max(0.0), ds)
                        } else {
                            (0.0, 0.0)
                        }
                    } else if d < 0.0 {
                        (0.0, 0.0)
                    } else {
                        (d, ds)
                    }
                }
            }
        };
        out.push(Segment::new(x, y.max(0.0), slope));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_curve_eq_at(c: &Curve, pts: &[(f64, f64)]) {
        for &(t, v) in pts {
            let got = c.eval(t);
            if v.is_infinite() {
                assert!(got.is_infinite(), "at t={t}: expected ∞, got {got}");
            } else {
                assert!((got - v).abs() < 1e-9, "at t={t}: expected {v}, got {got} ({c})");
            }
        }
    }

    #[test]
    fn min_of_token_buckets() {
        let a = Curve::token_bucket(10.0, 1.0);
        let b = Curve::token_bucket(1.0, 5.0);
        let m = a.min(&b);
        // Crossing at 1 + 10t = 5 + t → t = 4/9.
        assert_curve_eq_at(&m, &[(0.2, 3.0), (4.0 / 9.0, 1.0 + 40.0 / 9.0), (1.0, 6.0)]);
        assert!(m.is_concave());
    }

    #[test]
    fn max_of_rates() {
        let a = Curve::rate(1.0).unwrap();
        let b = Curve::rate_latency(3.0, 1.0);
        // max: t for t ≤ 1.5, then 3(t−1).
        let m = a.max(&b);
        assert_curve_eq_at(&m, &[(1.0, 1.0), (1.5, 1.5), (2.0, 3.0)]);
    }

    #[test]
    fn add_token_buckets() {
        let a = Curve::token_bucket(1.0, 2.0);
        let b = Curve::token_bucket(3.0, 4.0);
        let s = a.add(&b);
        assert_curve_eq_at(&s, &[(1.0, 10.0), (2.0, 14.0)]);
        assert_eq!(s.eval(0.0), 0.0);
    }

    #[test]
    fn add_with_infinity() {
        let a = Curve::delta(2.0);
        let b = Curve::rate(1.0).unwrap();
        let s = a.add(&b);
        assert_curve_eq_at(&s, &[(1.0, 1.0), (2.0, 2.0), (2.5, f64::INFINITY)]);
    }

    #[test]
    fn sub_clamped_leftover_service() {
        // [Ct − (b + rt)]₊ with C=10, r=4, b=12 → 0 until t=2, then 6(t−2).
        let c = Curve::rate(10.0).unwrap();
        let g = Curve::token_bucket(4.0, 12.0);
        let s = c.sub_clamped(&g).unwrap();
        assert_curve_eq_at(&s, &[(1.0, 0.0), (2.0, 0.0), (3.0, 6.0), (4.0, 12.0)]);
        assert!(s.is_convex());
    }

    #[test]
    fn sub_clamped_rejects_decreasing() {
        // f = min(10t, 5) concave bounded; g = rate 1 ⇒ f − g eventually decreases.
        let f = Curve::token_bucket(10.0, 0.0).min(&Curve::token_bucket(0.0, 5.0));
        let g = Curve::rate(1.0).unwrap();
        assert_eq!(f.sub_clamped(&g).unwrap_err(), CurveError::NotMonotone);
    }

    #[test]
    fn convolve_with_delta_is_shift() {
        let f = Curve::token_bucket(2.0, 1.0);
        let c = f.convolve(&Curve::delta(3.0));
        assert_curve_eq_at(&c, &[(3.0, 0.0), (4.0, 3.0)]);
        // Identity element δ₀.
        assert_eq!(f.convolve(&Curve::delta(0.0)), f);
        assert_eq!(Curve::delta(0.0).convolve(&f), f);
    }

    #[test]
    fn convolve_rate_latencies() {
        // (R1,T1) ∗ (R2,T2) = (min(R1,R2), T1+T2).
        let a = Curve::rate_latency(4.0, 1.0);
        let b = Curve::rate_latency(2.0, 3.0);
        let c = a.convolve(&b);
        assert_eq!(c, Curve::rate_latency(2.0, 4.0));
    }

    #[test]
    fn convolve_convex_multi_piece() {
        // f: slope 1 for len 1, then slope 3 (convex). g: δ₂.
        let f =
            Curve::from_segments(vec![Segment::new(0.0, 0.0, 1.0), Segment::new(1.0, 1.0, 3.0)])
                .unwrap();
        let c = f.convolve(&Curve::delta(2.0));
        assert_curve_eq_at(&c, &[(2.0, 0.0), (3.0, 1.0), (4.0, 4.0)]);
    }

    #[test]
    fn convolve_convex_pair_slope_sort() {
        let f =
            Curve::from_segments(vec![Segment::new(0.0, 0.0, 1.0), Segment::new(2.0, 2.0, 5.0)])
                .unwrap();
        let g =
            Curve::from_segments(vec![Segment::new(0.0, 0.0, 2.0), Segment::new(1.0, 2.0, 4.0)])
                .unwrap();
        let c = f.convolve(&g);
        // Pieces sorted by slope: (1, len2), (2, len1), (4, ∞-tail of g)… but
        // f's tail slope 5 > 4 means tail slope is 4.
        assert_curve_eq_at(&c, &[(1.0, 1.0), (2.0, 2.0), (3.0, 4.0), (4.0, 8.0)]);
        assert!(c.is_convex());
    }

    #[test]
    fn convolve_concave_is_min() {
        let a = Curve::token_bucket(10.0, 1.0);
        let b = Curve::token_bucket(1.0, 5.0);
        assert_eq!(a.convolve(&b), a.min(&b));
    }

    #[test]
    fn convolve_concave_with_rate_latency() {
        // Token bucket through rate-latency: (tb ∗ rl)(t) = min(tb, R·)(t−T).
        let tb = Curve::token_bucket(1.0, 5.0);
        let rl = Curve::rate_latency(4.0, 2.0);
        let c = tb.convolve(&rl);
        // For t ≤ 2: 0. At t = 2+s: min(5+s, 4s).
        assert_curve_eq_at(&c, &[(2.0, 0.0), (3.0, 4.0), (4.0, 7.0), (5.0, 8.0)]);
    }

    #[test]
    fn convolve_commutes() {
        let cases = [
            (Curve::token_bucket(1.0, 5.0), Curve::rate_latency(4.0, 2.0)),
            (Curve::rate_latency(2.0, 1.0), Curve::delta(2.0)),
            (Curve::token_bucket(2.0, 2.0), Curve::token_bucket(3.0, 1.0)),
        ];
        for (a, b) in cases {
            assert_eq!(a.convolve(&b), b.convolve(&a));
        }
    }

    #[test]
    fn deconvolve_output_envelope() {
        // γ_{r,b} ⊘ β_{R,T} = γ_{r, b + rT} for r ≤ R.
        let tb = Curve::token_bucket(1.0, 5.0);
        let rl = Curve::rate_latency(4.0, 2.0);
        let out = tb.deconvolve(&rl).unwrap().unwrap();
        assert_curve_eq_at(&out, &[(1.0, 8.0), (2.0, 9.0)]);
        assert!((out.eval_right(0.0) - 7.0).abs() < 1e-9);
    }

    #[test]
    fn deconvolve_unstable_is_none() {
        let tb = Curve::token_bucket(5.0, 1.0);
        let rl = Curve::rate_latency(2.0, 1.0);
        assert_eq!(tb.deconvolve(&rl).unwrap(), None);
    }

    #[test]
    fn deconvolve_rejects_nonconcave() {
        let rl = Curve::rate_latency(2.0, 1.0);
        assert!(rl.deconvolve(&rl).is_err());
    }

    #[test]
    fn as_delta_detection() {
        assert_eq!(Curve::delta(2.0).as_delta(), Some(2.0));
        assert_eq!(Curve::delta(0.0).as_delta(), Some(0.0));
        assert_eq!(Curve::rate(1.0).unwrap().as_delta(), None);
        assert_eq!(Curve::zero().as_delta(), None);
    }

    #[test]
    fn delta_convolution_adds_delays() {
        // δ_a ∗ δ_b = δ_{a+b} (used in the S_net factorization of §IV).
        let c = Curve::delta(1.5).convolve(&Curve::delta(2.5));
        assert_eq!(c.as_delta(), Some(4.0));
    }

    #[test]
    fn sub_clamped_closure_equals_sub_clamped_when_monotone() {
        let c = Curve::rate(10.0).unwrap();
        let g = Curve::token_bucket(4.0, 12.0);
        assert_eq!(c.sub_clamped_closure(&g), c.sub_clamped(&g).unwrap());
    }

    #[test]
    fn sub_clamped_closure_takes_future_infimum() {
        // f = rate 2; g activates at t=3 with slope 5 for a while:
        // f − g = 2t for t ≤ 3, then 2t − 5(t−3) falls until g caps at 10
        // (g = min(5(t−3), 10) shifted): build g = token_bucket-ish shape.
        let f = Curve::rate(2.0).unwrap();
        // g: 0 until 3, then slope 5 until t=5 (value 10), then flat.
        let g = Curve::from_points(&[(0.0, 0.0), (3.0, 0.0), (5.0, 10.0)], 0.0).unwrap();
        let s = f.sub_clamped_closure(&g);
        // Raw difference: 2t on [0,3] (peak 6), falls to 0 at t=5, rises 2t−10 after.
        // Lower closure: min over the future — 0 until the difference
        // permanently exceeds it: f̃(t) = 0 for t ≤ 5, 2t − 10 after.
        assert!((s.eval(2.0) - 0.0).abs() < 1e-9);
        assert!((s.eval(5.0) - 0.0).abs() < 1e-9);
        assert!((s.eval(7.0) - 4.0).abs() < 1e-9);
        // The closure is a lower bound of the raw clamped difference.
        for t in [0.5, 1.0, 2.5, 3.5, 4.0, 6.0, 10.0] {
            let raw = (f.eval(t) - g.eval(t)).max(0.0);
            assert!(s.eval(t) <= raw + 1e-9, "closure above raw at t={t}");
        }
    }

    #[test]
    fn convolution_with_zero_is_zero() {
        let f = Curve::token_bucket(2.0, 3.0);
        let z = Curve::zero();
        let c = f.convolve(&z);
        assert_eq!(c.eval(100.0), 0.0);
    }

    /// Brute-force upper bound on `(f ∗ g)(t)` over a dense `s` grid.
    fn brute_convolve_at(f: &Curve, g: &Curve, t: f64, steps: usize) -> f64 {
        let mut best = f64::INFINITY;
        for k in 0..=steps {
            let s = t * k as f64 / steps as f64;
            let v = f.eval(s) + g.eval(t - s);
            if v < best {
                best = v;
            }
        }
        best
    }

    #[test]
    fn segment_merge_matches_specialized_paths() {
        // Cases where convolve() has an exact specialized algorithm: the
        // segment-merge result must agree at every probe point.
        let cases = [
            (Curve::token_bucket(10.0, 1.0), Curve::token_bucket(1.0, 5.0)), // concave pair
            (Curve::rate_latency(4.0, 1.0), Curve::rate_latency(2.0, 3.0)),  // convex pair
            (Curve::token_bucket(1.0, 5.0), Curve::rate_latency(4.0, 2.0)),  // peeled
            (Curve::token_bucket(2.0, 1.0), Curve::delta(3.0)),              // shift
        ];
        for (f, g) in cases {
            let spec = f.convolve(&g);
            let merge = f.convolve_segment_merge(&g);
            for i in 0..=80 {
                let t = i as f64 * 0.125;
                let a = spec.eval(t);
                let b = merge.eval(t);
                assert!(
                    nearly_equal(a, b) || (a - b).abs() < 1e-7,
                    "mismatch at t={t}: specialized {a} vs segment-merge {b} ({f} ∗ {g})"
                );
            }
        }
    }

    #[test]
    fn segment_merge_exact_on_mixed_shapes() {
        // Neither concave nor convex: a burst followed by convex growth…
        let f = Curve::from_segments(vec![
            Segment::new(0.0, 2.0, 0.0),
            Segment::new(1.0, 2.0, 1.0),
            Segment::new(2.0, 3.0, 4.0),
        ])
        .unwrap();
        // …against an S-shape (convex then concave).
        let g = Curve::from_points(&[(0.0, 0.0), (1.0, 0.5), (2.0, 3.0), (3.0, 4.0)], 0.5).unwrap();
        assert!(!f.is_convex() && !f.is_concave());
        assert!(!g.is_convex() && !g.is_concave());
        let got = f.convolve(&g);
        for i in 0..=60 {
            let t = i as f64 * 0.1;
            let brute = brute_convolve_at(&f, &g, t, 4000);
            let v = got.eval(t);
            // Exact result: never above the brute-force upper bound, and
            // within its grid error below it.
            assert!(v <= brute + 1e-7, "above brute force at t={t}: {v} vs {brute}");
            assert!(brute - v <= 1e-2, "far below brute force at t={t}: {v} vs {brute}");
        }
    }

    #[test]
    fn segment_merge_handles_infinite_tails() {
        // Mixed shape with a terminal jump to +∞.
        let f = Curve::from_segments(vec![
            Segment::new(0.0, 1.0, 1.0),
            Segment::new(2.0, 3.0, 0.5),
            Segment::new(4.0, f64::INFINITY, 0.0),
        ])
        .unwrap();
        let g = Curve::from_points(&[(0.0, 0.0), (1.0, 2.0), (2.0, 2.5)], 0.25).unwrap();
        let got = f.convolve_segment_merge(&g);
        for i in 0..=50 {
            let t = i as f64 * 0.2;
            let brute = brute_convolve_at(&f, &g, t, 4000);
            let v = got.eval(t);
            if brute.is_infinite() {
                assert!(v.is_infinite() || v > 1e12, "expected ∞ at t={t}, got {v}");
            } else {
                assert!(v <= brute + 1e-7, "above brute force at t={t}: {v} vs {brute}");
                assert!(brute - v <= 2e-2, "far below brute force at t={t}: {v} vs {brute}");
            }
        }
        // Convolving with Curve::infinite() (no finite component) is min.
        let inf = Curve::infinite();
        assert_eq!(g.convolve_segment_merge(&inf), g);
    }
}
