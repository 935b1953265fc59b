//! Vendored offline stand-in for the `proptest` crate.
//!
//! The build environment has no access to crates.io, so this crate
//! provides the slice of the proptest API this workspace uses:
//! [`strategy::Strategy`] with `prop_map`/`boxed`, range and tuple
//! strategies, [`strategy::Just`], [`collection::vec`],
//! [`strategy::Union`] (behind [`prop_oneof!`]), and the [`proptest!`]
//! / [`prop_assert!`] / [`prop_assert_eq!`] / [`prop_assume!`] macros.
//!
//! Differences from upstream, by design:
//!
//! * **no shrinking** — a failing case reports its case number and the
//!   per-test RNG seed instead of a minimized input;
//! * case generation is driven by a deterministic per-test seed
//!   (derived from the test's name), so failures reproduce exactly;
//! * the case count defaults to 256 (like upstream) and is tunable via
//!   the `PROPTEST_CASES` environment variable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Strategies: composable random-value generators.
pub mod strategy {
    use rand::rngs::StdRng;
    use rand::RngExt;
    use std::ops::{Range, RangeInclusive};

    /// A generator of random values of type [`Strategy::Value`].
    ///
    /// Unlike upstream proptest there is no value tree and no
    /// shrinking: a strategy simply draws a fresh value per case.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Draws one value.
        fn new_value(&self, rng: &mut StdRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<T, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> T,
        {
            Map { strategy: self, f }
        }

        /// Type-erases the strategy.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            Box::new(self)
        }
    }

    /// A type-erased strategy.
    pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

    impl<S: Strategy + ?Sized> Strategy for Box<S> {
        type Value = S::Value;
        fn new_value(&self, rng: &mut StdRng) -> Self::Value {
            (**self).new_value(rng)
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn new_value(&self, rng: &mut StdRng) -> Self::Value {
            (**self).new_value(rng)
        }
    }

    /// A strategy that always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn new_value(&self, _rng: &mut StdRng) -> T {
            self.0.clone()
        }
    }

    /// The result of [`Strategy::prop_map`].
    pub struct Map<S, F> {
        strategy: S,
        f: F,
    }

    impl<S: Strategy, T, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
        type Value = T;
        fn new_value(&self, rng: &mut StdRng) -> T {
            (self.f)(self.strategy.new_value(rng))
        }
    }

    /// Uniform choice among several strategies of the same value type
    /// (the engine behind [`crate::prop_oneof!`]).
    pub struct Union<T> {
        arms: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        /// Creates a union; panics if `arms` is empty.
        pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union { arms }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn new_value(&self, rng: &mut StdRng) -> T {
            let i = rng.random_below(self.arms.len() as u64) as usize;
            self.arms[i].new_value(rng)
        }
    }

    impl Strategy for Range<f64> {
        type Value = f64;
        fn new_value(&self, rng: &mut StdRng) -> f64 {
            self.start + rng.random::<f64>() * (self.end - self.start)
        }
    }

    impl Strategy for RangeInclusive<f64> {
        type Value = f64;
        fn new_value(&self, rng: &mut StdRng) -> f64 {
            self.start() + rng.random::<f64>() * (self.end() - self.start())
        }
    }

    impl Strategy for Range<f32> {
        type Value = f32;
        fn new_value(&self, rng: &mut StdRng) -> f32 {
            self.start + rng.random::<f32>() * (self.end - self.start)
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn new_value(&self, rng: &mut StdRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end - self.start) as u64;
                    self.start + rng.random_below(span) as $t
                }
            }

            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn new_value(&self, rng: &mut StdRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi - lo) as u64 + 1;
                    lo + rng.random_below(span) as $t
                }
            }
        )*};
    }

    int_range_strategy!(u8, u16, u32, u64, usize);

    macro_rules! signed_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn new_value(&self, rng: &mut StdRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = self.end.wrapping_sub(self.start) as u64;
                    self.start.wrapping_add(rng.random_below(span) as $t)
                }
            }
        )*};
    }

    signed_range_strategy!(i32, i64, isize);

    macro_rules! tuple_strategy {
        ($($name:ident),*) => {
            impl<$($name: Strategy),*> Strategy for ($($name,)*) {
                type Value = ($($name::Value,)*);
                fn new_value(&self, rng: &mut StdRng) -> Self::Value {
                    #[allow(non_snake_case)]
                    let ($($name,)*) = self;
                    ($($name.new_value(rng),)*)
                }
            }
        };
    }

    tuple_strategy!(A, B);
    tuple_strategy!(A, B, C);
    tuple_strategy!(A, B, C, D);
    tuple_strategy!(A, B, C, D, E);
    tuple_strategy!(A, B, C, D, E, F);
    tuple_strategy!(A, B, C, D, E, F, G);
}

/// Collection strategies.
pub mod collection {
    use super::strategy::Strategy;
    use rand::rngs::StdRng;
    use rand::RngExt;
    use std::ops::{Range, RangeInclusive};

    /// An inclusive length range for collection strategies.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty collection size range");
            SizeRange { lo: r.start, hi: r.end - 1 }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            SizeRange { lo: *r.start(), hi: *r.end() }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    /// The result of [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn new_value(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64 + 1;
            let n = self.size.lo + rng.random_below(span) as usize;
            (0..n).map(|_| self.element.new_value(rng)).collect()
        }
    }

    /// A strategy for `Vec`s whose length lies in `size` and whose
    /// elements are drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }
}

/// Case execution: the engine behind the [`proptest!`] macro.
pub mod test_runner {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Why a single case did not pass.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// The case's inputs were rejected by `prop_assume!`.
        Reject,
        /// An assertion failed.
        Fail(String),
    }

    impl TestCaseError {
        /// A failed assertion with a message.
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError::Fail(msg.into())
        }
    }

    /// Number of cases per property (env `PROPTEST_CASES`, default 256).
    pub fn case_count() -> u32 {
        std::env::var("PROPTEST_CASES").ok().and_then(|s| s.parse().ok()).unwrap_or(256)
    }

    /// Runs `f` for [`case_count`] cases with a deterministic RNG
    /// derived from the test name; panics on the first failing case.
    pub fn run_cases<F>(name: &str, mut f: F)
    where
        F: FnMut(&mut StdRng) -> Result<(), TestCaseError>,
    {
        // FNV-1a over the name: stable across runs and platforms.
        let mut seed = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            seed ^= b as u64;
            seed = seed.wrapping_mul(0x1000_0000_01b3);
        }
        let cases = case_count();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut passed = 0u32;
        let mut rejected = 0u32;
        while passed < cases {
            match f(&mut rng) {
                Ok(()) => passed += 1,
                Err(TestCaseError::Reject) => {
                    rejected += 1;
                    assert!(
                        rejected <= cases.saturating_mul(16),
                        "proptest {name}: too many prop_assume! rejections \
                         ({rejected} rejects for {passed} passes)"
                    );
                }
                Err(TestCaseError::Fail(msg)) => panic!(
                    "proptest {name}: case {passed} failed (seed {seed:#x}, \
                     no shrinking in the vendored shim)\n{msg}"
                ),
            }
        }
    }
}

/// The usual imports: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate as prop;
    pub use crate::strategy::{BoxedStrategy, Just, Map, Strategy, Union};
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest};
}

/// Uniform choice among strategies with the same value type.
///
/// Upstream's `weight => strategy` arms are not supported — every arm
/// is equally likely.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($arm)),+
        ])
    };
}

/// Defines property tests: `fn name(pattern in strategy, ...) { body }`.
#[macro_export]
macro_rules! proptest {
    ($( $(#[$meta:meta])* fn $name:ident( $($pat:pat in $strat:expr),* $(,)? ) $body:block )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                $crate::test_runner::run_cases(stringify!($name), |__proptest_rng| {
                    $(let $pat = $crate::strategy::Strategy::new_value(&($strat), __proptest_rng);)*
                    $body
                    ::core::result::Result::Ok(())
                });
            }
        )*
    };
}

/// Like `assert!`, but reported through the proptest runner.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)+)),
            );
        }
    };
}

/// Like `assert_eq!`, but reported through the proptest runner.
#[macro_export]
macro_rules! prop_assert_eq {
    ($lhs:expr, $rhs:expr $(,)?) => {{
        let (l, r) = (&$lhs, &$rhs);
        $crate::prop_assert!(*l == *r, "assertion failed: {:?} != {:?}", l, r);
    }};
    ($lhs:expr, $rhs:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$lhs, &$rhs);
        $crate::prop_assert!(*l == *r, "{} ({:?} != {:?})", format!($($fmt)+), l, r);
    }};
}

/// Discards the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::Reject);
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_stay_in_bounds() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let x = (1.5f64..2.5).new_value(&mut rng);
            assert!((1.5..2.5).contains(&x));
            let n = (3usize..7).new_value(&mut rng);
            assert!((3..7).contains(&n));
            let m = (1usize..=20).new_value(&mut rng);
            assert!((1..=20).contains(&m));
        }
    }

    #[test]
    fn vec_and_tuple_strategies_compose() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let strat = prop::collection::vec((0u64..3, 0.1f64..20.0), 1..40);
        for _ in 0..200 {
            let v = strat.new_value(&mut rng);
            assert!((1..40).contains(&v.len()));
            for (a, b) in v {
                assert!(a < 3);
                assert!((0.1..20.0).contains(&b));
            }
        }
    }

    #[test]
    fn oneof_and_map() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let strat = prop_oneof![Just(-1.0f64), (0.0f64..1.0).prop_map(|x| x + 10.0),];
        let (mut neg, mut mapped) = (0, 0);
        for _ in 0..200 {
            let x = strat.new_value(&mut rng);
            if x == -1.0 {
                neg += 1;
            } else {
                assert!((10.0..11.0).contains(&x));
                mapped += 1;
            }
        }
        assert!(neg > 50 && mapped > 50);
    }

    proptest! {
        /// The macro itself: patterns, assume, assert.
        #[test]
        fn macro_roundtrip((a, b) in (0u32..10, 0u32..10), x in 0.0f64..1.0) {
            prop_assume!(a != 9);
            prop_assert!(a < 10 && b < 10, "bounds violated: {a}, {b}");
            prop_assert_eq!(a < 10, true);
            prop_assert!((0.0..1.0).contains(&x));
        }
    }
}
