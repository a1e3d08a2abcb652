//! Offline stand-in for the `proptest` crate.
//!
//! This workspace builds in environments with no access to crates.io, so
//! the real `proptest` cannot be vendored. This crate implements exactly
//! the subset of proptest's API that the workspace's property tests use:
//!
//! - the [`proptest!`] macro (including the `#![proptest_config(..)]`
//!   header form) wrapping `#[test]` functions with `arg in strategy`
//!   parameters,
//! - [`Strategy`] implementations for integer and float ranges
//!   (`0u64..100`, `2usize..=4`, `0.0f64..1.0`), tuples of strategies,
//!   `prop::collection::vec(elem, size)` and `prop::bool::ANY`,
//! - combinators: [`Just`], [`Strategy::prop_map`] and the
//!   [`prop_oneof!`] macro (uniform arm choice, no weights),
//! - [`prop_assert!`] / [`prop_assert_eq!`], which report the generated
//!   inputs on failure,
//! - [`ProptestConfig`] with a `cases` knob.
//!
//! Unlike the real proptest there is no shrinking: a failing case panics
//! immediately with its inputs printed, which is enough to reproduce (the
//! generator is fully deterministic — seeded from the test's name — so a
//! failure always reproduces on re-run; there is no persistence file and
//! no wall-clock entropy anywhere).

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// Runner configuration. Only `cases` is consulted; the other fields exist
/// for signature compatibility with call sites that use struct-update
/// syntax against `ProptestConfig::default()`.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
    /// Accepted for compatibility; shrinking is not implemented.
    pub max_shrink_iters: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig {
            cases: 32,
            max_shrink_iters: 0,
        }
    }
}

/// Deterministic case generator: SplitMix64 seeded from the FNV-1a hash of
/// the property's name, so every test has an independent, reproducible
/// stream and no ambient entropy is involved.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Build the generator for the named property.
    pub fn deterministic(name: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        TestRng { state: h }
    }

    /// Next raw 64-bit value (SplitMix64).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0);
        let mut m = (self.next_u64() as u128) * (n as u128);
        let mut lo = m as u64;
        if lo < n {
            let threshold = n.wrapping_neg() % n;
            while lo < threshold {
                m = (self.next_u64() as u128) * (n as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A generator of values for one property parameter.
pub trait Strategy {
    /// The generated type.
    type Value;
    /// Draw one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values with `f`, as the real crate's
    /// `Strategy::prop_map` does.
    fn prop_map<T, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> T,
    {
        Map { strat: self, f }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    strat: S,
    f: F,
}

impl<S: Strategy, T, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (self.f)(self.strat.generate(rng))
    }
}

/// Strategy that always yields a clone of the given value.
#[derive(Debug, Clone, Copy)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// One boxed arm of a [`OneOf`]: a type-erased generator function.
pub type OneOfArm<V> = Box<dyn Fn(&mut TestRng) -> V>;

/// Strategy behind [`prop_oneof!`]: picks one arm uniformly per draw.
pub struct OneOf<V> {
    arms: Vec<OneOfArm<V>>,
}

impl<V> OneOf<V> {
    /// Build from the macro-collected arm generators.
    pub fn new(arms: Vec<OneOfArm<V>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        OneOf { arms }
    }
}

impl<V> Strategy for OneOf<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        let i = rng.below(self.arms.len() as u64) as usize;
        (self.arms[i])(rng)
    }
}

impl<V> std::fmt::Debug for OneOf<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "OneOf({} arms)", self.arms.len())
    }
}

/// Choose uniformly between strategies of the same value type. The real
/// crate's weighted `n => strat` arm form is not supported.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::OneOf::new(::std::vec![
            $({
                let s = $strat;
                ::std::boxed::Box::new(move |rng: &mut $crate::TestRng| {
                    $crate::Strategy::generate(&s, rng)
                }) as ::std::boxed::Box<dyn Fn(&mut $crate::TestRng) -> _>
            }),+
        ])
    };
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end - self.start) as u64;
                self.start + rng.below(span) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    rng.next_u64() as $t
                } else {
                    lo + rng.below(span + 1) as $t
                }
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.unit() * (self.end - self.start)
    }
}

impl<A: Strategy, B: Strategy> Strategy for (A, B) {
    type Value = (A::Value, B::Value);
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (self.0.generate(rng), self.1.generate(rng))
    }
}

impl<A: Strategy, B: Strategy, C: Strategy> Strategy for (A, B, C) {
    type Value = (A::Value, B::Value, C::Value);
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (
            self.0.generate(rng),
            self.1.generate(rng),
            self.2.generate(rng),
        )
    }
}

/// Number-of-elements specification for [`prop::collection::vec`]: either
/// an exact `usize` or a half-open `Range<usize>`.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    lo: usize,
    hi: usize, // inclusive
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { lo: n, hi: n }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        SizeRange {
            lo: r.start,
            hi: r.end - 1,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        SizeRange {
            lo: *r.start(),
            hi: *r.end(),
        }
    }
}

/// Strategy producing `Vec`s of a given element strategy and size range.
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    elem: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let span = (self.size.hi - self.size.lo) as u64;
        let n = self.size.lo
            + if span == 0 {
                0
            } else {
                rng.below(span + 1) as usize
            };
        (0..n).map(|_| self.elem.generate(rng)).collect()
    }
}

/// The `prop::` namespace mirrored from the real crate.
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use super::super::{SizeRange, VecStrategy};

        /// `Vec` of `size` elements drawn from `elem`.
        pub fn vec<S>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
            VecStrategy {
                elem,
                size: size.into(),
            }
        }
    }

    /// Boolean strategies.
    pub mod bool {
        use super::super::{Strategy, TestRng};

        /// Uniform `bool`.
        #[derive(Debug, Clone, Copy)]
        pub struct Any;

        /// The canonical instance, as `prop::bool::ANY`.
        pub const ANY: Any = Any;

        impl Strategy for Any {
            type Value = bool;
            fn generate(&self, rng: &mut TestRng) -> bool {
                rng.next_u64() & 1 == 1
            }
        }
    }
}

/// Assert a condition inside a `proptest!` body; on failure the case's
/// generated inputs are reported alongside the message.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err(format!($($fmt)*));
        }
    };
}

/// Assert equality inside a `proptest!` body (operands evaluated once).
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {
        match (&$a, &$b) {
            (left, right) => {
                if !(*left == *right) {
                    return ::std::result::Result::Err(format!(
                        "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                        stringify!($a), stringify!($b), left, right
                    ));
                }
            }
        }
    };
    ($a:expr, $b:expr, $($fmt:tt)*) => {
        match (&$a, &$b) {
            (left, right) => {
                if !(*left == *right) {
                    return ::std::result::Result::Err(format!(
                        "{}\n  left: {:?}\n right: {:?}",
                        format!($($fmt)*), left, right
                    ));
                }
            }
        }
    };
}

/// Define property tests. Mirrors the real proptest's surface syntax:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]
///
///     /// doc comment
///     #[test]
///     fn my_property(x in 0u64..100, flip in prop::bool::ANY) {
///         prop_assert!(x < 100);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items!(($cfg) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items!(($crate::ProptestConfig::default()) $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::TestRng::deterministic(concat!(module_path!(), "::", stringify!($name)));
            for case in 0..config.cases {
                $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)+
                let inputs = format!(
                    concat!($(stringify!($arg), " = {:?}; "),+),
                    $(&$arg),+
                );
                let outcome = (move || -> ::std::result::Result<(), ::std::string::String> {
                    $body
                    ::std::result::Result::Ok(())
                })();
                if let ::std::result::Result::Err(msg) = outcome {
                    panic!(
                        "property {} failed at case {}/{}:\n{}\n  inputs: {}",
                        stringify!($name), case + 1, config.cases, msg, inputs
                    );
                }
            }
        }
        $crate::__proptest_items!(($cfg) $($rest)*);
    };
}

/// Everything a property-test file needs, as `use proptest::prelude::*`.
pub mod prelude {
    pub use crate::{prop, Just, ProptestConfig, SizeRange, Strategy, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = TestRng::deterministic("ranges_respect_bounds");
        for _ in 0..1000 {
            let v = Strategy::generate(&(5u64..10), &mut rng);
            assert!((5..10).contains(&v));
            let w = Strategy::generate(&(2usize..=4), &mut rng);
            assert!((2..=4).contains(&w));
            let f = Strategy::generate(&(0.5f64..2.0), &mut rng);
            assert!((0.5..2.0).contains(&f));
        }
    }

    #[test]
    fn vec_strategy_sizes() {
        let mut rng = TestRng::deterministic("vec_strategy_sizes");
        for _ in 0..200 {
            let fixed = Strategy::generate(&prop::collection::vec(0u8..5, 7), &mut rng);
            assert_eq!(fixed.len(), 7);
            let ranged = Strategy::generate(&prop::collection::vec(0u8..5, 1..4), &mut rng);
            assert!((1..4).contains(&ranged.len()));
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = TestRng::deterministic("x");
        let mut b = TestRng::deterministic("x");
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

        /// The macro itself round-trips: args bind, asserts pass.
        #[test]
        fn macro_smoke(x in 0u64..100, pair in (0u32..4, 0.0f64..1.0), flags in prop::collection::vec(prop::bool::ANY, 1..8)) {
            prop_assert!(x < 100);
            prop_assert!(pair.0 < 4 && pair.1 < 1.0);
            prop_assert_eq!(flags.len(), flags.iter().filter(|_| true).count());
        }

        /// Combinators compose: prop_oneof over Just / prop_map arms.
        #[test]
        fn combinators_smoke(
            vals in prop::collection::vec(
                prop_oneof![
                    Just(0u64),
                    (1u64..10).prop_map(|x| x * 100),
                    1_000u64..2_000,
                ],
                1..32,
            ),
        ) {
            for v in vals {
                prop_assert!(
                    v == 0 || (100u64..1_000).contains(&v) || (1_000u64..2_000).contains(&v),
                    "value {v} outside every arm's range"
                );
            }
        }
    }
}
