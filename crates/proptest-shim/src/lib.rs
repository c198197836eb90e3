//! Offline stand-in for the [`proptest`](https://docs.rs/proptest) crate.
//!
//! The workspace's property tests were written against real proptest, but
//! this repository must build with no network access, so this crate
//! provides the small API subset those tests use:
//!
//! * the [`proptest!`] macro (with optional `#![proptest_config(..)]`),
//! * [`prop_assert!`], [`prop_assert_eq!`], [`prop_assert_ne!`],
//!   [`prop_assume!`],
//! * [`any`] for the primitive types and byte arrays the tests sample,
//! * integer range strategies (`0u64..32`, `1u64..`, `2usize..20`, …),
//! * [`collection::vec`],
//! * [`Strategy::prop_map`], tuple strategies (2- through 5-tuples), and
//!   [`sample::select`] (added for the stepped-simulator property tests,
//!   which build random instruction scripts from primitive draws),
//! * [`Just`] and [`Strategy::prop_flat_map`] (added for the perf-session
//!   codec property tests, which derive dependent draws — e.g. a shard
//!   count, then per-shard samples of that width),
//! * [`Strategy::boxed`] / [`BoxedStrategy`] and the [`prop_oneof!`]
//!   macro, weighted or unweighted (added for the scenario round-trip
//!   property tests, which draw one of several traffic-model and
//!   event shapes per case).
//!
//! Semantics differ from real proptest in one deliberate way: there is no
//! shrinking. A failing case panics with the generated inputs' case index
//! and the failed assertion, which (together with the deterministic
//! per-test RNG seed) is enough to reproduce it.

#![forbid(unsafe_code)]

use std::marker::PhantomData;
use std::ops::{Range, RangeFrom, RangeInclusive};

/// Deterministic test RNG (SplitMix64). Seeded per test from the test's
/// module path + name so every run of a given test sees the same inputs.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeds from raw state.
    pub fn from_seed(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Seeds deterministically from a test identifier string.
    pub fn deterministic(name: &str) -> Self {
        // FNV-1a over the name; fixed offset basis.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        Self { state: h }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value below `n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.next_u64() % n
    }
}

/// Configuration accepted by `#![proptest_config(..)]`.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // Real proptest defaults to 256; this shim keeps that.
        Self { cases: 256 }
    }
}

/// A source of random values of one type.
pub trait Strategy {
    /// The generated type.
    type Value;
    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f` (`proptest`'s `prop_map`; no
    /// shrinking, like the rest of this shim).
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Derives a dependent strategy from each generated value
    /// (`proptest`'s `prop_flat_map`): draw from `self`, feed the draw
    /// to `f`, then draw from the strategy it returns.
    fn prop_flat_map<S2, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S2: Strategy,
        F: Fn(Self::Value) -> S2,
    {
        FlatMap { inner: self, f }
    }

    /// Erases the concrete strategy type (`proptest`'s `.boxed()`), so
    /// strategies of different shapes but one value type can share a
    /// slot — what the arms of [`prop_oneof!`] produce.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(std::rc::Rc::new(self))
    }
}

/// Type-erased strategy (`proptest::strategy::BoxedStrategy`). Cheap to
/// clone: arms share the underlying strategy.
#[derive(Clone)]
pub struct BoxedStrategy<T>(std::rc::Rc<dyn Strategy<Value = T>>);

impl<T> std::fmt::Debug for BoxedStrategy<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("BoxedStrategy")
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        self.0.generate(rng)
    }
}

/// Weighted choice over type-erased arms — what [`prop_oneof!`]
/// expands to (`proptest`'s `Union`).
#[derive(Debug, Clone)]
pub struct Union<T> {
    arms: Vec<(u32, BoxedStrategy<T>)>,
    total: u64,
}

impl<T> Union<T> {
    /// Builds a union from `(weight, strategy)` arms.
    ///
    /// # Panics
    ///
    /// Panics if `arms` is empty or every weight is zero.
    pub fn new(arms: Vec<(u32, BoxedStrategy<T>)>) -> Self {
        let total: u64 = arms.iter().map(|(w, _)| *w as u64).sum();
        assert!(
            total > 0,
            "prop_oneof! needs at least one nonzero-weight arm"
        );
        Self { arms, total }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let mut pick = rng.below(self.total);
        for (weight, arm) in &self.arms {
            if pick < *weight as u64 {
                return arm.generate(rng);
            }
            pick -= *weight as u64;
        }
        unreachable!("weights summed to total")
    }
}

/// `proptest::prop_oneof!` — draw from one of several strategies with
/// the same value type, uniformly (`prop_oneof![a, b, c]`) or weighted
/// (`prop_oneof![3 => a, 1 => b]`).
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![
            $( (($weight) as u32, $crate::Strategy::boxed($strat)) ),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![
            $( (1u32, $crate::Strategy::boxed($strat)) ),+
        ])
    };
}

/// Strategy produced by [`Strategy::prop_flat_map`].
#[derive(Debug, Clone)]
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S, S2, F> Strategy for FlatMap<S, F>
where
    S: Strategy,
    S2: Strategy,
    F: Fn(S::Value) -> S2,
{
    type Value = S2::Value;
    fn generate(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// `proptest::strategy::Just` — a strategy that always yields a clone
/// of its value. The unit that makes `prop_flat_map` pipelines close
/// over already-drawn inputs.
#[derive(Debug, Clone, Copy)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Strategy produced by [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, U, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
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

impl<A: Strategy, B: Strategy, C: Strategy, D: Strategy> Strategy for (A, B, C, D) {
    type Value = (A::Value, B::Value, C::Value, D::Value);
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (
            self.0.generate(rng),
            self.1.generate(rng),
            self.2.generate(rng),
            self.3.generate(rng),
        )
    }
}

impl<A: Strategy, B: Strategy, C: Strategy, D: Strategy, E: Strategy> Strategy for (A, B, C, D, E) {
    type Value = (A::Value, B::Value, C::Value, D::Value, E::Value);
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (
            self.0.generate(rng),
            self.1.generate(rng),
            self.2.generate(rng),
            self.3.generate(rng),
            self.4.generate(rng),
        )
    }
}

/// Strategies drawing from explicit value sets.
pub mod sample {
    use super::{Strategy, TestRng};

    /// Strategy produced by [`select`].
    #[derive(Debug, Clone)]
    pub struct Select<T> {
        options: Vec<T>,
    }

    /// `proptest::sample::select` — one of `options`, uniformly.
    ///
    /// # Panics
    ///
    /// Panics if `options` is empty.
    pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "select from an empty set");
        Select { options }
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.options[rng.below(self.options.len() as u64) as usize].clone()
        }
    }
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// Generates an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_uint {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_arbitrary_uint!(u8, u16, u32, u64, usize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for u128 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128
    }
}

impl<T: Arbitrary, const N: usize> Arbitrary for [T; N] {
    fn arbitrary(rng: &mut TestRng) -> Self {
        std::array::from_fn(|_| T::arbitrary(rng))
    }
}

/// Strategy produced by [`any`].
#[derive(Debug, Clone, Copy)]
pub struct Any<T>(PhantomData<T>);

/// The "any value of `T`" strategy.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! impl_range_strategies {
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
        impl Strategy for RangeFrom<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let lo = self.start;
                let span = (<$t>::MAX - lo) as u64;
                if span == u64::MAX {
                    rng.next_u64() as $t
                } else {
                    lo + rng.below(span + 1) as $t
                }
            }
        }
    )*};
}
impl_range_strategies!(u8, u16, u32, u64, usize);

macro_rules! impl_float_range_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                // 53-bit fraction in [0, 1); enough precision for tests.
                let frac = (rng.next_u64() >> 11) as $t / (1u64 << 53) as $t;
                self.start + frac * (self.end - self.start)
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let frac = (rng.next_u64() >> 11) as $t / ((1u64 << 53) - 1) as $t;
                lo + frac * (hi - lo)
            }
        }
    )*};
}
impl_float_range_strategies!(f32, f64);

impl<S: Strategy> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        (*self).generate(rng)
    }
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};

    /// Inclusive-exclusive size bounds for [`vec()`].
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            Self {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            Self {
                lo: *r.start(),
                hi: r.end().saturating_add(1),
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self { lo: n, hi: n + 1 }
        }
    }

    /// Strategy for `Vec<S::Value>` with length drawn from `size`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    /// `proptest::collection::vec` — a vector of `elem` values.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            elem,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64;
            let len = self.size.lo + rng.below(span) as usize;
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

/// One-stop imports, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        Arbitrary, BoxedStrategy, Just, ProptestConfig, Strategy, Union,
    };
    pub use crate::{collection, sample};
}

/// Defines property tests. Each `fn name(arg in strategy, ..) { body }`
/// becomes a `#[test]` that runs `body` over `cases` random inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr)
      $(
        $(#[$meta:meta])*
        fn $name:ident ( $( $arg:pat in $strat:expr ),+ $(,)? ) $body:block
      )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __cfg: $crate::ProptestConfig = $cfg;
                let mut __rng = $crate::TestRng::deterministic(
                    concat!(module_path!(), "::", stringify!($name)),
                );
                for __case in 0..__cfg.cases {
                    $( let $arg = $crate::Strategy::generate(&($strat), &mut __rng); )+
                    let __outcome: ::std::result::Result<(), ::std::string::String> =
                        (|| {
                            { $body }
                            ::std::result::Result::Ok(())
                        })();
                    if let ::std::result::Result::Err(__msg) = __outcome {
                        panic!(
                            "proptest {} failed at case {}/{}: {}",
                            stringify!($name),
                            __case,
                            __cfg.cases,
                            __msg
                        );
                    }
                }
            }
        )*
    };
}

/// `assert!` that reports through the proptest harness.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: {}",
                stringify!($cond)
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err(::std::format!($($fmt)+));
        }
    };
}

/// `assert_eq!` that reports through the proptest harness.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (__a, __b) = (&$a, &$b);
        if !(*__a == *__b) {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: `{}` == `{}`\n  left: {:?}\n right: {:?}",
                stringify!($a),
                stringify!($b),
                __a,
                __b
            ));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (__a, __b) = (&$a, &$b);
        if !(*__a == *__b) {
            return ::std::result::Result::Err(::std::format!(
                "{}\n  left: {:?}\n right: {:?}",
                ::std::format!($($fmt)+),
                __a,
                __b
            ));
        }
    }};
}

/// `assert_ne!` that reports through the proptest harness.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (__a, __b) = (&$a, &$b);
        if *__a == *__b {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: `{}` != `{}`\n  both: {:?}",
                stringify!($a),
                stringify!($b),
                __a
            ));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (__a, __b) = (&$a, &$b);
        if *__a == *__b {
            return ::std::result::Result::Err(::std::format!($($fmt)+));
        }
    }};
}

/// Skips the current case when its inputs don't satisfy a precondition.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            // Treated as a vacuous pass for this case (no global retry
            // budget like real proptest — good enough for these tests).
            return ::std::result::Result::Ok(());
        }
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn rng_is_deterministic_per_name() {
        let mut a = crate::TestRng::deterministic("x");
        let mut b = crate::TestRng::deterministic("x");
        assert_eq!(a.next_u64(), b.next_u64());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_respect_bounds(x in 10u64..20, y in 3usize..4, z in 250u8..) {
            prop_assert!((10..20).contains(&x));
            prop_assert_eq!(y, 3);
            prop_assert!(z >= 250);
        }

        #[test]
        fn vec_lengths_in_bounds(v in collection::vec(any::<u8>(), 2..5)) {
            prop_assert!(v.len() >= 2 && v.len() < 5);
        }

        #[test]
        fn assume_skips(n in 0u64..10) {
            prop_assume!(n != 3);
            prop_assert_ne!(n, 3);
        }

        #[test]
        fn prop_map_transforms(x in (0u64..8).prop_map(|v| v * 10)) {
            prop_assert!(x % 10 == 0 && x < 80);
        }

        #[test]
        fn tuples_generate_componentwise((a, b) in (0u64..4, 10u64..14)) {
            prop_assert!(a < 4);
            prop_assert!((10..14).contains(&b));
        }

        #[test]
        fn select_draws_members(v in sample::select(vec![2u64, 3, 5, 7])) {
            prop_assert!([2u64, 3, 5, 7].contains(&v));
        }

        #[test]
        fn just_always_yields_its_value(v in Just(42u64)) {
            prop_assert_eq!(v, 42);
        }

        #[test]
        fn flat_map_derives_dependent_draws(
            (n, v) in (1usize..5).prop_flat_map(|n| {
                (Just(n), collection::vec(0u64..10, n..n + 1))
            })
        ) {
            prop_assert_eq!(v.len(), n);
            prop_assert!(v.iter().all(|&x| x < 10));
        }

        #[test]
        fn oneof_draws_from_every_arm(
            v in prop_oneof![
                (0u64..10).boxed(),
                (100u64..110).boxed(),
                Just(42u64).boxed(),
            ]
        ) {
            prop_assert!(v < 10 || (100..110).contains(&v) || v == 42);
        }

        #[test]
        fn weighted_oneof_respects_zero_weights(
            v in prop_oneof![3 => Just(1u64), 0 => Just(2u64)]
        ) {
            // A zero-weight arm is never drawn.
            prop_assert_eq!(v, 1);
        }

        #[test]
        fn boxed_strategies_still_map(
            v in (0u64..4).boxed().prop_map(|x| x * 2)
        ) {
            prop_assert!(v % 2 == 0 && v < 8);
        }
    }
}
