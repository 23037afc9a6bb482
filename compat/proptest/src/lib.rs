//! Offline stand-in for the subset of `proptest` this workspace uses.
//!
//! The build environment has no access to crates.io, so the workspace
//! patches `proptest` to this crate (see `[patch.crates-io]` in the root
//! manifest). It keeps the property-test *interface* — the [`proptest!`]
//! macro, [`Strategy`] with `prop_map`/`boxed`, range and tuple
//! strategies, [`prop_oneof!`], [`collection::vec`], `prop_assert*` — but
//! runs plain randomized testing without shrinking: each failing case
//! reports its generated inputs and the deterministic case seed instead
//! of a minimized counterexample.
//!
//! Case count defaults to 64 per property and can be raised with the
//! `PROPTEST_CASES` environment variable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use core::fmt::Debug;
use core::ops::{Range, RangeInclusive};

use rand::rngs::SmallRng;
use rand::{Rng as _, SeedableRng as _};

pub mod collection;
pub mod option;
pub mod prelude;

/// The random source handed to strategies.
#[derive(Debug, Clone)]
pub struct TestRng(SmallRng);

impl TestRng {
    /// Creates a deterministic generator for one test case.
    #[must_use]
    pub fn from_seed(seed: u64) -> Self {
        TestRng(SmallRng::seed_from_u64(seed))
    }

    /// The wrapped small RNG.
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.0
    }
}

/// A recipe for generating values of one type.
pub trait Strategy {
    /// The type of generated values.
    type Value: Debug;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O: Debug, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
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

impl<T: Debug> Strategy for Box<dyn Strategy<Value = T>> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        (**self).generate(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
}

/// The result of [`Strategy::prop_map`].
pub struct Map<S, F> {
    strategy: S,
    f: F,
}

impl<S: Strategy, O: Debug, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.strategy.generate(rng))
    }
}

/// A strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone + Debug> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Types with a canonical full-range strategy (see [`any`]).
pub trait Arbitrary: Sized + Debug {
    /// Generates one arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.rng().gen::<$t>()
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.rng().gen::<bool>()
    }
}

/// The full-range strategy for `T` (as `proptest::arbitrary::any`).
#[must_use]
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(core::marker::PhantomData)
}

/// The result of [`any`].
#[derive(Debug, Clone, Copy)]
pub struct Any<T>(core::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.rng().gen_range(self.clone())
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.rng().gen_range(self.clone())
            }
        }
    )*};
}
impl_range_strategy!(u8, u32, u64, usize, f64);

macro_rules! impl_tuple_strategy {
    ($(($($name:ident : $idx:tt),+)),+) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )+};
}
impl_tuple_strategy!(
    (A: 0),
    (A: 0, B: 1),
    (A: 0, B: 1, C: 2),
    (A: 0, B: 1, C: 2, D: 3),
    (A: 0, B: 1, C: 2, D: 3, E: 4),
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5)
);

/// A weighted choice among boxed strategies (what [`prop_oneof!`] builds).
pub struct Union<T> {
    arms: Vec<(u32, BoxedStrategy<T>)>,
    total: u64,
}

impl<T: Debug> Union<T> {
    /// Creates a union; weights must not all be zero.
    #[must_use]
    pub fn new(arms: Vec<(u32, BoxedStrategy<T>)>) -> Self {
        let total: u64 = arms.iter().map(|(w, _)| u64::from(*w)).sum();
        assert!(total > 0, "prop_oneof! needs at least one positive weight");
        Union { arms, total }
    }
}

impl<T: Debug> Strategy for Union<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        let mut pick = rng.rng().gen_range(0..self.total);
        for (w, strat) in &self.arms {
            let w = u64::from(*w);
            if pick < w {
                return strat.generate(rng);
            }
            pick -= w;
        }
        unreachable!("weights exhausted")
    }
}

/// Why a test case did not pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TestCaseError {
    /// The property was falsified.
    Fail(String),
}

impl TestCaseError {
    /// A falsification with the given reason.
    pub fn fail(reason: impl Into<String>) -> Self {
        TestCaseError::Fail(reason.into())
    }
}

impl core::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TestCaseError::Fail(r) => write!(f, "{r}"),
        }
    }
}

/// Number of cases to run per property.
#[must_use]
pub fn case_count() -> u64 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

/// Derives a per-case seed from the property name and case index.
#[must_use]
pub fn case_seed(test_name: &str, case: u64) -> u64 {
    // FNV-1a over the name, mixed with the case index.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Defines property tests: each `fn` runs its body over generated inputs.
///
/// ```ignore
/// use proptest::prelude::*;
///
/// proptest! {
///     #[test]
///     fn addition_commutes(a in 0u32..1000, b in 0u32..1000) {
///         prop_assert_eq!(a + b, b + a);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block)+) => {$(
        $(#[$meta])*
        fn $name() {
            let cases = $crate::case_count();
            for case in 0..cases {
                let seed = $crate::case_seed(stringify!($name), case);
                let mut rng = $crate::TestRng::from_seed(seed);
                let mut inputs = String::new();
                $(
                    let value = $crate::Strategy::generate(&($strat), &mut rng);
                    inputs.push_str(&format!(
                        "{} = {:?}; ",
                        stringify!($arg),
                        &value
                    ));
                    let $arg = value;
                )+
                let result: ::core::result::Result<(), $crate::TestCaseError> =
                    (|| { $body Ok(()) })();
                match result {
                    Ok(()) => {}
                    Err($crate::TestCaseError::Fail(reason)) => panic!(
                        "property {} falsified (case {case}, seed {seed:#x}): {reason}\n  inputs: {inputs}",
                        stringify!($name),
                    ),
                }
            }
        }
    )+};
}

/// Asserts a condition inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Asserts equality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let left = $left;
        let right = $right;
        $crate::prop_assert!(
            left == right,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($left),
            stringify!($right),
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let left = $left;
        let right = $right;
        $crate::prop_assert!(left == right, $($fmt)*);
    }};
}

/// Chooses among strategies, optionally weighted (`weight => strategy`).
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![
            $(($weight as u32, $crate::Strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![
            $((1u32, $crate::Strategy::boxed($strat))),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_and_maps_generate_in_bounds() {
        let mut rng = crate::TestRng::from_seed(1);
        let strat = (0u64..10).prop_map(|x| x * 2);
        for _ in 0..1000 {
            let v = strat.generate(&mut rng);
            assert!(v % 2 == 0 && v < 20);
        }
    }

    #[test]
    fn oneof_honors_weights() {
        let mut rng = crate::TestRng::from_seed(2);
        let strat = prop_oneof![9 => Just(true), 1 => Just(false)];
        let trues = (0..10_000).filter(|_| strat.generate(&mut rng)).count();
        assert!((8_500..=9_500).contains(&trues), "trues = {trues}");
    }

    proptest! {
        /// The macro itself: bindings, tuples, collections, assertions.
        #[test]
        fn macro_end_to_end(
            pairs in crate::collection::vec((0u8..10, any::<bool>()), 0..20),
            x in 0u32..=5,
            opt in crate::option::of(0u32..100),
        ) {
            prop_assert!(pairs.len() < 20);
            prop_assert!(x <= 5, "{x} out of range");
            if let Some(v) = opt {
                prop_assert!(v < 100);
            }
            for (a, _) in &pairs {
                prop_assert_eq!(*a, *a);
            }
        }
    }
}
