//! Offline stand-in for the subset of `rand` 0.8 this workspace uses.
//!
//! The build environment has no access to crates.io, so the workspace
//! patches `rand` to this crate (see `[patch.crates-io]` in the root
//! manifest). It implements exactly the API surface the simulator needs —
//! [`rngs::SmallRng`] seeded via [`SeedableRng::seed_from_u64`], and the
//! [`Rng`] extension methods `gen`, `gen_range`, and `gen_bool` over the
//! primitive types — with the same uniform-distribution semantics, though
//! not the same bit streams, as the upstream crate.
//!
//! The generator behind [`rngs::SmallRng`] is xoshiro256++, the same
//! algorithm upstream `rand` 0.8 uses on 64-bit targets, seeded through
//! SplitMix64 exactly as upstream does.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use core::ops::{Range, RangeInclusive};

/// A low-level source of random 64-bit words.
pub trait RngCore {
    /// Returns the next random `u64`.
    fn next_u64(&mut self) -> u64;
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Construction of a generator from a seed.
pub trait SeedableRng: Sized {
    /// Creates a generator from a `u64` seed, expanding it with SplitMix64.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Uniform sampling of `Self` from an `RngCore`'s full output range.
pub trait Standard: Sized {
    /// Draws one uniformly distributed value.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64);

impl Standard for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 random mantissa bits, uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Types that can be sampled uniformly from a range.
pub trait SampleUniform: PartialOrd + Copy {
    /// Draws uniformly from `[low, high)`. Panics when the range is empty.
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self;
    /// Draws uniformly from `[low, high]`. Panics when `low > high`.
    fn sample_range_inclusive<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self;
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_range<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
                assert!(low < high, "cannot sample empty range {low}..{high}");
                let span = (high as i128 - low as i128) as u128;
                let r = ((rng.next_u64() as u128) << 64 | rng.next_u64() as u128) % span;
                (low as i128 + r as i128) as $t
            }
            fn sample_range_inclusive<R: RngCore + ?Sized>(
                rng: &mut R,
                low: Self,
                high: Self,
            ) -> Self {
                assert!(low <= high, "cannot sample empty range {low}..={high}");
                let span = (high as i128 - low as i128) as u128 + 1;
                let r = ((rng.next_u64() as u128) << 64 | rng.next_u64() as u128) % span;
                (low as i128 + r as i128) as $t
            }
        }
    )*};
}
impl_sample_uniform_int!(u8, u32, u64, usize, i64);

macro_rules! impl_sample_uniform_float {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_range<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
                assert!(low < high, "cannot sample empty range {low}..{high}");
                let f = <$t as Standard>::sample_standard(rng);
                let v = low + f * (high - low);
                if v < high { v } else { low }
            }
            fn sample_range_inclusive<R: RngCore + ?Sized>(
                rng: &mut R,
                low: Self,
                high: Self,
            ) -> Self {
                assert!(low <= high, "cannot sample empty range {low}..={high}");
                let f = <$t as Standard>::sample_standard(rng);
                low + f * (high - low)
            }
        }
    )*};
}
impl_sample_uniform_float!(f64);

/// Range arguments accepted by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws one value from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_range(rng, self.start, self.end)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_range_inclusive(rng, *self.start(), *self.end())
    }
}

/// High-level sampling methods, as `rand::Rng`.
pub trait Rng: RngCore {
    /// Draws a value of an inferred type with its standard distribution.
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample_standard(self)
    }

    /// Draws a value uniformly from `range`.
    fn gen_range<T, Rg>(&mut self, range: Rg) -> T
    where
        T: SampleUniform,
        Rg: SampleRange<T>,
        Self: Sized,
    {
        range.sample_single(self)
    }

    /// Returns `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        <f64 as Standard>::sample_standard(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// A small, fast, non-cryptographic generator: xoshiro256++.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    fn split_mix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            SmallRng {
                s: [
                    split_mix64(&mut sm),
                    split_mix64(&mut sm),
                    split_mix64(&mut sm),
                    split_mix64(&mut sm),
                ],
            }
        }
    }

    impl RngCore for SmallRng {
        fn next_u64(&mut self) -> u64 {
            let [s0, s1, s2, s3] = self.s;
            let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
            let t = s1 << 17;
            let mut s = [s0, s1, s2, s3];
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            self.s = s;
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
        let mut c = SmallRng::seed_from_u64(43);
        assert_ne!(a.gen::<u64>(), c.gen::<u64>());
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = rng.gen_range(10u64..20);
            assert!((10..20).contains(&v));
            let f = rng.gen_range(-2.5f64..=2.5);
            assert!((-2.5..=2.5).contains(&f));
            let u = rng.gen::<f64>();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_f64_covers_interval() {
        let mut rng = SmallRng::seed_from_u64(1);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.gen_range(0.0..1.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} far from 0.5");
    }
}
