//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no crates.io access, so this workspace ships the
//! small slice of the `rand 0.8` API that AMOS-rs actually uses: a seedable
//! deterministic generator ([`rngs::StdRng`], xoshiro256++ seeded through
//! SplitMix64), the [`Rng`] extension methods (`gen_range`, `gen_bool`) and
//! [`seq::SliceRandom`] (`choose`, `shuffle`).
//!
//! Determinism is the only contract the explorer needs: the same seed always
//! yields the same stream, independent of platform and thread count. The
//! streams differ from upstream `rand`'s, which is fine — no test pins exact
//! draw values.

#![warn(missing_docs)]

/// The core of a random number generator: a source of uniform `u64`s.
pub trait RngCore {
    /// Next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Next 32 uniformly random bits (upper half of [`RngCore::next_u64`]).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// User-facing generator methods, available on every [`RngCore`].
pub trait Rng: RngCore {
    /// Uniform sample from a range (`low..high` or `low..=high`).
    ///
    /// Panics when the range is empty, matching upstream `rand`.
    fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// `true` with probability `p`.
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "gen_bool p={p} out of [0, 1]");
        // 53 uniform mantissa bits, the standard float-in-[0,1) recipe.
        let unit = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        unit < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Construction of a generator from a seed.
pub trait SeedableRng: Sized {
    /// Expands a 64-bit seed into the generator state.
    fn seed_from_u64(seed: u64) -> Self;
}

/// SplitMix64 step: the recommended seeder for xoshiro-family generators.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Ranges a generator can sample uniformly.
pub trait SampleRange {
    /// The sampled value type.
    type Output;
    /// Draws one uniform sample. Panics when the range is empty.
    fn sample_from<G: RngCore + ?Sized>(self, rng: &mut G) -> Self::Output;
}

/// `word % span` for a span of at most 2^64, without the 128-bit division:
/// a span that fits `u64` takes the 64-bit remainder, and the one that does
/// not (2^64, the full range of a 64-bit type) leaves every word unchanged.
#[inline]
fn reduce(word: u64, span: u128) -> u64 {
    match u64::try_from(span) {
        Ok(span) => word % span,
        Err(_) => word,
    }
}

macro_rules! impl_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange for core::ops::Range<$t> {
            type Output = $t;
            fn sample_from<G: RngCore + ?Sized>(self, rng: &mut G) -> $t {
                assert!(self.start < self.end, "gen_range on empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let draw = reduce(rng.next_u64(), span);
                (self.start as i128 + draw as i128) as $t
            }
        }
        impl SampleRange for core::ops::RangeInclusive<$t> {
            type Output = $t;
            fn sample_from<G: RngCore + ?Sized>(self, rng: &mut G) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "gen_range on empty range");
                let span = (end as i128 - start as i128) as u128 + 1;
                let draw = reduce(rng.next_u64(), span);
                (start as i128 + draw as i128) as $t
            }
        }
    )*};
}

impl_sample_range!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

/// FNV-1a over a byte string (64-bit offset basis / prime).
///
/// Not part of upstream `rand`'s API — this is the workspace's one shared
/// implementation of the seed-hash every layer uses (per-test seed streams,
/// per-shape exploration seeds, bench labels). It lives here, at the bottom
/// of the dependency graph, so both the `proptest` stand-in and `amos-core`
/// (which re-exports it as `amos_core::fnv1a`) can call the same loop
/// instead of keeping copies.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    fnv1a_64_extend(0xcbf29ce484222325, bytes)
}

/// Continues an FNV-1a hash over more bytes:
/// `fnv1a_64_extend(fnv1a_64(a), b)` is `fnv1a_64` of `a` followed by `b`.
pub fn fnv1a_64_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// The generators.
pub mod rngs {
    use super::{splitmix64, RngCore, SeedableRng};

    /// A deterministic xoshiro256++ generator.
    ///
    /// Upstream's `StdRng` is a ChaCha block cipher; for the explorer only
    /// determinism and statistical quality matter, so the much smaller
    /// xoshiro256++ stands in.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            let mut s = [0u64; 4];
            for w in &mut s {
                *w = splitmix64(&mut sm);
            }
            // An all-zero state would be a fixed point; SplitMix64 cannot
            // produce four zero outputs in a row, but guard anyway.
            if s == [0; 4] {
                s[0] = 0x9e3779b97f4a7c15;
            }
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }

    /// Alias: this build has one generator; `SmallRng` is it.
    pub type SmallRng = StdRng;
}

/// Sequence-related helpers.
pub mod seq {
    use super::Rng;

    /// Random selection and shuffling on slices.
    pub trait SliceRandom {
        /// Element type.
        type Item;
        /// Uniformly random element, or `None` on an empty slice.
        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
        /// Fisher–Yates shuffle in place.
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                let i = rng.next_u64() as usize % self.len();
                Some(&self[i])
            }
        }

        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.next_u64() as usize % (i + 1);
                self.swap(i, j);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen_range(0..1_000_000i64), b.gen_range(0..1_000_000i64));
        }
    }

    #[test]
    fn ranges_are_respected() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let v = rng.gen_range(3..17i64);
            assert!((3..17).contains(&v));
            let w = rng.gen_range(0..=5u32);
            assert!(w <= 5);
            let n = rng.gen_range(-8i64..8);
            assert!((-8..8).contains(&n));
        }
    }

    #[test]
    fn gen_range_equals_the_128_bit_remainder_formula() {
        use super::RngCore;
        // The reference: `next_u64() as u128 % span`, offset from the start.
        fn reference(rng: &mut StdRng, start: i128, span: u128) -> i128 {
            start + (rng.next_u64() as u128 % span) as i128
        }
        let mut drawn = StdRng::seed_from_u64(2022);
        let mut words = StdRng::seed_from_u64(2022);
        for _ in 0..1000 {
            assert_eq!(
                drawn.gen_range(0..7usize) as i128,
                reference(&mut words, 0, 7)
            );
            assert_eq!(
                drawn.gen_range(0..=i64::MAX) as i128,
                reference(&mut words, 0, 1 << 63)
            );
            assert_eq!(
                drawn.gen_range(-5..5i64) as i128,
                reference(&mut words, -5, 10)
            );
            // The one span that does not fit `u64`.
            assert_eq!(
                drawn.gen_range(0..=u64::MAX) as i128,
                reference(&mut words, 0, 1 << 64)
            );
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
        let heads = (0..10_000).filter(|_| rng.gen_bool(0.5)).count();
        assert!((4_000..6_000).contains(&heads), "{heads}");
    }

    #[test]
    fn choose_and_shuffle() {
        let mut rng = StdRng::seed_from_u64(9);
        let items = [1, 2, 3, 4];
        for _ in 0..50 {
            assert!(items.contains(items.choose(&mut rng).unwrap()));
        }
        let empty: [i32; 0] = [];
        assert!(empty.choose(&mut rng).is_none());
        let mut v: Vec<i32> = (0..32).collect();
        let orig = v.clone();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, orig);
        assert_ne!(v, orig, "a 32-element shuffle virtually never fixes all");
    }

    #[test]
    fn works_through_mut_references() {
        fn takes_impl(rng: &mut impl Rng) -> i64 {
            let opts = [1i64, 2, 4];
            *opts.choose(rng).unwrap()
        }
        let mut rng = StdRng::seed_from_u64(3);
        assert!([1, 2, 4].contains(&takes_impl(&mut rng)));
    }
}
