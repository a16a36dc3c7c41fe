//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the small slice of the `rand` 0.10 API it actually uses:
//! [`Rng`]/[`RngExt`] with `random_range`/`random_bool`, [`SeedableRng`]
//! with `seed_from_u64`, [`rngs::StdRng`] (xoshiro256++ seeded through
//! SplitMix64), the slice helpers [`seq::SliceRandom`] and
//! [`seq::IndexedRandom`], and index sampling [`seq::index::sample`].
//! Everything is deterministic given a seed, which is all the test- and
//! experiment-suites rely on.

use std::ops::{Range, RangeInclusive};

/// A source of random bits. The workspace only ever needs `next_u64`.
pub trait Rng {
    /// The next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;
}

impl<R: Rng + ?Sized> Rng for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Convenience samplers layered on [`Rng`] (rand 0.10 spells these
/// `random_*`; the extension trait keeps `Rng` object-safe).
pub trait RngExt: Rng {
    /// A uniform sample from `range` (exclusive or inclusive integer
    /// ranges).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn random_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    fn random_bool(&mut self, p: f64) -> bool {
        // 53 high bits give a uniform float in [0, 1).
        let x = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        x < p
    }
}

impl<R: Rng + ?Sized> RngExt for R {}

/// Seedable construction (only `seed_from_u64` is used here).
pub trait SeedableRng: Sized {
    /// Expands a 64-bit seed into a full generator state.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Ranges that can produce a uniform sample.
pub trait SampleRange<T> {
    /// Draws one uniform sample.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> T;
}

/// Uniform draw from `0..span` without modulo bias (rejection sampling).
fn uniform_u64<R: Rng + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    // Accept x <= threshold where threshold + 1 is the largest multiple of
    // `span` that fits; when span divides 2^64 every draw is accepted.
    let threshold = u64::MAX - (u64::MAX % span + 1) % span;
    loop {
        let x = rng.next_u64();
        if x <= threshold {
            return x % span;
        }
    }
}

macro_rules! impl_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample from empty range");
                let span = (self.end as u64) - (self.start as u64);
                self.start + uniform_u64(rng, span) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample from empty range");
                let span = (hi as u64) - (lo as u64);
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + uniform_u64(rng, span + 1) as $t
            }
        }
    )*};
}

impl_sample_range!(u8, u16, u32, u64, usize);

/// Concrete generators.
pub mod rngs {
    use super::{Rng, SeedableRng};

    /// The workspace's standard deterministic generator: xoshiro256++,
    /// state-seeded through SplitMix64 (the reference recommendation).
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            StdRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }

    impl Rng for StdRng {
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
}

/// Sequence-related helpers (`shuffle`, `choose`, `sample`).
pub mod seq {
    use super::{Rng, RngExt};

    /// In-place shuffling of slices.
    pub trait SliceRandom {
        /// Fisher–Yates shuffle.
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.random_range(0..=i);
                self.swap(i, j);
            }
        }
    }

    /// Random element selection from slices.
    pub trait IndexedRandom {
        /// The element type.
        type Item;

        /// A uniformly random element, or `None` on an empty slice.
        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;

        /// `amount` distinct elements in random order (all of them when
        /// `amount >= len`).
        fn sample<R: Rng + ?Sized>(
            &self,
            rng: &mut R,
            amount: usize,
        ) -> std::vec::IntoIter<&Self::Item>;
    }

    impl<T> IndexedRandom for [T] {
        type Item = T;

        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.random_range(0..self.len())])
            }
        }

        fn sample<R: Rng + ?Sized>(&self, rng: &mut R, amount: usize) -> std::vec::IntoIter<&T> {
            index::sample(rng, self.len(), amount.min(self.len()))
                .into_iter()
                .map(|i| &self[i])
                .collect::<Vec<_>>()
                .into_iter()
        }
    }

    /// Sampling of distinct indices.
    pub mod index {
        use super::super::{Rng, RngExt};
        use std::collections::HashMap;

        /// `amount` distinct indices from `0..length`, in random order.
        ///
        /// A partial Fisher–Yates shuffle of the virtual table
        /// `0..length`: draw `i` is `random_range(i..length)`, and only
        /// the positions a swap has displaced are stored (in a map that
        /// is never iterated), so the cost is `O(amount)` time and space
        /// whatever `length` is. (The real crate returns an `IndexVec`;
        /// this stand-in returns the plain vector.)
        ///
        /// # Panics
        ///
        /// Panics if `amount > length`.
        pub fn sample<R: Rng + ?Sized>(rng: &mut R, length: usize, amount: usize) -> Vec<usize> {
            assert!(amount <= length, "cannot sample {amount} of {length}");
            let mut displaced: HashMap<usize, usize> = HashMap::with_capacity(amount);
            let mut out = Vec::with_capacity(amount);
            for i in 0..amount {
                let j = rng.random_range(i..length);
                // Swap positions i and j; position i is never read again.
                let at_j = displaced.get(&j).copied().unwrap_or(j);
                let at_i = displaced.get(&i).copied().unwrap_or(i);
                displaced.insert(j, at_i);
                out.push(at_j);
            }
            out
        }
    }
}

/// The commonly glob-imported surface.
pub mod prelude {
    pub use super::rngs::StdRng;
    pub use super::seq::{IndexedRandom, SliceRandom};
    pub use super::{Rng, RngExt, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::SampleRange;

    #[test]
    fn deterministic_given_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x = rng.random_range(3..17usize);
            assert!((3..17).contains(&x));
            let y = rng.random_range(5..=5u64);
            assert_eq!(y, 5);
            let z = rng.random_range(0..=u64::MAX);
            let _ = z;
        }
    }

    #[test]
    fn range_covers_all_values() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[rng.random_range(0..4usize)] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = StdRng::seed_from_u64(1);
        let _ = (5..5usize).sample_from(&mut rng);
    }

    #[test]
    fn bool_probabilities() {
        let mut rng = StdRng::seed_from_u64(11);
        assert!(!(0..100).any(|_| rng.random_bool(0.0)));
        assert!((0..100).all(|_| rng.random_bool(1.0)));
        let heads = (0..10_000).filter(|_| rng.random_bool(0.5)).count();
        assert!((4_000..6_000).contains(&heads), "heads = {heads}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut v: Vec<usize> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn choose_and_sample() {
        let mut rng = StdRng::seed_from_u64(17);
        let v: Vec<u32> = (0..10).collect();
        assert!(v.choose(&mut rng).is_some());
        let empty: Vec<u32> = Vec::new();
        assert!(empty.choose(&mut rng).is_none());
        let picked: Vec<u32> = v.sample(&mut rng, 4).copied().collect();
        assert_eq!(picked.len(), 4);
        let mut uniq = picked.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 4, "sample must be distinct");
        // Oversampling returns everything.
        assert_eq!(v.sample(&mut rng, 99).count(), 10);
    }

    /// The dense partial Fisher–Yates that `index::sample` replaces: an
    /// explicit `0..length` table swapped in place.
    fn dense_sample<R: Rng + ?Sized>(rng: &mut R, length: usize, amount: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..length).collect();
        for i in 0..amount {
            let j = rng.random_range(i..idx.len());
            idx.swap(i, j);
        }
        idx.truncate(amount);
        idx
    }

    #[test]
    fn index_sample_matches_dense_fisher_yates() {
        for seed in 0..200u64 {
            for (length, amount) in [
                (0usize, 0usize),
                (1, 1),
                (5, 0),
                (5, 5),
                (7, 3),
                (64, 63),
                (1000, 17),
            ] {
                let mut sparse_rng = StdRng::seed_from_u64(seed);
                let mut dense_rng = StdRng::seed_from_u64(seed);
                let sparse = super::seq::index::sample(&mut sparse_rng, length, amount);
                let dense = dense_sample(&mut dense_rng, length, amount);
                assert_eq!(sparse, dense, "seed {seed}, {amount} of {length}");
                assert_eq!(sparse_rng.next_u64(), dense_rng.next_u64());
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn index_sample_rejects_oversampling() {
        let mut rng = StdRng::seed_from_u64(1);
        let _ = super::seq::index::sample(&mut rng, 3, 4);
    }
}
