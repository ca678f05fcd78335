//! Vendored pseudo-random number generation (PCG32, O'Neill 2014).
//!
//! The workspace builds fully offline, so instead of depending on the
//! external `rand` crate this module provides the exact API surface the
//! workspace's call-sites use: [`StdRng`] + [`SeedableRng`] + [`Rng`]
//! with `gen`/`gen_range`, [`seq::SliceRandom::shuffle`], and
//! [`seq::index::sample`]. Streams are deterministic per seed (the
//! DESIGN.md "Determinism" contract); they differ from `rand`'s ChaCha12
//! streams, which only shifts which synthetic dataset a seed denotes.

/// Seeding by `u64`, mirroring `rand::SeedableRng::seed_from_u64`.
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// Raw generator output.
pub trait RngCore {
    fn next_u32(&mut self) -> u32;

    fn next_u64(&mut self) -> u64 {
        let hi = self.next_u32() as u64;
        let lo = self.next_u32() as u64;
        (hi << 32) | lo
    }
}

/// Types producible by [`Rng::gen`] (the `Standard` distribution).
pub trait Standard: Sized {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u32 {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl Standard for u64 {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for f32 {
    /// Uniform in `[0, 1)` with 24 bits of precision.
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for bool {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32() & 1 == 1
    }
}

/// Types usable as [`Rng::gen_range`] bounds.
pub trait SampleUniform: Copy + PartialOrd {
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
}

/// Unbiased integers in `[0, span)` by rejection sampling: the draws
/// and values of [`Rng::gen_range`]`(0..span)`, with the rejection
/// threshold (a 64-bit division) computed once. Build one per loop
/// whose span does not change.
#[derive(Debug, Clone, Copy)]
pub struct Uniform {
    span: u64,
    threshold: u64,
}

impl Uniform {
    /// A sampler of `0..span`. An empty span panics at its first draw.
    pub fn below(span: u64) -> Self {
        // Reject draws in the short final partial cycle of u64 % span.
        let threshold = span.wrapping_neg().checked_rem(span).unwrap_or(0);
        Self { span, threshold }
    }

    /// One draw, the one `gen_range(0..span)` would make.
    pub fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> u64 {
        loop {
            let r = rng.next_u64();
            if r >= self.threshold {
                return r % self.span;
            }
        }
    }
}

macro_rules! impl_sample_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_range<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                assert!(lo < hi, "gen_range: empty range {lo}..{hi}");
                let span = (hi as u64).wrapping_sub(lo as u64);
                lo + Uniform::below(span).sample(rng) as $t
            }
        }
    )*};
}

impl_sample_int!(usize, u32, u64);

impl SampleUniform for f32 {
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
        assert!(lo < hi, "gen_range: empty range {lo}..{hi}");
        let u = f32::from_rng(rng);
        let v = lo + (hi - lo) * u;
        // Guard the (rounding-only) upper edge so the half-open contract holds.
        if v < hi {
            v
        } else {
            lo
        }
    }
}

impl SampleUniform for f64 {
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
        assert!(lo < hi, "gen_range: empty range {lo}..{hi}");
        let u = f64::from_rng(rng);
        let v = lo + (hi - lo) * u;
        if v < hi {
            v
        } else {
            lo
        }
    }
}

/// The convenience sampling interface, mirroring `rand::Rng`.
pub trait Rng: RngCore {
    fn gen<T: Standard>(&mut self) -> T {
        T::from_rng(self)
    }

    fn gen_range<T: SampleUniform>(&mut self, range: std::ops::Range<T>) -> T {
        T::sample_range(self, range.start, range.end)
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        f64::from_rng(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// PCG32 (XSH-RR 64/32): 64-bit LCG state, 32-bit permuted output.
/// Small, fast, passes BigCrush far beyond what experiment seeding needs.
#[derive(Debug, Clone)]
pub struct StdRng {
    state: u64,
    inc: u64,
}

const PCG_MUL: u64 = 6364136223846793005;

/// SplitMix64 — expands one u64 seed into independent stream parameters.
fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SeedableRng for StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let initstate = splitmix64(&mut sm);
        let initseq = splitmix64(&mut sm);
        let mut rng = StdRng {
            state: 0,
            inc: (initseq << 1) | 1,
        };
        rng.next_u32();
        rng.state = rng.state.wrapping_add(initstate);
        rng.next_u32();
        rng
    }
}

impl RngCore for StdRng {
    fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.state = old.wrapping_mul(PCG_MUL).wrapping_add(self.inc);
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }
}

/// Sequence helpers mirroring `rand::seq`.
pub mod seq {
    use super::Rng;

    /// In-place slice operations, mirroring `rand::seq::SliceRandom`.
    pub trait SliceRandom {
        type Item;

        /// Fisher–Yates shuffle.
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);

        /// Uniformly random element, `None` when empty.
        fn choose<'a, R: Rng + ?Sized>(&'a self, rng: &mut R) -> Option<&'a Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..i + 1);
                self.swap(i, j);
            }
        }

        fn choose<'a, R: Rng + ?Sized>(&'a self, rng: &mut R) -> Option<&'a T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.gen_range(0..self.len())])
            }
        }
    }

    /// Index sampling without replacement, mirroring `rand::seq::index`.
    pub mod index {
        use super::super::{Rng, Uniform};

        /// Samples `amount` distinct indices from `0..length`, in random
        /// order. Partial Fisher–Yates for dense requests, rejection
        /// sampling for sparse ones; the rejection seen-set is a bitset
        /// over `length` (`length / 8` bytes).
        pub fn sample<R: Rng + ?Sized>(rng: &mut R, length: usize, amount: usize) -> Vec<usize> {
            assert!(
                amount <= length,
                "index::sample: amount {amount} > length {length}"
            );
            if amount == 0 {
                return Vec::new();
            }
            if amount * 3 >= length {
                let mut idx: Vec<usize> = (0..length).collect();
                for i in 0..amount {
                    let j = rng.gen_range(i..length);
                    idx.swap(i, j);
                }
                idx.truncate(amount);
                idx
            } else {
                let mut seen = vec![0u64; length.div_ceil(64)];
                let mut out = Vec::with_capacity(amount);
                let draw = Uniform::below(length as u64);
                while out.len() < amount {
                    let x = draw.sample(rng) as usize;
                    let (word, bit) = (x / 64, 1u64 << (x % 64));
                    if seen[word] & bit == 0 {
                        seen[word] |= bit;
                        out.push(x);
                    }
                }
                out
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::seq::{index, SliceRandom};
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u32(), b.next_u32());
        }
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn gen_range_int_bounds_and_coverage() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let x = rng.gen_range(3usize..10);
            assert!((3..10).contains(&x));
            seen[x - 3] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values of 3..10 reachable");
    }

    #[test]
    fn gen_range_float_half_open() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..1000 {
            let x: f32 = rng.gen_range(-1.5f32..2.5);
            assert!((-1.5..2.5).contains(&x));
            let y: f64 = rng.gen_range(0.0f64..1e-3);
            assert!((0.0..1e-3).contains(&y));
        }
    }

    #[test]
    fn unit_floats_in_range_and_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 10_000;
        let mean: f64 = (0..n).map(|_| rng.gen::<f64>()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut v: Vec<usize> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "50 elements virtually never shuffle to identity");
    }

    #[test]
    fn index_sample_distinct_and_in_range() {
        let mut rng = StdRng::seed_from_u64(5);
        for (len, k) in [(10, 10), (100, 3), (8, 5), (1000, 2)] {
            let s = index::sample(&mut rng, len, k);
            assert_eq!(s.len(), k);
            let set: std::collections::HashSet<_> = s.iter().collect();
            assert_eq!(set.len(), k, "indices must be distinct");
            assert!(s.iter().all(|&i| i < len));
        }
    }

    /// `index::sample` as it was with a `HashSet` seen-set.
    fn hashset_sample(rng: &mut StdRng, length: usize, amount: usize) -> Vec<usize> {
        if amount == 0 {
            return Vec::new();
        }
        if amount * 3 >= length {
            let mut idx: Vec<usize> = (0..length).collect();
            for i in 0..amount {
                let j = rng.gen_range(i..length);
                idx.swap(i, j);
            }
            idx.truncate(amount);
            idx
        } else {
            let mut seen = std::collections::HashSet::with_capacity(amount);
            let mut out = Vec::with_capacity(amount);
            while out.len() < amount {
                let x = rng.gen_range(0..length);
                if seen.insert(x) {
                    out.push(x);
                }
            }
            out
        }
    }

    #[test]
    fn index_sample_matches_hashset_reference() {
        // Both paths: dense (`amount * 3 >= length`) and rejection, with
        // lengths on and around word boundaries of the bitset.
        let grid = [
            (1, 0),
            (1, 1),
            (5, 5),
            (9, 3),
            (10, 3),
            (63, 20),
            (64, 21),
            (65, 22),
            (128, 42),
            (129, 43),
            (700, 65),
            (700, 233),
            (700, 234),
            (1000, 2),
            (4096, 1000),
        ];
        for seed in 0..8u64 {
            for &(length, amount) in &grid {
                let mut a = StdRng::seed_from_u64(seed);
                let mut b = StdRng::seed_from_u64(seed);
                assert_eq!(
                    index::sample(&mut a, length, amount),
                    hashset_sample(&mut b, length, amount),
                    "length {length}, amount {amount}, seed {seed}"
                );
                assert_eq!(a.next_u32(), b.next_u32(), "streams diverged");
            }
        }
    }

    /// `gen_range(0..span)` as it was, with the threshold computed on
    /// every draw.
    fn per_draw_threshold(rng: &mut StdRng, span: u64) -> u64 {
        let threshold = span.wrapping_neg() % span;
        loop {
            let r = rng.next_u64();
            if r >= threshold {
                return r % span;
            }
        }
    }

    #[test]
    fn uniform_below_matches_gen_range() {
        // 2^63 + 1 rejects about half the raw draws, so the accept and
        // reject decisions are checked as well as the values
        for span in [1, 2, 3, 64, 700, (1u64 << 32) + 1, (1u64 << 63) + 1] {
            for seed in 0..4u64 {
                let mut a = StdRng::seed_from_u64(seed);
                let mut b = StdRng::seed_from_u64(seed);
                let mut c = StdRng::seed_from_u64(seed);
                let draw = Uniform::below(span);
                let got: Vec<u64> = (0..300).map(|_| draw.sample(&mut a)).collect();
                let old: Vec<u64> = (0..300).map(|_| per_draw_threshold(&mut b, span)).collect();
                let via_range: Vec<u64> = (0..300).map(|_| c.gen_range(0..span)).collect();
                assert_eq!(got, old, "span {span}, seed {seed}");
                assert_eq!(via_range, old, "gen_range, span {span}, seed {seed}");
                let next = b.next_u32();
                assert_eq!(a.next_u32(), next, "streams diverged, span {span}");
                assert_eq!(c.next_u32(), next, "gen_range stream diverged, span {span}");
            }
        }
    }

    #[test]
    fn choose_covers_slice() {
        let mut rng = StdRng::seed_from_u64(6);
        let v = [1, 2, 3];
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            seen.insert(*v.choose(&mut rng).unwrap());
        }
        assert_eq!(seen.len(), 3);
        let empty: [u32; 0] = [];
        assert!(empty.choose(&mut rng).is_none());
    }

    #[test]
    fn gen_bool_probability() {
        let mut rng = StdRng::seed_from_u64(7);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((hits as f64 / 10_000.0 - 0.25).abs() < 0.02, "{hits}");
    }
}
