//! Deterministic pseudo-random number generation.
//!
//! A self-contained xoshiro256++ generator with a `rand`-flavoured surface
//! (`StdRng::seed_from_u64`, `gen`, `gen_range`) so the dataset generators
//! need no external crates and produce identical streams on every platform.
//! The statistical quality of xoshiro256++ is far beyond what synthetic
//! market-basket generation requires.

use std::ops::{Range, RangeInclusive};

/// Deterministic xoshiro256++ generator.
///
/// All state derives from the seed; the stream is stable across platforms,
/// compilers, and releases of this crate (the calibration tests in
/// `tests/calibration.rs` pin distributional properties of generated data).
#[derive(Clone, Debug)]
pub struct StdRng {
    s: [u64; 4],
}

impl StdRng {
    /// Seed the generator from a single `u64` via splitmix64 expansion, the
    /// procedure recommended by the xoshiro authors.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut next_sm = || {
            sm = sm.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let s = [next_sm(), next_sm(), next_sm(), next_sm()];
        StdRng { s }
    }

    /// The next raw 64-bit output (xoshiro256++ scrambler).
    pub(crate) fn next_u64(&mut self) -> u64 {
        let out = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        out
    }

    /// Sample a value of type `T`; `f64` samples are uniform in `[0, 1)`.
    pub fn gen<T: Sample>(&mut self) -> T {
        T::sample(self)
    }

    /// Sample uniformly from a range. Supports the integer `Range` types the
    /// generators use plus `RangeInclusive<f64>`.
    pub fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample_from(self)
    }
}

/// Types [`StdRng::gen`] can produce.
pub trait Sample {
    /// Draw one value from `rng`.
    fn sample(rng: &mut StdRng) -> Self;
}

impl Sample for f64 {
    fn sample(rng: &mut StdRng) -> f64 {
        // 53 high bits → uniform in [0, 1) on the dyadic grid.
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Sample for u64 {
    fn sample(rng: &mut StdRng) -> u64 {
        rng.next_u64()
    }
}

impl Sample for u32 {
    fn sample(rng: &mut StdRng) -> u32 {
        (rng.next_u64() >> 32) as u32
    }
}

/// Ranges [`StdRng::gen_range`] can sample from.
pub trait SampleRange {
    /// The element type of the range.
    type Output;
    /// Draw one value uniformly from the range.
    fn sample_from(self, rng: &mut StdRng) -> Self::Output;
}

/// Unbiased uniform draw from `[0, bound)` via Lemire-style rejection.
fn uniform_below(rng: &mut StdRng, bound: u64) -> u64 {
    debug_assert!(bound > 0);
    // Rejection zone keeps the draw exactly uniform.
    let zone = bound.wrapping_neg() % bound;
    loop {
        let v = rng.next_u64();
        let (hi, lo) = {
            let wide = (v as u128) * (bound as u128);
            ((wide >> 64) as u64, wide as u64)
        };
        if lo >= zone {
            return hi;
        }
    }
}

macro_rules! int_range {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            fn sample_from(self, rng: &mut StdRng) -> $t {
                assert!(self.start < self.end, "gen_range on empty range");
                let span = (self.end - self.start) as u64;
                self.start + uniform_below(rng, span) as $t
            }
        }
    )*};
}

int_range!(u32, u64, usize);

impl SampleRange for RangeInclusive<f64> {
    type Output = f64;
    fn sample_from(self, rng: &mut StdRng) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "gen_range on empty range");
        let u: f64 = rng.gen();
        lo + u * (hi - lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn seeds_give_distinct_streams() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_mean_near_half() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| rng.gen::<f64>()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} too far from 0.5");
    }

    #[test]
    fn int_ranges_stay_in_bounds_and_hit_all_values() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            let v = rng.gen_range(2u32..9);
            assert!((2..9).contains(&v));
            seen[(v - 2) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "some values never sampled");
    }

    #[test]
    fn usize_range_in_bounds() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..1_000 {
            let v = rng.gen_range(1usize..4);
            assert!((1..4).contains(&v));
        }
    }

    #[test]
    fn inclusive_f64_range_in_bounds() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..1_000 {
            let v = rng.gen_range(0.25f64..=0.75);
            assert!((0.25..=0.75).contains(&v));
        }
    }

    #[test]
    fn golden_stream_is_stable() {
        // Pins the exact output stream: generated datasets (and the
        // calibration tests built on them) silently change if this moves.
        let mut rng = StdRng::seed_from_u64(0);
        let first: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_eq!(
            first,
            vec![
                5987356902031041503,
                7051070477665621255,
                6633766593972829180,
                211316841551650330
            ]
        );
    }
}
