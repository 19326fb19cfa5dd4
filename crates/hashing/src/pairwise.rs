//! Pairwise-independent (strongly universal) hash families.
//!
//! The paper's data structure draws each level hash `h_j` "from a family H of
//! pairwise independent hash functions" (§3). We implement the classic
//! multiply-shift scheme of Dietzfelbinger: for 64-bit keys,
//!
//! ```text
//! h_{a,b}(x) = ((a·x + b) mod 2^128) >> 64        a, b ~ U(u128), a odd not required
//! ```
//!
//! is strongly universal on the high 64 output bits when `a, b` are uniform
//! 128-bit values. For 128-bit keys we use the two-word Carter–Wegman variant
//! `h(x_hi, x_lo) = ((a₁·x_hi + a₂·x_lo + b) mod 2^128) >> 64`, which is
//! strongly universal in the pair `(x_hi, x_lo)`.

use crate::mix::to_unit_f64;
use rand::Rng;

/// Strongly universal hash on `u64` keys via 128-bit multiply-shift.
#[derive(Clone, Copy, Debug)]
pub struct PairwiseU64 {
    a: u128,
    b: u128,
}

impl PairwiseU64 {
    /// Draws a function from the family.
    pub fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Self {
            a: rng.random::<u128>(),
            b: rng.random::<u128>(),
        }
    }

    /// Hashes to a full 64-bit value.
    #[inline]
    pub fn hash(&self, x: u64) -> u64 {
        (self.a.wrapping_mul(x as u128).wrapping_add(self.b) >> 64) as u64
    }

    /// Hashes to the unit interval `[0, 1)`.
    #[inline]
    pub fn hash_unit(&self, x: u64) -> f64 {
        to_unit_f64(self.hash(x))
    }
}

/// Strongly universal hash on `u128` keys (two-word Carter–Wegman).
#[derive(Clone, Copy, Debug)]
pub struct PairwiseU128 {
    a1: u128,
    a2: u128,
    b: u128,
}

impl PairwiseU128 {
    /// Draws a function from the family.
    pub fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Self {
            a1: rng.random::<u128>(),
            a2: rng.random::<u128>(),
            b: rng.random::<u128>(),
        }
    }

    /// Builds from explicit coefficients (for tests / reproducibility /
    /// persistence).
    pub const fn from_coefficients(a1: u128, a2: u128, b: u128) -> Self {
        Self { a1, a2, b }
    }

    /// The coefficients `(a1, a2, b)` this function was drawn with. Together
    /// with [`PairwiseU128::from_coefficients`] this round-trips the function
    /// exactly, which is what the on-disk index format relies on.
    pub const fn coefficients(&self) -> (u128, u128, u128) {
        (self.a1, self.a2, self.b)
    }

    /// Hashes to a full 64-bit value.
    #[inline]
    pub fn hash(&self, x: u128) -> u64 {
        let hi = (x >> 64) as u64;
        let lo = x as u64;
        let acc = self
            .a1
            .wrapping_mul(hi as u128)
            .wrapping_add(self.a2.wrapping_mul(lo as u128))
            .wrapping_add(self.b);
        (acc >> 64) as u64
    }

    /// Hashes to the unit interval `[0, 1)`.
    #[inline]
    pub fn hash_unit(&self, x: u128) -> f64 {
        to_unit_f64(self.hash(x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn deterministic_given_coefficients() {
        let h = PairwiseU64 { a: 12345, b: 999 };
        assert_eq!(h.hash(7), h.hash(7));
    }

    #[test]
    fn unit_hash_in_range() {
        let mut rng = StdRng::seed_from_u64(1);
        let h = PairwiseU64::sample(&mut rng);
        let g = PairwiseU128::sample(&mut rng);
        for x in 0u64..1000 {
            let u = h.hash_unit(x);
            assert!((0.0..1.0).contains(&u));
            let v = g.hash_unit(x as u128 * 0x1_0000_0001);
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn empirical_uniformity_u64() {
        // Mean of hash_unit over many keys should be ~1/2; variance ~1/12.
        let mut rng = StdRng::seed_from_u64(2);
        let h = PairwiseU64::sample(&mut rng);
        let n = 50_000u64;
        let mut sum = 0.0;
        let mut sumsq = 0.0;
        for x in 0..n {
            let u = h.hash_unit(x);
            sum += u;
            sumsq += u * u;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!((mean - 0.5).abs() < 0.01, "mean={mean}");
        assert!((var - 1.0 / 12.0).abs() < 0.01, "var={var}");
    }

    #[test]
    fn empirical_pairwise_collisions_u64() {
        // For a strongly universal family, Pr[h(x) bucket == h(y) bucket]
        // over the draw of h is ~1/B. Estimate over many function draws for a
        // fixed adversarial pair (consecutive integers).
        let mut rng = StdRng::seed_from_u64(3);
        let trials = 20_000;
        let buckets = 16u64;
        let mut coll = 0u32;
        for _ in 0..trials {
            let h = PairwiseU64::sample(&mut rng);
            if h.hash(1) >> (64 - 4) == h.hash(2) >> (64 - 4) {
                coll += 1;
            }
        }
        let rate = coll as f64 / trials as f64;
        let expect = 1.0 / buckets as f64;
        assert!(
            (rate - expect).abs() < 0.01,
            "rate={rate} expected~{expect}"
        );
    }

    #[test]
    fn u128_distinguishes_word_order() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = PairwiseU128::sample(&mut rng);
        let x = (5u128 << 64) | 9;
        let y = (9u128 << 64) | 5;
        assert_ne!(g.hash(x), g.hash(y));
    }

    #[test]
    fn different_draws_differ() {
        let mut rng = StdRng::seed_from_u64(5);
        let h1 = PairwiseU64::sample(&mut rng);
        let h2 = PairwiseU64::sample(&mut rng);
        // Overwhelmingly likely to disagree somewhere in a small range.
        assert!((0u64..64).any(|x| h1.hash(x) != h2.hash(x)));
    }
}
