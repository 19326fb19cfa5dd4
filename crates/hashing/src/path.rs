//! Incremental 128-bit path keys and per-level sampling hashers.
//!
//! A *path* in the paper's data structure (§3) is an ordered sequence of
//! dimensions `v = (i_1, …, i_j)`. Two different vectors choose the *same*
//! filter iff they grew the identical sequence, so the inverted index needs a
//! canonical identity for sequences that can be extended in O(1).
//!
//! We identify a path by a 128-bit rolling key:
//!
//! ```text
//! key(ε)      = 0
//! key(v ∘ i)  = key(v) · M + H(i)      (mod 2^128)
//! ```
//!
//! with `M` a fixed odd multiplier and `H` a 128-bit splitmix-style
//! injection of the dimension. The map is order-sensitive (appending `a` then
//! `b` differs from `b` then `a`) and collisions between distinct sequences
//! are ~2⁻¹²⁸-scale events; a key collision can only cause a spurious
//! verification, never a missed result (candidates are verified exactly).
//!
//! The level hash `h_{j+1}(v ∘ i)` required by the construction is a
//! pairwise-independent function of the extended key, one independent draw
//! per level, wrapped in [`PathHasherStack`].

use crate::mix::{murmur3_fmix64, splitmix64};
use crate::pairwise::PairwiseU128;
use rand::Rng;

/// Identity of a path (an ordered dimension sequence) as a 128-bit rolling
/// hash. See the module docs for the construction.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct PathKey(pub u128);

/// Odd multiplier for the rolling key (high-entropy constant).
const ROLL_M: u128 = 0x9E3779B97F4A7C15_F39CC0605CEDC835;

impl PathKey {
    /// The key of the empty path.
    pub const EMPTY: PathKey = PathKey(0);

    /// Key of `v ∘ i` given the key of `v`.
    #[inline]
    pub fn extend(self, dim: u32) -> PathKey {
        self.extend_term(Self::dim_term(dim))
    }

    /// `H(i)`, the term [`PathKey::extend`] adds for dimension `i`: a
    /// 128-bit injection from two independent 64-bit mixers. A caller that
    /// extends many paths by the same dimensions computes it once per
    /// dimension and calls [`PathKey::extend_term`].
    #[inline]
    pub fn dim_term(dim: u32) -> u128 {
        let lo = splitmix64(dim as u64 ^ 0xA5A5_5A5A_C3C3_3C3C);
        let hi = murmur3_fmix64(dim as u64 ^ 0x0123_4567_89AB_CDEF);
        ((hi as u128) << 64) | lo as u128
    }

    /// Key of `v ∘ i` given the key of `v` and `term = dim_term(i)`.
    #[inline]
    pub fn extend_term(self, term: u128) -> PathKey {
        PathKey(self.0.wrapping_mul(ROLL_M).wrapping_add(term))
    }

    /// Raw 128-bit value.
    #[inline]
    pub fn raw(self) -> u128 {
        self.0
    }
}

/// One level's sampling hash `h_j : paths → [0, 1)`, pairwise independent
/// over path keys.
#[derive(Clone, Copy, Debug)]
pub struct LevelHasher {
    inner: PairwiseU128,
}

impl LevelHasher {
    /// `2⁵³`, the factor between a threshold `s` and the scaled threshold
    /// [`LevelHasher::accepts_scaled`] takes.
    pub const SCALE: f64 = (1u64 << 53) as f64;

    /// Draws a level hasher.
    pub fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Self {
            inner: PairwiseU128::sample(rng),
        }
    }

    /// Rebuilds a level hasher from the coefficients of its underlying
    /// pairwise function (the persistence round-trip counterpart of
    /// [`LevelHasher::coefficients`]).
    pub const fn from_coefficients(a1: u128, a2: u128, b: u128) -> Self {
        Self {
            inner: PairwiseU128::from_coefficients(a1, a2, b),
        }
    }

    /// The coefficients `(a1, a2, b)` of the underlying pairwise function.
    pub const fn coefficients(&self) -> (u128, u128, u128) {
        self.inner.coefficients()
    }

    /// `h_j(v)` as a point in `[0, 1)`.
    #[inline]
    pub fn unit(&self, key: PathKey) -> f64 {
        self.inner.hash_unit(key.0)
    }

    /// The sampling decision `h_j(v ∘ i) < s` of the construction.
    #[inline]
    pub fn accepts(&self, key: PathKey, threshold: f64) -> bool {
        self.accepts_scaled(key, threshold * Self::SCALE)
    }

    /// [`LevelHasher::accepts`] for a threshold given pre-scaled,
    /// `scaled = s · 2⁵³` ([`LevelHasher::SCALE`]): one integer-to-float
    /// conversion and a compare, for callers that test one threshold
    /// against many keys.
    ///
    /// Exact: [`LevelHasher::unit`] is `m · 2⁻⁵³` for the integer
    /// `m = h >> 11 < 2⁵³`, and scaling by a power of two loses nothing
    /// (overflow goes to `∞`, which keeps the order; `±0`, negative and NaN
    /// thresholds reject on both sides), so `m < s · 2⁵³` holds exactly
    /// when `unit(key) < s`.
    #[inline]
    pub fn accepts_scaled(&self, key: PathKey, scaled: f64) -> bool {
        ((self.inner.hash(key.0) >> 11) as f64) < scaled
    }
}

/// The fixed stack `h_1, …, h_k` of level hashers selected once when the data
/// structure is initialized (§3: "we once and for all select k hash
/// functions"). Shared by preprocessing and queries.
#[derive(Clone, Debug)]
pub struct PathHasherStack {
    levels: Vec<LevelHasher>,
}

impl PathHasherStack {
    /// Draws `k` independent level hashers.
    pub fn sample<R: Rng + ?Sized>(rng: &mut R, k: usize) -> Self {
        Self {
            levels: (0..k).map(|_| LevelHasher::sample(rng)).collect(),
        }
    }

    /// Rebuilds a stack from previously sampled level hashers (the
    /// persistence round-trip counterpart of [`PathHasherStack::levels`]).
    pub fn from_levels(levels: Vec<LevelHasher>) -> Self {
        Self { levels }
    }

    /// The level hashers `h_1, …, h_k` in order.
    #[inline]
    pub fn levels(&self) -> &[LevelHasher] {
        &self.levels
    }

    /// Maximum supported path length `k`.
    #[inline]
    pub fn max_depth(&self) -> usize {
        self.levels.len()
    }

    /// The hasher deciding extensions from depth `j` to depth `j + 1`
    /// (0-based: `level(0)` is `h_1`).
    ///
    /// # Panics
    /// Panics if `j >= k`; the engine must cap path depth at `max_depth`.
    #[inline]
    pub fn level(&self, j: usize) -> &LevelHasher {
        &self.levels[j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use std::collections::HashSet;

    #[test]
    fn extension_is_order_sensitive() {
        let ab = PathKey::EMPTY.extend(1).extend(2);
        let ba = PathKey::EMPTY.extend(2).extend(1);
        assert_ne!(ab, ba);
    }

    #[test]
    fn same_sequence_same_key() {
        let k1 = PathKey::EMPTY.extend(5).extend(9).extend(2);
        let k2 = PathKey::EMPTY.extend(5).extend(9).extend(2);
        assert_eq!(k1, k2);
    }

    #[test]
    fn no_collisions_among_many_short_paths() {
        // All paths of length <= 2 over 200 dims: 1 + 200 + 200*199 keys.
        let mut seen = HashSet::new();
        seen.insert(PathKey::EMPTY);
        for a in 0..200u32 {
            assert!(seen.insert(PathKey::EMPTY.extend(a)), "len-1 collision");
        }
        for a in 0..200u32 {
            let ka = PathKey::EMPTY.extend(a);
            for b in 0..200u32 {
                if a != b {
                    assert!(seen.insert(ka.extend(b)), "len-2 collision {a},{b}");
                }
            }
        }
    }

    #[test]
    fn prefix_key_differs_from_extension() {
        let v = PathKey::EMPTY.extend(3);
        assert_ne!(v, v.extend(4));
        assert_ne!(PathKey::EMPTY, v);
    }

    #[test]
    fn level_hashers_are_independent_across_levels() {
        let mut rng = StdRng::seed_from_u64(11);
        let stack = PathHasherStack::sample(&mut rng, 4);
        let key = PathKey::EMPTY.extend(1).extend(2);
        let units: Vec<f64> = (0..4).map(|j| stack.level(j).unit(key)).collect();
        // Same key, different levels: values should not all coincide.
        assert!(units.windows(2).any(|w| (w[0] - w[1]).abs() > 1e-12));
        for u in units {
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn accepts_threshold_semantics() {
        let mut rng = StdRng::seed_from_u64(12);
        let stack = PathHasherStack::sample(&mut rng, 1);
        let key = PathKey::EMPTY.extend(7);
        assert!(stack.level(0).accepts(key, 1.01)); // threshold >= 1 accepts all
        assert!(!stack.level(0).accepts(key, 0.0)); // threshold 0 rejects all
    }

    #[test]
    fn stack_is_deterministic_under_seed() {
        let mut a = StdRng::seed_from_u64(99);
        let mut b = StdRng::seed_from_u64(99);
        let s1 = PathHasherStack::sample(&mut a, 3);
        let s2 = PathHasherStack::sample(&mut b, 3);
        let key = PathKey::EMPTY.extend(42).extend(17);
        for j in 0..3 {
            assert_eq!(s1.level(j).unit(key), s2.level(j).unit(key));
        }
    }

    #[test]
    fn empirical_acceptance_rate_matches_threshold() {
        // Over many keys, the fraction accepted at threshold s should be ~s.
        let mut rng = StdRng::seed_from_u64(13);
        let stack = PathHasherStack::sample(&mut rng, 1);
        let s = 0.3;
        let n = 20_000u32;
        let acc = (0..n)
            .filter(|&i| stack.level(0).accepts(PathKey::EMPTY.extend(i), s))
            .count();
        let rate = acc as f64 / n as f64;
        assert!((rate - s).abs() < 0.02, "rate={rate}");
    }
}
