//! Property-based tests for the hashing substrate.

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use skewsearch_hashing::{
    mix, FxHashMap, LevelHasher, PairwiseU128, PairwiseU64, PathHasherStack, PathKey, Tabulation64,
};
use std::collections::HashMap;

/// Thresholds at the edges of the sampling decision: signs and zeros, the
/// least subnormal, one grid step, the last value below 1, 1, past 1, and
/// the non-finite values.
const EDGE_THRESHOLDS: [f64; 11] = [
    -1.0,
    -0.0,
    0.0,
    5e-324,
    1.0 / (1u64 << 53) as f64,
    0.3,
    1.0 - 1.0 / (1u64 << 53) as f64,
    1.0,
    1.5,
    f64::INFINITY,
    f64::NAN,
];

/// The scaled test against the unit-interval definition `h_j(v) < s`, and
/// `accepts` against both.
fn assert_scaled_acceptance_is_exact(level: &LevelHasher, key: PathKey, s: f64) {
    let by_unit = level.unit(key) < s;
    assert_eq!(
        level.accepts_scaled(key, s * LevelHasher::SCALE),
        by_unit,
        "s = {s:e}, unit = {:e}",
        level.unit(key)
    );
    assert_eq!(level.accepts(key, s), by_unit, "s = {s:e}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mixers_are_deterministic_and_unit_range(x in any::<u64>()) {
        prop_assert_eq!(mix::splitmix64(x), mix::splitmix64(x));
        prop_assert_eq!(mix::avalanche64(x), mix::avalanche64(x));
        prop_assert_eq!(mix::murmur3_fmix64(x), mix::murmur3_fmix64(x));
        let u = mix::to_unit_f64(x);
        prop_assert!((0.0..1.0).contains(&u));
    }

    #[test]
    fn pairwise_u64_is_a_function(seed in any::<u64>(), x in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let h = PairwiseU64::sample(&mut rng);
        prop_assert_eq!(h.hash(x), h.hash(x));
        prop_assert!((0.0..1.0).contains(&h.hash_unit(x)));
    }

    #[test]
    fn pairwise_u128_word_sensitivity(seed in any::<u64>(), hi in any::<u64>(), lo in any::<u64>()) {
        prop_assume!(hi != lo);
        let mut rng = StdRng::seed_from_u64(seed);
        let h = PairwiseU128::sample(&mut rng);
        let a = ((hi as u128) << 64) | lo as u128;
        let b = ((lo as u128) << 64) | hi as u128;
        // Swapping words should essentially always change the hash; a
        // coincidence is a 2^-64 event, impossible over 256 cases.
        prop_assert_ne!(h.hash(a), h.hash(b));
    }

    #[test]
    fn path_keys_injective_on_random_sequences(
        seq1 in prop::collection::vec(0u32..10_000, 1..12),
        seq2 in prop::collection::vec(0u32..10_000, 1..12),
    ) {
        let key = |s: &[u32]| s.iter().fold(PathKey::EMPTY, |k, &i| k.extend(i));
        if seq1 == seq2 {
            prop_assert_eq!(key(&seq1), key(&seq2));
        } else {
            prop_assert_ne!(key(&seq1), key(&seq2));
        }
    }

    #[test]
    fn level_hash_acceptance_respects_threshold_ordering(
        seed in any::<u64>(),
        dims in prop::collection::vec(0u32..1000, 1..6),
        t1 in 0.0f64..1.0,
        t2 in 0.0f64..1.0,
    ) {
        // Acceptance is monotone in the threshold: accepted at t implies
        // accepted at any t' >= t.
        let mut rng = StdRng::seed_from_u64(seed);
        let stack = PathHasherStack::sample(&mut rng, 3);
        let key = dims.iter().fold(PathKey::EMPTY, |k, &i| k.extend(i));
        let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
        if stack.level(0).accepts(key, lo) {
            prop_assert!(stack.level(0).accepts(key, hi));
        }
    }

    #[test]
    fn extend_is_extend_term_of_dim_term(
        dims in prop::collection::vec(any::<u32>(), 0..8),
        i in any::<u32>(),
    ) {
        let key = dims.iter().fold(PathKey::EMPTY, |k, &d| k.extend(d));
        prop_assert_eq!(key.extend(i), key.extend_term(PathKey::dim_term(i)));
    }

    #[test]
    fn scaled_acceptance_is_exact(
        seed in any::<u64>(),
        dims in prop::collection::vec(any::<u32>(), 1..6),
        s in 0.0f64..1.0,
        wide in any::<f64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let level = LevelHasher::sample(&mut rng);
        let key = dims.iter().fold(PathKey::EMPTY, |k, &d| k.extend(d));
        // The key's own unit value and its grid neighbours are the
        // thresholds where a rounding error would show.
        let unit = level.unit(key);
        let step = 1.0 / (1u64 << 53) as f64;
        for t in [s, wide, unit, unit + step, unit - step, unit + step / 2.0] {
            assert_scaled_acceptance_is_exact(&level, key, t);
        }
        for t in EDGE_THRESHOLDS {
            assert_scaled_acceptance_is_exact(&level, key, t);
        }
    }

    #[test]
    fn tabulation_is_xor_linear_on_disjoint_bytes(seed in any::<u64>(), a in any::<u8>(), b in any::<u8>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = Tabulation64::sample(&mut rng);
        let x = a as u64;            // byte 0
        let y = (b as u64) << 16;    // byte 2
        prop_assert_eq!(t.hash(x | y), t.hash(x) ^ t.hash(y) ^ t.hash(0));
    }

    #[test]
    fn fx_map_agrees_with_std_map(ops in prop::collection::vec((any::<u128>(), any::<u32>()), 0..200)) {
        let mut fx: FxHashMap<u128, u32> = FxHashMap::default();
        let mut std_map: HashMap<u128, u32> = HashMap::new();
        for (k, v) in &ops {
            fx.insert(*k, *v);
            std_map.insert(*k, *v);
        }
        prop_assert_eq!(fx.len(), std_map.len());
        for (k, v) in &std_map {
            prop_assert_eq!(fx.get(k), Some(v));
        }
    }
}

/// A level hasher whose hash is the constant `h`: with both multipliers
/// zero, the pairwise function returns the top word of `b`.
fn constant_level(h: u64) -> LevelHasher {
    LevelHasher::from_coefficients(0, 0, (h as u128) << 64)
}

#[test]
fn scaled_acceptance_is_exact_at_crafted_hashes() {
    let top = u64::MAX >> 11;
    let crafted = [
        0,
        1,
        (1 << 11) - 1,
        1 << 11,
        (1 << 11) + 1,
        1 << 63,
        (top - 1) << 11,
        top << 11,
        u64::MAX - 1,
        u64::MAX,
    ];
    let step = 1.0 / (1u64 << 53) as f64;
    for h in crafted {
        let level = constant_level(h);
        let key = PathKey::EMPTY.extend(h as u32);
        assert_eq!(level.unit(key), mix::to_unit_f64(h));
        let unit = level.unit(key);
        for t in [
            unit,
            unit + step,
            unit - step,
            unit + step / 2.0,
            unit - step / 2.0,
        ] {
            assert_scaled_acceptance_is_exact(&level, key, t);
        }
        for t in EDGE_THRESHOLDS {
            assert_scaled_acceptance_is_exact(&level, key, t);
        }
    }
}
