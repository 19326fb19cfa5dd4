//! Similarity measures on sparse binary vectors.
//!
//! The paper's working measure is **Braun-Blanquet similarity** (§2):
//! `B(x, q) = |x ∩ q| / max(|x|, |q|)` — chosen because for vectors of equal
//! Hamming weight it is in 1-1 correspondence with Jaccard and (suitably
//! normalized) Pearson correlation. The remaining measures are provided for
//! interoperability and for tests that exercise the correspondences the paper
//! appeals to (its §1.2 and Lemma 10).
//!
//! All functions return a value in `[0, 1]` (correlation in `[-1, 1]`) and
//! define the degenerate all-empty case as `0.0`.

use crate::SparseVec;

/// Braun-Blanquet similarity `|x ∩ q| / max(|x|, |q|)` — the paper's measure.
#[inline]
pub fn braun_blanquet(x: &SparseVec, q: &SparseVec) -> f64 {
    let m = x.weight().max(q.weight());
    if m == 0 {
        return 0.0;
    }
    x.intersection_len(q) as f64 / m as f64
}

/// A 256-bit signature of a set: for every element `i`, the bit at the top
/// 8 bits of `i · 0x9E3779B9 mod 2³²` is set. The empty set's signature is
/// all zeros ([`SetSignature::default`]).
///
/// Equal sets have equal signatures, so a signature can be derived wherever
/// its set is and never needs storing on its own. Its one use is
/// [`braun_blanquet_bound`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SetSignature([u64; 4]);

impl SetSignature {
    /// The signature of `x`.
    pub fn of(x: &SparseVec) -> Self {
        let mut words = [0u64; 4];
        for i in x.iter() {
            let bit = i.wrapping_mul(0x9E37_79B9) >> 24;
            words[(bit >> 6) as usize] |= 1 << (bit & 63);
        }
        Self(words)
    }

    /// Bits set in `self` and clear in `other`.
    #[inline]
    fn missing_from(&self, other: &SetSignature) -> usize {
        self.0
            .iter()
            .zip(&other.0)
            .map(|(a, b)| (a & !b).count_ones() as usize)
            .sum()
    }
}

/// An upper bound on [`braun_blanquet`]`(x, q)` from the two weights and
/// signatures alone, touching no element: `ub / max(|x|, |q|)` with
/// `ub = |q| − popcount(sig(q) & !sig(x))`, and `0.0` when both sets are
/// empty.
///
/// # Soundness
///
/// Each bit set in `sig(q) & !sig(x)` is the hash of some element of `q`,
/// and of no element of `x`, so that element lies in `q \ x`. Distinct bits
/// name distinct elements, so `|q \ x| ≥ popcount(sig(q) & !sig(x))` and
/// `|x ∩ q| = |q| − |q \ x| ≤ ub`. Both quotients divide by the same `m`
/// with the same correctly rounded `f64` division, which is monotone in
/// the numerator, so the result is never below [`braun_blanquet`]`(x, q)`.
/// Hence `braun_blanquet_bound(..) < t` implies `braun_blanquet(x, q) < t`:
/// rejecting a candidate on the bound cannot change an answer.
///
/// The signatures must be those of `x` and `q` ([`SetSignature::of`]).
#[inline]
pub fn braun_blanquet_bound(
    x: &SparseVec,
    x_sig: &SetSignature,
    q: &SparseVec,
    q_sig: &SetSignature,
) -> f64 {
    let m = x.weight().max(q.weight());
    if m == 0 {
        return 0.0;
    }
    let ub = q.weight().saturating_sub(q_sig.missing_from(x_sig));
    ub as f64 / m as f64
}

/// Jaccard similarity `|x ∩ q| / |x ∪ q|`.
#[inline]
pub fn jaccard(x: &SparseVec, q: &SparseVec) -> f64 {
    let i = x.intersection_len(q);
    let u = x.weight() + q.weight() - i;
    if u == 0 {
        return 0.0;
    }
    i as f64 / u as f64
}

/// Overlap (Szymkiewicz–Simpson) coefficient `|x ∩ q| / min(|x|, |q|)`.
#[inline]
pub fn overlap(x: &SparseVec, q: &SparseVec) -> f64 {
    let m = x.weight().min(q.weight());
    if m == 0 {
        return 0.0;
    }
    x.intersection_len(q) as f64 / m as f64
}

/// Sørensen–Dice coefficient `2|x ∩ q| / (|x| + |q|)`.
#[inline]
pub fn dice(x: &SparseVec, q: &SparseVec) -> f64 {
    let s = x.weight() + q.weight();
    if s == 0 {
        return 0.0;
    }
    2.0 * x.intersection_len(q) as f64 / s as f64
}

/// Binary cosine similarity `|x ∩ q| / sqrt(|x| · |q|)`.
#[inline]
pub fn cosine(x: &SparseVec, q: &SparseVec) -> f64 {
    let denom = (x.weight() as f64 * q.weight() as f64).sqrt();
    if denom == 0.0 {
        return 0.0;
    }
    x.intersection_len(q) as f64 / denom
}

/// Pearson correlation of `x, q ∈ {0,1}^d` viewed as samples of two binary
/// random variables over the `d` coordinates.
///
/// This is the empirical counterpart of the correlation `α` in the paper's §1
/// probabilistic viewpoint: for `q ~ D_α(x)` and large `d`, the empirical
/// correlation concentrates near `α` (per-coordinate Pearson correlation is
/// exactly `α`, Definition 3).
///
/// Returns `0.0` when either marginal is degenerate (all zeros or all ones).
pub fn pearson_binary(x: &SparseVec, q: &SparseVec, d: usize) -> f64 {
    assert!(d > 0, "universe size must be positive");
    let n11 = x.intersection_len(q) as f64;
    let px = x.weight() as f64 / d as f64;
    let pq = q.weight() as f64 / d as f64;
    let var = px * (1.0 - px) * pq * (1.0 - pq);
    if var <= 0.0 {
        return 0.0;
    }
    (n11 / d as f64 - px * pq) / var.sqrt()
}

/// Converts a Jaccard similarity to the Braun-Blanquet similarity of two sets
/// of *equal weight* `w`: if `J = i/(2w - i)` then `B = i/w = 2J/(1+J)`.
///
/// The paper (§1.2 "Correlation search on sparse vectors") notes the 1-1
/// correspondence of the standard measures at fixed Hamming weight; this is
/// that correspondence made executable (used in tests and the MinHash
/// planner).
#[inline]
pub fn jaccard_to_braun_blanquet_equal_weight(j: f64) -> f64 {
    2.0 * j / (1.0 + j)
}

/// Inverse of [`jaccard_to_braun_blanquet_equal_weight`]: `J = B/(2-B)`.
#[inline]
pub fn braun_blanquet_to_jaccard_equal_weight(b: f64) -> f64 {
    b / (2.0 - b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(dims: &[u32]) -> SparseVec {
        SparseVec::from_unsorted(dims.to_vec())
    }

    #[test]
    fn braun_blanquet_basic() {
        let x = v(&[1, 2, 3, 4]);
        let q = v(&[3, 4, 5]);
        assert!((braun_blanquet(&x, &q) - 2.0 / 4.0).abs() < 1e-12);
        // Symmetry.
        assert_eq!(braun_blanquet(&x, &q), braun_blanquet(&q, &x));
    }

    #[test]
    fn signature_bound_is_exact_when_no_bits_collide() {
        // 0..4 hash to distinct bits, so the bound counts q \ x exactly.
        let x = v(&[0, 1, 2]);
        let q = v(&[1, 2, 3]);
        let (sx, sq) = (SetSignature::of(&x), SetSignature::of(&q));
        assert_eq!(sq.missing_from(&sx), 1);
        assert_eq!(
            braun_blanquet_bound(&x, &sx, &q, &sq),
            braun_blanquet(&x, &q)
        );
        assert_eq!(
            SetSignature::of(&SparseVec::empty()),
            SetSignature::default()
        );
        let e = SparseVec::empty();
        let se = SetSignature::default();
        assert_eq!(braun_blanquet_bound(&e, &se, &e, &se), 0.0);
        assert_eq!(braun_blanquet_bound(&x, &sx, &e, &se), 0.0);
        assert_eq!(braun_blanquet_bound(&e, &se, &x, &sx), 0.0);
    }

    #[test]
    fn all_measures_are_one_on_identical_sets() {
        let x = v(&[7, 9, 13]);
        assert_eq!(braun_blanquet(&x, &x), 1.0);
        assert_eq!(jaccard(&x, &x), 1.0);
        assert_eq!(overlap(&x, &x), 1.0);
        assert_eq!(dice(&x, &x), 1.0);
        assert!((cosine(&x, &x) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn all_measures_are_zero_on_disjoint_sets() {
        let x = v(&[1, 2]);
        let q = v(&[3, 4]);
        for f in [braun_blanquet, jaccard, overlap, dice, cosine] {
            assert_eq!(f(&x, &q), 0.0);
        }
    }

    #[test]
    fn degenerate_empty_cases_are_zero() {
        let e = SparseVec::empty();
        for f in [braun_blanquet, jaccard, overlap, dice, cosine] {
            assert_eq!(f(&e, &e), 0.0);
        }
    }

    #[test]
    fn measure_ordering_overlap_ge_dice_ge_jaccard() {
        // overlap >= BB-like measures >= jaccard for any pair.
        let x = v(&[1, 2, 3, 4, 5]);
        let q = v(&[4, 5, 6]);
        let (o, b, dd, j) = (
            overlap(&x, &q),
            braun_blanquet(&x, &q),
            dice(&x, &q),
            jaccard(&x, &q),
        );
        assert!(o >= dd && dd >= j, "o={o} dice={dd} j={j}");
        assert!(o >= b && b >= j, "o={o} b={b} j={j}");
    }

    #[test]
    fn bb_jaccard_correspondence_roundtrip_at_equal_weight() {
        let x = v(&[1, 2, 3, 4]);
        let q = v(&[3, 4, 5, 6]);
        let b = braun_blanquet(&x, &q);
        let j = jaccard(&x, &q);
        assert!((jaccard_to_braun_blanquet_equal_weight(j) - b).abs() < 1e-12);
        assert!((braun_blanquet_to_jaccard_equal_weight(b) - j).abs() < 1e-12);
    }

    #[test]
    fn pearson_binary_perfect_and_anti() {
        // x == q: correlation 1 (up to fp error).
        let x = v(&[0, 1, 2]);
        assert!((pearson_binary(&x, &x, 6) - 1.0).abs() < 1e-12);
        // complement on d=6: correlation -1.
        let q = v(&[3, 4, 5]);
        assert!((pearson_binary(&x, &q, 6) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_binary_degenerate_is_zero() {
        let x = SparseVec::empty();
        let q = v(&[1]);
        assert_eq!(pearson_binary(&x, &q, 4), 0.0);
    }

    #[test]
    fn pearson_binary_independent_ish_is_small() {
        // Two "random-looking" sets of density 1/2 on d=8 with |x ∩ q| = 2 = d/4.
        let x = v(&[0, 1, 2, 3]);
        let q = v(&[2, 3, 6, 7]);
        assert!(pearson_binary(&x, &q, 8).abs() < 1e-12);
    }
}
