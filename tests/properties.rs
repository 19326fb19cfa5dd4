//! Cross-crate property-based tests (proptest): randomized inputs exercising
//! the algebraic invariants that the unit tests only probe pointwise.

use proptest::prelude::*;
use skewsearch::datagen::BernoulliProfile;
use skewsearch::rho;
use skewsearch::sets::{similarity, SparseVec};

fn arb_sparsevec(max_dim: u32, max_len: usize) -> impl Strategy<Value = SparseVec> {
    prop::collection::vec(0..max_dim, 0..max_len).prop_map(SparseVec::from_unsorted)
}

fn arb_probability() -> impl Strategy<Value = f64> {
    (0.001f64..0.5).prop_map(|p| p)
}

/// Set pairs built around a shared part, so that every similarity from 0
/// to 1 occurs. `shape` picks the dims: folded into 64 or 512 values (many
/// elements per signature bit), all of `u32` with its two top values added,
/// or one side empty.
fn arb_set_pair() -> impl Strategy<Value = (SparseVec, SparseVec)> {
    (
        0u8..6,
        prop::collection::vec(any::<u32>(), 0..60),
        prop::collection::vec(any::<u32>(), 0..20),
        prop::collection::vec(any::<u32>(), 0..20),
    )
        .prop_map(|(shape, shared, x_only, q_only)| {
            let side = |own: &[u32]| -> SparseVec {
                let dims = shared.iter().chain(own);
                SparseVec::from_unsorted(match shape {
                    0 => dims.map(|d| d % 64).collect(),
                    1 => dims.map(|d| d % 512).collect(),
                    _ => dims.copied().chain([u32::MAX, u32::MAX - 1]).collect(),
                })
            };
            let (x, q) = (side(&x_only), side(&q_only));
            match shape {
                4 => (SparseVec::empty(), q),
                5 => (x, SparseVec::empty()),
                _ => (x, q),
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn intersection_matches_naive(a in arb_sparsevec(500, 80), b in arb_sparsevec(500, 80)) {
        let naive = a.iter().filter(|&i| b.contains(i)).count();
        prop_assert_eq!(a.intersection_len(&b), naive);
        prop_assert_eq!(b.intersection_len(&a), naive);
        prop_assert_eq!(a.union_len(&b), a.weight() + b.weight() - naive);
    }

    #[test]
    fn gallop_and_merge_agree(small in arb_sparsevec(100_000, 12), big in arb_sparsevec(100_000, 3000)) {
        // Sizes straddle GALLOP_RATIO so both code paths appear across cases.
        let naive = small.iter().filter(|&i| big.contains(i)).count();
        prop_assert_eq!(small.intersection_len(&big), naive);
    }

    #[test]
    fn set_algebra_laws(a in arb_sparsevec(300, 60), b in arb_sparsevec(300, 60)) {
        let i = a.intersection(&b);
        let u = a.union(&b);
        let da = a.difference(&b);
        prop_assert_eq!(i.weight() + u.weight(), a.weight() + b.weight());
        prop_assert_eq!(da.weight() + i.weight(), a.weight());
        for x in i.iter() {
            prop_assert!(a.contains(x) && b.contains(x));
        }
        for x in da.iter() {
            prop_assert!(a.contains(x) && !b.contains(x));
        }
    }

    /// The signature bound never turns away a pair that clears the
    /// threshold: it is never below the exact Braun-Blanquet similarity.
    #[test]
    fn signature_bound_never_rejects_a_match((x, q) in arb_set_pair()) {
        let (sx, sq) = (similarity::SetSignature::of(&x), similarity::SetSignature::of(&q));
        for (a, sa, b, sb) in [(&x, &sx, &q, &sq), (&q, &sq, &x, &sx)] {
            let exact = similarity::braun_blanquet(a, b);
            let bound = similarity::braun_blanquet_bound(a, sa, b, sb);
            prop_assert!(bound >= exact, "bound {bound} below similarity {exact}");
            for threshold in [0.0, 0.3, 2.0 / 3.0 / 1.3, 1.0] {
                if exact >= threshold {
                    prop_assert!(bound >= threshold, "rejected a match at {threshold}");
                }
            }
        }
    }

    #[test]
    fn similarity_measures_bounded_and_symmetric(
        a in arb_sparsevec(200, 50),
        b in arb_sparsevec(200, 50),
    ) {
        for f in [
            similarity::braun_blanquet,
            similarity::jaccard,
            similarity::overlap,
            similarity::dice,
            similarity::cosine,
        ] {
            let s = f(&a, &b);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&s));
            prop_assert!((s - f(&b, &a)).abs() < 1e-12);
        }
        // Ordering law: jaccard <= braun_blanquet (b/(2-b) relation) and
        // braun_blanquet <= overlap.
        prop_assert!(similarity::jaccard(&a, &b) <= similarity::braun_blanquet(&a, &b) + 1e-12);
        prop_assert!(similarity::braun_blanquet(&a, &b) <= similarity::overlap(&a, &b) + 1e-12);
    }

    #[test]
    fn rho_correlated_residual_vanishes_and_lies_in_unit_interval(
        pa in arb_probability(),
        pb in arb_probability(),
        alpha in 0.05f64..1.0,
        wa in 1.0f64..50.0,
        wb in 1.0f64..50.0,
    ) {
        let blocks = [(wa, pa), (wb, pb)];
        let r = rho::rho_correlated_blocks(&blocks, alpha);
        prop_assert!((0.0..=1.0).contains(&r));
        // Residual of the defining equation at the root is ~0.
        let lhs: f64 = blocks
            .iter()
            .map(|&(w, p)| w * p.powf(1.0 + r) / (p * (1.0 - alpha) + alpha))
            .sum();
        let rhs: f64 = blocks.iter().map(|&(w, p)| w * p).sum();
        prop_assert!((lhs - rhs).abs() < 1e-6 * rhs.max(1.0), "residual {}", lhs - rhs);
    }

    #[test]
    fn rho_adversarial_residual_vanishes(
        pa in arb_probability(),
        pb in arb_probability(),
        b1 in 0.05f64..0.95,
    ) {
        let blocks = [(1.0, pa), (1.0, pb)];
        let r = rho::rho_adversarial_query_blocks(&blocks, b1);
        let lhs = pa.powf(r) + pb.powf(r);
        prop_assert!((lhs - 2.0 * b1).abs() < 1e-6, "residual {}", lhs - 2.0 * b1);
    }

    #[test]
    fn rho_ours_never_exceeds_chosen_path_model(
        pa in arb_probability(),
        ratio in 1.0f64..64.0,
        alpha in 0.1f64..1.0,
    ) {
        let blocks = [(1.0, pa), (1.0, pa / ratio)];
        let ours = rho::rho_correlated_blocks(&blocks, alpha);
        let b1 = rho::model::expected_b1_correlated_blocks(&blocks, alpha);
        let b2 = rho::model::expected_b2_independent_blocks(&blocks);
        let cp = rho::rho_chosen_path(b1, b2);
        prop_assert!(ours <= cp + 1e-9, "ours={ours} cp={cp}");
    }

    #[test]
    fn profile_invariants(ps in prop::collection::vec(0.001f64..0.5, 1..200)) {
        let profile = BernoulliProfile::new(ps.clone()).unwrap();
        prop_assert_eq!(profile.d(), ps.len());
        let sum: f64 = ps.iter().sum();
        prop_assert!((profile.sum_p() - sum).abs() < 1e-9);
        for (i, &p) in ps.iter().enumerate() {
            prop_assert!((profile.log2_inv_p(i as u32) - (1.0 / p).log2()).abs() < 1e-9);
        }
        let (sorted, perm) = profile.sorted_desc();
        prop_assert!(sorted.is_sorted_desc());
        prop_assert_eq!(perm.len(), ps.len());
        prop_assert!((sorted.sum_p() - sum).abs() < 1e-9);
    }
}
