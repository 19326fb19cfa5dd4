//! End-to-end Theorem 2 check: the adversarial index finds a planted
//! `b₁`-similar pair for queries the model never saw, adapts its cost to the
//! query's difficulty, and stays exact on verification.

use rand::{rngs::StdRng, Rng, SeedableRng};
use skewsearch::core::{
    AdversarialIndex, AdversarialParams, IndexOptions, Repetitions, SetSimilaritySearch,
};
use skewsearch::datagen::{BernoulliProfile, Dataset};
use skewsearch::sets::{similarity, SparseVec};

fn build(
    ds: &Dataset,
    profile: &BernoulliProfile,
    b1: f64,
    reps: usize,
    rng: &mut StdRng,
) -> AdversarialIndex {
    AdversarialIndex::build(
        ds,
        profile,
        AdversarialParams::new(b1)
            .unwrap()
            .with_options(IndexOptions {
                repetitions: Repetitions::Fixed(reps),
                ..IndexOptions::default()
            }),
        rng,
    )
}

/// Perturbs `x` by deleting `del` random set bits (an adversarial edit, not
/// the probabilistic model).
fn delete_bits(x: &SparseVec, del: usize, rng: &mut StdRng) -> SparseVec {
    let mut dims = x.dims().to_vec();
    for _ in 0..del.min(dims.len().saturating_sub(1)) {
        let k = rng.random_range(0..dims.len());
        dims.remove(k);
    }
    SparseVec::from_sorted(dims)
}

#[test]
fn finds_planted_edits_with_high_probability() {
    let profile = BernoulliProfile::two_block(1200, 0.18, 0.02).unwrap();
    let mut rng = StdRng::seed_from_u64(11);
    let ds = Dataset::generate(&profile, 400, &mut rng);
    let b1 = 0.75;
    let index = build(&ds, &profile, b1, 12, &mut rng);
    let trials = 30;
    let mut hits = 0;
    for t in 0..trials {
        let target = (t * 13) % ds.n();
        let q = delete_bits(ds.vector(target), 3, &mut rng);
        if similarity::braun_blanquet(ds.vector(target), &q) < b1 {
            continue; // tiny vector: the edit broke the planted similarity
        }
        if let Some(m) = index.search(&q) {
            assert!(m.similarity >= b1);
            hits += 1;
        }
    }
    assert!(hits >= trials * 3 / 4, "hits={hits}/{trials}");
}

#[test]
fn exact_duplicates_are_always_verifiable() {
    let profile = BernoulliProfile::two_block(800, 0.2, 0.02).unwrap();
    let mut rng = StdRng::seed_from_u64(12);
    let ds = Dataset::generate(&profile, 250, &mut rng);
    let index = build(&ds, &profile, 0.9, 15, &mut rng);
    let mut hits = 0;
    for t in 0..25 {
        let q = ds.vector(t).clone();
        if let Some(m) = index.search(&q) {
            assert!(m.similarity >= 0.9);
            hits += 1;
        }
    }
    assert!(hits >= 20, "self-queries found {hits}/25");
}

#[test]
fn per_query_cost_adapts_to_skew() {
    // Theorem 2's ρ(q): a query supported on rare dimensions examines far
    // fewer candidates than one supported on frequent dimensions.
    let profile = BernoulliProfile::blocks(&[(150, 0.3), (4000, 0.01)]).unwrap();
    let mut rng = StdRng::seed_from_u64(13);
    let ds = Dataset::generate(&profile, 600, &mut rng);
    let index = build(&ds, &profile, 0.5, 6, &mut rng);

    let q_freq = SparseVec::from_unsorted((0..60).collect());
    let q_rare = SparseVec::from_unsorted((150..210).collect());
    assert!(
        index.predicted_rho(&q_rare) < index.predicted_rho(&q_freq),
        "rho ordering"
    );
    let (c_freq, _) = index.distinct_candidates(&q_freq);
    let (c_rare, _) = index.distinct_candidates(&q_rare);
    assert!(
        c_rare.len() <= c_freq.len(),
        "rare-supported query touched more candidates ({} vs {})",
        c_rare.len(),
        c_freq.len()
    );
}
