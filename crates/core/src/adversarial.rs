//! The adversarial-query index (§5, Theorem 2).
//!
//! Given a similarity threshold `b₁`, preprocesses `S ~ D^n` so that any
//! query `q` (possibly adversarially chosen) with a `b₁`-similar neighbor in
//! `S` is answered in expected time `O(d · n^{ρ(q)+ε})` where
//! `Σ_{i∈q} p_i^{ρ(q)} = b₁|q|` — i.e. the structure *adapts to the
//! difficulty of the query*: skewed queries are cheap, worst-case queries
//! match the Chosen Path bound.

use crate::index::{IndexOptions, LsfIndex};
use crate::scheme::AdversarialScheme;
use rand::Rng;
use skewsearch_datagen::{BernoulliProfile, Dataset};
use skewsearch_rho::rho_adversarial_query;
use skewsearch_sets::SparseVec;

/// Parameters for [`AdversarialIndex`].
#[derive(Clone, Copy, Debug)]
pub struct AdversarialParams {
    /// Similarity threshold `b₁` the returned vector must meet.
    pub b1: f64,
    /// Index tuning.
    pub options: IndexOptions,
}

impl AdversarialParams {
    /// Validates `b₁ ∈ (0, 1]`.
    pub fn new(b1: f64) -> Result<Self, String> {
        if !(b1 > 0.0 && b1 <= 1.0) {
            return Err(format!("b1 must lie in (0, 1], got {b1}"));
        }
        Ok(Self {
            b1,
            options: IndexOptions::default(),
        })
    }

    /// Overrides the index options.
    pub fn with_options(mut self, options: IndexOptions) -> Self {
        self.options = options;
        self
    }
}

/// The paper's §5 data structure: skew-adaptive LSF with thresholds
/// `s(x, j, i) = 1/(b₁|x| − j)` and the product stopping rule — an
/// [`LsfIndex`] under the [`AdversarialScheme`].
pub type AdversarialIndex = LsfIndex<AdversarialScheme>;

impl LsfIndex<AdversarialScheme> {
    /// Preprocesses the dataset (Theorem 2: `O(d n^{1+ρᵤ+ε})` expected time,
    /// `O(n^{1+ρᵤ+ε} + dn)` expected space).
    pub fn build<R: Rng + ?Sized>(
        dataset: &Dataset,
        profile: &BernoulliProfile,
        params: AdversarialParams,
        rng: &mut R,
    ) -> Self {
        let scheme = AdversarialScheme::new(params.b1, dataset.n().max(2), profile);
        LsfIndex::with_scheme(
            dataset.vectors().to_vec(),
            profile.clone(),
            scheme,
            params.b1,
            params.options,
            rng,
        )
    }

    /// The predicted per-query exponent `ρ(q)` of Theorem 2, from the item
    /// probabilities of the query's set bits: `Σ_{i∈q} p_i^ρ = b₁|q|`.
    ///
    /// Purely analytical — the search itself never needs it.
    ///
    /// A dimension outside the profile has `p_i = 0`: it adds nothing to the
    /// left side but still counts in `|q|`, so `b₁` scales by
    /// `|q| / |q ∩ [d]|`. Once that reaches 1 the exponent is 0 (past it, no
    /// stored set can match at all).
    pub fn predicted_rho(&self, q: &SparseVec) -> f64 {
        let ps: Vec<f64> = q
            .iter()
            .filter_map(|i| self.profile().ps().get(i as usize).copied())
            .collect();
        let b1 = self.scheme().b1() * (q.weight() as f64 / ps.len() as f64);
        if b1 < 1.0 {
            rho_adversarial_query(&ps, b1)
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::Repetitions;
    use crate::traits::SetSimilaritySearch;
    use rand::{rngs::StdRng, SeedableRng};
    use skewsearch_sets::similarity;

    /// Plants a near-duplicate pair in otherwise-random data and checks the
    /// adversarial index retrieves it.
    #[test]
    fn finds_planted_similar_pair() {
        let profile = BernoulliProfile::two_block(800, 0.15, 0.01).unwrap();
        let mut rng = StdRng::seed_from_u64(31);
        let mut ds = Dataset::generate(&profile, 250, &mut rng);
        // Plant: vector 0 modified in a handful of positions becomes the query.
        let x = ds.vector(0).clone();
        let mut dims = x.dims().to_vec();
        dims.truncate(dims.len().saturating_sub(2)); // drop two rare-ish bits
        let q = SparseVec::from_unsorted(dims);
        let b1 = similarity::braun_blanquet(&x, &q) - 0.05;
        assert!(b1 > 0.5, "planted pair should be very similar, b1={b1}");
        ds = Dataset::from_vectors(ds.vectors().to_vec(), ds.d());

        let params = AdversarialParams::new(b1)
            .unwrap()
            .with_options(IndexOptions {
                repetitions: Repetitions::Fixed(12),
                ..IndexOptions::default()
            });
        let index = AdversarialIndex::build(&ds, &profile, params, &mut rng);
        let hit = index.search(&q);
        assert!(hit.is_some(), "planted pair not found");
        assert!(hit.unwrap().similarity >= b1);
    }

    #[test]
    fn rejects_invalid_b1() {
        assert!(AdversarialParams::new(0.0).is_err());
        assert!(AdversarialParams::new(1.2).is_err());
        assert!(AdversarialParams::new(0.5).is_ok());
    }

    #[test]
    fn predicted_rho_is_smaller_for_rarer_queries() {
        let profile = BernoulliProfile::two_block(400, 0.25, 0.002).unwrap();
        let mut rng = StdRng::seed_from_u64(32);
        let ds = Dataset::generate(&profile, 100, &mut rng);
        let params = AdversarialParams::new(0.4)
            .unwrap()
            .with_options(IndexOptions {
                repetitions: Repetitions::Fixed(2),
                ..IndexOptions::default()
            });
        let index = AdversarialIndex::build(&ds, &profile, params, &mut rng);
        // A query of frequent bits vs a query of rare bits.
        let q_freq = SparseVec::from_unsorted((0..40).collect());
        let q_rare = SparseVec::from_unsorted((200..240).collect());
        let rho_f = index.predicted_rho(&q_freq);
        let rho_r = index.predicted_rho(&q_rare);
        assert!(
            rho_r < rho_f,
            "rare query should be easier: {rho_r} !< {rho_f}"
        );
    }

    #[test]
    fn no_false_positives_below_threshold() {
        let profile = BernoulliProfile::uniform(300, 0.05).unwrap();
        let mut rng = StdRng::seed_from_u64(33);
        let ds = Dataset::generate(&profile, 200, &mut rng);
        let params = AdversarialParams::new(0.6)
            .unwrap()
            .with_options(IndexOptions {
                repetitions: Repetitions::Fixed(4),
                ..IndexOptions::default()
            });
        let index = AdversarialIndex::build(&ds, &profile, params, &mut rng);
        let sampler = skewsearch_datagen::VectorSampler::new(&profile);
        for _ in 0..25 {
            let q = sampler.sample(&mut rng);
            // Independent draws have similarity ~0.05 ≪ 0.6: must return None.
            assert!(index.search(&q).is_none());
        }
    }
}
