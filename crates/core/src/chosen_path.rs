//! The Chosen Path baseline (Christiani & Pagh, STOC 2017, \[18\] in the
//! paper).
//!
//! Chosen Path solves the `(b₁, b₂)`-approximate Braun-Blanquet problem with
//! constant sampling thresholds `s = 1/(b₁|x|)` and a *fixed* path depth
//! `k = ⌈ln n / ln(1/b₂)⌉`, achieving `ρ = log b₁ / log b₂` — optimal in the
//! worst case but oblivious to skew (the paper: "ChosenPath is not able to
//! exploit skew, and in fact has the same tight running time guarantee
//! independent of the data distribution").
//!
//! Realized as a [`ChosenPathScheme`] on the shared path engine, so every
//! difference from the paper's indexes is exactly its three departures:
//! adaptive thresholds, the product stopping rule, and sampling without
//! replacement. `skewsearch-baselines` re-exports it beside the other
//! comparators.

use crate::index::{IndexOptions, LsfIndex};
use crate::scheme::ChosenPathScheme;
use rand::Rng;
use skewsearch_datagen::{BernoulliProfile, Dataset};
use skewsearch_rho::rho_chosen_path;

/// Parameters for [`ChosenPathIndex`].
#[derive(Clone, Copy, Debug)]
pub struct ChosenPathParams {
    /// Similarity guaranteed by a planted/close pair.
    pub b1: f64,
    /// Background similarity level to beat.
    pub b2: f64,
    /// Index tuning.
    pub options: IndexOptions,
}

impl ChosenPathParams {
    /// Validates `0 < b₂ < b₁ ≤ 1`.
    pub fn new(b1: f64, b2: f64) -> Result<Self, String> {
        if !(0.0 < b2 && b2 < b1 && b1 <= 1.0) {
            return Err(format!("need 0 < b2 < b1 <= 1, got b1={b1} b2={b2}"));
        }
        Ok(Self {
            b1,
            b2,
            options: IndexOptions::default(),
        })
    }

    /// For the correlated-query model: plan from the expected similarity of
    /// α-correlated (`b₁`) and independent (`b₂`) pairs under `profile` —
    /// the instantiation §7.2 uses when comparing against Chosen Path.
    ///
    /// `margin ∈ (0, 1]` scales `b₁` down so that true pairs whose empirical
    /// similarity fluctuates below its expectation still verify (the paper's
    /// Lemma 10 plays the same role for the correlated index via the 1.3
    /// divisor; `margin = 1/1.3 ≈ 0.77` is the analogous choice).
    pub fn for_correlated_model(
        profile: &BernoulliProfile,
        alpha: f64,
        margin: f64,
    ) -> Result<Self, String> {
        if !(margin > 0.0 && margin <= 1.0) {
            return Err(format!("margin must lie in (0, 1], got {margin}"));
        }
        let (b1, b2) = skewsearch_rho::expected_similarities(profile, alpha);
        Self::new((b1 * margin).max(b2 * 1.0001), b2)
    }

    /// Overrides the index options.
    pub fn with_options(mut self, options: IndexOptions) -> Self {
        self.options = options;
        self
    }
}

/// Chosen Path index: the non-adaptive LSF baseline — an [`LsfIndex`] under
/// the [`ChosenPathScheme`], which holds `b₂`. It rides on the shared
/// engine, so it inherits the log-structured insert and remove (the
/// frozen baselines — brute force, prefix filtering, MinHash — stay
/// read-only).
pub type ChosenPathIndex = LsfIndex<ChosenPathScheme>;

impl LsfIndex<ChosenPathScheme> {
    /// Preprocesses the dataset.
    pub fn build<R: Rng + ?Sized>(
        dataset: &Dataset,
        profile: &BernoulliProfile,
        params: ChosenPathParams,
        rng: &mut R,
    ) -> Self {
        let scheme = ChosenPathScheme::new(params.b1, params.b2, dataset.n().max(2));
        LsfIndex::with_scheme(
            dataset.vectors().to_vec(),
            profile.clone(),
            scheme,
            params.b1,
            params.options,
            rng,
        )
    }

    /// Chosen Path's exponent `ρ = log b₁ / log b₂` (distribution
    /// independent — the point of the comparison).
    pub fn predicted_rho(&self) -> f64 {
        rho_chosen_path(self.scheme().b1(), self.scheme().b2())
    }

    /// The fixed path depth `k`.
    pub fn k(&self) -> usize {
        self.scheme().k()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::Repetitions;
    use crate::traits::SetSimilaritySearch;
    use rand::{rngs::StdRng, SeedableRng};
    use skewsearch_datagen::correlated_query;

    fn opts(reps: usize) -> IndexOptions {
        IndexOptions {
            repetitions: Repetitions::Fixed(reps),
            ..IndexOptions::default()
        }
    }

    #[test]
    fn params_validate() {
        assert!(ChosenPathParams::new(0.5, 0.6).is_err());
        assert!(ChosenPathParams::new(0.5, 0.0).is_err());
        assert!(ChosenPathParams::new(1.1, 0.5).is_err());
        assert!(ChosenPathParams::new(0.6, 0.2).is_ok());
    }

    #[test]
    fn correlated_model_planner_orders_thresholds() {
        let profile = BernoulliProfile::two_block(200, 0.3, 0.05).unwrap();
        let p = ChosenPathParams::for_correlated_model(&profile, 0.7, 1.0).unwrap();
        assert!(p.b2 < p.b1 && p.b1 < 1.0);
        let pm = ChosenPathParams::for_correlated_model(&profile, 0.7, 0.8).unwrap();
        assert!(pm.b1 < p.b1 && pm.b1 > pm.b2);
        assert!(ChosenPathParams::for_correlated_model(&profile, 0.7, 0.0).is_err());
    }

    #[test]
    fn finds_correlated_neighbor() {
        let profile = BernoulliProfile::two_block(1000, 0.2, 0.02).unwrap();
        let mut rng = StdRng::seed_from_u64(61);
        let ds = Dataset::generate(&profile, 300, &mut rng);
        let alpha = 0.85;
        let params = ChosenPathParams::for_correlated_model(&profile, alpha, 0.8)
            .unwrap()
            .with_options(opts(12));
        let index = ChosenPathIndex::build(&ds, &profile, params, &mut rng);
        let mut hits = 0;
        let trials = 30;
        for t in 0..trials {
            let target = t % ds.n();
            let q = correlated_query(ds.vector(target), &profile, alpha, &mut rng);
            if let Some(m) = index.search(&q) {
                if m.id == target {
                    hits += 1;
                }
            }
        }
        assert!(hits >= trials / 2, "hits={hits}/{trials}");
    }

    #[test]
    fn predicted_rho_matches_closed_form() {
        let profile = BernoulliProfile::uniform(100, 0.1).unwrap();
        let mut rng = StdRng::seed_from_u64(62);
        let ds = Dataset::generate(&profile, 100, &mut rng);
        let params = ChosenPathParams::new(0.5, 0.1)
            .unwrap()
            .with_options(opts(1));
        let index = ChosenPathIndex::build(&ds, &profile, params, &mut rng);
        assert!((index.predicted_rho() - 0.5f64.ln() / 0.1f64.ln()).abs() < 1e-12);
        assert!(index.k() >= 1);
    }
}
