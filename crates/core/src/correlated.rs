//! The correlated-query index (§6, Theorem 1).
//!
//! For queries `q ~ D_α(x)` with `x ∈ S`, the scheme biases path sampling by
//! the conditional probability `p̂_i = Pr[x_i = 1 | q_i = 1] = p_i(1−α) + α`,
//! boosted by `1 + δ = 1 + 3/√(αC)` (Lemma 11), and verifies at
//! `b₁ = α/1.3` (Lemma 10 separates correlated pairs at `≥ α/1.3` from
//! independent pairs at `≤ α/1.5` w.h.p.). Expected query cost is
//! `O(d · n^{ρ+ε})` with `Σ p^{1+ρ}/p̂ = Σ p`.

use crate::index::{IndexOptions, LsfIndex};
use crate::persist::{PersistError, Reader, Writer};
use crate::scheme::CorrelatedScheme;
use crate::wrapper::LsfWrapper;
use rand::Rng;
use skewsearch_datagen::{BernoulliProfile, Dataset};
use skewsearch_rho::rho_correlated;

/// Lemma 10's verification threshold: correlated pairs have similarity
/// `≥ α/1.3` w.h.p.
pub const B1_DIVISOR: f64 = 1.3;

/// Lemma 10's separation bound: independent pairs have similarity `≤ α/1.5`
/// w.h.p.
pub const B2_DIVISOR: f64 = 1.5;

/// Parameters for [`CorrelatedIndex`].
#[derive(Clone, Copy, Debug)]
pub struct CorrelatedParams {
    /// The target correlation `α ∈ (0, 1]`.
    pub alpha: f64,
    /// Index tuning.
    pub options: IndexOptions,
}

impl CorrelatedParams {
    /// Validates `α ∈ (0, 1]`.
    pub fn new(alpha: f64) -> Result<Self, String> {
        if !(alpha > 0.0 && alpha <= 1.0) {
            return Err(format!("alpha must lie in (0, 1], got {alpha}"));
        }
        Ok(Self {
            alpha,
            options: IndexOptions::default(),
        })
    }

    /// Overrides the index options.
    pub fn with_options(mut self, options: IndexOptions) -> Self {
        self.options = options;
        self
    }
}

/// Model-assumption diagnostics surfaced by [`CorrelatedIndex::diagnostics`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ModelDiagnostics {
    /// The paper's `C` (`Σp / ln n`).
    pub c: f64,
    /// Warnings about violated §6 assumptions (empty = all hold).
    pub warnings: Vec<String>,
}

/// The paper's §6 data structure for α-correlated queries (Theorem 1): an
/// [`LsfIndex`] under the [`CorrelatedScheme`], which it dereferences to.
pub struct CorrelatedIndex {
    inner: LsfIndex<CorrelatedScheme>,
    alpha: f64,
    diagnostics: ModelDiagnostics,
}

impl CorrelatedIndex {
    /// Preprocesses the dataset. Violations of the §6 model assumptions
    /// (`Cα ≥ 15`, `p_i ≤ α/2`) do not fail the build — the structure still
    /// works, with weaker guarantees — but are reported via
    /// [`CorrelatedIndex::diagnostics`].
    pub fn build<R: Rng + ?Sized>(
        dataset: &Dataset,
        profile: &BernoulliProfile,
        params: CorrelatedParams,
        rng: &mut R,
    ) -> Self {
        let n = dataset.n().max(2);
        let alpha = params.alpha;
        let c = profile.c_constant(n);
        let mut warnings = Vec::new();
        if c * alpha < 15.0 {
            warnings.push(format!(
                "Lemma 11 assumes Cα ≥ 15; here Cα = {:.2} — success probability \
                 may fall below the advertised bound",
                c * alpha
            ));
        }
        let max_p = profile.max_p();
        if max_p > alpha / 2.0 {
            warnings.push(format!(
                "§6 assumes all p_i ≤ α/2 = {:.3}; max p_i = {max_p:.3}",
                alpha / 2.0
            ));
        }
        let scheme = CorrelatedScheme::new(alpha, n, profile);
        let inner = LsfIndex::build(
            dataset.vectors().to_vec(),
            profile.clone(),
            scheme,
            alpha / B1_DIVISOR,
            params.options,
            rng,
        );
        Self {
            inner,
            alpha,
            diagnostics: ModelDiagnostics { c, warnings },
        }
    }

    /// The target correlation `α`.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Model-assumption diagnostics collected at build time.
    pub fn diagnostics(&self) -> &ModelDiagnostics {
        &self.diagnostics
    }

    /// Theorem 1's predicted exponent ρ for this profile and α
    /// (`Σ p^{1+ρ}/p̂ = Σ p`). Analytical; the search never needs it.
    pub fn predicted_rho(&self) -> f64 {
        rho_correlated(self.inner.profile(), self.alpha)
    }
}

impl std::ops::Deref for CorrelatedIndex {
    type Target = LsfIndex<CorrelatedScheme>;

    fn deref(&self) -> &Self::Target {
        &self.inner
    }
}

impl std::ops::DerefMut for CorrelatedIndex {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.inner
    }
}

impl LsfWrapper for CorrelatedIndex {
    type Scheme = CorrelatedScheme;
    const KIND: u32 = crate::persist::kind::CORRELATED;

    fn rewrap(&self, inner: LsfIndex<CorrelatedScheme>) -> Self {
        Self {
            inner,
            alpha: self.alpha,
            diagnostics: self.diagnostics.clone(),
        }
    }

    /// `α`, then the model diagnostics (`C` + warnings).
    fn encode_fields(&self, w: &mut Writer) {
        w.put_f64(self.alpha);
        w.put_f64(self.diagnostics.c);
        w.put_u64(self.diagnostics.warnings.len() as u64);
        for warning in &self.diagnostics.warnings {
            w.put_str(warning);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let alpha = r.get_f64()?;
        if !(alpha > 0.0 && alpha <= 1.0) {
            return Err(PersistError::Malformed("correlated alpha out of (0,1]"));
        }
        let c = r.get_f64()?;
        let warning_count = r.get_u64()?;
        let mut warnings = Vec::new();
        for _ in 0..warning_count {
            warnings.push(r.get_string()?);
        }
        Ok(Self {
            inner: LsfIndex::read_payload(r)?,
            alpha,
            diagnostics: ModelDiagnostics { c, warnings },
        })
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
    fn recall_on_correlated_queries() {
        let profile = BernoulliProfile::two_block(1200, 0.2, 0.02).unwrap();
        let mut rng = StdRng::seed_from_u64(41);
        let ds = Dataset::generate(&profile, 400, &mut rng);
        let alpha = 0.8;
        let params = CorrelatedParams::new(alpha).unwrap().with_options(opts(10));
        let index = CorrelatedIndex::build(&ds, &profile, params, &mut rng);
        let trials = 50;
        let mut hits = 0;
        for t in 0..trials {
            let target = (t * 7) % ds.n();
            let q = correlated_query(ds.vector(target), &profile, alpha, &mut rng);
            if let Some(m) = index.search(&q) {
                if m.id == target {
                    hits += 1;
                }
            }
        }
        assert!(hits >= trials * 4 / 5, "recall {hits}/{trials}");
    }

    #[test]
    fn threshold_is_alpha_over_1_3() {
        let profile = BernoulliProfile::uniform(200, 0.1).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let ds = Dataset::generate(&profile, 50, &mut rng);
        let params = CorrelatedParams::new(0.65).unwrap().with_options(opts(1));
        let index = CorrelatedIndex::build(&ds, &profile, params, &mut rng);
        assert!((index.threshold() - 0.65 / 1.3).abs() < 1e-12);
        assert_eq!(index.alpha(), 0.65);
    }

    #[test]
    fn diagnostics_flag_small_c_alpha() {
        // Tiny profile: Σp = 2, n = 1000 ⇒ C ≈ 0.29, Cα ≪ 15.
        let profile = BernoulliProfile::uniform(20, 0.1).unwrap();
        let mut rng = StdRng::seed_from_u64(43);
        let ds = Dataset::generate(&profile, 1000, &mut rng);
        let params = CorrelatedParams::new(0.5).unwrap().with_options(opts(1));
        let index = CorrelatedIndex::build(&ds, &profile, params, &mut rng);
        assert!(!index.diagnostics().warnings.is_empty());
        assert!(index.diagnostics().c < 1.0);
    }

    #[test]
    fn diagnostics_clean_when_assumptions_hold() {
        // Σp = 240, n = 100 ⇒ C ≈ 52, Cα = 36 ≥ 15; max p = 0.3 ≤ α/2 = 0.35.
        let profile = BernoulliProfile::two_block(1600, 0.25, 0.05).unwrap();
        let mut rng = StdRng::seed_from_u64(44);
        let ds = Dataset::generate(&profile, 100, &mut rng);
        let params = CorrelatedParams::new(0.7).unwrap().with_options(opts(1));
        let index = CorrelatedIndex::build(&ds, &profile, params, &mut rng);
        assert!(
            index.diagnostics().warnings.is_empty(),
            "unexpected warnings: {:?}",
            index.diagnostics().warnings
        );
    }

    #[test]
    fn predicted_rho_matches_solver() {
        let profile = BernoulliProfile::two_block(300, 0.25, 0.25 / 8.0).unwrap();
        let mut rng = StdRng::seed_from_u64(45);
        let ds = Dataset::generate(&profile, 100, &mut rng);
        let params = CorrelatedParams::new(2.0 / 3.0)
            .unwrap()
            .with_options(opts(1));
        let index = CorrelatedIndex::build(&ds, &profile, params, &mut rng);
        let direct = rho_correlated(&profile, 2.0 / 3.0);
        assert!((index.predicted_rho() - direct).abs() < 1e-12);
    }

    #[test]
    fn rejects_invalid_alpha() {
        assert!(CorrelatedParams::new(0.0).is_err());
        assert!(CorrelatedParams::new(-0.3).is_err());
        assert!(CorrelatedParams::new(1.01).is_err());
    }
}
