//! Threshold schemes: the function `s(x, j, i)` and the stopping rule.
//!
//! §3 of the paper: "The data structure comes with a (deterministic) function
//! `s` which maps each vector x, path-length j and bit i to a threshold
//! `s(x, j, i) ∈ \[0, 1\]`. … `s` is how our data structure adapts to the
//! distribution — previous data structures essentially used a constant
//! function for s." A scheme also decides when a path is *complete* (becomes
//! a filter): the paper's skew-adaptive rule stops a path `v` once
//! `∏_{i∈v} p_i ≤ 1/n`, which we track as accumulated mass
//! `Σ_{i∈v} log₂(1/p_i) ≥ log₂ n`; Chosen Path instead uses a fixed depth.

use crate::correlated::ModelDiagnostics;
use skewsearch_datagen::BernoulliProfile;

/// A threshold scheme: sampling thresholds plus stopping rule.
///
/// `threshold` may return values outside `\[0, 1\]`; the engine treats
/// `s ≤ 0` as "never extend" and `s ≥ 1` as "always extend" (the level hash
/// is uniform on `[0, 1)`).
///
/// Schemes are `Sync + Send`: indexes share them across build workers and
/// the batch-query thread pool ([`crate::SetSimilaritySearch::search_batch`]).
/// Every scheme is plain immutable data, so this costs implementors nothing.
pub trait ThresholdScheme: Sync + Send {
    /// `s(x, j, i)` where `weight = |x|`, `depth = j` (0-based number of
    /// dimensions already on the path), `dim = i`.
    fn threshold(&self, weight: usize, depth: usize, dim: u32) -> f64;

    /// Whether a path with accumulated mass `Σ log₂(1/p)` and length `depth`
    /// is complete (a filter).
    fn is_complete(&self, mass: f64, depth: usize) -> bool;

    /// A safe upper bound on the depth any in-progress path can reach (used
    /// to size the level-hasher stack).
    fn depth_bound(&self) -> usize;
}

/// §5 scheme (adversarial queries, Theorem 2):
/// `s(x, j, i) = 1 / (b₁|x| − j)`, with the product stopping rule.
#[derive(Clone, Debug)]
pub struct AdversarialScheme {
    b1: f64,
    /// `log₂ n` — stopping mass.
    log2_n: f64,
    depth_bound: usize,
}

impl AdversarialScheme {
    /// Creates the scheme for similarity threshold `b1` over a dataset of
    /// `n` vectors drawn from `profile`.
    pub fn new(b1: f64, n: usize, profile: &BernoulliProfile) -> Self {
        assert!(b1 > 0.0 && b1 <= 1.0, "b1 must lie in (0,1], got {b1}");
        assert!(n >= 2, "need n >= 2");
        let log2_n = (n as f64).log2();
        Self {
            b1,
            log2_n,
            depth_bound: product_rule_depth_bound(log2_n, profile),
        }
    }

    /// The verification threshold `b₁`.
    pub fn b1(&self) -> f64 {
        self.b1
    }
}

impl ThresholdScheme for AdversarialScheme {
    #[inline]
    fn threshold(&self, weight: usize, depth: usize, _dim: u32) -> f64 {
        let denom = self.b1 * weight as f64 - depth as f64;
        if denom <= 1.0 {
            // b₁|x| − j ≤ 1 ⇒ threshold ≥ 1: always extend (clamped).
            1.0
        } else {
            1.0 / denom
        }
    }

    #[inline]
    fn is_complete(&self, mass: f64, _depth: usize) -> bool {
        mass >= self.log2_n
    }

    fn depth_bound(&self) -> usize {
        self.depth_bound
    }
}

/// §6 scheme (correlated queries, Theorem 1):
/// `s(x, j, i) = (1 + δ) / (p̂_i · C log n − j)` with
/// `p̂_i = p_i(1−α) + α`, `δ = 3/√(αC)`, `C log n = Σ_i p_i`, and the
/// product stopping rule.
#[derive(Clone, Debug)]
pub struct CorrelatedScheme {
    /// `p̂_i · Σp` per dimension (denominator base).
    phat_w: Vec<f64>,
    /// `1 + δ`.
    one_plus_delta: f64,
    log2_n: f64,
    depth_bound: usize,
    /// The target correlation `α`.
    alpha: f64,
    /// Which §6 model assumptions the build's profile and `n` violate.
    diagnostics: ModelDiagnostics,
}

impl CorrelatedScheme {
    /// Creates the scheme for correlation `alpha` over `n` vectors from
    /// `profile`. `C` is derived from the profile: `C = Σp / ln n`.
    ///
    /// Violations of the §6 model assumptions (`Cα ≥ 15`, `p_i ≤ α/2`) do
    /// not fail — the structure still works, with weaker guarantees — but
    /// are recorded in [`CorrelatedScheme::diagnostics`].
    pub fn new(alpha: f64, n: usize, profile: &BernoulliProfile) -> Self {
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "alpha must lie in (0,1], got {alpha}"
        );
        assert!(n >= 2, "need n >= 2");
        let w = profile.sum_p();
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
        let delta = 3.0 / (alpha * c).sqrt();
        let phat_w = profile
            .ps()
            .iter()
            .map(|&p| (p * (1.0 - alpha) + alpha) * w)
            .collect();
        let log2_n = (n as f64).log2();
        Self {
            phat_w,
            one_plus_delta: 1.0 + delta,
            log2_n,
            depth_bound: product_rule_depth_bound(log2_n, profile),
            alpha,
            diagnostics: ModelDiagnostics { c, warnings },
        }
    }

    /// The boost `1 + δ = 1 + 3/√(αC)` from Lemma 11.
    pub fn one_plus_delta(&self) -> f64 {
        self.one_plus_delta
    }

    /// The target correlation `α`.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The model-assumption diagnostics collected by
    /// [`CorrelatedScheme::new`].
    pub fn diagnostics(&self) -> &ModelDiagnostics {
        &self.diagnostics
    }
}

impl ThresholdScheme for CorrelatedScheme {
    #[inline]
    fn threshold(&self, _weight: usize, depth: usize, dim: u32) -> f64 {
        let denom = self.phat_w[dim as usize] - depth as f64;
        if denom <= self.one_plus_delta {
            1.0
        } else {
            self.one_plus_delta / denom
        }
    }

    #[inline]
    fn is_complete(&self, mass: f64, _depth: usize) -> bool {
        mass >= self.log2_n
    }

    fn depth_bound(&self) -> usize {
        self.depth_bound
    }
}

/// Chosen Path \[18\] scheme: constant thresholds `s = 1/(b₁|x|)` and a fixed
/// depth `k = ⌈ln n / ln(1/b₂)⌉` instead of the product stopping rule. This
/// is the non-adaptive baseline the paper generalizes; realizing it on the
/// same engine makes Figure 1 an apples-to-apples comparison.
#[derive(Clone, Debug)]
pub struct ChosenPathScheme {
    b1: f64,
    k: usize,
    /// The background similarity `b₂` that `k` was derived from.
    b2: f64,
}

impl ChosenPathScheme {
    /// Creates the scheme for the `(b₁, b₂)`-approximate problem on `n`
    /// vectors.
    pub fn new(b1: f64, b2: f64, n: usize) -> Self {
        assert!(
            0.0 < b2 && b2 < b1 && b1 <= 1.0,
            "need 0 < b2 < b1 <= 1, got b1={b1} b2={b2}"
        );
        assert!(n >= 2);
        let k = ((n as f64).ln() / (1.0 / b2).ln()).ceil().max(1.0) as usize;
        Self { b1, k, b2 }
    }

    /// The fixed path depth `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The verification threshold `b₁`.
    pub fn b1(&self) -> f64 {
        self.b1
    }

    /// The background similarity `b₂`.
    pub fn b2(&self) -> f64 {
        self.b2
    }
}

impl ThresholdScheme for ChosenPathScheme {
    #[inline]
    fn threshold(&self, weight: usize, _depth: usize, _dim: u32) -> f64 {
        let denom = self.b1 * weight as f64;
        if denom <= 1.0 {
            1.0
        } else {
            1.0 / denom
        }
    }

    #[inline]
    fn is_complete(&self, _mass: f64, depth: usize) -> bool {
        depth >= self.k
    }

    fn depth_bound(&self) -> usize {
        self.k
    }
}

/// Depth bound for product-rule schemes: a path completes once its mass
/// reaches `log₂ n`, and every extension adds at least `min_i log₂(1/p_i)`,
/// so no in-progress path exceeds `⌈log₂ n / min-mass⌉ + 1` dimensions.
/// Capped at [`MAX_DEPTH_CAP`] for near-1 probabilities.
fn product_rule_depth_bound(log2_n: f64, profile: &BernoulliProfile) -> usize {
    let min_mass = profile
        .ps()
        .iter()
        .map(|&p| -p.log2())
        .fold(f64::MAX, f64::min);
    let bound = (log2_n / min_mass.max(1e-9)).ceil() as usize + 1;
    bound.min(MAX_DEPTH_CAP)
}

/// Hard cap on path depth (and hasher-stack size). Reached only for
/// probabilities extremely close to 1, far outside the paper's `p ≤ 1/2`
/// model; paths hitting the cap are dropped and counted as truncations.
pub const MAX_DEPTH_CAP: usize = 256;

// --- persistence -----------------------------------------------------------
//
// Schemes are plain calibration data, so persisting one is just writing its
// fields: those planning never reads (`docs/PERSISTENCE.md` §5), then a tag
// word and the calibration (§3), which head the payload of the scheme's
// container kind. The impls live here (not in `persist.rs`) because the
// fields are private; each scheme writes a distinct tag so a payload can
// never be decoded under the wrong scheme.

use crate::persist::{expect_u32, kind, PersistError, PersistScheme, Reader, Writer};

/// Why a scheme's decoder rejects a tag word that is not its own.
const WRONG_TAG: &str = "scheme tag does not match the requested scheme type";

impl PersistScheme for AdversarialScheme {
    const KIND: u32 = kind::ADVERSARIAL;

    /// No fields of its own: tag 1, then `b₁`, `log₂ n` and the depth bound.
    fn encode(&self, w: &mut Writer) {
        w.put_u32(1);
        w.put_f64(self.b1);
        w.put_f64(self.log2_n);
        w.put_u64(self.depth_bound as u64);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        expect_u32(r, 1, WRONG_TAG)?;
        let b1 = r.get_f64()?;
        let log2_n = r.get_f64()?;
        let depth_bound = r.get_u64()? as usize;
        if !(b1 > 0.0 && b1 <= 1.0) {
            return Err(PersistError::Malformed("adversarial b1 out of (0,1]"));
        }
        if !(log2_n.is_finite() && log2_n >= 1.0) {
            return Err(PersistError::Malformed("adversarial log2_n out of range"));
        }
        if depth_bound == 0 || depth_bound > MAX_DEPTH_CAP {
            return Err(PersistError::Malformed(
                "adversarial depth bound out of range",
            ));
        }
        Ok(Self {
            b1,
            log2_n,
            depth_bound,
        })
    }
}

impl PersistScheme for CorrelatedScheme {
    const KIND: u32 = kind::CORRELATED;

    /// `α` and the model diagnostics (`C` + warnings), tag 2, then `1 + δ`,
    /// `log₂ n`, the depth bound and the `p̂·Σp` table.
    fn encode(&self, w: &mut Writer) {
        w.put_f64(self.alpha);
        w.put_f64(self.diagnostics.c);
        w.put_u64(self.diagnostics.warnings.len() as u64);
        for warning in &self.diagnostics.warnings {
            w.put_str(warning);
        }
        w.put_u32(2);
        w.put_f64(self.one_plus_delta);
        w.put_f64(self.log2_n);
        w.put_u64(self.depth_bound as u64);
        w.put_f64_slice(&self.phat_w);
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
        expect_u32(r, 2, WRONG_TAG)?;
        let one_plus_delta = r.get_f64()?;
        let log2_n = r.get_f64()?;
        let depth_bound = r.get_u64()? as usize;
        let phat_w = r.get_f64_vec()?;
        if !(one_plus_delta.is_finite() && one_plus_delta >= 1.0) {
            return Err(PersistError::Malformed("correlated 1+δ out of range"));
        }
        if !(log2_n.is_finite() && log2_n >= 1.0) {
            return Err(PersistError::Malformed("correlated log2_n out of range"));
        }
        if depth_bound == 0 || depth_bound > MAX_DEPTH_CAP {
            return Err(PersistError::Malformed(
                "correlated depth bound out of range",
            ));
        }
        if phat_w.iter().any(|v| !v.is_finite()) {
            return Err(PersistError::Malformed("correlated p̂·Σp not finite"));
        }
        Ok(Self {
            phat_w,
            one_plus_delta,
            log2_n,
            depth_bound,
            alpha,
            diagnostics: ModelDiagnostics { c, warnings },
        })
    }

    /// The `p̂·Σp` table, one entry per dimension.
    fn table_len(&self) -> Option<usize> {
        Some(self.phat_w.len())
    }
}

impl PersistScheme for ChosenPathScheme {
    const KIND: u32 = kind::CHOSEN_PATH;

    /// `b₂`, which only the predicted `ρ` reads, tag 3, then `b₁` and the
    /// fixed depth `k`.
    fn encode(&self, w: &mut Writer) {
        w.put_f64(self.b2);
        w.put_u32(3);
        w.put_f64(self.b1);
        w.put_u64(self.k as u64);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let b2 = r.get_f64()?;
        expect_u32(r, 3, WRONG_TAG)?;
        let b1 = r.get_f64()?;
        let k = r.get_u64()? as usize;
        // `ChosenPathScheme::new`'s condition: ρ = log b₁ / log b₂ is
        // defined only under it.
        if !(0.0 < b2 && b2 < b1 && b1 <= 1.0) {
            return Err(PersistError::Malformed(
                "chosen-path thresholds not 0 < b2 < b1 <= 1",
            ));
        }
        // Chosen Path's fixed depth is not subject to MAX_DEPTH_CAP (that cap
        // applies to product-rule schemes); just rule out absurd values that
        // would make the hasher stack allocation a corruption amplifier.
        if k == 0 || k > 1 << 20 {
            return Err(PersistError::Malformed("chosen-path depth out of range"));
        }
        Ok(Self { b1, k, b2 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> BernoulliProfile {
        BernoulliProfile::two_block(100, 0.25, 0.01).unwrap()
    }

    #[test]
    fn adversarial_threshold_formula() {
        let s = AdversarialScheme::new(0.5, 1024, &profile());
        // 1/(b1*w - j) = 1/(0.5*40 - 3) = 1/17.
        assert!((s.threshold(40, 3, 0) - 1.0 / 17.0).abs() < 1e-12);
        // Thresholds grow with depth (fewer remaining slots).
        assert!(s.threshold(40, 10, 0) > s.threshold(40, 3, 0));
        // Degenerate denominator clamps to 1.
        assert_eq!(s.threshold(2, 1, 0), 1.0);
    }

    #[test]
    fn adversarial_stopping_rule_is_product_based() {
        let s = AdversarialScheme::new(0.5, 1024, &profile());
        // log2(1024) = 10 bits of mass required.
        assert!(!s.is_complete(9.99, 3));
        assert!(s.is_complete(10.0, 3));
        assert!(s.is_complete(10.0, 1)); // depth irrelevant
    }

    #[test]
    fn correlated_threshold_decreases_with_phat() {
        let p = profile();
        let s = CorrelatedScheme::new(0.5, 1024, &p);
        // dim 0 (p = 0.25) has larger p̂ than dim 99 (p = 0.01): rarer bits
        // get *larger* thresholds — the aggressive skew-exploiting choice.
        assert!(s.threshold(40, 0, 99) > s.threshold(40, 0, 0));
        // Both shrink as the sampling-without-replacement denominator grows.
        assert!(s.threshold(40, 5, 0) > s.threshold(40, 0, 0));
    }

    #[test]
    fn correlated_delta_matches_lemma11() {
        let p = profile();
        let n = 1024;
        let alpha = 0.5;
        let s = CorrelatedScheme::new(alpha, n, &p);
        let c = p.c_constant(n);
        assert!((s.one_plus_delta() - (1.0 + 3.0 / (alpha * c).sqrt())).abs() < 1e-12);
    }

    #[test]
    fn chosen_path_fixed_depth() {
        let s = ChosenPathScheme::new(0.5, 0.1, 10_000);
        // k = ceil(ln 1e4 / ln 10) = 4.
        assert_eq!(s.k(), 4);
        assert!(!s.is_complete(1e9, 3)); // mass ignored
        assert!(s.is_complete(0.0, 4));
        // Constant threshold across depth.
        assert_eq!(s.threshold(40, 0, 7), s.threshold(40, 3, 2));
    }

    #[test]
    fn depth_bound_reflects_min_mass() {
        // p max = 0.25 → min mass 2 bits → bound = ceil(10/2)+1 = 6.
        let s = AdversarialScheme::new(0.5, 1024, &profile());
        assert_eq!(s.depth_bound(), 6);
        // Near-1 probabilities hit the cap.
        let dense = BernoulliProfile::uniform(4, 0.999).unwrap();
        let s2 = AdversarialScheme::new(0.5, 1 << 30, &dense);
        assert_eq!(s2.depth_bound(), MAX_DEPTH_CAP);
    }
}
