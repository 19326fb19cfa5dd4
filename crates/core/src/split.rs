//! The frequent/rare split search of the §1 motivating example.
//!
//! For a universe ordered by decreasing frequency, split every vector into a
//! *frequent* part (dims `< cut`) and a *rare* part (dims `≥ cut`). If
//! `|x ∩ q| ≥ i₁|q|`, then for any `ℓ ∈ (0, i₁)` either
//! `|x_f ∩ q_f| ≥ ℓ|q|` or `|x_r ∩ q_r| ≥ (i₁−ℓ)|q|`, so two sub-searches
//! (one per part) solve the original problem at combined cost
//! `n^{ρ_f} + n^{ρ_r}` with
//!
//! ```text
//! ρ_f = log(ℓ)      / log(i_f),       i_f = E|x ∩ q_f| / |q|,
//! ρ_r = log(i₁ − ℓ) / log(i_r),       i_r = E|x ∩ q_r| / |q|,
//! ```
//!
//! and `ℓ` chosen to balance the two terms ([`balance_split`]). The paper
//! uses this example to show skew *can* be exploited; the §5/§6 schemes do it
//! in a principled way, but the split structure remains a useful comparison
//! point and is exercised by the `motivating` experiment.

use crate::index::{IndexOptions, LsfIndex};
use crate::scheme::AdversarialScheme;
use crate::traits::{Match, PassSource, ProbeControl, SetSimilaritySearch};
use rand::Rng;
use skewsearch_datagen::{BernoulliProfile, Dataset};
use skewsearch_sets::{similarity, SparseVec};

/// Balances `ρ_f(ℓ) = log(ℓ)/log(i_f)` against
/// `ρ_r(ℓ) = log(i₁−ℓ)/log(i_r)`: returns the `ℓ ∈ (0, i₁)` equalizing the
/// two exponents (`ρ_f` strictly decreases and `ρ_r` strictly increases in
/// `ℓ`, so the crossing is unique).
///
/// Requires `0 < i_f, i_r < 1` and `0 < i1 < 1`.
pub fn balance_split(i_f: f64, i_r: f64, i1: f64) -> f64 {
    assert!(i_f > 0.0 && i_f < 1.0, "i_f must lie in (0,1), got {i_f}");
    assert!(i_r > 0.0 && i_r < 1.0, "i_r must lie in (0,1), got {i_r}");
    assert!(i1 > 0.0 && i1 < 1.0, "i1 must lie in (0,1), got {i1}");
    let g = |l: f64| -> f64 {
        let rho_f = l.ln() / i_f.ln();
        let rho_r = (i1 - l).ln() / i_r.ln();
        rho_f - rho_r // strictly decreasing in l
    };
    let mut lo = i1 * 1e-9;
    let mut hi = i1 * (1.0 - 1e-9);
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if g(mid) >= 0.0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// The two balanced exponents `(ρ_f, ρ_r)` at the optimum of
/// [`balance_split`].
pub fn balanced_exponents(i_f: f64, i_r: f64, i1: f64) -> (f64, f64, f64) {
    let l = balance_split(i_f, i_r, i1);
    (l, l.ln() / i_f.ln(), (i1 - l).ln() / i_r.ln())
}

/// Normalized variant of [`balance_split`]: accounts for the projected query
/// sizes of the two halves.
///
/// The paper's displayed formulas (`ρ_f = log ℓ / log i_f`, both sides
/// normalized by the *full* `|q|`) are explicitly approximate ("the combined
/// cost … becomes approximately"); the sub-searches actually operate on the
/// projected halves, where the Braun-Blanquet threshold and background level
/// are `ℓ/frac` and `i/frac` with `frac = E|q_half| / E|q|`. This
/// renormalization is what realizes the motivating example's speedup on the
/// harmonic distribution (with the unnormalized formulas the balanced split
/// is never cheaper than the single search — see the `motivating` experiment
/// for both computations side by side).
///
/// Returns `(ℓ, ρ_f, ρ_r)` at the balance point inside the feasible domain
/// `ℓ ∈ (i1 − frac_r, frac_f)` (thresholds must stay below 1).
pub fn balance_split_normalized(
    i_f: f64,
    i_r: f64,
    i1: f64,
    frac_f: f64,
    frac_r: f64,
) -> (f64, f64, f64) {
    assert!(i_f > 0.0 && i_r > 0.0 && i1 > 0.0 && i1 < 1.0);
    assert!(frac_f > 0.0 && frac_r > 0.0 && (frac_f + frac_r - 1.0).abs() < 1e-6);
    let rho_f = |l: f64| (l / frac_f).ln() / (i_f / frac_f).ln();
    let rho_r = |l: f64| ((i1 - l) / frac_r).ln() / (i_r / frac_r).ln();
    let eps = 1e-12;
    let mut lo = (i1 - frac_r).max(0.0) + eps;
    let mut hi = i1.min(frac_f) - eps;
    assert!(
        lo < hi,
        "infeasible split: i1={i1} frac_f={frac_f} frac_r={frac_r}"
    );
    // rho_f decreases and rho_r increases in l; bisect the crossing.
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if rho_f(mid) - rho_r(mid) >= 0.0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let l = 0.5 * (lo + hi);
    (l, rho_f(l), rho_r(l))
}

/// Parameters for [`SplitIndex`].
#[derive(Clone, Copy, Debug)]
pub struct SplitParams {
    /// Universe cut: dims `< cut` are the frequent part.
    pub cut: u32,
    /// Overall Braun-Blanquet threshold `i₁`.
    pub i1: f64,
    /// Split point `ℓ`; `None` = balance automatically from the profile.
    pub ell: Option<f64>,
    /// Index tuning.
    pub options: IndexOptions,
}

/// Two-part search structure from the motivating example: an adversarial LSF
/// index per half, full-vector verification at `i₁`.
pub struct SplitIndex {
    vectors: Vec<SparseVec>,
    freq: LsfIndex<AdversarialScheme>,
    rare: LsfIndex<AdversarialScheme>,
    cut: u32,
    i1: f64,
    ell: f64,
}

impl SplitIndex {
    /// Builds both half-indexes.
    ///
    /// The sub-thresholds are the expected Braun-Blanquet levels induced by
    /// `ℓ`: `b_f = ℓ·E|q| / E|q_f|` and `b_r = (i₁−ℓ)·E|q| / E|q_r|`,
    /// clamped into `(0, 1]`.
    pub fn build<R: Rng + ?Sized>(
        dataset: &Dataset,
        profile: &BernoulliProfile,
        params: SplitParams,
        rng: &mut R,
    ) -> Self {
        let cut = params.cut;
        assert!(
            (cut as usize) > 0 && (cut as usize) < profile.d(),
            "cut must split the universe"
        );
        let ps = profile.ps();
        let w_f: f64 = ps[..cut as usize].iter().sum();
        let w_r: f64 = ps[cut as usize..].iter().sum();
        let w = w_f + w_r;
        let i_f: f64 = ps[..cut as usize].iter().map(|p| p * p).sum::<f64>() / w;
        let i_r: f64 = ps[cut as usize..].iter().map(|p| p * p).sum::<f64>() / w;
        let ell = params.ell.unwrap_or_else(|| {
            balance_split_normalized(i_f.min(0.999), i_r.min(0.999), params.i1, w_f / w, w_r / w).0
        });
        assert!(
            ell > 0.0 && ell < params.i1,
            "ell must lie in (0, i1), got {ell}"
        );
        let b_f = (ell * w / w_f).clamp(1e-6, 1.0);
        let b_r = ((params.i1 - ell) * w / w_r).clamp(1e-6, 1.0);

        let freq_profile = BernoulliProfile::new(ps[..cut as usize].to_vec())
            // lint:allow(no-panic-in-lib, the slice comes from an already-validated profile so every p is in range)
            .expect("frequent sub-profile");
        let rare_profile = BernoulliProfile::new(ps[cut as usize..].to_vec())
            // lint:allow(no-panic-in-lib, the slice comes from an already-validated profile so every p is in range)
            .expect("rare sub-profile");

        let mut freq_vecs = Vec::with_capacity(dataset.n());
        let mut rare_vecs = Vec::with_capacity(dataset.n());
        for x in dataset.vectors() {
            let (f, r) = x.split_at_dim(cut);
            freq_vecs.push(f);
            rare_vecs.push(shift_down(&r, cut));
        }

        let n = dataset.n().max(2);
        let freq = LsfIndex::build(
            freq_vecs,
            freq_profile.clone(),
            AdversarialScheme::new(b_f, n, &freq_profile),
            0.0, // verification happens on full vectors
            params.options,
            rng,
        );
        let rare = LsfIndex::build(
            rare_vecs,
            rare_profile.clone(),
            AdversarialScheme::new(b_r, n, &rare_profile),
            0.0,
            params.options,
            rng,
        );
        Self {
            vectors: dataset.vectors().to_vec(),
            freq,
            rare,
            cut,
            i1: params.i1,
            ell,
        }
    }

    /// The split parameter `ℓ` in use (balanced or user-supplied).
    pub fn ell(&self) -> f64 {
        self.ell
    }

    fn project(&self, q: &SparseVec) -> (SparseVec, SparseVec) {
        let (f, r) = q.split_at_dim(self.cut);
        (f, shift_down(&r, self.cut))
    }
}

/// Re-bases a vector of dims `≥ cut` to start at 0 (to index the rare
/// sub-profile).
fn shift_down(v: &SparseVec, cut: u32) -> SparseVec {
    SparseVec::from_sorted(v.iter().map(|i| i - cut).collect())
}

impl SetSimilaritySearch for SplitIndex {
    fn search(&self, q: &SparseVec) -> Option<Match> {
        let (qf, qr) = self.project(q);
        let mut hit = None;
        for (index, sub_q) in [(&self.freq, &qf), (&self.rare, &qr)] {
            let _ = index.walk(PassSource::Query(sub_q), ProbeControl::FIRST, |_, _, id| {
                let sim = similarity::braun_blanquet(&self.vectors[id as usize], q);
                if sim >= self.i1 {
                    hit = Some(Match {
                        id: id as usize,
                        similarity: sim,
                    });
                }
                hit.is_some()
            });
            if hit.is_some() {
                break;
            }
        }
        hit
    }

    fn search_all(&self, q: &SparseVec) -> Vec<Match> {
        let (qf, qr) = self.project(q);
        let mut seen = skewsearch_hashing::FxHashSet::default();
        let mut out = Vec::new();
        for (index, sub_q) in [(&self.freq, &qf), (&self.rare, &qr)] {
            let _ = index.walk(PassSource::Query(sub_q), ProbeControl::ALL, |_, _, id| {
                if seen.insert(id) {
                    let sim = similarity::braun_blanquet(&self.vectors[id as usize], q);
                    if sim >= self.i1 {
                        out.push(Match {
                            id: id as usize,
                            similarity: sim,
                        });
                    }
                }
                true
            });
        }
        out
    }

    /// The two sub-indexes' accounting, plus this wrapper's own vector
    /// copies (each sub-index already counts its own clones).
    fn memory_stats(&self) -> crate::traits::MemoryStats {
        let freq = self.freq.memory_stats();
        let rare = self.rare.memory_stats();
        let own_vectors = self.vectors.capacity() * std::mem::size_of::<SparseVec>()
            + self
                .vectors
                .iter()
                .map(|v| std::mem::size_of_val(v.dims()))
                .sum::<usize>();
        crate::traits::MemoryStats {
            posting_bytes: freq.posting_bytes + rare.posting_bytes,
            vector_bytes: freq.vector_bytes + rare.vector_bytes + own_vectors,
            aux_bytes: freq.aux_bytes + rare.aux_bytes,
        }
    }

    fn threshold(&self) -> f64 {
        self.i1
    }

    fn len(&self) -> usize {
        self.vectors.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::Repetitions;
    use rand::{rngs::StdRng, SeedableRng};
    use skewsearch_datagen::correlated_query;

    #[test]
    fn balance_split_equalizes_exponents() {
        let (l, rf, rr) = balanced_exponents(0.3, 0.02, 0.5);
        assert!((rf - rr).abs() < 1e-9, "rf={rf} rr={rr}");
        assert!(l > 0.0 && l < 0.5);
    }

    #[test]
    fn balance_split_prefers_the_rare_side_for_mass() {
        // Rare side has much smaller background intersection, so the rare
        // search is cheaper per unit threshold: the balanced ℓ gives the
        // frequent side *more* of the required overlap (ρ_f shrinks with ℓ).
        let l_skewed = balance_split(0.3, 0.001, 0.5);
        let l_even = balance_split(0.1, 0.1, 0.5);
        assert!((l_even - 0.25).abs() < 1e-9, "symmetric case splits evenly");
        assert!(l_skewed > l_even, "l_skewed={l_skewed}");
    }

    #[test]
    fn split_index_finds_correlated_neighbor_on_harmonic_data() {
        // The motivating example's setting: harmonic frequencies.
        let profile = BernoulliProfile::harmonic(3000, 0.5).unwrap();
        let mut rng = StdRng::seed_from_u64(51);
        let ds = Dataset::generate(&profile, 250, &mut rng);
        let alpha = 0.9;
        let params = SplitParams {
            cut: 30,
            i1: alpha / 1.4,
            ell: None,
            options: IndexOptions {
                repetitions: Repetitions::Fixed(10),
                ..IndexOptions::default()
            },
        };
        let index = SplitIndex::build(&ds, &profile, params, &mut rng);
        let mut hits = 0;
        let trials = 30;
        for t in 0..trials {
            let target = t % ds.n();
            let q = correlated_query(ds.vector(target), &profile, alpha, &mut rng);
            if let Some(m) = index.search(&q) {
                assert!(m.similarity >= index.threshold());
                if m.id == target {
                    hits += 1;
                }
            }
        }
        assert!(hits >= trials / 2, "hits={hits}/{trials}");
    }

    #[test]
    fn search_all_verifies_at_full_threshold() {
        let profile = BernoulliProfile::harmonic(500, 0.5).unwrap();
        let mut rng = StdRng::seed_from_u64(52);
        let ds = Dataset::generate(&profile, 100, &mut rng);
        let params = SplitParams {
            cut: 10,
            i1: 0.5,
            ell: Some(0.25),
            options: IndexOptions {
                repetitions: Repetitions::Fixed(4),
                ..IndexOptions::default()
            },
        };
        let index = SplitIndex::build(&ds, &profile, params, &mut rng);
        assert_eq!(index.ell(), 0.25);
        let q = ds.vector(0).clone();
        let all = index.search_all(&q);
        // The identical vector must qualify whenever probing reaches it; all
        // results clear i1.
        for m in &all {
            assert!(m.similarity >= 0.5);
        }
    }

    #[test]
    #[should_panic(expected = "cut must split")]
    fn rejects_degenerate_cut() {
        let profile = BernoulliProfile::harmonic(100, 0.5).unwrap();
        let mut rng = StdRng::seed_from_u64(53);
        let ds = Dataset::generate(&profile, 10, &mut rng);
        let params = SplitParams {
            cut: 0,
            i1: 0.5,
            ell: None,
            options: IndexOptions::default(),
        };
        let _ = SplitIndex::build(&ds, &profile, params, &mut rng);
    }
}
