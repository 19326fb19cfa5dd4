//! MinHash LSH (banding) — Broder's scheme (\[13, 14\] in the paper).
//!
//! The classic approach to set similarity search: each vector gets `L` band
//! signatures, each the concatenation of `r` independent min-wise hashes; a
//! band collision makes two vectors candidates. A pair at Jaccard similarity
//! `j` collides in one band with probability `j^r`, so with
//! `r = ⌈ln n / ln(1/j₂)⌉` and `L = Θ(n^ρ)`, `ρ = ln j₁ / ln j₂`, the scheme
//! solves the `(j₁, j₂)`-approximate problem. Chosen Path (and a fortiori
//! the paper's structure) improves on this for sparse sets (§1.2).
//!
//! The index speaks Braun-Blanquet on the outside (like every structure in
//! the workspace): thresholds are converted through the equal-weight
//! correspondence `J = B/(2−B)` that the paper invokes for fixed-weight
//! vectors.
//!
//! MinHash is a plain baseline: it hashes each band's signature lazily
//! inside its probe, keeps the trait's default (unplanned) query plan, and
//! is neither shardable, mutable nor persistable. Sharding and plan
//! broadcast belong to the LSF family, whose per-repetition filter
//! enumeration they exist to share, and so do the `.skx` containers.

use rand::{Rng, SeedableRng};
use skewsearch_core::{DeadlineExceeded, Match, ProbeControl, SetSimilaritySearch, TaggedMatch};
use skewsearch_datagen::Dataset;
use skewsearch_hashing::{FxHashMap, FxHashSet, PairwiseU64};
use skewsearch_sets::{similarity, SparseVec};

/// Multiplier on the theoretical band count `n^ρ` (≈ `ln(1/δ)` for failure
/// probability `δ`).
const BAND_FACTOR: f64 = 3.0;

/// Hard cap on the band count `L`, to bound memory.
const MAX_BANDS: usize = 4096;

/// Parameters for [`MinHashLsh`].
#[derive(Clone, Copy, Debug)]
pub struct MinHashParams {
    /// Braun-Blanquet threshold a result must meet (converted internally to
    /// Jaccard `j₁ = b₁/(2−b₁)`).
    pub b1: f64,
    /// Background Braun-Blanquet similarity (converted to `j₂`).
    pub b2: f64,
}

impl MinHashParams {
    /// Validates `0 < b₂ < b₁ ≤ 1`.
    pub fn new(b1: f64, b2: f64) -> Result<Self, String> {
        if !(0.0 < b2 && b2 < b1 && b1 <= 1.0) {
            return Err(format!("need 0 < b2 < b1 <= 1, got b1={b1} b2={b2}"));
        }
        Ok(Self { b1, b2 })
    }

    /// The Jaccard thresholds `(j₁, j₂)` after conversion.
    pub fn jaccard_thresholds(&self) -> (f64, f64) {
        (
            similarity::braun_blanquet_to_jaccard_equal_weight(self.b1),
            similarity::braun_blanquet_to_jaccard_equal_weight(self.b2),
        )
    }

    /// The banding plan `(r, L)` for a dataset of `n` vectors:
    /// `r = ⌈ln n / ln(1/j₂)⌉`, `L = ⌈3 · j₁^{-r}⌉ ≈ Θ(n^ρ)`, at most 4096.
    pub fn plan(&self, n: usize) -> (usize, usize) {
        let (j1, j2) = self.jaccard_thresholds();
        let n = n.max(2) as f64;
        let r = (n.ln() / (1.0 / j2).ln()).ceil().max(1.0) as usize;
        let l = (BAND_FACTOR / j1.powi(r as i32)).ceil() as usize;
        (r, l.clamp(1, MAX_BANDS))
    }
}

/// One band: its `r` min-wise hash functions and its bucket table.
struct Band {
    hashes: Vec<PairwiseU64>,
    buckets: FxHashMap<u64, Vec<u32>>,
}

impl Band {
    /// The band signature of a vector, or `None` for empty vectors.
    fn signature(&self, x: &SparseVec) -> Option<u64> {
        if x.is_empty() {
            return None;
        }
        // Combine the r minima into one 64-bit key via sequential mixing.
        let mut key = 0xcbf29ce484222325u64;
        for h in &self.hashes {
            let m = x.iter().map(|i| h.hash(i as u64)).min()?;
            key = skewsearch_hashing::mix::combine64(key, m);
        }
        Some(key)
    }
}

/// MinHash LSH index.
pub struct MinHashLsh {
    vectors: Vec<SparseVec>,
    bands: Vec<Band>,
    threshold: f64,
}

impl MinHashLsh {
    /// Preprocesses the dataset: `O(n · L · r · d̄)` hashing.
    pub fn build<R: Rng + ?Sized>(dataset: &Dataset, params: MinHashParams, rng: &mut R) -> Self {
        let (r, l) = params.plan(dataset.n());
        let mut seed_rng = rand::rngs::StdRng::seed_from_u64(rng.random::<u64>());
        let mut bands: Vec<Band> = (0..l)
            .map(|_| Band {
                hashes: (0..r).map(|_| PairwiseU64::sample(&mut seed_rng)).collect(),
                buckets: FxHashMap::default(),
            })
            .collect();
        for (id, x) in dataset.vectors().iter().enumerate() {
            for band in bands.iter_mut() {
                if let Some(sig) = band.signature(x) {
                    band.buckets.entry(sig).or_default().push(id as u32);
                }
            }
        }
        Self {
            vectors: dataset.vectors().to_vec(),
            bands,
            threshold: params.b1,
        }
    }

    /// The band walk every query surface runs: per band, the query's
    /// signature, hashed just before the band, and its bucket, feeding each
    /// *distinct* candidate to `visit` with its discovery coordinate
    /// `(band, id)`. Each band probes exactly one bucket and ids ascend
    /// within it, so `(band, 0, id)` totally orders candidate discovery.
    ///
    /// `visit` returns whether the candidate is a match; under
    /// [`ProbeControl::first_only`] the walk stops after the first one. The
    /// deadline in `ctl` is polled before the first band and between bands.
    pub fn walk(
        &self,
        q: &SparseVec,
        ctl: ProbeControl<'_>,
        mut visit: impl FnMut(u32, u32) -> bool,
    ) -> Result<(), DeadlineExceeded> {
        let mut seen = FxHashSet::default();
        ctl.poll()?;
        for (pass, band) in self.bands.iter().enumerate() {
            if pass > 0 {
                ctl.poll()?;
            }
            let bucket = band.signature(q).and_then(|sig| band.buckets.get(&sig));
            for &id in bucket.into_iter().flatten() {
                if seen.insert(id) && visit(pass as u32, id) && ctl.first_only {
                    return Ok(());
                }
            }
        }
        Ok(())
    }

    /// Verifies candidate `id` against `q`: its [`Match`] iff the similarity
    /// clears the threshold — the single verification site every search and
    /// probe entry point shares.
    fn verified(&self, q: &SparseVec, id: u32) -> Option<Match> {
        let sim = similarity::braun_blanquet(&self.vectors[id as usize], q);
        (sim >= self.threshold).then_some(Match {
            id: id as usize,
            similarity: sim,
        })
    }
}

impl SetSimilaritySearch for MinHashLsh {
    /// Same candidate-handling contract as the LSF indexes: the walk
    /// deduplicates ids across bands before verification and matches appear
    /// in first-discovery order (bands in build order, then bucket insertion
    /// order).
    fn search_all(&self, q: &SparseVec) -> Vec<Match> {
        self.search_all_tagged(q)
            .into_iter()
            .map(|t| t.hit)
            .collect()
    }

    /// [`MinHashLsh::walk`] with the shared verify site as its visitor:
    /// genuine `(band, bucket)` tags (one bucket per band, so `step` is 0).
    /// It ignores `planned`: a plan from the trait's default `plan_query`
    /// carries none, so every probe hashes the signatures band by band.
    fn probe_passes(
        &self,
        q: &SparseVec,
        _planned: Option<&[Vec<u64>]>,
        ctl: ProbeControl<'_>,
    ) -> Result<Vec<TaggedMatch>, DeadlineExceeded> {
        let mut out = Vec::new();
        self.walk(q, ctl, |pass, id| match self.verified(q, id) {
            Some(hit) => {
                out.push(TaggedMatch { pass, step: 0, hit });
                true
            }
            None => false,
        })?;
        Ok(out)
    }

    /// Runs on one worker per available core.
    fn search_batch(&self, queries: &[SparseVec]) -> Vec<Vec<Match>> {
        skewsearch_core::batch_map(queries, 0, |q| self.search_all(q))
    }

    /// Band buckets as posting bytes, stored vectors, and per-band hash
    /// coefficients as aux — the same capacity-based accounting the LSF
    /// indexes report.
    fn memory_stats(&self) -> skewsearch_core::MemoryStats {
        let mut posting = 0usize;
        let mut aux = 0usize;
        for band in &self.bands {
            posting += band.buckets.capacity()
                * (std::mem::size_of::<u64>() + std::mem::size_of::<Vec<u32>>() + 1);
            posting += band
                .buckets
                // lint:allow(nondeterministic-iter, sum of bucket capacities is an order-independent reduction)
                .values()
                .map(|b| b.capacity() * std::mem::size_of::<u32>())
                .sum::<usize>();
            aux += band.hashes.capacity() * std::mem::size_of::<PairwiseU64>();
        }
        let vector_bytes = self.vectors.capacity() * std::mem::size_of::<SparseVec>()
            + self
                .vectors
                .iter()
                .map(|v| std::mem::size_of_val(v.dims()))
                .sum::<usize>();
        skewsearch_core::MemoryStats {
            posting_bytes: posting,
            vector_bytes,
            aux_bytes: aux,
        }
    }

    fn threshold(&self) -> f64 {
        self.threshold
    }

    fn len(&self) -> usize {
        self.vectors.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use skewsearch_datagen::{correlated_query, BernoulliProfile};

    /// Distinct candidates the band walk surfaces for `q`.
    fn candidate_count(index: &MinHashLsh, q: &SparseVec) -> usize {
        let mut count = 0usize;
        let _ = index.walk(q, ProbeControl::ALL, |_, _| {
            count += 1;
            true
        });
        count
    }

    #[test]
    fn params_validate_and_plan() {
        assert!(MinHashParams::new(0.5, 0.6).is_err());
        let p = MinHashParams::new(0.8, 0.2).unwrap();
        let (j1, j2) = p.jaccard_thresholds();
        assert!((j1 - 0.8 / 1.2).abs() < 1e-12);
        assert!((j2 - 0.2 / 1.8).abs() < 1e-12);
        let (r, l) = p.plan(10_000);
        assert!(r >= 1 && l >= 1);
        // r should be ~ ln(1e4)/ln(9) ≈ 4.2 → 5.
        assert_eq!(r, 5);
    }

    #[test]
    fn identical_vectors_always_collide() {
        let profile = BernoulliProfile::uniform(300, 0.1).unwrap();
        let mut rng = StdRng::seed_from_u64(71);
        let ds = Dataset::generate(&profile, 60, &mut rng);
        let params = MinHashParams::new(0.9, 0.15).unwrap();
        let index = MinHashLsh::build(&ds, params, &mut rng);
        for t in 0..20 {
            let q = ds.vector(t).clone();
            let hit = index.search(&q).expect("self-query must hit");
            assert!(hit.similarity >= 0.9);
        }
    }

    #[test]
    fn finds_correlated_neighbor() {
        let profile = BernoulliProfile::uniform(800, 0.05).unwrap();
        let mut rng = StdRng::seed_from_u64(72);
        let ds = Dataset::generate(&profile, 200, &mut rng);
        let alpha = 0.9;
        let (b1, b2) = skewsearch_rho::expected_similarities(&profile, alpha);
        // Verify slightly below the expected similarity to absorb noise.
        let params = MinHashParams::new(b1 * 0.8, b2).unwrap();
        let index = MinHashLsh::build(&ds, params, &mut rng);
        let mut hits = 0;
        let trials = 25;
        for t in 0..trials {
            let target = t % ds.n();
            let q = correlated_query(ds.vector(target), &profile, alpha, &mut rng);
            if index.search(&q).map(|m| m.id) == Some(target) {
                hits += 1;
            }
        }
        assert!(hits >= trials / 2, "hits={hits}/{trials}");
    }

    #[test]
    fn empty_query_finds_nothing() {
        let profile = BernoulliProfile::uniform(50, 0.1).unwrap();
        let mut rng = StdRng::seed_from_u64(73);
        let ds = Dataset::generate(&profile, 20, &mut rng);
        let params = MinHashParams::new(0.5, 0.1).unwrap();
        let index = MinHashLsh::build(&ds, params, &mut rng);
        assert!(index.search(&SparseVec::empty()).is_none());
        assert_eq!(candidate_count(&index, &SparseVec::empty()), 0);
    }

    #[test]
    fn candidate_count_grows_with_weaker_threshold() {
        let profile = BernoulliProfile::uniform(400, 0.08).unwrap();
        let mut rng = StdRng::seed_from_u64(74);
        let ds = Dataset::generate(&profile, 300, &mut rng);
        let strict = MinHashLsh::build(&ds, MinHashParams::new(0.9, 0.3).unwrap(), &mut rng);
        let loose = MinHashLsh::build(&ds, MinHashParams::new(0.4, 0.05).unwrap(), &mut rng);
        let q = ds.vector(0).clone();
        // The loose plan uses shorter bands → drastically more candidates.
        assert!(candidate_count(&loose, &q) >= candidate_count(&strict, &q));
    }
}
