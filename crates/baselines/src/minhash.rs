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

use rand::{Rng, SeedableRng};
use skewsearch_core::persist::{
    fnv1a64, kind, load_container, read_bucket_map, write_bucket_map, write_container, Writer,
};
use skewsearch_core::{
    DeadlineExceeded, Match, PassSource, PersistError, ProbeControl, QueryPlan,
    SetSimilaritySearch, TaggedMatch,
};
use skewsearch_datagen::Dataset;
use skewsearch_hashing::{FxHashMap, FxHashSet, PairwiseU64};
use skewsearch_rho::rho_minhash;
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
    /// Worker threads [`SetSimilaritySearch::search_batch`] answers a batch
    /// on (`0` = one per available core). Saved with the index. Batch
    /// results are identical for any worker count.
    pub query_threads: usize,
}

impl MinHashParams {
    /// Validates `0 < b₂ < b₁ ≤ 1`.
    pub fn new(b1: f64, b2: f64) -> Result<Self, String> {
        if !(0.0 < b2 && b2 < b1 && b1 <= 1.0) {
            return Err(format!("need 0 < b2 < b1 <= 1, got b1={b1} b2={b2}"));
        }
        Ok(Self {
            b1,
            b2,
            query_threads: 0,
        })
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

    /// The band's hash count and min-wise hash coefficients.
    fn write_hashes(&self, w: &mut Writer) {
        w.put_u64(self.hashes.len() as u64);
        for h in &self.hashes {
            let (a, b) = h.coefficients();
            w.put_u128(a);
            w.put_u128(b);
        }
    }
}

/// MinHash LSH index.
pub struct MinHashLsh {
    vectors: Vec<SparseVec>,
    bands: Vec<Band>,
    threshold: f64,
    rows: usize,
    params: MinHashParams,
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
            rows: r,
            params,
        }
    }

    /// The banding plan in use `(rows r, bands L)`.
    pub fn plan(&self) -> (usize, usize) {
        (self.rows, self.bands.len())
    }

    /// The theoretical exponent `ρ = ln j₁ / ln j₂`.
    pub fn predicted_rho(&self) -> f64 {
        let (j1, j2) = self.params.jaccard_thresholds();
        rho_minhash(j1, j2)
    }

    /// The band walk every query surface runs: per band, the query's
    /// signature — from `source`'s plan, or hashed just before the band —
    /// and its bucket, feeding each *distinct* candidate to `visit` with its
    /// discovery coordinate `(band, id)`. Each band probes exactly one
    /// bucket and ids ascend within it, so `(band, 0, id)` totally orders
    /// candidate discovery — the tag contract the sharding layer's merge
    /// protocol needs.
    ///
    /// `visit` returns whether the candidate is a match; under
    /// [`ProbeControl::first_only`] the walk stops after the first one. The
    /// deadline in `ctl` is polled before the first band and between bands.
    ///
    /// # Panics
    /// Panics if a planned plan's pass count differs from the band count.
    pub fn walk(
        &self,
        source: PassSource<'_>,
        ctl: ProbeControl<'_>,
        mut visit: impl FnMut(u32, u32) -> bool,
    ) -> Result<(), DeadlineExceeded> {
        let planned = source.planned_passes();
        if let Some(passes) = planned {
            assert_eq!(
                passes.len(),
                self.bands.len(),
                "QueryPlan pass count does not match this index's bands"
            );
        }
        let mut seen = FxHashSet::default();
        ctl.poll()?;
        for (pass, band) in self.bands.iter().enumerate() {
            if pass > 0 {
                ctl.poll()?;
            }
            let signature;
            let keys = match planned {
                Some(passes) => &passes[pass][..],
                None => {
                    signature = band.signature(source.query());
                    signature.as_slice()
                }
            };
            for key in keys {
                let Some(bucket) = band.buckets.get(key) else {
                    continue;
                };
                for &id in bucket {
                    if seen.insert(id) && visit(pass as u32, id) && ctl.first_only {
                        return Ok(());
                    }
                }
            }
        }
        Ok(())
    }

    /// Stage 1 of the enumerate→probe→verify pipeline for MinHash: the
    /// "enumeration" is the `L · r` min-wise hash evaluations producing one
    /// band signature each, so the plan carries one single-key list per band
    /// (empty for the empty query, which has no signature).
    ///
    /// The plan is valid for this index and for any
    /// [`Shardable::shard_of_ids`](skewsearch_core::Shardable::shard_of_ids)
    /// shard of it (shards keep the band hash functions).
    pub fn plan_query(&self, q: &SparseVec) -> QueryPlan {
        let passes = self
            .bands
            .iter()
            .map(|band| band.signature(q).map_or_else(Vec::new, |sig| vec![sig]))
            .collect();
        QueryPlan::from_passes(q.clone(), passes)
    }

    /// Distinct candidate count for a query (cost proxy for experiments).
    pub fn candidate_count(&self, q: &SparseVec) -> usize {
        let mut count = 0usize;
        let _ = self.walk(PassSource::Query(q), ProbeControl::ALL, |_, _| {
            count += 1;
            true
        });
        count
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

    /// Stage 1: one signature per band — see [`MinHashLsh::plan_query`].
    fn plan_query(&self, q: &SparseVec) -> QueryPlan {
        MinHashLsh::plan_query(self, q)
    }

    /// [`MinHashLsh::walk`] with the shared verify site as its visitor:
    /// genuine `(band, bucket)` tags (one bucket per band, so `step` is 0).
    fn probe_passes(
        &self,
        source: PassSource<'_>,
        ctl: ProbeControl<'_>,
    ) -> Result<Vec<TaggedMatch>, DeadlineExceeded> {
        let q = source.query();
        let mut out = Vec::new();
        self.walk(source, ctl, |pass, id| match self.verified(q, id) {
            Some(hit) => {
                out.push(TaggedMatch { pass, step: 0, hit });
                true
            }
            None => false,
        })?;
        Ok(out)
    }

    /// Runs on [`MinHashParams::query_threads`] workers.
    fn search_batch(&self, queries: &[SparseVec]) -> Vec<Vec<Match>> {
        skewsearch_core::batch_map(queries, self.params.query_threads, |q| self.search_all(q))
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

impl skewsearch_core::Shardable for MinHashLsh {
    fn shard_of_ids(&self, ids: &[u32]) -> Self {
        let local_of = skewsearch_core::shard::local_id_table(ids, self.vectors.len());
        let bands = self
            .bands
            .iter()
            .map(|band| Band {
                hashes: band.hashes.clone(),
                buckets: band
                    .buckets
                    .iter()
                    .filter_map(|(&sig, bucket)| {
                        skewsearch_core::shard::remap_bucket(bucket, &local_of)
                            .map(|local| (sig, local))
                    })
                    .collect(),
            })
            .collect();
        Self {
            vectors: ids
                .iter()
                .map(|&g| self.vectors[g as usize].clone())
                .collect(),
            bands,
            threshold: self.threshold,
            rows: self.rows,
            params: self.params,
        }
    }

    fn partition_key(&self, id: u32) -> u64 {
        skewsearch_core::set_partition_key(&self.vectors[id as usize])
    }

    /// FNV-1a-64 over the row count and every band's hash coefficients.
    fn plan_digest(&self) -> u64 {
        let mut w = Writer::new();
        w.put_u64(self.rows as u64);
        for band in &self.bands {
            band.write_hashes(&mut w);
        }
        fnv1a64(&w.into_payload())
    }
}

impl skewsearch_core::Persist for MinHashLsh {
    /// Kind-5 container — MinHash's own section type: the thresholds and
    /// banding parameters, the indexed vectors, and per band its min-wise
    /// hash coefficients plus its signature buckets (the shared sorted
    /// posting-map encoding) — see `docs/PERSISTENCE.md` §6.
    fn save(&self, path: &std::path::Path) -> Result<(), PersistError> {
        let mut w = Writer::new();
        w.put_f64(self.threshold);
        w.put_u64(self.rows as u64);
        w.put_f64(self.params.b1);
        w.put_f64(self.params.b2);
        w.put_f64(BAND_FACTOR);
        w.put_u64(MAX_BANDS as u64);
        w.put_u64(self.params.query_threads as u64);
        w.put_sets(&self.vectors);
        w.put_u64(self.bands.len() as u64);
        for band in &self.bands {
            band.write_hashes(&mut w);
            write_bucket_map(&mut w, &band.buckets);
        }
        write_container(path, kind::MINHASH, &w.into_payload())
    }

    fn load(path: &std::path::Path) -> Result<Self, PersistError> {
        load_container(path, kind::MINHASH, |r| {
            let threshold = r.get_f64()?;
            let rows = r.get_u64()? as usize;
            let b1 = r.get_f64()?;
            let b2 = r.get_f64()?;
            // The banding words are fixed: a file naming other values would
            // not save again to the same bytes.
            let band_factor = r.get_f64()?;
            let max_bands = r.get_u64()?;
            let query_threads = r.get_u64()? as usize;
            if !(0.0 < b2 && b2 < b1 && b1 <= 1.0) {
                return Err(PersistError::Malformed(
                    "minhash thresholds violate 0<b2<b1<=1",
                ));
            }
            if band_factor != BAND_FACTOR || max_bands != MAX_BANDS as u64 || rows == 0 {
                return Err(PersistError::Malformed(
                    "minhash rows is 0 or a banding word is not the fixed one",
                ));
            }
            let vectors = r.get_sets()?;
            let n = vectors.len();
            let band_count = r.get_u64()?;
            let mut bands: Vec<Band> = Vec::new();
            for _ in 0..band_count {
                let hash_count = r.get_u64()? as usize;
                if hash_count != rows {
                    return Err(PersistError::Malformed(
                        "band hash count does not match the row count",
                    ));
                }
                let mut hashes = Vec::with_capacity(rows.min(1024));
                for _ in 0..hash_count {
                    let a = r.get_u128()?;
                    let b = r.get_u128()?;
                    hashes.push(PairwiseU64::from_coefficients(a, b));
                }
                let buckets = read_bucket_map(r, n, 0)?;
                bands.push(Band { hashes, buckets });
            }
            Ok(Self {
                vectors,
                bands,
                threshold,
                rows,
                params: MinHashParams {
                    b1,
                    b2,
                    query_threads,
                },
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use skewsearch_datagen::{correlated_query, BernoulliProfile};

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
    fn planned_probe_matches_fused_search() {
        let profile = BernoulliProfile::uniform(500, 0.06).unwrap();
        let mut rng = StdRng::seed_from_u64(75);
        let ds = Dataset::generate(&profile, 150, &mut rng);
        let index = MinHashLsh::build(&ds, MinHashParams::new(0.6, 0.2).unwrap(), &mut rng);
        for t in 0..10 {
            let q = correlated_query(ds.vector(t * 7), &profile, 0.9, &mut rng);
            let plan = SetSimilaritySearch::plan_query(&index, &q);
            assert_eq!(plan.pass_count(), index.plan().1);
            assert_eq!(
                SetSimilaritySearch::probe_plan_tagged(&index, &plan),
                index.search_all_tagged(&q)
            );
            assert_eq!(
                index.probe_passes(PassSource::Plan(&plan), ProbeControl::FIRST),
                index.probe_passes(PassSource::Query(&q), ProbeControl::FIRST)
            );
        }
        // Empty query: no signatures, so every planned pass is empty.
        let plan = SetSimilaritySearch::plan_query(&index, &SparseVec::empty());
        assert_eq!(plan.key_count(), 0);
        assert!(index.probe_plan(&plan).is_empty());
    }

    #[test]
    fn empty_query_finds_nothing() {
        let profile = BernoulliProfile::uniform(50, 0.1).unwrap();
        let mut rng = StdRng::seed_from_u64(73);
        let ds = Dataset::generate(&profile, 20, &mut rng);
        let params = MinHashParams::new(0.5, 0.1).unwrap();
        let index = MinHashLsh::build(&ds, params, &mut rng);
        assert!(index.search(&SparseVec::empty()).is_none());
        assert_eq!(index.candidate_count(&SparseVec::empty()), 0);
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
        assert!(loose.candidate_count(&q) >= strict.candidate_count(&q));
    }
}
