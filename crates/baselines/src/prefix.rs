//! Exact prefix filtering (Bayardo, Ma, Srikant — \[11\] in the paper).
//!
//! The canonical skew-exploiting heuristic (§1.2): order the universe by
//! *increasing* document frequency (rarest first) and observe that if
//! `|x ∩ q| ≥ t` then the `(|x| − t + 1)`-prefix of `x` and the
//! `(|q| − t + 1)`-prefix of `q` (in that global order) must intersect.
//! Indexing only prefixes keeps posting lists short precisely when the data
//! is skewed — and degenerates toward a full inverted scan (`Ω(n)` work) when
//! all frequencies are comparable, which is the regime where the paper's
//! structure keeps polynomial savings.
//!
//! For Braun-Blanquet threshold `b₁`, a match requires
//! `|x ∩ q| ≥ ⌈b₁·max(|x|,|q|)⌉ ≥ ⌈b₁|x|⌉`, so each side safely uses its own
//! `t = ⌈b₁|·|⌉`. The result is **exact**: no false negatives.

use skewsearch_core::{Match, SetSimilaritySearch};
use skewsearch_datagen::Dataset;
use skewsearch_hashing::FxHashSet;
use skewsearch_sets::{similarity, SparseVec};

/// Exact prefix-filtering index.
pub struct PrefixFilterIndex {
    vectors: Vec<SparseVec>,
    /// rank\[dim\] = position in the rarest-first global order.
    rank: Vec<u32>,
    /// posting\[dim\] = ids whose *prefix* contains `dim`.
    postings: Vec<Vec<u32>>,
    threshold: f64,
}

impl PrefixFilterIndex {
    /// Builds the index from document frequencies of `dataset` itself.
    pub fn build(dataset: &Dataset, threshold: f64) -> Self {
        assert!(
            threshold > 0.0 && threshold <= 1.0,
            "threshold must lie in (0,1], got {threshold}"
        );
        let d = dataset.d();
        // Document frequencies, then rarest-first ranking (ties by dim id
        // for determinism).
        let mut df = vec![0u32; d];
        for x in dataset.vectors() {
            for i in x.iter() {
                df[i as usize] += 1;
            }
        }
        let mut order: Vec<u32> = (0..d as u32).collect();
        order.sort_by_key(|&i| (df[i as usize], i));
        let mut rank = vec![0u32; d];
        for (pos, &dim) in order.iter().enumerate() {
            rank[dim as usize] = pos as u32;
        }

        let mut postings: Vec<Vec<u32>> = vec![Vec::new(); d];
        let vectors: Vec<SparseVec> = dataset.vectors().to_vec();
        for (id, x) in vectors.iter().enumerate() {
            for dim in prefix_dims(x, &rank, threshold) {
                postings[dim as usize].push(id as u32);
            }
        }
        Self {
            vectors,
            rank,
            postings,
            threshold,
        }
    }

    /// Feeds every distinct candidate sharing a prefix dimension with `q` to
    /// `visit`; stops on `false`.
    pub fn probe(&self, q: &SparseVec, mut visit: impl FnMut(u32) -> bool) {
        let mut seen = FxHashSet::default();
        'outer: for dim in prefix_dims(q, &self.rank, self.threshold) {
            for &id in self.postings.get(dim as usize).into_iter().flatten() {
                if seen.insert(id) && !visit(id) {
                    break 'outer;
                }
            }
        }
    }
}

/// The prefix of `x` in rarest-first order for threshold `b₁`:
/// its `|x| − ⌈b₁|x|⌉ + 1` globally rarest set dimensions. Dimensions
/// outside the indexed universe rank after every known one (in dimension
/// order) — any fixed total order keeps prefix filtering exact, and they
/// have no postings.
fn prefix_dims(x: &SparseVec, rank: &[u32], b1: f64) -> Vec<u32> {
    let w = x.weight();
    if w == 0 {
        return Vec::new();
    }
    let t = (b1 * w as f64).ceil() as usize;
    let keep = w - t.min(w) + 1;
    let mut dims: Vec<u32> = x.dims().to_vec();
    dims.sort_by_key(|&i| rank.get(i as usize).map_or(u64::MAX, |&r| r as u64));
    dims.truncate(keep);
    dims
}

impl SetSimilaritySearch for PrefixFilterIndex {
    fn search(&self, q: &SparseVec) -> Option<Match> {
        let mut hit = None;
        self.probe(q, |id| {
            let sim = similarity::braun_blanquet(&self.vectors[id as usize], q);
            if sim >= self.threshold {
                hit = Some(Match {
                    id: id as usize,
                    similarity: sim,
                });
                false
            } else {
                true
            }
        });
        hit
    }

    fn search_all(&self, q: &SparseVec) -> Vec<Match> {
        let mut out = Vec::new();
        self.probe(q, |id| {
            let sim = similarity::braun_blanquet(&self.vectors[id as usize], q);
            if sim >= self.threshold {
                out.push(Match {
                    id: id as usize,
                    similarity: sim,
                });
            }
            true
        });
        out
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
    use crate::brute::BruteForce;
    use rand::{rngs::StdRng, SeedableRng};
    use skewsearch_datagen::BernoulliProfile;

    fn v(dims: &[u32]) -> SparseVec {
        SparseVec::from_unsorted(dims.to_vec())
    }

    /// Distinct candidates the prefix probe surfaces for `q`.
    fn candidate_count(index: &PrefixFilterIndex, q: &SparseVec) -> usize {
        let mut count = 0usize;
        index.probe(q, |_| {
            count += 1;
            true
        });
        count
    }

    #[test]
    fn prefix_length_formula() {
        // w = 10, b1 = 0.7 → t = 7 → prefix = 4.
        let rank: Vec<u32> = (0..20).collect();
        let x = v(&(0..10).collect::<Vec<_>>());
        assert_eq!(prefix_dims(&x, &rank, 0.7).len(), 4);
        // b1 = 1.0 → prefix of length 1 (exact duplicates share the rarest).
        assert_eq!(prefix_dims(&x, &rank, 1.0).len(), 1);
    }

    #[test]
    fn prefix_picks_rarest_dims() {
        // Rank makes high dim ids the rarest.
        let d = 10usize;
        let rank: Vec<u32> = (0..d as u32).rev().collect();
        let x = v(&[0, 5, 9]);
        let pre = prefix_dims(&x, &rank, 0.9); // t=3, keep 1
        assert_eq!(pre, vec![9]);
    }

    #[test]
    fn exactness_no_false_negatives_vs_brute_force() {
        let profile = BernoulliProfile::two_block(300, 0.2, 0.02).unwrap();
        let mut rng = StdRng::seed_from_u64(81);
        let ds = Dataset::generate(&profile, 250, &mut rng);
        let b1 = 0.5;
        let index = PrefixFilterIndex::build(&ds, b1);
        let brute = BruteForce::new(ds.vectors().to_vec(), b1);
        // Self-joins style check: every vector queried against the index
        // must retrieve exactly the brute-force result set.
        for t in 0..60 {
            let q = ds.vector(t * 3 % ds.n());
            let mut got: Vec<usize> = index.search_all(q).into_iter().map(|m| m.id).collect();
            let mut want: Vec<usize> = brute.search_all(q).into_iter().map(|m| m.id).collect();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "mismatch for query {t}");
        }
    }

    #[test]
    fn skew_shrinks_candidate_sets() {
        // Same expected weight (~35), one profile with a long rare tail (each
        // vector carries ~20 rare dims with tiny posting lists) vs a flat
        // dense profile: prefix filtering thrives only on the former — the
        // paper's point that the heuristic's power comes from skew.
        let n = 400;
        let skewed = BernoulliProfile::blocks(&[(50, 0.3), (2000, 0.01)]).unwrap();
        let flat = BernoulliProfile::uniform(100, 0.35).unwrap();
        let mut rng = StdRng::seed_from_u64(82);
        let ds_skew = Dataset::generate(&skewed, n, &mut rng);
        let ds_flat = Dataset::generate(&flat, n, &mut rng);
        let i_skew = PrefixFilterIndex::build(&ds_skew, 0.5);
        let i_flat = PrefixFilterIndex::build(&ds_flat, 0.5);
        let mut c_skew = 0usize;
        let mut c_flat = 0usize;
        for t in 0..50 {
            c_skew += candidate_count(&i_skew, ds_skew.vector(t));
            c_flat += candidate_count(&i_flat, ds_flat.vector(t));
        }
        assert!(
            (c_skew as f64) < 0.3 * c_flat as f64,
            "skew={c_skew} flat={c_flat}"
        );
    }

    #[test]
    fn empty_query_and_dataset_edge_cases() {
        let ds = Dataset::from_vectors(vec![v(&[1, 2])], 5);
        let index = PrefixFilterIndex::build(&ds, 0.5);
        assert!(index.search(&SparseVec::empty()).is_none());
        assert_eq!(candidate_count(&index, &SparseVec::empty()), 0);
        assert_eq!(index.len(), 1);
    }
}
