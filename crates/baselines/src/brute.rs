//! Exact brute-force scan — the correctness oracle.

use skewsearch_core::{Match, SetSimilaritySearch};
use skewsearch_sets::{similarity, SparseVec};

/// Linear scan over all vectors with exact Braun-Blanquet verification.
/// `O(n · d̄)` per query; never wrong, never fast.
pub struct BruteForce {
    vectors: Vec<SparseVec>,
    threshold: f64,
}

impl BruteForce {
    /// Wraps the dataset (no preprocessing).
    pub fn new(vectors: Vec<SparseVec>, threshold: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&threshold),
            "threshold must lie in [0,1]"
        );
        Self { vectors, threshold }
    }
}

impl SetSimilaritySearch for BruteForce {
    fn search(&self, q: &SparseVec) -> Option<Match> {
        self.vectors.iter().enumerate().find_map(|(id, x)| {
            let sim = similarity::braun_blanquet(x, q);
            (sim >= self.threshold).then_some(Match {
                id,
                similarity: sim,
            })
        })
    }

    fn search_all(&self, q: &SparseVec) -> Vec<Match> {
        self.vectors
            .iter()
            .enumerate()
            .filter_map(|(id, x)| {
                let sim = similarity::braun_blanquet(x, q);
                (sim >= self.threshold).then_some(Match {
                    id,
                    similarity: sim,
                })
            })
            .collect()
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

    fn v(dims: &[u32]) -> SparseVec {
        SparseVec::from_unsorted(dims.to_vec())
    }

    #[test]
    fn finds_exact_matches_and_respects_threshold() {
        let b = BruteForce::new(vec![v(&[1, 2, 3]), v(&[4, 5, 6]), v(&[1, 2])], 0.6);
        let q = v(&[1, 2, 3]);
        let hit = b.search(&q).unwrap();
        assert_eq!(hit.id, 0);
        assert_eq!(hit.similarity, 1.0);
        let all = b.search_all(&q);
        assert_eq!(all.len(), 2); // ids 0 and 2 (sim 2/3 >= 0.6)
    }

    #[test]
    fn empty_dataset() {
        let b = BruteForce::new(vec![], 0.5);
        assert!(b.is_empty());
        assert!(b.search(&v(&[1])).is_none());
    }
}
