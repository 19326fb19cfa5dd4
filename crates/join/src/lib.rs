//! # skewsearch-join
//!
//! Set similarity **joins** via repeated similarity search (§1.1 of the
//! paper: "Many similarity join algorithms work using (essentially) repeated
//! similarity search queries; … This method is equally effective here"). For
//! sets `R` and `S` with join size much smaller than `|R|` or `|S|`,
//! preprocessing `S` in `O(d|S|^{1+ρ})` and probing with every `r ∈ R` finds
//! all pairs in `O(d|R||S|^ρ)` (Theorem 2 applied |R| times).
//!
//! The join is generic over any [`SetSimilaritySearch`] structure, so the
//! same driver runs the paper's indexes, Chosen Path, MinHash, prefix
//! filtering, and the exact nested-loop oracle used to validate them. It is
//! the one join driver: how many workers answer the probe side is the
//! index's own batch setting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use skewsearch_core::SetSimilaritySearch;
use skewsearch_sets::{similarity, SparseVec};

/// One joined pair.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JoinPair {
    /// Index into the probe side `R`.
    pub r_id: usize,
    /// Index into the indexed side `S`.
    pub s_id: usize,
    /// Braun-Blanquet similarity of the pair.
    pub similarity: f64,
}

/// Collects per-query match lists into join pairs, preserving query order.
fn collect_pairs(per_query: Vec<Vec<skewsearch_core::Match>>) -> Vec<JoinPair> {
    per_query
        .into_iter()
        .enumerate()
        .flat_map(|(r_id, matches)| {
            matches.into_iter().map(move |m| JoinPair {
                r_id,
                s_id: m.id,
                similarity: m.similarity,
            })
        })
        .collect()
}

/// R ⋈ S: probes `index` (built over `S`) with every vector of `r`,
/// collecting all verified pairs at the index's threshold.
///
/// Runs through [`SetSimilaritySearch::search_batch`], so the index sets
/// the probe side's worker count — the LSF indexes their `query_threads`,
/// MinHash and a [`ShardedIndex`](skewsearch_core::ShardedIndex) one worker
/// per core — with results identical to the sequential loop; pairs are
/// emitted in `r` order.
///
/// **Each distinct probe-side query is planned and answered exactly once.**
/// Duplicate sets in `r` (frequent in real joins, and co-located by
/// [`ShardedIndex`](skewsearch_core::ShardedIndex)'s content-hash
/// partitioning) are grouped up front
/// ([`skewsearch_core::distinct_slots`]); the index sees only the distinct
/// queries, and their answers fan back out to every occurrence. Identical
/// output — every structure in this workspace answers as a pure function of
/// the query — with enumeration/planning work proportional to *distinct*
/// queries (pinned by `tests/enumeration_count.rs`).
///
/// This is also the **sharded** join: a
/// [`ShardedIndex`](skewsearch_core::ShardedIndex) implements the trait with
/// answers byte-identical to the index it partitions, so passing one here
/// yields exactly the unsharded join's pairs while the probe side
/// parallelizes across queries and each query's single
/// [`QueryPlan`](skewsearch_core::QueryPlan) broadcasts across shards
/// (pinned by the `sharded_join_matches_unsharded_exactly` test).
pub fn similarity_join<I: SetSimilaritySearch>(r: &[SparseVec], index: &I) -> Vec<JoinPair> {
    let (representatives, slot_of) = skewsearch_core::distinct_slots(r);
    if representatives.len() == r.len() {
        return collect_pairs(index.search_batch(r));
    }
    let distinct: Vec<SparseVec> = representatives.iter().map(|&i| r[i].clone()).collect();
    let answers = index.search_batch(&distinct);
    collect_pairs(slot_of.into_iter().map(|s| answers[s].clone()).collect())
}

/// Self-join of the indexed set: probes the index with each of its own
/// vectors, returning each unordered pair `{i, j}`, `i < j`, once.
///
/// The trivial self-match `i = i` is dropped; symmetric duplicates are
/// de-duplicated by keeping only `s_id > r_id` pairs (any pair found in only
/// one direction is still reported — randomized indexes are not symmetric).
pub fn self_join<I: SetSimilaritySearch>(vectors: &[SparseVec], index: &I) -> Vec<JoinPair> {
    let mut out = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for (r_id, q) in vectors.iter().enumerate() {
        for m in index.search_all(q) {
            if m.id == r_id {
                continue;
            }
            let (a, b) = (r_id.min(m.id), r_id.max(m.id));
            if seen.insert((a, b)) {
                out.push(JoinPair {
                    r_id: a,
                    s_id: b,
                    similarity: m.similarity,
                });
            }
        }
    }
    out
}

/// Exact nested-loop join — the `O(|R||S|)` oracle.
pub fn nested_loop_join(r: &[SparseVec], s: &[SparseVec], threshold: f64) -> Vec<JoinPair> {
    let mut out = Vec::new();
    for (r_id, x) in r.iter().enumerate() {
        for (s_id, y) in s.iter().enumerate() {
            let sim = similarity::braun_blanquet(x, y);
            if sim >= threshold {
                out.push(JoinPair {
                    r_id,
                    s_id,
                    similarity: sim,
                });
            }
        }
    }
    out
}

/// Recall of `found` against exact `truth`, matching on `(r_id, s_id)`.
pub fn join_recall(found: &[JoinPair], truth: &[JoinPair]) -> f64 {
    if truth.is_empty() {
        return 1.0;
    }
    let set: std::collections::HashSet<(usize, usize)> =
        found.iter().map(|p| (p.r_id, p.s_id)).collect();
    let hit = truth
        .iter()
        .filter(|p| set.contains(&(p.r_id, p.s_id)))
        .count();
    hit as f64 / truth.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use skewsearch_baselines::BruteForce;
    use skewsearch_core::{CorrelatedIndex, CorrelatedParams, IndexOptions, Repetitions};
    use skewsearch_datagen::{correlated_query, BernoulliProfile, Dataset};

    fn v(dims: &[u32]) -> SparseVec {
        SparseVec::from_unsorted(dims.to_vec())
    }

    #[test]
    fn nested_loop_ground_truth() {
        let r = vec![v(&[1, 2, 3]), v(&[7, 8])];
        let s = vec![v(&[1, 2, 3, 4]), v(&[7, 8]), v(&[9])];
        let pairs = nested_loop_join(&r, &s, 0.7);
        assert_eq!(pairs.len(), 2);
        assert!(pairs.iter().any(|p| p.r_id == 0 && p.s_id == 0));
        assert!(pairs.iter().any(|p| p.r_id == 1 && p.s_id == 1));
    }

    #[test]
    fn join_via_brute_index_equals_nested_loop() {
        let r = vec![v(&[1, 2]), v(&[2, 3]), v(&[4, 5, 6])];
        let s = vec![v(&[1, 2]), v(&[4, 5, 6, 7]), v(&[8])];
        let index = BruteForce::new(s.clone(), 0.6);
        let mut got = similarity_join(&r, &index);
        let mut want = nested_loop_join(&r, &s, 0.6);
        let key = |p: &JoinPair| (p.r_id, p.s_id);
        got.sort_by_key(key);
        want.sort_by_key(key);
        assert_eq!(got, want);
    }

    #[test]
    fn lsf_join_has_high_recall_vs_oracle() {
        let profile = BernoulliProfile::two_block(800, 0.2, 0.02).unwrap();
        let mut rng = StdRng::seed_from_u64(92);
        let s = Dataset::generate(&profile, 200, &mut rng);
        let alpha = 0.85;
        // R = correlated probes of a subset of S.
        let r: Vec<SparseVec> = (0..60)
            .map(|t| correlated_query(s.vector(t), &profile, alpha, &mut rng))
            .collect();
        let params = CorrelatedParams::new(alpha)
            .unwrap()
            .with_options(IndexOptions {
                repetitions: Repetitions::Fixed(10),
                ..IndexOptions::default()
            });
        let index = CorrelatedIndex::build(&s, &profile, params, &mut rng);
        let found = similarity_join(&r, &index);
        let truth = nested_loop_join(&r, s.vectors(), index.threshold());
        let recall = join_recall(&found, &truth);
        assert!(recall >= 0.8, "recall={recall}");
        // Precision is exact by construction (verified candidates only).
        for p in &found {
            assert!(p.similarity >= index.threshold());
        }
    }

    #[test]
    fn sharded_join_matches_unsharded_exactly() {
        use skewsearch_core::ShardedIndex;
        let profile = BernoulliProfile::two_block(700, 0.2, 0.02).unwrap();
        let mut rng = StdRng::seed_from_u64(93);
        let s = Dataset::generate(&profile, 150, &mut rng);
        let alpha = 0.85;
        let r: Vec<SparseVec> = (0..50)
            .map(|t| correlated_query(s.vector(t), &profile, alpha, &mut rng))
            .collect();
        let params = CorrelatedParams::new(alpha)
            .unwrap()
            .with_options(IndexOptions {
                repetitions: Repetitions::Fixed(8),
                ..IndexOptions::default()
            });
        let index = CorrelatedIndex::build(&s, &profile, params, &mut rng);
        let unsharded = similarity_join(&r, &index);
        for shards in [1, 4] {
            let sharded = ShardedIndex::build(&index, shards);
            assert_eq!(similarity_join(&r, &sharded), unsharded, "shards={shards}");
        }
    }

    #[test]
    fn duplicate_probe_queries_join_identically_to_naive_loop() {
        // The distinct-query dedup must be invisible: a probe side full of
        // repeated sets joins exactly like the per-occurrence loop, pairs in
        // r order with r_id pointing at each occurrence.
        let r = vec![
            v(&[1, 2]),
            v(&[4, 5, 6]),
            v(&[1, 2]),
            v(&[1, 2]),
            v(&[8]),
            v(&[4, 5, 6]),
        ];
        let s = vec![v(&[1, 2]), v(&[4, 5, 6, 7]), v(&[8]), v(&[1, 2, 3])];
        let index = BruteForce::new(s.clone(), 0.6);
        let naive: Vec<JoinPair> = collect_pairs(r.iter().map(|q| index.search_all(q)).collect());
        assert_eq!(similarity_join(&r, &index), naive);
        assert!(
            naive.iter().filter(|p| p.r_id == 2 || p.r_id == 3).count() >= 2,
            "duplicates must each contribute their own pairs"
        );
    }

    #[test]
    fn self_join_dedups_and_drops_reflexive_pairs() {
        let data = vec![v(&[1, 2, 3]), v(&[1, 2, 3]), v(&[9])];
        let index = BruteForce::new(data.clone(), 0.9);
        let pairs = self_join(&data, &index);
        assert_eq!(pairs.len(), 1);
        assert_eq!((pairs[0].r_id, pairs[0].s_id), (0, 1));
    }

    #[test]
    fn join_recall_metric() {
        let truth = vec![
            JoinPair {
                r_id: 0,
                s_id: 1,
                similarity: 1.0,
            },
            JoinPair {
                r_id: 2,
                s_id: 3,
                similarity: 0.9,
            },
        ];
        assert_eq!(join_recall(&truth[..1], &truth), 0.5);
        assert_eq!(join_recall(&truth, &truth), 1.0);
        assert_eq!(join_recall(&[], &[]), 1.0);
    }
}
