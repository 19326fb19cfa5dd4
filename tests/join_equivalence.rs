//! Join-level integration: index-driven joins versus the exact nested-loop
//! oracle, across structures, with joins byte-identical at every
//! `query_threads` setting of the index.

use rand::{rngs::StdRng, SeedableRng};
use skewsearch::baselines::{BruteForce, PrefixFilterIndex};
use skewsearch::core::{
    CorrelatedIndex, CorrelatedParams, IndexOptions, Repetitions, SetSimilaritySearch,
};
use skewsearch::datagen::{correlated_query, BernoulliProfile, Dataset};
use skewsearch::join::{join_recall, nested_loop_join, self_join, similarity_join};
use skewsearch::sets::SparseVec;

mod common;
use common::thread_counts;

fn setup(seed: u64) -> (Dataset, BernoulliProfile, Vec<SparseVec>, f64) {
    let profile = BernoulliProfile::two_block(1200, 0.2, 0.02).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let ds = Dataset::generate(&profile, 300, &mut rng);
    let alpha = 0.85;
    let r: Vec<SparseVec> = (0..80)
        .map(|t| {
            if t % 2 == 0 {
                correlated_query(ds.vector(t % ds.n()), &profile, alpha, &mut rng)
            } else {
                skewsearch::datagen::VectorSampler::new(&profile).sample(&mut rng)
            }
        })
        .collect();
    (ds, profile, r, alpha)
}

#[test]
fn brute_index_join_is_exactly_the_nested_loop_join() {
    let (ds, _, r, alpha) = setup(31);
    let t = alpha / 1.3;
    let index = BruteForce::new(ds.vectors().to_vec(), t);
    let via_index = similarity_join(&r, &index);
    let truth = nested_loop_join(&r, ds.vectors(), t);
    assert_eq!(via_index.len(), truth.len());
    assert_eq!(join_recall(&via_index, &truth), 1.0);
}

#[test]
fn prefix_filter_join_is_exact() {
    let (ds, _, r, alpha) = setup(32);
    let t = alpha / 1.3;
    let index = PrefixFilterIndex::build(&ds, t);
    let via_index = similarity_join(&r, &index);
    let truth = nested_loop_join(&r, ds.vectors(), t);
    assert_eq!(
        join_recall(&via_index, &truth),
        1.0,
        "prefix join lost pairs"
    );
    assert_eq!(via_index.len(), truth.len(), "prefix join invented pairs");
}

#[test]
fn lsf_join_recall_and_parallel_determinism() {
    let (ds, profile, r, alpha) = setup(33);
    // Same-seed twins that differ only in `query_threads`, the worker count
    // `similarity_join` runs its probe side on.
    let build = |query_threads: usize| {
        let mut rng = StdRng::seed_from_u64(77);
        CorrelatedIndex::build(
            &ds,
            &profile,
            CorrelatedParams::new(alpha)
                .unwrap()
                .with_options(IndexOptions {
                    repetitions: Repetitions::Fixed(10),
                    query_threads,
                    ..IndexOptions::default()
                }),
            &mut rng,
        )
    };
    let index = build(1);
    let seq = similarity_join(&r, &index);
    let mut counts = thread_counts();
    counts.extend([2, 5, 16]);
    for threads in counts {
        assert_eq!(
            similarity_join(&r, &build(threads)),
            seq,
            "query_threads={threads}"
        );
    }
    let truth = nested_loop_join(&r, ds.vectors(), index.threshold());
    assert!(
        join_recall(&seq, &truth) >= 0.8,
        "recall={}",
        join_recall(&seq, &truth)
    );
    for p in &seq {
        assert!(p.similarity >= index.threshold());
    }
}

#[test]
fn duplicate_probe_sets_join_identically_through_bydataset_shards() {
    // The plan pipeline answers each *distinct* probe query once and fans
    // the answers back to every occurrence; sharded, the duplicates'
    // indexed twins also co-locate on one shard (content-hash partitioning).
    // Neither optimization may change a byte of the join output.
    use skewsearch::core::ShardedIndex;
    let (ds, profile, mut r, alpha) = setup(35);
    // Probe side with heavy duplication: every third query repeats query 0,
    // plus a run of empty queries.
    for t in 0..r.len() {
        if t % 3 == 2 {
            r[t] = r[0].clone();
        }
    }
    r.extend(std::iter::repeat_n(SparseVec::empty(), 5));
    let mut rng = StdRng::seed_from_u64(78);
    let index = CorrelatedIndex::build(
        &ds,
        &profile,
        CorrelatedParams::new(alpha)
            .unwrap()
            .with_options(IndexOptions {
                repetitions: Repetitions::Fixed(8),
                ..IndexOptions::default()
            }),
        &mut rng,
    );
    // Reference: the naive per-occurrence loop on the unsharded index.
    let naive: Vec<_> = r
        .iter()
        .enumerate()
        .flat_map(|(r_id, q)| {
            index
                .search_all(q)
                .into_iter()
                .map(move |m| (r_id, m.id, m.similarity))
        })
        .collect();
    for shards in [1, 4] {
        let sharded = ShardedIndex::build(&index, shards);
        let got: Vec<_> = similarity_join(&r, &sharded)
            .into_iter()
            .map(|p| (p.r_id, p.s_id, p.similarity))
            .collect();
        assert_eq!(got, naive, "shards={shards}");
    }
    assert_eq!(
        similarity_join(&r, &index)
            .into_iter()
            .map(|p| (p.r_id, p.s_id, p.similarity))
            .collect::<Vec<_>>(),
        naive,
        "unsharded deduped join"
    );
}

#[test]
fn mutated_index_joins_like_its_rebuild_and_shards_exactly() {
    // A join driven by a mutated (tombstoned + delta-segmented) index must
    // equal the join driven by a from-scratch build over the survivors,
    // under the monotone slot → compact-id renumbering — unsharded and
    // through sharded mirrors.
    use skewsearch::core::{CorrelatedScheme, LsfIndex, ShardedIndex};
    let (ds, profile, r, alpha) = setup(36);
    // A deterministic builder: the RNG is consumed only by the build and the
    // scheme is calibrated to a fixed n, so the rebuild over the survivors
    // draws the same hash stacks (see tests/mutation_equivalence.rs).
    let build = |vectors: Vec<SparseVec>| {
        let mut rng = StdRng::seed_from_u64(0x10BB);
        LsfIndex::with_scheme(
            vectors,
            profile.clone(),
            CorrelatedScheme::new(alpha, 300, &profile),
            alpha / 1.3,
            IndexOptions {
                repetitions: Repetitions::Fixed(8),
                ..IndexOptions::default()
            },
            &mut rng,
        )
    };
    let mut index = build(ds.vectors()[..260].to_vec());
    for id in [5usize, 80, 259] {
        assert!(index.remove_set(id));
    }
    for t in 260..300 {
        index.insert_set(ds.vector(t).clone());
    }
    assert!(index.remove_set(271), "a fresh insert dies too");
    let survivors: Vec<usize> = (0..index.slot_count())
        .filter(|&s| index.is_live(s))
        .collect();

    let seq = similarity_join(&r, &index);

    // Rebuild oracle: same pairs, with s_id renumbered to compact ids.
    let rebuilt = build(survivors.iter().map(|&s| ds.vector(s).clone()).collect());
    let compact_of: std::collections::HashMap<usize, usize> =
        survivors.iter().enumerate().map(|(c, &s)| (s, c)).collect();
    let remapped: Vec<_> = seq
        .iter()
        .map(|p| (p.r_id, compact_of[&p.s_id], p.similarity))
        .collect();
    let oracle: Vec<_> = similarity_join(&r, &rebuilt)
        .into_iter()
        .map(|p| (p.r_id, p.s_id, p.similarity))
        .collect();
    assert_eq!(remapped, oracle, "mutated join != rebuilt join");

    // Sharded mirrors of the mutated index join byte-identically.
    for shards in [1usize, 4] {
        let sharded = ShardedIndex::build(&index, shards);
        assert_eq!(similarity_join(&r, &sharded), seq, "shards={shards}");
    }

    // Every reported pair verifies against the survivor set, and recall
    // against the exact nested-loop join over the survivors stays high.
    let truth = nested_loop_join(
        &r,
        &survivors
            .iter()
            .map(|&s| ds.vector(s).clone())
            .collect::<Vec<_>>(),
        index.threshold(),
    );
    let seq_compact: Vec<_> = similarity_join(&r, &rebuilt);
    assert!(
        join_recall(&seq_compact, &truth) >= 0.8,
        "recall={}",
        join_recall(&seq_compact, &truth)
    );
}

#[test]
fn self_join_finds_planted_duplicates() {
    let profile = BernoulliProfile::two_block(1000, 0.2, 0.02).unwrap();
    let mut rng = StdRng::seed_from_u64(34);
    let mut vectors = Dataset::generate(&profile, 150, &mut rng)
        .vectors()
        .to_vec();
    // Plant 10 exact duplicates at the end.
    for k in 0..10 {
        vectors.push(vectors[k * 7].clone());
    }
    let d = profile.d();
    let ds = Dataset::from_vectors(vectors.clone(), d);
    let index = BruteForce::new(ds.vectors().to_vec(), 0.95);
    let pairs = self_join(ds.vectors(), &index);
    // All 10 planted duplicate pairs must be present exactly once.
    for k in 0..10usize {
        let a = k * 7;
        let b = 150 + k;
        assert_eq!(
            pairs
                .iter()
                .filter(|p| (p.r_id, p.s_id) == (a.min(b), a.max(b)))
                .count(),
            1,
            "pair ({a},{b})"
        );
    }
}
