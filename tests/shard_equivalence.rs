//! Sharding semantics: for every scheme of the LSF family, a
//! `ShardedIndex` must answer `search`, `search_all`, `search_all_tagged`,
//! and `search_batch` **byte-identically** to the unsharded index it was
//! partitioned from — at every shard count, including degenerate
//! partitions where some shards are empty.
//!
//! Deterministic tests pin the 4 LSF builds (`LsfIndex::with_scheme` and
//! each scheme's alias) × {1, 8} shards grid; a
//! proptest block then randomizes the dataset, correlation, and shard count
//! over {1, 3, 8}.
//!
//! A query probes its shards in order on the calling thread, and
//! `search_batch` runs its queries on one worker per core, so on a
//! multicore host the batch surfaces run at real parallelism.

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use skewsearch::core::{
    AdversarialIndex, AdversarialParams, ChosenPathIndex, ChosenPathParams, CorrelatedIndex,
    CorrelatedParams, CorrelatedScheme, IndexOptions, LsfIndex, ProbeControl, Repetitions,
    SetSimilaritySearch, ShardedIndex, ThresholdScheme,
};
use skewsearch::datagen::{correlated_query, BernoulliProfile, Dataset};
use skewsearch::sets::SparseVec;

const SEED: u64 = 0x54A8D;
const ALPHA: f64 = 0.7;

fn fixture(n: usize, seed: u64) -> (Dataset, BernoulliProfile, Vec<SparseVec>) {
    let profile = BernoulliProfile::blocks(&[(60, 0.2), (900, 0.01)]).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let ds = Dataset::generate(&profile, n, &mut rng);
    let mut queries: Vec<SparseVec> = (0..30)
        .map(|t| correlated_query(ds.vector(t * 11 % n.max(1)), &profile, ALPHA, &mut rng))
        .collect();
    queries.push(SparseVec::empty()); // degenerate query rides along
    (ds, profile, queries)
}

fn opts(reps: usize) -> IndexOptions {
    IndexOptions {
        repetitions: Repetitions::Fixed(reps),
        ..IndexOptions::default()
    }
}

/// The core assertion: every trait entry point of the sharded wrapper equals
/// the unsharded index's answer, byte for byte.
fn assert_sharded_identical<S: ThresholdScheme + 'static>(
    index: &LsfIndex<S>,
    queries: &[SparseVec],
    shard_counts: &[usize],
    label: &str,
) {
    let all: Vec<_> = queries.iter().map(|q| index.search_all(q)).collect();
    let tagged: Vec<_> = queries.iter().map(|q| index.search_all_tagged(q)).collect();
    let first: Vec<_> = queries.iter().map(|q| index.search(q)).collect();
    let first_tagged: Vec<_> = queries
        .iter()
        .map(|q| index.probe_passes(q, None, ProbeControl::FIRST))
        .collect();
    for &shards in shard_counts {
        let sharded = ShardedIndex::build(index, shards);
        let ctx = format!("{label} shards={shards}");
        assert_eq!(sharded.len(), index.len(), "{ctx}");
        assert_eq!(sharded.threshold(), index.threshold(), "{ctx}");
        for (i, q) in queries.iter().enumerate() {
            assert_eq!(sharded.search_all(q), all[i], "{ctx} q={i}");
            assert_eq!(sharded.search_all_tagged(q), tagged[i], "{ctx} q={i}");
            assert_eq!(sharded.search(q), first[i], "{ctx} q={i}");
            assert_eq!(
                sharded.probe_passes(q, None, ProbeControl::FIRST),
                first_tagged[i],
                "{ctx} q={i}"
            );
        }
        assert_eq!(sharded.search_batch(queries), all, "{ctx}");
    }
}

#[test]
fn lsf_index_shard_equivalence() {
    let (ds, profile, queries) = fixture(250, SEED);
    let mut rng = StdRng::seed_from_u64(SEED ^ 1);
    let scheme = CorrelatedScheme::new(ALPHA, ds.n(), &profile);
    let index = LsfIndex::with_scheme(
        ds.vectors().to_vec(),
        profile.clone(),
        scheme,
        ALPHA / 1.3,
        opts(6),
        &mut rng,
    );
    assert_sharded_identical(&index, &queries, &[1, 8], "LsfIndex");
}

#[test]
fn mutated_lsf_index_shard_equivalence() {
    // Sharding an index that has been mutated — live tombstones, a delta
    // segment, and a compacted region — must still be byte-identical: the
    // partition routes every slot (dead ones included, to keep the id maps
    // dense). See `tests/mutation_equivalence.rs` for the rebuild oracle.
    let (ds, profile, queries) = fixture(250, SEED ^ 8);
    let mut rng = StdRng::seed_from_u64(SEED ^ 9);
    let scheme = CorrelatedScheme::new(ALPHA, 220, &profile);
    let mut index = LsfIndex::with_scheme(
        ds.vectors()[..220].to_vec(),
        profile.clone(),
        scheme,
        ALPHA / 1.3,
        opts(6),
        &mut rng,
    );
    for id in [0usize, 7, 100, 219] {
        assert!(index.remove_set(id));
    }
    for t in 220..250 {
        index.insert_set(ds.vector(t).clone());
    }
    assert!(index.remove_set(230), "a fresh insert dies too");
    assert_sharded_identical(&index, &queries, &[1, 3, 8], "mutated LsfIndex");
    // Compaction folds the delta into the base without renumbering, so the
    // sharded mirrors must not notice.
    index.compact();
    assert_sharded_identical(&index, &queries, &[1, 3, 8], "compacted LsfIndex");
}

#[test]
fn correlated_index_shard_equivalence() {
    let (ds, profile, queries) = fixture(250, SEED);
    let mut rng = StdRng::seed_from_u64(SEED ^ 2);
    let params = CorrelatedParams::new(ALPHA).unwrap().with_options(opts(6));
    let index = CorrelatedIndex::build(&ds, &profile, params, &mut rng);
    assert_sharded_identical(&index, &queries, &[1, 8], "CorrelatedIndex");
}

#[test]
fn adversarial_index_shard_equivalence() {
    let (ds, profile, queries) = fixture(250, SEED);
    let mut rng = StdRng::seed_from_u64(SEED ^ 3);
    let params = AdversarialParams::new(ALPHA / 1.3)
        .unwrap()
        .with_options(opts(6));
    let index = AdversarialIndex::build(&ds, &profile, params, &mut rng);
    assert_sharded_identical(&index, &queries, &[1, 8], "AdversarialIndex");
}

#[test]
fn chosen_path_index_shard_equivalence() {
    let (ds, profile, queries) = fixture(250, SEED);
    let mut rng = StdRng::seed_from_u64(SEED ^ 4);
    let params = ChosenPathParams::for_correlated_model(&profile, ALPHA, 1.0 / 1.3)
        .unwrap()
        .with_options(opts(6));
    let index = ChosenPathIndex::build(&ds, &profile, params, &mut rng);
    assert_sharded_identical(&index, &queries, &[1, 8], "ChosenPathIndex");
}

#[test]
fn empty_shards_from_tiny_datasets_are_exact() {
    // 5 vectors over 8 shards: at least three shards hold nothing, and the
    // partition must still be byte-identical.
    let (ds, profile, _) = fixture(5, SEED ^ 6);
    let mut rng = StdRng::seed_from_u64(SEED ^ 6);
    let params = CorrelatedParams::new(ALPHA).unwrap().with_options(opts(3));
    let index = CorrelatedIndex::build(&ds, &profile, params, &mut rng);
    let queries: Vec<SparseVec> = (0..5)
        .map(|t| correlated_query(ds.vector(t), &profile, ALPHA, &mut rng))
        .chain(std::iter::once(SparseVec::empty()))
        .collect();
    let sharded = ShardedIndex::build(&index, 8);
    assert_eq!(sharded.shard_count(), 8);
    assert!(
        sharded.shard_lens().iter().filter(|&&l| l == 0).count() >= 3,
        "expected empty shards, got {:?}",
        sharded.shard_lens()
    );
    for q in &queries {
        assert_eq!(sharded.search_all(q), index.search_all(q));
    }
}

#[test]
fn empty_index_shards_find_nothing() {
    let profile = BernoulliProfile::uniform(50, 0.2).unwrap();
    let mut rng = StdRng::seed_from_u64(SEED ^ 7);
    let scheme = CorrelatedScheme::new(0.5, 2, &profile);
    let index: LsfIndex<CorrelatedScheme> = LsfIndex::with_scheme(
        vec![],
        profile,
        scheme,
        0.5,
        IndexOptions::default(),
        &mut rng,
    );
    let sharded = ShardedIndex::build(&index, 4);
    assert!(sharded.is_empty());
    assert!(sharded
        .search(&SparseVec::from_unsorted(vec![1, 2]))
        .is_none());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomized sweep of the acceptance grid: all four LSF index types,
    /// shard counts drawn from {1, 3, 8}, over random dataset sizes (small
    /// enough that 8-way partitions regularly produce empty shards).
    #[test]
    fn sharded_equals_unsharded_for_all_index_types(
        seed in 0u64..1_000_000,
        shards_ix in 0usize..3,
        n in 40usize..120,
    ) {
        let shard_counts = [1usize, 3, 8];
        let shards = [shard_counts[shards_ix]];
        let (ds, profile, queries) = fixture(n, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xF00D);
        // First eleven correlated queries plus the trailing empty query.
        let queries: Vec<SparseVec> = queries[..11]
            .iter()
            .chain(queries.last())
            .cloned()
            .collect();
        let queries = &queries[..];

        let scheme = CorrelatedScheme::new(ALPHA, ds.n(), &profile);
        let lsf = LsfIndex::with_scheme(
            ds.vectors().to_vec(),
            profile.clone(),
            scheme,
            ALPHA / 1.3,
            opts(3),
            &mut rng,
        );
        assert_sharded_identical(&lsf, queries, &shards, "prop LsfIndex");

        let correlated = CorrelatedIndex::build(
            &ds,
            &profile,
            CorrelatedParams::new(ALPHA).unwrap().with_options(opts(3)),
            &mut rng,
        );
        assert_sharded_identical(&correlated, queries, &shards, "prop CorrelatedIndex");

        let adversarial = AdversarialIndex::build(
            &ds,
            &profile,
            AdversarialParams::new(ALPHA / 1.3).unwrap().with_options(opts(3)),
            &mut rng,
        );
        assert_sharded_identical(&adversarial, queries, &shards, "prop AdversarialIndex");

        let chosen_path = ChosenPathIndex::build(
            &ds,
            &profile,
            ChosenPathParams::for_correlated_model(&profile, ALPHA, 1.0 / 1.3)
                .unwrap()
                .with_options(opts(3)),
            &mut rng,
        );
        assert_sharded_identical(&chosen_path, queries, &shards, "prop ChosenPathIndex");
    }
}
