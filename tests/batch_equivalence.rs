//! Batch semantics: for every index type, `search_batch` must return exactly
//! `queries.iter().map(|q| search_all(q))` at any `query_threads` setting
//! (MinHash has none: it runs on one worker per core), under a fixed seed.
//! Extends `tests/determinism.rs`'s transcript approach: the batch transcript at 1
//! and 8 workers is compared byte-for-byte against the sequential one.

use rand::{rngs::StdRng, SeedableRng};
use skewsearch::baselines::{MinHashLsh, MinHashParams};
use skewsearch::core::{
    AdversarialIndex, AdversarialParams, ChosenPathIndex, ChosenPathParams, CorrelatedIndex,
    CorrelatedParams, CorrelatedScheme, IndexOptions, LsfIndex, Repetitions, SetSimilaritySearch,
};
use skewsearch::datagen::{correlated_query, BernoulliProfile, Dataset};
use skewsearch::sets::SparseVec;

mod common;
use common::thread_counts;

const SEED: u64 = 0xBA7C4;
const ALPHA: f64 = 0.7;
const N: usize = 300;
const QUERIES: usize = 50;

fn fixture() -> (Dataset, BernoulliProfile, Vec<SparseVec>) {
    let profile = BernoulliProfile::blocks(&[(60, 0.2), (900, 0.01)]).unwrap();
    let mut rng = StdRng::seed_from_u64(SEED ^ 1);
    let ds = Dataset::generate(&profile, N, &mut rng);
    let mut queries: Vec<SparseVec> = (0..QUERIES)
        .map(|t| correlated_query(ds.vector(t * 11 % N), &profile, ALPHA, &mut rng))
        .collect();
    queries.push(SparseVec::empty()); // degenerate query rides along
    (ds, profile, queries)
}

fn opts(query_threads: usize) -> IndexOptions {
    IndexOptions {
        repetitions: Repetitions::Fixed(6),
        query_threads,
        ..IndexOptions::default()
    }
}

/// Asserts the batch contract for one structure: trait-level `search_batch`
/// equals the sequential per-query loop, element for element.
fn assert_batch_matches_sequential<I: SetSimilaritySearch>(
    index: &I,
    queries: &[SparseVec],
    label: &str,
) {
    let sequential: Vec<_> = queries.iter().map(|q| index.search_all(q)).collect();
    assert_eq!(index.search_batch(queries), sequential, "{label}");
}

#[test]
fn lsf_index_batch_equivalence() {
    let (ds, profile, queries) = fixture();
    for threads in thread_counts() {
        let mut rng = StdRng::seed_from_u64(SEED);
        let scheme = CorrelatedScheme::new(ALPHA, ds.n(), &profile);
        let index = LsfIndex::with_scheme(
            ds.vectors().to_vec(),
            profile.clone(),
            scheme,
            ALPHA / 1.3,
            opts(threads),
            &mut rng,
        );
        assert_batch_matches_sequential(&index, &queries, &format!("LsfIndex t={threads}"));
    }
}

#[test]
fn correlated_index_batch_equivalence() {
    let (ds, profile, queries) = fixture();
    for threads in thread_counts() {
        let mut rng = StdRng::seed_from_u64(SEED ^ 2);
        let params = CorrelatedParams::new(ALPHA)
            .unwrap()
            .with_options(opts(threads));
        let index = CorrelatedIndex::build(&ds, &profile, params, &mut rng);
        assert_batch_matches_sequential(&index, &queries, &format!("CorrelatedIndex t={threads}"));
    }
}

#[test]
fn adversarial_index_batch_equivalence() {
    let (ds, profile, queries) = fixture();
    for threads in thread_counts() {
        let mut rng = StdRng::seed_from_u64(SEED ^ 3);
        let params = AdversarialParams::new(ALPHA / 1.3)
            .unwrap()
            .with_options(opts(threads));
        let index = AdversarialIndex::build(&ds, &profile, params, &mut rng);
        assert_batch_matches_sequential(&index, &queries, &format!("AdversarialIndex t={threads}"));
    }
}

#[test]
fn chosen_path_index_batch_equivalence() {
    let (ds, profile, queries) = fixture();
    for threads in thread_counts() {
        let mut rng = StdRng::seed_from_u64(SEED ^ 4);
        let params = ChosenPathParams::for_correlated_model(&profile, ALPHA, 1.0 / 1.3)
            .unwrap()
            .with_options(opts(threads));
        let index = ChosenPathIndex::build(&ds, &profile, params, &mut rng);
        assert_batch_matches_sequential(&index, &queries, &format!("ChosenPathIndex t={threads}"));
    }
}

#[test]
fn minhash_batch_equivalence() {
    let (ds, _, queries) = fixture();
    let mut rng = StdRng::seed_from_u64(SEED ^ 5);
    let index = MinHashLsh::build(&ds, MinHashParams::new(0.6, 0.3).unwrap(), &mut rng);
    assert_batch_matches_sequential(&index, &queries, "MinHashLsh");
}

#[test]
fn batch_results_are_thread_count_invariant() {
    // Same-seed twins that differ only in `query_threads` must answer a
    // batch identically — the "batching is never a semantics change"
    // guarantee.
    let (ds, profile, queries) = fixture();
    let build = |threads: usize| {
        let mut rng = StdRng::seed_from_u64(SEED ^ 6);
        let params = CorrelatedParams::new(ALPHA)
            .unwrap()
            .with_options(opts(threads));
        CorrelatedIndex::build(&ds, &profile, params, &mut rng)
    };
    let reference = build(1).search_batch(&queries);
    for threads in [0, 2, 3, 8, 64] {
        assert_eq!(
            build(threads).search_batch(&queries),
            reference,
            "threads={threads}"
        );
    }
}
