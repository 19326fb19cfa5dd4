//! Determinism: the same seed must yield byte-identical search results for
//! every randomized index, independently of when or how often it is built.

use rand::{rngs::StdRng, SeedableRng};
use skewsearch::baselines::{MinHashLsh, MinHashParams};
use skewsearch::core::{
    AdversarialIndex, AdversarialParams, ChosenPathIndex, ChosenPathParams, CorrelatedIndex,
    CorrelatedParams, IndexOptions, Repetitions, SetSimilaritySearch,
};
use skewsearch::datagen::{correlated_query, BernoulliProfile, Dataset};
use skewsearch::sets::SparseVec;

const SEED: u64 = 0xD5EED;
const ALPHA: f64 = 0.7;
const N: usize = 400;
const QUERIES: usize = 40;

fn fixture() -> (Dataset, BernoulliProfile, Vec<SparseVec>) {
    let profile = BernoulliProfile::blocks(&[(60, 0.2), (900, 0.01)]).unwrap();
    let mut rng = StdRng::seed_from_u64(SEED ^ 1);
    let ds = Dataset::generate(&profile, N, &mut rng);
    let queries: Vec<SparseVec> = (0..QUERIES)
        .map(|t| correlated_query(ds.vector(t * 7 % N), &profile, ALPHA, &mut rng))
        .collect();
    (ds, profile, queries)
}

fn opts() -> IndexOptions {
    IndexOptions {
        repetitions: Repetitions::Fixed(6),
        ..IndexOptions::default()
    }
}

/// The full, byte-comparable transcript of an index's behavior on the query
/// batch: every `search` and every `search_all` result, Debug-formatted.
fn transcript<I: SetSimilaritySearch>(index: &I, queries: &[SparseVec]) -> String {
    let mut out = String::new();
    for q in queries {
        out.push_str(&format!("{:?}\n", index.search(q)));
        out.push_str(&format!("{:?}\n", index.search_all(q)));
    }
    out
}

#[test]
fn correlated_index_is_deterministic_under_fixed_seed() {
    let (ds, profile, queries) = fixture();
    let build = || {
        let mut rng = StdRng::seed_from_u64(SEED);
        let params = CorrelatedParams::new(ALPHA).unwrap().with_options(opts());
        CorrelatedIndex::build(&ds, &profile, params, &mut rng)
    };
    let a = transcript(&build(), &queries);
    let b = transcript(&build(), &queries);
    assert_eq!(a, b, "two same-seed builds must answer identically");
}

#[test]
fn adversarial_index_is_deterministic_under_fixed_seed() {
    let (ds, profile, queries) = fixture();
    let build = || {
        let mut rng = StdRng::seed_from_u64(SEED ^ 2);
        let params = AdversarialParams::new(ALPHA / 1.3)
            .unwrap()
            .with_options(opts());
        AdversarialIndex::build(&ds, &profile, params, &mut rng)
    };
    let a = transcript(&build(), &queries);
    let b = transcript(&build(), &queries);
    assert_eq!(a, b, "two same-seed builds must answer identically");
}

#[test]
fn chosen_path_index_is_deterministic_under_fixed_seed() {
    let (ds, profile, queries) = fixture();
    let build = || {
        let mut rng = StdRng::seed_from_u64(SEED ^ 3);
        let params = ChosenPathParams::for_correlated_model(&profile, ALPHA, 1.0 / 1.3)
            .unwrap()
            .with_options(opts());
        ChosenPathIndex::build(&ds, &profile, params, &mut rng)
    };
    let a = transcript(&build(), &queries);
    let b = transcript(&build(), &queries);
    assert_eq!(a, b, "two same-seed builds must answer identically");
}

#[test]
fn minhash_lsh_is_deterministic_under_fixed_seed() {
    let (ds, _, queries) = fixture();
    let build = || {
        let mut rng = StdRng::seed_from_u64(SEED ^ 4);
        MinHashLsh::build(&ds, MinHashParams::new(0.6, 0.3).unwrap(), &mut rng)
    };
    let a = transcript(&build(), &queries);
    let b = transcript(&build(), &queries);
    assert_eq!(a, b, "two same-seed builds must answer identically");
}

#[test]
fn different_seeds_actually_differ() {
    // Guards against the build being seed-independent (which would make the
    // determinism assertions vacuous). Search *results* may legitimately
    // coincide across seeds — candidates are verified exactly — so compare
    // the internal build statistics, which reflect the drawn hash stacks.
    let (ds, profile, _) = fixture();
    let build = |seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        let params = CorrelatedParams::new(ALPHA).unwrap().with_options(opts());
        CorrelatedIndex::build(&ds, &profile, params, &mut rng)
    };
    let a = format!("{:?}", build(1).build_stats());
    let b = format!("{:?}", build(0xFFFF_0000_1234).build_stats());
    assert_ne!(a, b, "distinct seeds should draw distinct hash stacks");
}
