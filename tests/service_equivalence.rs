//! The service-equivalence contract, the headline of the service layer: an
//! answer served over the wire decodes to **exactly** the direct in-process
//! `search_all_tagged` call — same matches, same `(pass, step)` tags, same
//! first-discovery order, same `f64` bit patterns — for every index type,
//! under concurrent clients, with mutations interleaved.
//!
//! Three layers:
//!
//! 1. **Read-only, all types** — each of the five index types, plus
//!    `PrefixFilterIndex` (the trait's default plan and probe) and
//!    `ShardedIndex` at 3 and 8 shards, is served to 4 concurrent
//!    clients, each comparing every response against the expected answers
//!    computed in-process before the index moved into the server.
//! 2. **Interleaved mutations** — a mutation script is applied *through the
//!    service* in chunks; after every chunk, 4 concurrent clients verify
//!    all queries against the rebuild oracle from
//!    `tests/common/mutation.rs` (the same oracle `mutation_equivalence`
//!    pins the in-process API with).
//! 3. **Proptest** — randomized op scripts through a served index, verified
//!    against the rebuild oracle by concurrent clients.
//!
//! Everything speaks real sockets: `Server::bind("127.0.0.1:0", ..)` plus
//! one `ServiceClient` per thread.

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use skewsearch::baselines::{MinHashLsh, MinHashParams, PrefixFilterIndex};
use skewsearch::core::{
    AdversarialIndex, AdversarialParams, ChosenPathIndex, ChosenPathParams, CorrelatedIndex,
    CorrelatedParams, CorrelatedScheme, IndexOptions, LsfIndex, Repetitions, SetSimilaritySearch,
    TaggedMatch,
};
use skewsearch::datagen::{correlated_query, BernoulliProfile, Dataset};
use skewsearch::server::{QueryService, Server, ServerConfig, ServerHooks, ServiceClient};
use skewsearch::sets::SparseVec;

mod common;
use common::mutation::{
    build_fixed, dense_tagged, fixed_script, oracle_for, pool, queries_for, remap_tagged, resolve,
    Op, SHARD_COUNTS,
};

const CLIENTS: usize = 4;
const SEED: u64 = 0x5E81;
const ALPHA: f64 = 0.7;

fn serve(index: Box<dyn SetSimilaritySearch + Send + Sync>) -> Server {
    let service = QueryService::new(std::sync::Arc::new(std::sync::RwLock::new(index)));
    Server::bind(
        "127.0.0.1:0",
        service,
        ServerConfig::default(),
        ServerHooks::default(),
    )
    .expect("bind ephemeral port")
}

fn dims_of(q: &SparseVec) -> Vec<u32> {
    q.iter().collect()
}

/// Serves `index` and lets `CLIENTS` concurrent clients verify that every
/// query's served answer decodes to the in-process expectation, both one at
/// a time (`/search`) and as one batch (`/search_batch`).
fn assert_served_matches_expected(
    index: Box<dyn SetSimilaritySearch + Send + Sync>,
    queries: &[SparseVec],
    expected: &[Vec<TaggedMatch>],
    label: &str,
) {
    let server = serve(index);
    let addr = server.local_addr();
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            scope.spawn(move || {
                let mut client = ServiceClient::connect(addr).expect("connect");
                // Offset the iteration per client so the four streams hit
                // the read lock in genuinely different interleavings.
                for i in 0..queries.len() {
                    let i = (i + c * 5) % queries.len();
                    let served = client
                        .search(&dims_of(&queries[i]), None)
                        .unwrap_or_else(|e| panic!("{label} client={c} q={i}: {e}"));
                    assert_eq!(
                        dense_tagged(&served),
                        dense_tagged(&expected[i]),
                        "{label} client={c} q={i}: served != direct"
                    );
                }
                let batch_dims: Vec<Vec<u32>> = queries.iter().map(dims_of).collect();
                let served = client
                    .search_batch(&batch_dims, None)
                    .unwrap_or_else(|e| panic!("{label} client={c} batch: {e}"));
                let served: Vec<_> = served.iter().map(|ms| dense_tagged(ms)).collect();
                let want: Vec<_> = expected.iter().map(|ms| dense_tagged(ms)).collect();
                assert_eq!(served, want, "{label} client={c}: batch != direct");
            });
        }
    });
    server.shutdown();
}

fn fixture(n: usize, seed: u64) -> (Dataset, BernoulliProfile, Vec<SparseVec>) {
    let profile = BernoulliProfile::blocks(&[(60, 0.2), (900, 0.01)]).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let ds = Dataset::generate(&profile, n, &mut rng);
    let mut queries: Vec<SparseVec> = (0..12)
        .map(|t| correlated_query(ds.vector(t * 13 % n), &profile, ALPHA, &mut rng))
        .collect();
    queries.push(SparseVec::empty()); // degenerate: served empty query
    (ds, profile, queries)
}

fn opts(reps: usize) -> IndexOptions {
    IndexOptions {
        repetitions: Repetitions::Fixed(reps),
        ..IndexOptions::default()
    }
}

/// Computes the in-process expectation, then moves the index into a server
/// and lets concurrent clients re-derive it over the wire.
fn check_served<I: SetSimilaritySearch + Send + Sync + 'static>(
    index: I,
    queries: &[SparseVec],
    label: &str,
) {
    let expected: Vec<Vec<TaggedMatch>> =
        queries.iter().map(|q| index.search_all_tagged(q)).collect();
    assert_served_matches_expected(Box::new(index), queries, &expected, label);
}

#[test]
fn served_answers_are_byte_identical_for_every_index_type() {
    let (ds, profile, queries) = fixture(220, SEED);
    let mut rng = StdRng::seed_from_u64(SEED ^ 1);

    let scheme = CorrelatedScheme::new(ALPHA, ds.n(), &profile);
    let lsf = LsfIndex::with_scheme(
        ds.vectors().to_vec(),
        profile.clone(),
        scheme,
        ALPHA / 1.3,
        opts(5),
        &mut rng,
    );
    check_served(lsf, &queries, "LsfIndex");

    let correlated = CorrelatedIndex::build(
        &ds,
        &profile,
        CorrelatedParams::new(ALPHA).unwrap().with_options(opts(5)),
        &mut rng,
    );
    check_served(correlated, &queries, "CorrelatedIndex");

    let adversarial = AdversarialIndex::build(
        &ds,
        &profile,
        AdversarialParams::new(ALPHA / 1.3)
            .unwrap()
            .with_options(opts(5)),
        &mut rng,
    );
    check_served(adversarial, &queries, "AdversarialIndex");

    let chosen_path = ChosenPathIndex::build(
        &ds,
        &profile,
        ChosenPathParams::for_correlated_model(&profile, ALPHA, 1.0 / 1.3)
            .unwrap()
            .with_options(opts(5)),
        &mut rng,
    );
    check_served(chosen_path, &queries, "ChosenPathIndex");

    let minhash = MinHashLsh::build(&ds, MinHashParams::new(0.6, 0.3).unwrap(), &mut rng);
    check_served(minhash, &queries, "MinHashLsh");
}

#[test]
fn served_default_plan_index_matches_direct_calls() {
    // `PrefixFilterIndex` keeps the trait's default plan and probe, so it
    // covers the served path no index-specific walk overrides.
    let profile = BernoulliProfile::harmonic(800, 0.5).unwrap();
    let mut rng = StdRng::seed_from_u64(SEED ^ 2);
    let ds = Dataset::generate(&profile, 150, &mut rng);
    let alpha = 0.9;
    let mut queries: Vec<SparseVec> = (0..12)
        .map(|t| correlated_query(ds.vector(t * 7 % ds.n()), &profile, alpha, &mut rng))
        .collect();
    queries.push(SparseVec::empty());
    let prefix = PrefixFilterIndex::build(&ds, alpha / 1.4);
    check_served(prefix, &queries, "PrefixFilterIndex");
}

#[test]
fn served_sharded_indexes_match_under_both_strategies() {
    let (ds, profile, queries) = fixture(180, SEED ^ 3);
    let mut rng = StdRng::seed_from_u64(SEED ^ 3);
    let base = CorrelatedIndex::build(
        &ds,
        &profile,
        CorrelatedParams::new(ALPHA).unwrap().with_options(opts(4)),
        &mut rng,
    );
    for shards in [SHARD_COUNTS[1], SHARD_COUNTS[2]] {
        let sharded = skewsearch::core::ShardedIndex::build(&base, shards);
        check_served(sharded, &queries, &format!("shards={shards}"));
    }
}

/// Applies `ops` through the service's mutation endpoints (the wire
/// counterpart of `run_trait`), asserting the same dense-id contract.
fn run_ops_over_wire(client: &mut ServiceClient, ds: &Dataset, ops: &[Op]) {
    for &op in ops {
        match op {
            Op::Insert(p) => {
                let id = client.insert(&dims_of(ds.vector(p))).expect("insert");
                assert_eq!(id, p, "dense ids over the wire");
            }
            Op::Remove(slot) => {
                let _ = client.remove(slot).expect("remove");
            }
            // No compaction endpoint: the service compacts on its own
            // buffer schedule, and compaction is answer-invariant.
            Op::Compact => {}
        }
    }
}

/// After each chunk of the mutation script, `CLIENTS` concurrent clients
/// must see answers byte-identical to a from-scratch rebuild over the
/// current survivors.
#[test]
fn interleaved_mutations_over_the_wire_answer_like_a_rebuild() {
    let (ds, profile) = pool(0x5EED ^ 0x11, 200);
    let n_build = 160;
    let (ops, _) = resolve(&fixed_script(), n_build, ds.n());
    let queries = queries_for(&ds, &profile, 0xCAFE ^ 0x11, 10);

    let index = build_fixed(ds.vectors()[..n_build].to_vec(), &profile, usize::MAX);
    let server = serve(Box::new(index));
    let addr = server.local_addr();
    let mut mutator = ServiceClient::connect(addr).expect("connect");

    // Track liveness alongside the wire mutations so each chunk's oracle
    // can be rebuilt over the exact survivor set.
    let mut alive: Vec<bool> = vec![true; n_build];
    for chunk in ops.chunks(ops.len().div_ceil(3)) {
        run_ops_over_wire(&mut mutator, &ds, chunk);
        for &op in chunk {
            match op {
                Op::Insert(_) => alive.push(true),
                Op::Remove(slot) => {
                    if let Some(flag) = alive.get_mut(slot) {
                        *flag = false;
                    }
                }
                Op::Compact => {}
            }
        }
        let survivors: Vec<usize> = (0..alive.len()).filter(|&s| alive[s]).collect();
        let (oracle, compact_of) = oracle_for(&survivors, &ds, &profile);
        let expected: Vec<Vec<(u32, u32, usize, u64)>> = queries
            .iter()
            .map(|q| dense_tagged(&oracle.search_all_tagged(q)))
            .collect();
        std::thread::scope(|scope| {
            for c in 0..CLIENTS {
                let (queries, expected, compact_of) = (&queries, &expected, &compact_of);
                scope.spawn(move || {
                    let mut client = ServiceClient::connect(addr).expect("connect");
                    for (i, q) in queries.iter().enumerate() {
                        let served = client
                            .search(&dims_of(q), None)
                            .unwrap_or_else(|e| panic!("client={c} q={i}: {e}"));
                        assert_eq!(
                            remap_tagged(&served, compact_of),
                            expected[i],
                            "client={c} q={i}: served != rebuild oracle"
                        );
                    }
                });
            }
        });
    }
    // The mutator's keep-alive connection pins a worker; close it before
    // joining the server's threads.
    drop(mutator);
    server.shutdown();
}

#[test]
fn sharded_mutations_over_the_wire_answer_like_a_rebuild() {
    let (ds, profile) = pool(0x5EED ^ 0x12, 200);
    let n_build = 160;
    let (ops, survivors) = resolve(&fixed_script(), n_build, ds.n());
    let queries = queries_for(&ds, &profile, 0xBEEF ^ 0x12, 8);
    let (oracle, compact_of) = oracle_for(&survivors, &ds, &profile);
    let expected: Vec<Vec<(u32, u32, usize, u64)>> = queries
        .iter()
        .map(|q| dense_tagged(&oracle.search_all_tagged(q)))
        .collect();

    let base = build_fixed(ds.vectors()[..n_build].to_vec(), &profile, usize::MAX);
    let sharded = skewsearch::core::ShardedIndex::build(&base, 3);
    let server = serve(Box::new(sharded));
    let addr = server.local_addr();
    let mut mutator = ServiceClient::connect(addr).expect("connect");
    run_ops_over_wire(&mut mutator, &ds, &ops);
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let (queries, expected, compact_of) = (&queries, &expected, &compact_of);
            scope.spawn(move || {
                let mut client = ServiceClient::connect(addr).expect("connect");
                for (i, q) in queries.iter().enumerate() {
                    let served = client
                        .search(&dims_of(q), None)
                        .unwrap_or_else(|e| panic!("client={c} q={i}: {e}"));
                    assert_eq!(
                        remap_tagged(&served, compact_of),
                        expected[i],
                        "client={c} q={i}"
                    );
                }
            });
        }
    });
    drop(mutator);
    server.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Randomized mutation scripts through the service: whatever the
    /// interleaving, concurrent clients decode answers byte-identical to
    /// the rebuild oracle over the survivors.
    #[test]
    fn random_wire_interleavings_match_rebuild(
        raw in prop::collection::vec((any::<u8>(), any::<u64>()), 1..24),
        seed in 0u64..1_000_000,
        n_build in 20usize..50,
    ) {
        let (ds, profile) = pool(seed, 80);
        let (ops, survivors) = resolve(&raw, n_build, ds.n());
        let queries = queries_for(&ds, &profile, seed ^ 0xF00D, 6);
        let (oracle, compact_of) = oracle_for(&survivors, &ds, &profile);
        let expected: Vec<Vec<(u32, u32, usize, u64)>> = queries
            .iter()
            .map(|q| dense_tagged(&oracle.search_all_tagged(q)))
            .collect();

        let index = build_fixed(ds.vectors()[..n_build].to_vec(), &profile, usize::MAX);
        let server = serve(Box::new(index));
        let addr = server.local_addr();
        let mut mutator = ServiceClient::connect(addr).expect("connect");
        run_ops_over_wire(&mut mutator, &ds, &ops);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let (queries, expected, compact_of) = (&queries, &expected, &compact_of);
                scope.spawn(move || {
                    let mut client = ServiceClient::connect(addr).expect("connect");
                    for (i, q) in queries.iter().enumerate() {
                        let served = client.search(&dims_of(q), None).expect("search");
                        assert_eq!(remap_tagged(&served, compact_of), expected[i], "q={i}");
                    }
                });
            }
        });
        drop(mutator);
        server.shutdown();
    }
}
