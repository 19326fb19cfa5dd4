//! The acceptance criterion of the plan pipeline, asserted with the counting
//! hook `skewsearch::core::enumeration_count`: a sharded index performs
//! **exactly one** `F(q)` enumeration per query — `R` calls into the
//! enumeration engine, one per repetition — regardless of shard count.
//! The join layer's distinct-query dedup is counted the same way, and so
//! are the builds: an index build enumerates each set once per repetition,
//! and sharding an index enumerates nothing. Served requests keep the
//! count: a `/search` of a sharded deployment and an `/insert`, sharded or
//! not, enumerate `R` — planned once by the service, before it takes a
//! lock, and never again under it.
//!
//! The counter is process-global, so everything here lives in **one** test
//! function: integration tests in one binary run on concurrent threads, and
//! a second enumerating test would corrupt the measured deltas. (Other test
//! binaries are separate processes and cannot interfere.)

use rand::{rngs::StdRng, SeedableRng};
use skewsearch::core::{
    enumeration_count, CorrelatedIndex, CorrelatedParams, IndexOptions, Repetitions,
    SetSimilaritySearch, ShardedIndex,
};
use skewsearch::datagen::{correlated_query, BernoulliProfile, Dataset};
use skewsearch::join::{similarity_join, JoinPair};
use skewsearch::server::{share, QueryService, Server, ServerConfig, ServerHooks, ServiceClient};
use skewsearch::sets::SparseVec;

const ALPHA: f64 = 0.7;
const REPS: usize = 6;

/// Runs `f` and returns how many enumeration-engine calls it made.
fn enumerations_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = enumeration_count();
    let out = f();
    (out, enumeration_count() - before)
}

#[test]
fn by_dataset_enumerates_each_query_exactly_once_at_any_shard_count() {
    let profile = BernoulliProfile::blocks(&[(60, 0.2), (900, 0.01)]).unwrap();
    let mut rng = StdRng::seed_from_u64(0xC0DE);
    let ds = Dataset::generate(&profile, 200, &mut rng);
    let params = CorrelatedParams::new(ALPHA)
        .unwrap()
        .with_options(IndexOptions {
            repetitions: Repetitions::Fixed(REPS),
            ..IndexOptions::default()
        });
    let (index, delta) =
        enumerations_during(|| CorrelatedIndex::build(&ds, &profile, params, &mut rng));
    assert_eq!(
        delta,
        (ds.n() * REPS) as u64,
        "a build enumerates each set once per repetition"
    );
    let queries: Vec<SparseVec> = (0..8)
        .map(|t| correlated_query(ds.vector(t * 17 % ds.n()), &profile, ALPHA, &mut rng))
        .chain(std::iter::once(SparseVec::empty()))
        .collect();
    // Reference answers, computed outside every measured region.
    let expected: Vec<_> = queries.iter().map(|q| index.search_all(q)).collect();
    let expected_tagged: Vec<_> = queries.iter().map(|q| index.search_all_tagged(q)).collect();

    // Baseline: the unsharded fused search_all enumerates once per
    // repetition — R calls — per query.
    for (q, expect) in queries.iter().zip(&expected) {
        let (got, delta) = enumerations_during(|| index.search_all(q));
        assert_eq!(&got, expect);
        assert_eq!(delta, REPS as u64, "unsharded baseline");
    }

    for shards in [1usize, 2, 4, 8] {
        // The tentpole claim: the wrapper plans once and broadcasts — the
        // enumeration count per query does not depend on the shard count.
        let (sharded, delta) = enumerations_during(|| ShardedIndex::build(&index, shards));
        assert_eq!(delta, 0, "sharding reuses the stored keys, shards={shards}");
        for (q, expect) in queries.iter().zip(&expected) {
            let (got, delta) = enumerations_during(|| sharded.search_all(q));
            assert_eq!(&got, expect, "shards={shards}");
            assert_eq!(
                delta, REPS as u64,
                "exactly one F(q) enumeration per query, shards={shards}"
            );
        }
        // `search` plans once too (and probes early-exit per shard).
        let (_, delta) = enumerations_during(|| sharded.search(&queries[0]));
        assert_eq!(delta, REPS as u64, "search plans once, shards={shards}");
    }

    // ---- Mutations keep the once-per-query contract ----
    // One insert enumerates the new set's filters exactly once per
    // repetition — R calls — while removal and compaction reuse the stored
    // keys: a removed base set is tombstoned, a removed delta set leaves the
    // buckets its insert recorded, and neither enumerates at all. With
    // `mutation_buffer = 3` the base remove below also crosses the
    // auto-compaction threshold, so the zero-count covers compaction too.
    let mut mutated = CorrelatedIndex::build(
        &ds,
        &profile,
        CorrelatedParams::new(ALPHA)
            .unwrap()
            .with_options(IndexOptions {
                repetitions: Repetitions::Fixed(REPS),
                mutation_buffer: 3,
                ..IndexOptions::default()
            }),
        &mut rng,
    );
    let (id, delta) = enumerations_during(|| mutated.insert(ds.vector(0).clone()));
    assert_eq!(id, Ok(ds.n()));
    assert_eq!(delta, REPS as u64, "insert enumerates once per repetition");
    let (removed, delta) = enumerations_during(|| mutated.remove(ds.n()));
    assert_eq!(removed, Ok(true));
    assert_eq!(mutated.compaction_count(), 0, "the set was delta-resident");
    assert_eq!(delta, 0, "removing a delta-resident set never enumerates");
    let (removed, delta) = enumerations_during(|| mutated.remove(3));
    assert_eq!(removed, Ok(true));
    assert_eq!(delta, 0, "remove + auto-compaction never enumerate");

    // Inserting through a sharded wrapper costs exactly R as well: the set
    // is routed to one shard, which pays its full R. The regression this
    // section pins: the plan broadcast still enumerates exactly once per
    // query *after* the insert, with answers byte-identical to the mutated
    // unsharded index.
    let mut mirror = ShardedIndex::build(&mutated, 4);
    let (res, delta) = enumerations_during(|| mirror.insert(ds.vector(1).clone()));
    assert_eq!(res, Ok(ds.n() + 1), "sharded ids stay global");
    assert_eq!(delta, REPS as u64, "sharded insert costs R");
    assert_eq!(mutated.insert(ds.vector(1).clone()), Ok(ds.n() + 1));
    for q in queries.iter().take(3) {
        let (got, delta) = enumerations_during(|| mirror.search_all(q));
        assert_eq!(got, mutated.search_all(q), "post-insert");
        assert_eq!(
            delta, REPS as u64,
            "post-insert broadcast still enumerates once"
        );
    }
    drop(mirror);

    // Served requests: the service plans with the served index's planner
    // before it takes a lock. A sharded `/search` enumerates R there and
    // the shards probe that plan without enumerating again; an `/insert`
    // enumerates R there and only pushes keys under the write lock (and
    // compacts, with `mutation_buffer = 3`, enumerating nothing).
    let dims = |v: &SparseVec| v.iter().collect::<Vec<u32>>();
    let serve = |served: QueryService| {
        Server::bind(
            "127.0.0.1:0",
            served,
            ServerConfig::default(),
            ServerHooks::default(),
        )
        .expect("bind")
    };
    let server = serve(QueryService::new(share(ShardedIndex::build(&index, 4))));
    let mut client = ServiceClient::connect(server.local_addr()).expect("connect");
    for (q, expect) in queries.iter().zip(&expected_tagged) {
        let (got, delta) = enumerations_during(|| client.search(&dims(q), None));
        assert_eq!(&got.expect("served search"), expect);
        assert_eq!(delta, REPS as u64, "a served sharded /search plans once");
    }
    let (id, delta) = enumerations_during(|| client.insert(&dims(ds.vector(2))));
    assert_eq!(id.expect("served insert"), ds.n());
    assert_eq!(delta, REPS as u64, "a served sharded /insert plans once");
    drop(client);
    server.shutdown();

    // One mutation pending: the second served insert reaches the buffer of
    // 3 and compacts under the write lock.
    assert_eq!(mutated.pending_mutations(), 1);
    let server = serve(QueryService::new(share(mutated)));
    let mut client = ServiceClient::connect(server.local_addr()).expect("connect");
    for (k, t) in [2usize, 3, 4].into_iter().enumerate() {
        let (id, delta) = enumerations_during(|| client.insert(&dims(ds.vector(t))));
        assert_eq!(id.expect("served insert"), ds.n() + 2 + k);
        assert_eq!(delta, REPS as u64, "a served /insert plans once");
    }
    drop(client);
    server.shutdown();

    // Joins: duplicate probe-side sets are answered once per *distinct*
    // query — 5 distinct queries repeated 3× each cost 5·R enumerations.
    let distinct: Vec<SparseVec> = queries[..5].to_vec();
    let r: Vec<SparseVec> = distinct
        .iter()
        .cycle()
        .take(15)
        .cloned()
        .collect::<Vec<_>>();
    let naive: Vec<JoinPair> = r
        .iter()
        .enumerate()
        .flat_map(|(r_id, q)| {
            index.search_all(q).into_iter().map(move |m| JoinPair {
                r_id,
                s_id: m.id,
                similarity: m.similarity,
            })
        })
        .collect();
    let sharded = ShardedIndex::build(&index, 4);
    let (pairs, delta) = enumerations_during(|| similarity_join(&r, &sharded));
    assert_eq!(
        pairs, naive,
        "deduped sharded join equals per-occurrence loop"
    );
    assert_eq!(
        delta,
        (distinct.len() * REPS) as u64,
        "one plan per distinct probe query"
    );
}
