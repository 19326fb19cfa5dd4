//! Sharded query throughput: the unsharded correlated index vs
//! `ShardedIndex` at 1/2/4/8 shards, both strategies (`plan` rows: under
//! `ByDataset`, stage 1 runs once per query and its plan is broadcast to
//! the shards).
//!
//! Answers are byte-identical across every row (the merge protocol of
//! `skewsearch_core::shard` plus the plan-equivalence contract); only cost
//! changes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use skewsearch_bench::{bench_dataset, bench_rng};
use skewsearch_core::{
    CorrelatedIndex, CorrelatedParams, IndexOptions, Repetitions, SetSimilaritySearch,
    ShardStrategy, ShardedIndex,
};
use skewsearch_datagen::correlated_query;
use skewsearch_sets::SparseVec;
use std::hint::black_box;

const ALPHA: f64 = 2.0 / 3.0;
const N: usize = 2000;
const QUERIES: usize = 64;
const SHARDS: [usize; 4] = [1, 2, 4, 8];

fn bench_sharded(c: &mut Criterion) {
    let (ds, profile) = bench_dataset(N, true);
    let mut rng = bench_rng();
    let qs: Vec<SparseVec> = (0..QUERIES)
        .map(|t| correlated_query(ds.vector(t * 29 % ds.n()), &profile, ALPHA, &mut rng))
        .collect();
    let index = CorrelatedIndex::build(
        &ds,
        &profile,
        CorrelatedParams::new(ALPHA)
            .unwrap()
            .with_options(IndexOptions {
                repetitions: Repetitions::Fixed(8),
                ..IndexOptions::default()
            }),
        &mut rng,
    );

    let mut g = c.benchmark_group(format!("sharded_query_skewed_n{N}_q{QUERIES}"));
    g.bench_with_input(BenchmarkId::new("unsharded_batch", N), &qs, |b, qs| {
        b.iter(|| black_box(index.search_batch(black_box(qs))))
    });
    for (strategy, label) in [
        (ShardStrategy::ByRepetition, "by_repetition"),
        (ShardStrategy::ByDataset, "by_dataset"),
    ] {
        for shards in SHARDS {
            let sharded = ShardedIndex::build(&index, strategy, shards);
            // Sanity: the bench must measure an equivalent computation.
            assert_eq!(
                sharded.search_all(&qs[0]),
                index.search_all(&qs[0]),
                "sharded merge diverged — bench would be meaningless"
            );
            g.bench_with_input(
                BenchmarkId::new(format!("{label}_s{shards}_plan_batch"), N),
                &qs,
                |b, qs| b.iter(|| black_box(sharded.search_batch(black_box(qs)))),
            );
        }
    }
    // Single-query fan-out latency at the widest sharding.
    let sharded = ShardedIndex::build(&index, ShardStrategy::ByDataset, 8);
    g.bench_with_input(
        BenchmarkId::new("by_dataset_s8_single_query_plan", N),
        &qs[0],
        |b, q| b.iter(|| black_box(sharded.search_all(black_box(q)))),
    );
    let sharded = ShardedIndex::build(&index, ShardStrategy::ByRepetition, 8);
    g.bench_with_input(
        BenchmarkId::new("by_repetition_s8_single_query_fanout", N),
        &qs[0],
        |b, q| b.iter(|| black_box(sharded.search_all(black_box(q)))),
    );
    g.finish();
}

criterion_group! {
    name = benches;
    config = skewsearch_bench::quick_criterion();
    targets = bench_sharded
}
criterion_main!(benches);
