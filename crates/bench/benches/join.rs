//! Similarity-join benchmarks: index-driven join vs nested loop, and the
//! same join on a 4-worker batch executor.

use criterion::{criterion_group, criterion_main, Criterion};
use skewsearch_bench::{bench_dataset, bench_rng};
use skewsearch_core::{CorrelatedIndex, CorrelatedParams, IndexOptions, Repetitions};
use skewsearch_datagen::correlated_query;
use skewsearch_join::{nested_loop_join, similarity_join};
use skewsearch_sets::SparseVec;
use std::hint::black_box;

const N: usize = 800;
const R: usize = 120;
const ALPHA: f64 = 2.0 / 3.0;

fn bench_join(c: &mut Criterion) {
    let (ds, profile) = bench_dataset(N, true);
    let mut rng = bench_rng();
    let r: Vec<SparseVec> = (0..R)
        .map(|t| correlated_query(ds.vector(t * 5 % N), &profile, ALPHA, &mut rng))
        .collect();
    // similarity_join routes through search_batch, which runs on the
    // index's query_threads: one worker keeps the "sequential" row
    // sequential on any host, and a twin drawn from the same RNG state with
    // four workers measures the same index in parallel.
    let params = |query_threads| {
        CorrelatedParams::new(ALPHA)
            .unwrap()
            .with_options(IndexOptions {
                repetitions: Repetitions::Fixed(4),
                query_threads,
                ..IndexOptions::default()
            })
    };
    let parallel4 = CorrelatedIndex::build(&ds, &profile, params(4), &mut rng.clone());
    let index = CorrelatedIndex::build(&ds, &profile, params(1), &mut rng);

    let mut g = c.benchmark_group(format!("join_r{R}_s{N}"));
    g.bench_function("lsf_index_sequential", |b| {
        b.iter(|| black_box(similarity_join(black_box(&r), &index)))
    });
    g.bench_function("lsf_index_parallel4", |b| {
        b.iter(|| black_box(similarity_join(black_box(&r), &parallel4)))
    });
    g.bench_function("nested_loop_exact", |b| {
        b.iter(|| black_box(nested_loop_join(black_box(&r), ds.vectors(), ALPHA / 1.3)))
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = skewsearch_bench::quick_criterion();
    targets = bench_join
}
criterion_main!(benches);
