//! Batch query throughput: the sequential per-query loop vs the batch
//! executor (`skewsearch_core::batch_map`, behind every `search_batch`
//! override) at 1/2/4/8 worker threads.
//!
//! The executor distributes queries by chunked work stealing, so on skewed
//! data — where per-query cost varies with `ρ(q)` — threads stay busy
//! behind expensive stragglers.
//! Results are identical to the sequential loop at every thread count; only
//! throughput changes. On a single-core host the threaded rows sit at
//! sequential parity (thread overhead only); the speedup shows on multicore.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use skewsearch_baselines::{MinHashLsh, MinHashParams};
use skewsearch_bench::{bench_dataset, bench_rng};
use skewsearch_core::{
    batch_map, CorrelatedIndex, CorrelatedParams, IndexOptions, Repetitions, SetSimilaritySearch,
};
use skewsearch_datagen::correlated_query;
use skewsearch_sets::SparseVec;
use std::hint::black_box;

const ALPHA: f64 = 2.0 / 3.0;
const N: usize = 2000;
const QUERIES: usize = 64;
const THREADS: [usize; 4] = [1, 2, 4, 8];

fn bench_batch(c: &mut Criterion) {
    let (ds, profile) = bench_dataset(N, true);
    let mut rng = bench_rng();
    let qs: Vec<SparseVec> = (0..QUERIES)
        .map(|t| correlated_query(ds.vector(t * 29 % ds.n()), &profile, ALPHA, &mut rng))
        .collect();
    let opts = IndexOptions {
        repetitions: Repetitions::Fixed(4),
        ..IndexOptions::default()
    };
    let ours = CorrelatedIndex::build(
        &ds,
        &profile,
        CorrelatedParams::new(ALPHA).unwrap().with_options(opts),
        &mut rng,
    );
    let (b1, b2) = skewsearch_rho::expected_similarities(&profile, ALPHA);
    let mh = MinHashLsh::build(
        &ds,
        MinHashParams::new((b1 / 1.3).max(b2 * 1.01), b2).unwrap(),
        &mut rng,
    );

    let mut g = c.benchmark_group(format!("batch_query_skewed_n{N}_q{QUERIES}"));
    g.bench_with_input(BenchmarkId::new("ours_sequential_loop", N), &qs, |b, qs| {
        b.iter(|| {
            for q in qs {
                black_box(ours.search_all(black_box(q)));
            }
        })
    });
    for threads in THREADS {
        g.bench_with_input(
            BenchmarkId::new(format!("ours_batch_t{threads}"), N),
            &qs,
            |b, qs| b.iter(|| black_box(batch_map(black_box(qs), threads, |q| ours.search_all(q)))),
        );
    }
    g.bench_with_input(
        BenchmarkId::new("minhash_sequential_loop", N),
        &qs,
        |b, qs| {
            b.iter(|| {
                for q in qs {
                    black_box(mh.search_all(black_box(q)));
                }
            })
        },
    );
    for threads in [1, 4] {
        g.bench_with_input(
            BenchmarkId::new(format!("minhash_batch_t{threads}"), N),
            &qs,
            |b, qs| b.iter(|| black_box(batch_map(black_box(qs), threads, |q| mh.search_all(q)))),
        );
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = skewsearch_bench::quick_criterion();
    targets = bench_batch
}
criterion_main!(benches);
