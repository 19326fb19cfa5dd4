//! Persistence cost: container save/load throughput and the cold-start
//! question the format exists to answer — how much faster is reopening a
//! saved index than rebuilding it from the raw vectors?
//!
//! Answers are byte-identical between the built and reloaded index
//! (`tests/persist_equivalence.rs` pins this); these rows measure only the
//! durability cost, on the same skewed dataset the other benches use.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::{rngs::StdRng, SeedableRng};
use skewsearch_bench::bench_dataset;
use skewsearch_core::{
    CorrelatedIndex, CorrelatedParams, CorrelatedScheme, IndexOptions, Repetitions,
    SetSimilaritySearch, ShardedIndex,
};

const ALPHA: f64 = 2.0 / 3.0;
const N: usize = 1200;
const REPS: usize = 8;
const SHARDS: usize = 4;

fn build(
    ds: &skewsearch_datagen::Dataset,
    profile: &skewsearch_datagen::BernoulliProfile,
) -> CorrelatedIndex {
    let mut rng = StdRng::seed_from_u64(0xD15C);
    CorrelatedIndex::build(
        ds,
        profile,
        CorrelatedParams::new(ALPHA)
            .unwrap()
            .with_options(IndexOptions {
                repetitions: Repetitions::Fixed(REPS),
                ..IndexOptions::default()
            }),
        &mut rng,
    )
}

fn bench_persist(c: &mut Criterion) {
    let (ds, profile) = bench_dataset(N, true);
    let index = build(&ds, &profile);
    let sharded = ShardedIndex::build(&index, SHARDS);

    let dir = std::env::temp_dir().join(format!("skewsearch_bench_persist_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("correlated.skx");
    let shard_dir = dir.join("sharded");
    index.save(&file).unwrap();
    sharded.save(&shard_dir).unwrap();
    let bytes = std::fs::metadata(&file).unwrap().len();
    // Report the on-disk size as a log line, NOT in the group name: a name
    // that embeds the byte count changes whenever the encoding does, which
    // breaks `cargo bench -- --save-baseline` comparisons across commits.
    let resident = index.memory_stats().total();
    eprintln!(
        "persist_skewed_n{N}: file={bytes}B ({:.1} B/set), resident={resident}B ({:.1} B/set)",
        bytes as f64 / N as f64,
        resident as f64 / N as f64,
    );

    let mut g = c.benchmark_group(format!("persist_skewed_n{N}"));
    g.bench_with_input(BenchmarkId::new("save", N), &index, |b, index| {
        b.iter(|| black_box(index).save(&file).unwrap())
    });
    g.bench_with_input(BenchmarkId::new("load", N), &file, |b, file| {
        b.iter(|| black_box(CorrelatedIndex::load(file).unwrap()))
    });
    // The alternative to load: rebuild from the raw vectors. The gap is the
    // cold-start win durable indexes buy.
    g.bench_with_input(BenchmarkId::new("rebuild", N), &ds, |b, ds| {
        b.iter(|| black_box(build(ds, &profile)))
    });
    g.bench_with_input(
        BenchmarkId::new("save_sharded", N),
        &sharded,
        |b, sharded| b.iter(|| black_box(sharded).save(&shard_dir).unwrap()),
    );
    g.bench_with_input(BenchmarkId::new("load_sharded", N), &shard_dir, |b, dir| {
        b.iter(|| black_box(ShardedIndex::<CorrelatedScheme>::load(dir).unwrap()))
    });
    g.finish();

    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group! {
    name = benches;
    config = skewsearch_bench::quick_criterion();
    targets = bench_persist
}
criterion_main!(benches);
