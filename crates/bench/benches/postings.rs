//! The compressed-postings trade-off, measured: bytes/set resident for a
//! `FxHashMap<u64, Vec<u32>>` bucket map vs the delta+varint
//! [`CompressedPostings`] arena over the same inverted index, and the time
//! to stream whole buckets out of each.
//!
//! What this bench reports, and checks nothing against: on skewed data at
//! n = 100k, the bytes/set of both substrates and the time to walk 512
//! whole dimension lists on each. Those lists are long, so the walk times
//! varint decoding, not the mostly-singleton LSF buckets a query probes.
//! Byte counts go to stderr as log lines (never into group names — see
//! `persist.rs`); latency rows are the Criterion groups.

use std::hint::black_box;

use criterion::Criterion;
use rand::{rngs::StdRng, Rng, SeedableRng};
use skewsearch_bench::bench_dataset;
use skewsearch_core::{
    CompressedPostings, CorrelatedIndex, CorrelatedParams, IndexOptions, PostingsEncoder,
    Repetitions, SetSimilaritySearch,
};
use skewsearch_hashing::FxHashMap;

const N: usize = 100_000;
const PROBES: usize = 512;

/// The inverted dim → ids index both substrates store: ids ascend within
/// each dimension because vectors are scanned in id order.
fn inverted_index(ds: &skewsearch_datagen::Dataset) -> FxHashMap<u64, Vec<u32>> {
    let mut map: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
    for (id, v) in ds.vectors().iter().enumerate() {
        for &dim in v.dims() {
            map.entry(dim as u64).or_default().push(id as u32);
        }
    }
    map
}

/// Re-encodes the bucket map through the postings encoder.
fn compress(map: &FxHashMap<u64, Vec<u32>>) -> CompressedPostings {
    let mut keys: Vec<u64> = map.keys().copied().collect();
    keys.sort_unstable();
    let mut enc = PostingsEncoder::new();
    for key in keys {
        for &id in &map[&key] {
            enc.push(key, id);
        }
    }
    enc.finish()
}

/// Resident heap bytes of the uncompressed bucket map: table slots
/// (key + Vec header + control byte, by capacity) plus every bucket's
/// id storage (by capacity) — the same accounting `memory_stats` uses for
/// the delta segment.
fn map_bytes(map: &FxHashMap<u64, Vec<u32>>) -> usize {
    let slot = std::mem::size_of::<u64>() + std::mem::size_of::<Vec<u32>>() + 1;
    map.capacity() * slot
        + map
            .values()
            .map(|bucket| bucket.capacity() * std::mem::size_of::<u32>())
            .sum::<usize>()
}

/// A deterministic probe plan mixing hot and cold dimensions, in the hashed
/// (non-sorted-key) order a real probe sequence arrives in.
fn probe_plan(map: &FxHashMap<u64, Vec<u32>>) -> Vec<u64> {
    let mut keys: Vec<u64> = map.keys().copied().collect();
    keys.sort_unstable();
    let mut rng = StdRng::seed_from_u64(0x9057);
    (0..PROBES)
        .map(|_| keys[rng.random_range(0..keys.len())])
        .collect()
}

fn bench_postings(c: &mut Criterion) {
    let (ds, _profile) = bench_dataset(N, true);
    let map = inverted_index(&ds);
    let compressed = compress(&map);
    assert_eq!(
        compressed.posting_count(),
        map.values().map(Vec::len).sum::<usize>()
    );

    let raw = map_bytes(&map);
    let packed = compressed.heap_bytes();
    eprintln!(
        "postings_n100k_skewed: {} buckets, {} postings; bucket_map {}B ({:.1} B/set) vs \
         compressed {}B ({:.1} B/set) — {:.2}x reduction",
        compressed.bucket_count(),
        compressed.posting_count(),
        raw,
        raw as f64 / N as f64,
        packed,
        packed as f64 / N as f64,
        raw as f64 / packed as f64,
    );

    let plan = probe_plan(&map);
    let mut g = c.benchmark_group("postings_walk_n100k_skewed");
    g.bench_function("bucket_map", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for key in &plan {
                if let Some(bucket) = map.get(key) {
                    for &id in bucket {
                        acc = acc.wrapping_add(id as u64);
                    }
                }
            }
            black_box(acc)
        })
    });
    g.bench_function("compressed", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for key in &plan {
                if let Some(cursor) = compressed.get(*key) {
                    for id in cursor {
                        acc = acc.wrapping_add(id as u64);
                    }
                }
            }
            black_box(acc)
        })
    });
    g.finish();

    // The same accounting through the full index: a real LsfIndex-backed build
    // at a scale the bench harness can afford, reporting the accounted
    // bytes/set breakdown end to end.
    let n_index = 10_000;
    let (ds, profile_small) = bench_dataset(n_index, true);
    let mut rng = StdRng::seed_from_u64(0xD15C);
    let index = CorrelatedIndex::build(
        &ds,
        &profile_small,
        CorrelatedParams::new(2.0 / 3.0)
            .unwrap()
            .with_options(IndexOptions {
                repetitions: Repetitions::Fixed(8),
                ..IndexOptions::default()
            }),
        &mut rng,
    );
    let stats = index.memory_stats();
    eprintln!(
        "correlated_index_n10k_skewed: {} — {:.1} B/set total \
         ({:.1} postings, {:.1} vectors, {:.1} aux)",
        stats,
        stats.bytes_per_set(n_index),
        stats.posting_bytes as f64 / n_index as f64,
        stats.vector_bytes as f64 / n_index as f64,
        stats.aux_bytes as f64 / n_index as f64,
    );
}

criterion::criterion_group! {
    name = benches;
    config = skewsearch_bench::quick_criterion();
    targets = bench_postings
}
criterion::criterion_main!(benches);
