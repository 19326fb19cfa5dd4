//! Mutation throughput and the price of staying queryable: steady-state
//! insert/remove pairs (a delta-segment append, then a remove that takes
//! the set straight back out of its delta buckets; with and without the
//! auto-compaction schedule), amortized compaction, and query latency on a
//! heavily mutated index versus its from-scratch rebuild — the gap the
//! log-structured design trades against O(n) rebuild time.
//!
//! Answers are byte-identical across the mutated / compacted / rebuilt rows
//! (the contract `tests/mutation_equivalence.rs` pins); only cost changes.

use std::cell::RefCell;
use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::{rngs::StdRng, SeedableRng};
use skewsearch_bench::{bench_dataset, bench_rng};
use skewsearch_core::{CorrelatedScheme, IndexOptions, LsfIndex, Repetitions, SetSimilaritySearch};
use skewsearch_datagen::{correlated_query, BernoulliProfile, VectorSampler};
use skewsearch_sets::SparseVec;

const ALPHA: f64 = 2.0 / 3.0;
const N: usize = 1200;
const QUERIES: usize = 32;
const REPS: usize = 8;

/// Deterministic builder: the RNG is consumed only by the build and the
/// scheme is calibrated to the fixed base size, so the "rebuild over the
/// survivors" rows probe identical hash stacks (same trick as the
/// equivalence suite's oracle).
fn build(
    vectors: Vec<SparseVec>,
    profile: &BernoulliProfile,
    mutation_buffer: usize,
) -> LsfIndex<CorrelatedScheme> {
    let mut rng = StdRng::seed_from_u64(0xBE7C);
    LsfIndex::with_scheme(
        vectors,
        profile.clone(),
        CorrelatedScheme::new(ALPHA, N, profile),
        ALPHA / 1.3,
        IndexOptions {
            repetitions: Repetitions::Fixed(REPS),
            mutation_buffer,
            ..IndexOptions::default()
        },
        &mut rng,
    )
}

fn bench_mutation(c: &mut Criterion) {
    let (ds, profile) = bench_dataset(N, true);
    let mut rng = bench_rng();
    let sampler = VectorSampler::new(&profile);
    // Fresh sets to insert, recycled round-robin by the steady-state rows.
    let pool: Vec<SparseVec> = (0..256).map(|_| sampler.sample(&mut rng)).collect();
    let qs: Vec<SparseVec> = (0..QUERIES)
        .map(|t| correlated_query(ds.vector(t * 29 % ds.n()), &profile, ALPHA, &mut rng))
        .collect();

    let mut g = c.benchmark_group(format!("mutation_skewed_n{N}"));

    // Steady state: one insert + one remove of the set just inserted, which
    // leaves the delta buckets as soon as it is removed. With the
    // default-sized buffer, compaction still runs every 512 pairs; with the
    // buffer disabled the delta stays empty between pairs and only the
    // per-slot tables grow, so the two rows differ by the amortized
    // compactions.
    for (label, buffer) in [("buffer_1024", 1024), ("unbuffered", usize::MAX)] {
        let index = RefCell::new(build(ds.vectors().to_vec(), &profile, buffer));
        let turn = RefCell::new(0usize);
        g.bench_with_input(
            BenchmarkId::new(format!("insert_remove_pair_{label}"), N),
            &pool,
            |b, pool| {
                b.iter(|| {
                    let mut index = index.borrow_mut();
                    let mut turn = turn.borrow_mut();
                    let id = index.insert_set(black_box(pool[*turn % pool.len()].clone()));
                    *turn += 1;
                    black_box(index.remove_set(id))
                })
            },
        );
    }

    // Explicit compaction, amortized over a burst of mutations. The burst
    // removes each set right after inserting it, so the delta is empty and
    // the compaction re-encodes the base alone.
    {
        let index = RefCell::new(build(ds.vectors().to_vec(), &profile, usize::MAX));
        let turn = RefCell::new(0usize);
        g.bench_with_input(
            BenchmarkId::new("compact_after_16_mutations", N),
            &pool,
            |b, pool| {
                b.iter(|| {
                    let mut index = index.borrow_mut();
                    let mut turn = turn.borrow_mut();
                    for _ in 0..8 {
                        let id = index.insert_set(pool[*turn % pool.len()].clone());
                        *turn += 1;
                        index.remove_set(id);
                    }
                    index.compact();
                    black_box(index.len())
                })
            },
        );
    }

    // Query latency after a heavy mutation history: 300 build-time removals
    // and 256 fresh inserts, queried (a) with the delta segment and the
    // base tombstones live, (b) after compaction, (c) on a from-scratch
    // rebuild over the survivors — the floor the log structure is paying
    // against.
    let mutate = |index: &mut LsfIndex<CorrelatedScheme>| {
        for id in 0..300 {
            assert!(index.remove_set(id * 3));
        }
        for v in pool.iter().take(256) {
            index.insert_set(v.clone());
        }
    };
    let mut mutated = build(ds.vectors().to_vec(), &profile, usize::MAX);
    mutate(&mut mutated);
    let mut compacted = build(ds.vectors().to_vec(), &profile, usize::MAX);
    mutate(&mut compacted);
    compacted.compact();
    let survivors: Vec<SparseVec> = (0..mutated.slot_count())
        .filter(|&s| mutated.is_live(s))
        .map(|s| {
            if s < N {
                ds.vector(s).clone()
            } else {
                pool[s - N].clone()
            }
        })
        .collect();
    let rebuilt = build(survivors, &profile, usize::MAX);
    // Sanity: all three rows must measure an equivalent computation.
    assert_eq!(mutated.len(), rebuilt.len());
    assert_eq!(
        mutated.search_all(&qs[0]),
        compacted.search_all(&qs[0]),
        "compaction changed an answer — bench would be meaningless"
    );
    for (label, index) in [
        ("mutated", &mutated),
        ("compacted", &compacted),
        ("rebuilt", &rebuilt),
    ] {
        g.bench_with_input(
            BenchmarkId::new(format!("query_batch_{label}"), N),
            &qs,
            |b, qs| b.iter(|| black_box(index.search_batch(black_box(qs)))),
        );
    }

    g.finish();
}

criterion_group! {
    name = benches;
    config = skewsearch_bench::quick_criterion();
    targets = bench_mutation
}
criterion_main!(benches);
