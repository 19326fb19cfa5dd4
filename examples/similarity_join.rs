//! Similarity join: find all close pairs between two collections (§1.1 of
//! the paper — "Our results immediately apply to the problem of database
//! similarity joins").
//!
//! Indexes S once, probes with every r ∈ R on the index's batch executor
//! (one worker per core by default), and validates recall against the exact
//! nested-loop join.
//!
//! ```sh
//! cargo run --release --example similarity_join
//! ```

// Examples report wall-clock timings to the console by design; the
// disallowed-methods ban protects library code, not demo output.
#![allow(clippy::disallowed_methods)]

use rand::{rngs::StdRng, SeedableRng};
use skewsearch::core::{CorrelatedIndex, CorrelatedParams, SetSimilaritySearch};
use skewsearch::datagen::{correlated_query, BernoulliProfile, Dataset};
use skewsearch::join::{join_recall, nested_loop_join, similarity_join};
use skewsearch::sets::SparseVec;
use std::time::Instant;

fn main() {
    let mut rng = StdRng::seed_from_u64(99);

    // S: a skewed corpus. R: half correlated probes (true join partners),
    // half fresh draws (non-matches) — the "join size much smaller than R·S"
    // regime the paper's join argument assumes.
    let n_s = 10_000;
    let n_r = 1_000;
    let alpha = 0.8;
    let profile = BernoulliProfile::blocks(&[(240, 0.25), (12_000, 1.0 / 200.0)]).expect("profile");
    let s = Dataset::generate(&profile, n_s, &mut rng);
    let sampler = skewsearch::datagen::VectorSampler::new(&profile);
    let r: Vec<SparseVec> = (0..n_r)
        .map(|k| {
            if k % 2 == 0 {
                correlated_query(s.vector((k * 31) % n_s), &profile, alpha, &mut rng)
            } else {
                sampler.sample(&mut rng)
            }
        })
        .collect();

    let t = Instant::now();
    let index = CorrelatedIndex::build(
        &s,
        &profile,
        CorrelatedParams::new(alpha).expect("alpha"),
        &mut rng,
    );
    println!(
        "indexed |S| = {n_s} in {:?} (threshold b1 = α/1.3 = {:.3})",
        t.elapsed(),
        index.threshold()
    );

    let t = Instant::now();
    let pairs = similarity_join(&r, &index);
    let t_join = t.elapsed();
    println!("indexed join: {} pairs in {t_join:?}", pairs.len());

    let t = Instant::now();
    let truth = nested_loop_join(&r, s.vectors(), index.threshold());
    let t_exact = t.elapsed();
    println!(
        "exact nested loop: {} pairs in {t_exact:?} ({:.1}x slower than indexed)",
        truth.len(),
        t_exact.as_secs_f64() / t_join.as_secs_f64().max(1e-9)
    );
    println!(
        "join recall vs exact: {:.1}%",
        100.0 * join_recall(&pairs, &truth)
    );
}
