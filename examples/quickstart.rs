//! Quickstart: index a skewed dataset, answer correlated queries, and
//! compare against an exact scan.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

// Examples report wall-clock timings to the console by design; the
// disallowed-methods ban protects library code, not demo output.
#![allow(clippy::disallowed_methods)]

use rand::{rngs::StdRng, SeedableRng};
use skewsearch::baselines::BruteForce;
use skewsearch::core::{CorrelatedIndex, CorrelatedParams, SetSimilaritySearch};
use skewsearch::datagen::{correlated_query, BernoulliProfile, Dataset};
use std::time::Instant;

fn main() {
    let mut rng = StdRng::seed_from_u64(7);

    // A skewed universe in the style of the paper's Figure 1: a small block
    // of frequent dimensions and a large block of rare ones.
    let n = 20_000;
    let profile =
        BernoulliProfile::blocks(&[(320, 0.25), (25_600, 1.0 / 320.0)]).expect("valid profile");
    println!(
        "universe d = {}, expected set size Σp = {:.1}, C = Σp/ln n = {:.1}",
        profile.d(),
        profile.sum_p(),
        profile.c_constant(n)
    );

    let t = Instant::now();
    let data = Dataset::generate(&profile, n, &mut rng);
    println!("sampled n = {} vectors in {:?}", data.n(), t.elapsed());

    // Build the Theorem 1 index for α-correlated queries.
    let alpha = 0.75;
    let params = CorrelatedParams::new(alpha).expect("valid alpha");
    let t = Instant::now();
    let index = CorrelatedIndex::build(&data, &profile, params, &mut rng);
    println!(
        "built CorrelatedIndex in {:?}: {} repetitions, {:.1} filters/vector, predicted rho = {:.3}",
        t.elapsed(),
        index.build_stats().repetitions,
        index
            .build_stats()
            .avg_filters_per_vector(data.n()),
        index.predicted_rho()
    );
    for w in &index.diagnostics().warnings {
        println!("model warning: {w}");
    }

    // Answer correlated queries; verify against the exact oracle.
    let brute = BruteForce::new(data.vectors().to_vec(), index.threshold());
    let queries = 200;
    let mut hits = 0;
    let mut agree = 0;
    let t = Instant::now();
    let mut index_time = std::time::Duration::ZERO;
    for k in 0..queries {
        let target = (k * 97) % data.n();
        let q = correlated_query(data.vector(target), &profile, alpha, &mut rng);
        let ti = Instant::now();
        let got = index.search(&q);
        index_time += ti.elapsed();
        if got.map(|m| m.id) == Some(target) {
            hits += 1;
        }
        if got.is_some() == brute.search(&q).is_some() {
            agree += 1;
        }
    }
    println!(
        "answered {queries} correlated queries in {:?} (index time {:?}, {:.0} µs/query)",
        t.elapsed(),
        index_time,
        index_time.as_micros() as f64 / queries as f64
    );
    println!(
        "recall of planted neighbor: {:.1}%  |  agreement with exact scan: {:.1}%",
        100.0 * hits as f64 / queries as f64,
        100.0 * agree as f64 / queries as f64
    );

    // For scale: what one exact scan costs.
    let q = correlated_query(data.vector(0), &profile, alpha, &mut rng);
    let t = Instant::now();
    let _ = brute.search_all(&q);
    println!("one exact brute-force scan: {:?}", t.elapsed());
}
