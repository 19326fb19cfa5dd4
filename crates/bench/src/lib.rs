//! # skewsearch-bench
//!
//! Shared fixtures for the Criterion benchmark suite. One bench target per
//! paper artifact (see DESIGN.md §4) plus ablations and substrate
//! microbenches:
//!
//! * `fig1_rho` — Figure 1 exponent curves;
//! * `fig2_freq` — Figure 2 frequency-plot pipeline;
//! * `table1_ratios` — Table 1 independence ratios;
//! * `sec7_examples` — §7.1/§7.2 worked-example exponents;
//! * `motivating` — §1 harmonic split balance;
//! * `query_scaling` — query latency, ours vs every baseline;
//! * `batch_query` — sequential loop vs `search_batch` at 1/2/4/8 threads;
//! * `build_index` — preprocessing cost, ours vs every baseline;
//! * `ablation` — threshold adaptivity, stopping rule, δ-boost, hash family;
//! * `substrates` — intersections, samplers, hashers;
//! * `join` — similarity join vs nested loop, sequential vs parallel;
//! * `mutation` — insert/remove pairs, compaction, mutated vs rebuilt queries;
//! * `persist` — save and load of an index and a sharded deployment vs a
//!   rebuild;
//! * `postings` — compressed posting bytes and probes vs a bucket map;
//! * `service` — `/search` over loopback HTTP.
//!
//! All benches run with reduced sample counts so `cargo bench --workspace`
//! finishes at laptop scale; they are throughput/latency *shape* probes, not
//! publication-grade measurements.

#![forbid(unsafe_code)]

use criterion::Criterion;
use rand::{rngs::StdRng, SeedableRng};
use skewsearch_datagen::{BernoulliProfile, Dataset};
use std::time::Duration;

/// Standard bench RNG (fixed seed: benchmarks must be reproducible).
pub fn bench_rng() -> StdRng {
    StdRng::seed_from_u64(0xBE7C4)
}

/// The Figure 1 skewed profile sized for `n` vectors at `Σp = c ln n`.
pub fn skewed_profile(n: usize, c: f64) -> BernoulliProfile {
    let mass = c * (n as f64).ln();
    let pa = 0.25;
    let pb = pa / 8.0;
    BernoulliProfile::blocks(&[
        ((mass / 2.0 / pa).ceil() as usize, pa),
        ((mass / 2.0 / pb).ceil() as usize, pb),
    ])
    // lint:allow(no-panic-in-lib, bench fixture with hard-coded valid probabilities; a failure is a bug in this helper)
    .unwrap()
}

/// Uniform control with the same `Σp`.
pub fn uniform_profile(n: usize, c: f64) -> BernoulliProfile {
    let mass = c * (n as f64).ln();
    let p = 0.25;
    // lint:allow(no-panic-in-lib, bench fixture with hard-coded valid probabilities; a failure is a bug in this helper)
    BernoulliProfile::uniform((mass / p).ceil() as usize, p).unwrap()
}

/// A dataset plus its profile at the standard bench scale.
pub fn bench_dataset(n: usize, skewed: bool) -> (Dataset, BernoulliProfile) {
    let profile = if skewed {
        skewed_profile(n, 8.0)
    } else {
        uniform_profile(n, 8.0)
    };
    let mut rng = bench_rng();
    let ds = Dataset::generate(&profile, n, &mut rng);
    (ds, profile)
}

/// Short-run Criterion configuration shared by all targets.
pub fn quick_criterion() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(1200))
        .configure_from_args()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_have_requested_mass() {
        let n = 1000;
        let s = skewed_profile(n, 8.0);
        let u = uniform_profile(n, 8.0);
        let target = 8.0 * (n as f64).ln();
        assert!((s.sum_p() - target).abs() / target < 0.01);
        assert!((u.sum_p() - target).abs() / target < 0.01);
    }

    #[test]
    fn dataset_fixture_is_deterministic() {
        let (a, _) = bench_dataset(50, true);
        let (b, _) = bench_dataset(50, true);
        assert_eq!(a.vector(7), b.vector(7));
    }
}
