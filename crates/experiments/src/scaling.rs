//! Empirical validation of Theorems 1 and 2: candidate-count scaling.
//!
//! The paper's bounds say the expected number of candidates a query examines
//! grows as `n^ρ` (times `log n` factors from repetitions). This experiment
//! measures distinct verified candidates per query across an `n`-sweep for
//! the paper's index and every baseline, fits the empirical exponent by
//! least squares on the log-log series, and reports it against the
//! analytical ρ. The *shape* claims under test:
//!
//! * on a skewed profile, the fitted exponent of our structure sits below
//!   Chosen Path's;
//! * on a uniform profile the two coincide (the balanced-case recovery);
//! * brute force is exponent 1 by construction.

use crate::table::{fmt, Table};
use rand::{rngs::StdRng, Rng, SeedableRng};
use skewsearch_baselines::{MinHashLsh, MinHashParams, PrefixFilterIndex};
use skewsearch_core::{
    batch_map, ChosenPathIndex, ChosenPathParams, CorrelatedIndex, CorrelatedParams, IndexOptions,
    ProbeControl, Repetitions,
};
use skewsearch_datagen::{correlated_query, skew::least_squares_slope, BernoulliProfile, Dataset};

/// Sweep configuration.
#[derive(Clone, Debug)]
pub struct ScalingConfig {
    /// Dataset sizes to sweep.
    pub ns: Vec<usize>,
    /// Queries per size.
    pub queries: usize,
    /// Correlation of the planted queries.
    pub alpha: f64,
    /// The paper's `C`: each profile has `Σp = c · ln n`.
    pub c: f64,
    /// Head probability (half the mass); tail = `head_p / skew_divisor`.
    pub head_p: f64,
    /// Skew: tail probability divisor (1.0 = uniform control).
    pub skew_divisor: f64,
    /// Repetitions per index (fixed so the exponent is clean).
    pub repetitions: usize,
    /// RNG seed.
    pub seed: u64,
}

impl ScalingConfig {
    /// A laptop-scale default sweep on the Figure 1 distribution.
    pub fn default_skewed() -> Self {
        Self {
            ns: vec![500, 1000, 2000, 4000],
            queries: 40,
            alpha: 2.0 / 3.0,
            c: 8.0,
            head_p: 0.25,
            skew_divisor: 8.0,
            repetitions: 5,
            seed: 0xC0FFEE,
        }
    }

    /// The matching uniform control (no skew).
    pub fn default_uniform() -> Self {
        Self {
            skew_divisor: 1.0,
            ..Self::default_skewed()
        }
    }

    /// The `Σp = c ln n` two-block profile for a given `n`: half the mass at
    /// `head_p`, half at `head_p / skew_divisor`.
    pub fn profile_for(&self, n: usize) -> BernoulliProfile {
        let mass = self.c * (n as f64).ln();
        let pa = self.head_p;
        let pb = self.head_p / self.skew_divisor;
        let head_count = (mass / 2.0 / pa).ceil() as usize;
        let tail_count = (mass / 2.0 / pb).ceil() as usize;
        // lint:allow(no-panic-in-lib, experiment fixture with hard-coded valid probabilities; a failure is a bug in this module)
        BernoulliProfile::blocks(&[(head_count, pa), (tail_count, pb)]).unwrap()
    }
}

/// Per-(method, n) measurement.
#[derive(Clone, Debug)]
pub struct ScalingPoint {
    /// Method label.
    pub method: &'static str,
    /// Dataset size.
    pub n: usize,
    /// Mean distinct candidates per query.
    pub avg_candidates: f64,
    /// Fraction of queries whose planted target was returned.
    pub recall: f64,
}

/// Sweep result.
#[derive(Clone, Debug)]
pub struct Scaling {
    /// All measurements.
    pub points: Vec<ScalingPoint>,
    /// Analytical ρ of our structure on the largest profile.
    pub predicted_rho_ours: f64,
    /// Analytical ρ of Chosen Path for the induced problem.
    pub predicted_rho_cp: f64,
}

/// Methods measured by the sweep.
pub const METHODS: [&str; 5] = ["ours", "chosen_path", "minhash", "prefix", "brute"];

/// Runs the sweep.
pub fn run(config: &ScalingConfig) -> Scaling {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut points = Vec::new();
    let opts = IndexOptions {
        repetitions: Repetitions::Fixed(config.repetitions),
        ..IndexOptions::default()
    };
    for &n in &config.ns {
        let profile = config.profile_for(n);
        let ds = Dataset::generate(&profile, n, &mut rng);
        let ours = CorrelatedIndex::build(
            &ds,
            &profile,
            CorrelatedParams::new(config.alpha)
                // lint:allow(no-panic-in-lib, experiment driver — an invalid experiment config is a fatal setup error reported by panicking)
                .unwrap()
                .with_options(opts),
            &mut rng,
        );
        let cp = ChosenPathIndex::build(
            &ds,
            &profile,
            ChosenPathParams::for_correlated_model(&profile, config.alpha, 1.0 / 1.3)
                // lint:allow(no-panic-in-lib, experiment driver — an invalid experiment config is a fatal setup error reported by panicking)
                .unwrap()
                .with_options(opts),
            &mut rng,
        );
        let (b1m, b2m) = skewsearch_rho::expected_similarities(&profile, config.alpha);
        let mh = MinHashLsh::build(
            &ds,
            // lint:allow(no-panic-in-lib, experiment driver — an invalid experiment config is a fatal setup error reported by panicking)
            MinHashParams::new((b1m / 1.3).max(b2m * 1.01), b2m).unwrap(),
            &mut rng,
        );
        let pf = PrefixFilterIndex::build(&ds, config.alpha / 1.3);

        // The whole query batch is generated up front (same RNG order as the
        // old per-query loop, so sweeps are bit-identical) and the LSF-based
        // methods are measured through the batch subsystem.
        let mut targets = Vec::with_capacity(config.queries);
        let mut qs = Vec::with_capacity(config.queries);
        for _ in 0..config.queries {
            let target = rng.random_range(0..n);
            targets.push(target);
            qs.push(correlated_query(
                ds.vector(target),
                &profile,
                config.alpha,
                &mut rng,
            ));
        }

        let mut cands = [0f64; 5];
        let mut recalls = [0f64; 5];
        for (m, batch) in [
            batch_map(&qs, 0, |q| ours.distinct_candidates(q)),
            batch_map(&qs, 0, |q| cp.distinct_candidates(q)),
        ]
        .into_iter()
        .enumerate()
        {
            for (&target, (ids, _)) in targets.iter().zip(batch) {
                cands[m] += ids.len() as f64;
                recalls[m] += ids.contains(&(target as u32)) as u8 as f64;
            }
        }
        for (&target, q) in targets.iter().zip(&qs) {
            // minhash
            let mut got = false;
            let mut c = 0usize;
            let _ = mh.walk(q, ProbeControl::ALL, |_, id| {
                c += 1;
                got |= id == target as u32;
                true
            });
            cands[2] += c as f64;
            recalls[2] += got as u8 as f64;
            // prefix
            let mut got = false;
            let mut c = 0usize;
            pf.probe(q, |id| {
                c += 1;
                got |= id == target as u32;
                true
            });
            cands[3] += c as f64;
            recalls[3] += got as u8 as f64;
            // brute
            cands[4] += n as f64;
            recalls[4] += 1.0;
        }
        for (m, method) in METHODS.iter().enumerate() {
            points.push(ScalingPoint {
                method,
                n,
                avg_candidates: cands[m] / config.queries as f64,
                recall: recalls[m] / config.queries as f64,
            });
        }
    }
    // lint:allow(no-panic-in-lib, experiment configs always list at least one problem size; an empty ns is a fatal setup error)
    let last_profile = config.profile_for(*config.ns.last().unwrap());
    let (b1, b2) = skewsearch_rho::expected_similarities(&last_profile, config.alpha);
    Scaling {
        points,
        predicted_rho_ours: skewsearch_rho::rho_correlated(&last_profile, config.alpha),
        predicted_rho_cp: skewsearch_rho::rho_chosen_path(b1, b2),
    }
}

/// Theorem 2 validation: adversarial (non-model) queries — random bit
/// deletions of planted targets — against an
/// [`AdversarialIndex`](skewsearch_core::AdversarialIndex) at fixed
/// `b₁`, with brute force as the cost yardstick. Returns the same
/// [`Scaling`] shape with methods `ours`/`brute` populated.
pub fn run_adversarial(config: &ScalingConfig, b1: f64, deletions: usize) -> Scaling {
    use skewsearch_core::{AdversarialIndex, AdversarialParams};
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0xAD7E);
    let opts = IndexOptions {
        repetitions: Repetitions::Fixed(config.repetitions),
        ..IndexOptions::default()
    };
    let mut points = Vec::new();
    for &n in &config.ns {
        let profile = config.profile_for(n);
        let ds = Dataset::generate(&profile, n, &mut rng);
        let index = AdversarialIndex::build(
            &ds,
            &profile,
            // lint:allow(no-panic-in-lib, experiment driver — an invalid experiment config is a fatal setup error reported by panicking)
            AdversarialParams::new(b1).unwrap().with_options(opts),
            &mut rng,
        );
        // Generate the adversarial batch up front (same RNG order as the old
        // per-query loop), keeping only edits that preserved b₁-similarity,
        // then measure through the batch subsystem.
        let mut targets = Vec::with_capacity(config.queries);
        let mut qs = Vec::with_capacity(config.queries);
        for _ in 0..config.queries {
            let target = rng.random_range(0..n);
            let x = ds.vector(target);
            let mut dims = x.dims().to_vec();
            for _ in 0..deletions.min(dims.len().saturating_sub(1)) {
                dims.remove(rng.random_range(0..dims.len()));
            }
            let q = skewsearch_sets::SparseVec::from_sorted(dims);
            if skewsearch_sets::similarity::braun_blanquet(x, &q) < b1 {
                continue; // edit broke the planted similarity; skip
            }
            targets.push(target);
            qs.push(q);
        }
        let mut cands = 0f64;
        let mut recall = 0f64;
        let batch = batch_map(&qs, 0, |q| index.distinct_candidates(q));
        for (&target, (ids, _)) in targets.iter().zip(batch) {
            cands += ids.len() as f64;
            recall += ids.contains(&(target as u32)) as u8 as f64;
        }
        let usable = qs.len().max(1) as f64;
        points.push(ScalingPoint {
            method: "ours",
            n,
            avg_candidates: cands / usable,
            recall: recall / usable,
        });
        points.push(ScalingPoint {
            method: "brute",
            n,
            avg_candidates: n as f64,
            recall: 1.0,
        });
    }
    // lint:allow(no-panic-in-lib, experiment configs always list at least one problem size; an empty ns is a fatal setup error)
    let last_profile = config.profile_for(*config.ns.last().unwrap());
    Scaling {
        points,
        predicted_rho_ours: skewsearch_rho::rho_adversarial_space(&last_profile, b1),
        predicted_rho_cp: f64::NAN,
    }
}

/// Per-(n, shard-count) measurement of the sharded sweep.
#[derive(Clone, Debug)]
pub struct ShardedPoint {
    /// Dataset size.
    pub n: usize,
    /// Shard count.
    pub shards: usize,
    /// Mean verified matches per query.
    pub avg_matches: f64,
    /// Fraction of queries whose planted target was returned.
    pub recall: f64,
    /// Whether every per-query answer was byte-identical to the unsharded
    /// index's (the sharding layer's core guarantee — must always be true).
    pub identical: bool,
}

/// Result of [`run_sharded`].
#[derive(Clone, Debug)]
pub struct ShardedScaling {
    /// All measurements.
    pub points: Vec<ShardedPoint>,
}

impl ShardedScaling {
    /// Measurement table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Sharded scaling: matches per query and equivalence vs the unsharded index",
            &["n", "shards", "avg_matches", "recall", "identical"],
        );
        for p in &self.points {
            t.push_row(vec![
                p.n.to_string(),
                p.shards.to_string(),
                fmt(p.avg_matches, 2),
                fmt(p.recall, 3),
                p.identical.to_string(),
            ]);
        }
        t
    }

    /// True iff every sharded row reproduced the unsharded answers exactly.
    pub fn all_identical(&self) -> bool {
        self.points.iter().all(|p| p.identical)
    }
}

/// The sharded variant of [`run`]: sweeps the correlated index over the same
/// `n`-grid, wrapping it in a [`ShardedIndex`](skewsearch_core::ShardedIndex)
/// at each shard count, and checks that every answer is byte-identical to
/// the unsharded index while recording recall/throughput proxies (an
/// identical row's figures are the unsharded index's). Queries are answered
/// through the batch subsystem.
pub fn run_sharded(config: &ScalingConfig, shard_counts: &[usize]) -> ShardedScaling {
    use skewsearch_core::{SetSimilaritySearch, ShardedIndex};
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x54A8D);
    let opts = IndexOptions {
        repetitions: Repetitions::Fixed(config.repetitions),
        ..IndexOptions::default()
    };
    let mut points = Vec::new();
    for &n in &config.ns {
        let profile = config.profile_for(n);
        let ds = Dataset::generate(&profile, n, &mut rng);
        let index = CorrelatedIndex::build(
            &ds,
            &profile,
            CorrelatedParams::new(config.alpha)
                // lint:allow(no-panic-in-lib, experiment driver — an invalid experiment config is a fatal setup error reported by panicking)
                .unwrap()
                .with_options(opts),
            &mut rng,
        );
        let mut targets = Vec::with_capacity(config.queries);
        let mut qs = Vec::with_capacity(config.queries);
        for _ in 0..config.queries {
            let target = rng.random_range(0..n);
            targets.push(target);
            qs.push(correlated_query(
                ds.vector(target),
                &profile,
                config.alpha,
                &mut rng,
            ));
        }
        let measure = |results: &[Vec<skewsearch_core::Match>]| {
            let matches: usize = results.iter().map(Vec::len).sum();
            let recall = targets
                .iter()
                .zip(results)
                .filter(|(&t, ms)| ms.iter().any(|m| m.id == t))
                .count();
            (
                matches as f64 / config.queries as f64,
                recall as f64 / config.queries as f64,
            )
        };
        let unsharded = index.search_batch(&qs);
        for &shards in shard_counts {
            let results = ShardedIndex::build(&index, shards).search_batch(&qs);
            let (avg, rec) = measure(&results);
            points.push(ShardedPoint {
                n,
                shards,
                avg_matches: avg,
                recall: rec,
                identical: results == unsharded,
            });
        }
    }
    ShardedScaling { points }
}

impl Scaling {
    /// Least-squares exponent of `avg_candidates` vs `n` for one method.
    pub fn fitted_exponent(&self, method: &str) -> f64 {
        let pts: Vec<(f64, f64)> = self
            .points
            .iter()
            .filter(|p| p.method == method)
            .map(|p| ((p.n as f64).ln(), p.avg_candidates.max(1.0).ln()))
            .collect();
        least_squares_slope(&pts)
    }

    /// Mean recall of a method across the sweep.
    pub fn mean_recall(&self, method: &str) -> f64 {
        let v: Vec<f64> = self
            .points
            .iter()
            .filter(|p| p.method == method)
            .map(|p| p.recall)
            .collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    }

    /// Per-point measurement table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Candidate scaling: distinct candidates per query vs n",
            &["method", "n", "avg_candidates", "recall"],
        );
        for p in &self.points {
            t.push_row(vec![
                p.method.to_string(),
                p.n.to_string(),
                fmt(p.avg_candidates, 1),
                fmt(p.recall, 3),
            ]);
        }
        t
    }

    /// Fitted-exponent summary table.
    pub fn summary(&self) -> Table {
        let mut t = Table::new(
            "Fitted exponents (log-log slope of candidates vs n)",
            &["method", "fitted_exponent", "predicted_rho", "mean_recall"],
        );
        for m in METHODS {
            if !self.points.iter().any(|p| p.method == m) {
                continue; // method not measured in this run (e.g. adversarial)
            }
            let predicted = match m {
                "ours" => fmt(self.predicted_rho_ours, 4),
                "chosen_path" => fmt(self.predicted_rho_cp, 4),
                "brute" => "1.0000".to_string(),
                _ => "-".to_string(),
            };
            t.push_row(vec![
                m.to_string(),
                fmt(self.fitted_exponent(m), 4),
                predicted,
                fmt(self.mean_recall(m), 3),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small sweep shared by the assertions below (debug builds are slow).
    fn tiny_sweep(skew: f64, seed: u64) -> Scaling {
        run(&ScalingConfig {
            ns: vec![250, 500, 1000],
            queries: 25,
            alpha: 0.75,
            c: 6.0,
            head_p: 0.25,
            skew_divisor: skew,
            repetitions: 4,
            seed,
        })
    }

    #[test]
    fn brute_force_exponent_is_one() {
        let s = tiny_sweep(8.0, 1);
        assert!((s.fitted_exponent("brute") - 1.0).abs() < 1e-9);
        assert_eq!(s.mean_recall("brute"), 1.0);
    }

    #[test]
    fn ours_scales_sublinearly_with_good_recall() {
        let s = tiny_sweep(8.0, 2);
        let e = s.fitted_exponent("ours");
        assert!(e < 0.85, "fitted exponent {e} not sublinear");
        assert!(
            s.mean_recall("ours") >= 0.75,
            "recall {}",
            s.mean_recall("ours")
        );
    }

    #[test]
    fn ours_beats_chosen_path_in_predicted_and_fitted_exponent() {
        // Absolute candidate counts are dominated by constants at these tiny
        // scales (our (1+δ) boost costs ~2^depth, CP has none); the theorem
        // statements are about *exponents*, so that is what we compare:
        // the analytic prediction strictly, the noisy empirical fit loosely.
        let s = tiny_sweep(8.0, 3);
        assert!(
            s.predicted_rho_ours < s.predicted_rho_cp - 0.01,
            "predicted ours={} cp={}",
            s.predicted_rho_ours,
            s.predicted_rho_cp
        );
        // CP's fitted exponent is not comparable at tiny scales: its depth
        // k = ⌈ln n / ln(1/b2)⌉ is a step function of n, and a k-jump inside
        // the sweep makes the log-log fit swing wildly (this is the fixed-
        // depth quantization the paper's product stopping rule removes).
        // Assert only that our own fit is sane and sublinear.
        let fit_ours = s.fitted_exponent("ours");
        assert!(
            (0.0..0.95).contains(&fit_ours),
            "fitted ours={fit_ours} out of range"
        );
    }

    #[test]
    fn adversarial_scaling_is_sublinear_with_good_recall() {
        let config = ScalingConfig {
            ns: vec![250, 500, 1000],
            queries: 25,
            alpha: 0.75,
            c: 6.0,
            head_p: 0.25,
            skew_divisor: 8.0,
            repetitions: 6,
            seed: 5,
        };
        let s = run_adversarial(&config, 0.7, 2);
        let e = s.fitted_exponent("ours");
        assert!(e < 0.9, "fitted exponent {e}");
        assert!(
            s.mean_recall("ours") >= 0.7,
            "recall {}",
            s.mean_recall("ours")
        );
        assert!(s.predicted_rho_ours > 0.0 && s.predicted_rho_ours < 1.0);
    }

    #[test]
    fn sharded_sweep_is_byte_identical_with_good_recall() {
        let config = ScalingConfig {
            ns: vec![250, 500],
            queries: 20,
            alpha: 0.75,
            c: 6.0,
            head_p: 0.25,
            skew_divisor: 8.0,
            repetitions: 4,
            seed: 6,
        };
        let s = run_sharded(&config, &[1, 4]);
        assert!(
            s.all_identical(),
            "sharded answers diverged: {:?}",
            s.points
        );
        // 2 ns × 2 shard counts.
        assert_eq!(s.points.len(), 4);
        for p in &s.points {
            assert!(p.recall >= 0.7, "{p:?}");
        }
        assert_eq!(s.table().rows.len(), 4);
    }

    #[test]
    fn all_methods_have_points_for_every_n() {
        let s = tiny_sweep(1.0, 4);
        for m in METHODS {
            let count = s.points.iter().filter(|p| p.method == m).count();
            assert_eq!(count, 3, "{m}");
        }
        let t = s.table();
        assert_eq!(t.rows.len(), 15);
        assert_eq!(s.summary().rows.len(), 5);
    }
}
