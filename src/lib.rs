//! # skewsearch
//!
//! A faithful, production-quality Rust implementation of
//! **"Set Similarity Search for Skewed Data"** (Samuel McCauley, Jesper W.
//! Mikkelsen, Rasmus Pagh — PODS 2018, arXiv:1804.03054), together with every
//! substrate and baseline the paper depends on and a harness reproducing all
//! of its tables and figures.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`core`] — the paper's contribution: skew-adaptive locality-sensitive
//!   filtering ([`core::CorrelatedIndex`] for Theorem 1,
//!   [`core::AdversarialIndex`] for Theorem 2), and the Chosen Path
//!   baseline it generalizes ([`core::ChosenPathIndex`]), on the same engine.
//! * [`baselines`] — MinHash LSH, prefix filtering, brute force.
//! * [`datagen`] — the skewed Bernoulli data model of §2 and Kirsch et al.,
//!   correlated query generation (Definition 3), skew analysis (§8).
//! * [`rho`] — solvers for the exponent equations of Theorems 1 and 2.
//! * [`join`] — set similarity joins via repeated search (§1.1).
//! * [`sets`], [`hashing`] — sparse-vector and hashing substrates.
//! * [`server`] — the long-lived query service: bounded admission,
//!   per-request deadlines, byte-identical answers over the wire
//!   (`docs/SERVICE.md`).
//! * [`experiments`] — the table/figure reproduction harness, including the
//!   §1 motivating example's frequent/rare split exponents.
//!
//! # Quickstart
//!
//! ```
//! use rand::{rngs::StdRng, SeedableRng};
//! use skewsearch::core::{CorrelatedIndex, CorrelatedParams, SetSimilaritySearch};
//! use skewsearch::datagen::{BernoulliProfile, Dataset};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! // A skewed universe: 200 frequent dimensions, 4000 rare ones.
//! let profile = BernoulliProfile::blocks(&[(200, 0.25), (4000, 0.005)]).unwrap();
//! let data = Dataset::generate(&profile, 2000, &mut rng);
//!
//! // Index for alpha-correlated queries (Theorem 1).
//! let params = CorrelatedParams::new(0.7).unwrap();
//! let index = CorrelatedIndex::build(&data, &profile, params, &mut rng);
//!
//! // A query correlated with data vector 0 is (very likely) found.
//! let q = skewsearch::datagen::correlated_query(data.vector(0), &profile, 0.7, &mut rng);
//! let hit = index.search(&q);
//! assert!(hit.is_some());
//! ```

#![forbid(unsafe_code)]

pub use skewsearch_baselines as baselines;
pub use skewsearch_core as core;
pub use skewsearch_datagen as datagen;
pub use skewsearch_experiments as experiments;
pub use skewsearch_hashing as hashing;
pub use skewsearch_join as join;
pub use skewsearch_rho as rho;
pub use skewsearch_server as server;
pub use skewsearch_sets as sets;
