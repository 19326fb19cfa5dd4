//! # skewsearch-baselines
//!
//! The comparators discussed by "Set Similarity Search for Skewed Data"
//! apart from Christiani & Pagh's Chosen Path \[18\], which runs on the
//! paper's own engine as [`skewsearch_core::ChosenPathIndex`]:
//!
//! * [`MinHashLsh`] — classic MinHash banding \[13, 14\], the baseline Chosen
//!   Path itself improves on (§1.2).
//! * [`PrefixFilterIndex`] — exact prefix filtering \[11\], the canonical
//!   skew-exploiting heuristic (§1.2 "Heuristics"; cost exponent `Ω(n^{0.1})`
//!   vs ρ→0 in §7's examples).
//! * [`BruteForce`] — exact linear scan; the correctness oracle for tests,
//!   joins, and benchmarks.
//!
//! All implement [`skewsearch_core::SetSimilaritySearch`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod brute;
pub mod minhash;
pub mod prefix;

pub use brute::BruteForce;
pub use minhash::{MinHashLsh, MinHashParams};
pub use prefix::PrefixFilterIndex;
