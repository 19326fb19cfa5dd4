//! # skewsearch-baselines
//!
//! Every comparator discussed by "Set Similarity Search for Skewed Data":
//!
//! * [`ChosenPathIndex`] — Christiani & Pagh's Chosen Path \[18\], the
//!   non-adaptive ancestor of the paper's structure (constant thresholds,
//!   fixed depth, with-replacement). It is `LsfIndex<ChosenPathScheme>`, the
//!   same engine as the core indexes, so comparisons are apples-to-apples
//!   (Figure 1's blue line); its type and parameters live in
//!   `skewsearch-core` beside the scheme and are re-exported here.
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
pub mod chosen_path;
pub mod minhash;
pub mod prefix;

pub use brute::BruteForce;
pub use chosen_path::{ChosenPathIndex, ChosenPathParams};
pub use minhash::{MinHashLsh, MinHashParams};
pub use prefix::PrefixFilterIndex;
