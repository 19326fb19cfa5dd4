//! # skewsearch-sets
//!
//! Sparse binary vector substrate for the `skewsearch` workspace.
//!
//! The paper ("Set Similarity Search for Skewed Data", McCauley, Mikkelsen,
//! Pagh, PODS 2018) represents data as sparse vectors `x ∈ {0,1}^d`, or
//! equivalently as subsets of a universe `U = {1, …, d}`. This crate provides:
//!
//! * [`SparseVec`] — the canonical representation: a sorted, duplicate-free
//!   list of set dimensions, with fast set algebra (merge- and gallop-based
//!   intersection, union, difference);
//! * [`similarity`] — every similarity measure the paper uses or references:
//!   Braun-Blanquet (the paper's working measure, §2), Jaccard, overlap,
//!   Sørensen–Dice, binary cosine, and Pearson correlation of binary vectors
//!   (the measure of the light-bulb-problem framing in §1).
//!   It also holds [`similarity::SetSignature`], a 256-bit set sketch whose
//!   [`similarity::braun_blanquet_bound`] is an exact upper bound, so a
//!   verifier can turn most candidates away without an intersection.
//!
//! # Example
//!
//! ```
//! use skewsearch_sets::{SparseVec, similarity};
//!
//! let x = SparseVec::from_unsorted(vec![5, 1, 3]);
//! let q = SparseVec::from_unsorted(vec![1, 3, 9, 11]);
//! assert_eq!(x.intersection_len(&q), 2);
//! assert_eq!(similarity::braun_blanquet(&x, &q), 2.0 / 4.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod similarity;
mod sparse;

pub use sparse::{SparseVec, GALLOP_RATIO};
