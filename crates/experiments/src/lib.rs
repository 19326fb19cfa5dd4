//! # skewsearch-experiments
//!
//! Reproduction harness for every table and figure of
//! "Set Similarity Search for Skewed Data" (PODS 2018), plus empirical
//! validation of its theorems:
//!
//! | module | paper artifact |
//! |---|---|
//! | [`fig1`] | Figure 1 — ρ of ours vs Chosen Path, half-`p`/half-`p/8`, α = 2/3 |
//! | [`fig2`] | Figure 2 — frequency distributions of the Mann et al. datasets |
//! | [`table1`] | Table 1 — independence ratios for `\|I\| ∈ {2, 3}` |
//! | [`sec7`] | §7.1/§7.2 worked examples (exponent comparisons) |
//! | [`motivating`] | §1 motivating example (harmonic split) |
//! | [`scaling`] | Theorems 1–2 empirical validation (candidate scaling, added) |
//! | [`recall`] | Lemma 5 repetition boost (added) |
//! | [`persistence`] | save/load cross-process equivalence smoke (added) |
//! | [`service`] | serve/client cross-process wire-equivalence smoke (added) |
//!
//! Each module exposes a pure `compute`/`run` function returning structured
//! results plus [`table::Table`] renderers; the `repro` binary wires them to
//! a CLI. `docs/PAPER_MAP.md` maps each artifact to its section of the
//! paper, and `tests/repro_artifacts.rs` pins the values `repro` prints.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fig1;
pub mod fig2;
pub mod motivating;
pub mod persistence;
pub mod recall;
pub mod scaling;
pub mod sec7;
pub mod service;
pub mod table;
pub mod table1;

pub use table::Table;
