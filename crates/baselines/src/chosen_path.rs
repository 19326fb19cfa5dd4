//! The Chosen Path baseline (Christiani & Pagh, STOC 2017, \[18\] in the
//! paper): an [`skewsearch_core::LsfIndex`] under the
//! [`skewsearch_core::ChosenPathScheme`], so its type, parameters and
//! inherent methods live in [`skewsearch_core::chosen_path`] beside the
//! scheme. This module keeps the baselines' import path.

pub use skewsearch_core::chosen_path::{ChosenPathIndex, ChosenPathParams};
