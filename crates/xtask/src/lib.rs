//! # skewcheck
//!
//! The in-repo static-analysis pass: five codebase-specific lints that turn
//! this workspace's determinism, panic-freedom, and concurrency contracts —
//! which the test suites can only *sample* — into checks that run on every
//! commit (`cargo run -p xtask -- lint`). See `docs/STATIC_ANALYSIS.md` for
//! the contract each lint protects and the `lint:allow` escape-hatch
//! syntax.
//!
//! The pass is deliberately zero-dependency: a small hand-rolled lexer
//! ([`lexer`]) classifies code vs. comments/literals/test modules, a
//! filesystem walker ([`walk`]) enumerates the workspace without
//! `cargo metadata`, and each lint ([`lints`]) is a scoped pattern check
//! over the lexed lines. No `syn`, no network, sub-second runs on both
//! matrix toolchains. The same lexer also counts code lines per crate
//! ([`loc`], `cargo run -p xtask -- loc`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allow;
pub mod diag;
pub mod engine;
pub mod lexer;
pub mod lints;
pub mod loc;
pub mod walk;

pub use diag::Diagnostic;
pub use engine::{lint_files, lint_workspace};
pub use walk::{FileKind, SourceFile};
