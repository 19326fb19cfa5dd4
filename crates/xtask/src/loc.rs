//! The code-size count (`cargo run -p xtask -- loc`): per crate, the lines
//! of `src/**` that hold a code token outside `#[cfg(test)]` items.
//!
//! It reuses the lint lexer, so doc comments, indented comments, blank
//! lines and test modules never count, whatever the indentation — a
//! regex count cannot promise that on every `awk`.

use std::collections::BTreeMap;
use std::path::Path;

use crate::walk::{workspace_files, FileKind};

/// Code lines per crate (the short crate name of [`crate::SourceFile`]),
/// in name order.
pub fn count_workspace(root: &Path) -> Result<BTreeMap<String, usize>, String> {
    let mut counts = BTreeMap::new();
    for file in workspace_files(root)? {
        if matches!(file.kind, FileKind::Lib | FileKind::Bin) {
            let code = file
                .lines
                .iter()
                .filter(|l| !l.in_test && !l.is_code_blank())
                .count();
            *counts.entry(file.crate_name).or_insert(0) += code;
        }
    }
    Ok(counts)
}
