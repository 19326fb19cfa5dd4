//! CLI driver: `cargo run -p xtask -- <lint|loc> [--root <path>]`.
//!
//! `lint` exits 0 on a clean tree, 1 when any lint finds a violation
//! (printing one `file:line: [lint-name] message` diagnostic per finding),
//! 2 on usage or I/O errors. `loc` prints one `count<TAB>crate` line per
//! crate and a `total` line (see [`xtask::loc`]), exiting 0, or 2 on usage
//! or I/O errors.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut root: Option<PathBuf> = None;
    let mut command: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => match it.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => return usage("--root requires a path"),
            },
            "lint" | "loc" if command.is_none() => command = Some(arg),
            _ => return usage(&format!("unrecognized argument `{arg}`")),
        }
    }
    let Some(command) = command else {
        return usage("expected the `lint` or `loc` subcommand");
    };

    // Default to the workspace root relative to this crate's manifest, so
    // `cargo run -p xtask -- lint` works from any directory in the repo.
    let root = root.unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .canonicalize()
            .unwrap_or_else(|_| PathBuf::from("."))
    });

    if command == "loc" {
        return match xtask::loc::count_workspace(&root) {
            Err(err) => {
                eprintln!("error: {err}");
                ExitCode::from(2)
            }
            Ok(counts) => {
                for (name, count) in &counts {
                    println!("{count}\t{name}");
                }
                println!("{}\ttotal", counts.values().sum::<usize>());
                ExitCode::SUCCESS
            }
        };
    }

    match xtask::lint_workspace(&root) {
        Err(err) => {
            eprintln!("error: {err}");
            ExitCode::from(2)
        }
        Ok(diags) if diags.is_empty() => {
            eprintln!("skewcheck: clean");
            ExitCode::SUCCESS
        }
        Ok(diags) => {
            for d in &diags {
                println!("{d}");
            }
            eprintln!(
                "skewcheck: {} finding(s) — see docs/STATIC_ANALYSIS.md for the \
                 contracts and the lint:allow escape hatch",
                diags.len()
            );
            ExitCode::FAILURE
        }
    }
}

fn usage(problem: &str) -> ExitCode {
    eprintln!(
        "error: {problem}\nusage: cargo run -p xtask -- <lint|loc> [--root <workspace-root>]"
    );
    ExitCode::from(2)
}
