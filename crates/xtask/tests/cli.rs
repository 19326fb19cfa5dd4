//! End-to-end exit-code contract of the `xtask lint` binary: 0 on a clean
//! tree, 1 with findings on stdout, 2 on usage errors. CI keys off these
//! codes, so they are pinned here against synthetic workspaces, along with
//! the per-crate counts `xtask loc` prints.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A throwaway workspace directory, removed on drop.
struct TempWs(PathBuf);

impl TempWs {
    fn new(tag: &str, crate_src: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("skewcheck-cli-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let src = dir.join("crates/demo/src");
        std::fs::create_dir_all(&src).expect("create temp workspace");
        std::fs::write(
            dir.join("crates/demo/Cargo.toml"),
            "[package]\nname = \"demo\"\n",
        )
        .expect("write manifest");
        std::fs::write(src.join("lib.rs"), crate_src).expect("write lib.rs");
        TempWs(dir)
    }
}

impl Drop for TempWs {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(command: &str, root: &Path) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args([command, "--root"])
        .arg(root)
        .output()
        .expect("spawn xtask")
}

#[test]
fn clean_workspace_exits_zero() {
    let ws = TempWs::new(
        "clean",
        "#![forbid(unsafe_code)]\n//! Demo crate.\npub fn id(x: u64) -> u64 {\n    x\n}\n",
    );
    let out = run("lint", &ws.0);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(out.stdout.is_empty(), "clean run must print no findings");
}

#[test]
fn violating_workspace_exits_one_with_findings_on_stdout() {
    let ws = TempWs::new(
        "dirty",
        "//! Demo crate missing the unsafe ban.\npub fn id() {}\n",
    );
    let out = run("lint", &ws.0);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    assert!(
        stdout.contains("[forbid-unsafe]") && stdout.contains("crates/demo/src/lib.rs:1:"),
        "unexpected findings: {stdout}"
    );
}

#[test]
fn bad_usage_exits_two() {
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .arg("frobnicate")
        .output()
        .expect("spawn xtask");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn loc_counts_only_code_lines_outside_test_modules() {
    // Doc comments, indented comments, blank lines and the test module
    // count for nothing; the six code lines do.
    let ws = TempWs::new(
        "loc",
        "//! Demo crate.\n\n/// A counter.\npub struct Counter(u64);\n\nimpl Counter {\n    \
         /// Doubles the count.\n    pub fn double(&self) -> u64 {\n        // indented\n        \
         self.0 * 2\n    }\n}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {}\n}\n",
    );
    let out = run("loc", &ws.0);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert_eq!(
        String::from_utf8(out.stdout).unwrap(),
        "6\tdemo\n6\ttotal\n"
    );
}
