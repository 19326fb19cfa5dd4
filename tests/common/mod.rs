//! Helpers shared by the integration-test suites (each `tests/*.rs` file is
//! its own crate; this module is pulled in with `mod common;`).

pub mod mutation;

/// The `query_threads` values the batch and join suites build their twins
/// at: 1 and 8 always, plus the value of `SKEWSEARCH_TEST_THREADS` when set.
/// CI sets it to `nproc` on multicore hosts so the executor actually fans
/// out across the real core count — see `.github/workflows/ci.yml`.
///
/// Not every suite that includes `common` calls this — hence the allow.
#[allow(dead_code)]
pub fn thread_counts() -> Vec<usize> {
    let mut counts = vec![1, 8];
    if let Some(t) = std::env::var("SKEWSEARCH_TEST_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        if !counts.contains(&t) {
            counts.push(t);
        }
    }
    counts
}
