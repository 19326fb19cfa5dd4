//! The mutation-oracle machinery shared by `tests/mutation_equivalence.rs`
//! and `tests/service_equivalence.rs`.
//!
//! The centerpiece is the **rebuild oracle**: after any interleaving of
//! inserts and removes, a mutated index must answer byte-identically to an
//! index built from scratch over the surviving sets (under the monotone
//! slot → compact-id renumbering). That works because a build consumes its
//! RNG only for the per-repetition hash stacks and interners — never per
//! vector — so two builds from the same seed share identical stacks no
//! matter how many vectors each indexes.

// Each tests/*.rs file is its own crate and uses a different subset of
// these helpers.
#![allow(dead_code)]

use std::collections::HashMap;

use rand::{rngs::StdRng, SeedableRng};
use skewsearch::core::{
    CorrelatedScheme, IndexOptions, LsfIndex, Match, Repetitions, SetSimilaritySearch, TaggedMatch,
};
use skewsearch::datagen::{correlated_query, BernoulliProfile, Dataset};
use skewsearch::sets::SparseVec;

/// Query/data correlation used throughout the mutation suites.
pub const ALPHA: f64 = 0.8;
/// The rebuild oracle's build seed — shared so mutated index and oracle
/// draw identical hash stacks.
pub const BUILD_SEED: u64 = 0xB111D;
/// Shard counts the sweeps exercise.
pub const SHARD_COUNTS: [usize; 3] = [1, 3, 8];

/// Pool of vectors: slots `0..n_build` are indexed at build time, inserts
/// draw the following pool vectors in order — so slot `s` always holds
/// `pool.vector(s)` and the rebuild oracle can reconstruct any survivor set.
pub fn pool(seed: u64, n: usize) -> (Dataset, BernoulliProfile) {
    let profile = BernoulliProfile::blocks(&[(60, 0.2), (900, 0.01)]).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    (Dataset::generate(&profile, n, &mut rng), profile)
}

/// The rebuild oracle's builder: a dedicated RNG consumed only by the build
/// and a scheme calibrated to a fixed n, so every call draws identical hash
/// stacks and interners regardless of the vector count.
pub fn build_fixed(
    vectors: Vec<SparseVec>,
    profile: &BernoulliProfile,
    mutation_buffer: usize,
) -> LsfIndex<CorrelatedScheme> {
    let scheme = CorrelatedScheme::new(ALPHA, 300, profile);
    let mut rng = StdRng::seed_from_u64(BUILD_SEED);
    LsfIndex::with_scheme(
        vectors,
        profile.clone(),
        scheme,
        ALPHA / 1.3,
        IndexOptions {
            repetitions: Repetitions::Fixed(4),
            mutation_buffer,
            ..IndexOptions::default()
        },
        &mut rng,
    )
}

/// Correlated queries against pool vectors (some of which the script will
/// have removed) plus the degenerate empty query.
pub fn queries_for(
    ds: &Dataset,
    profile: &BernoulliProfile,
    seed: u64,
    count: usize,
) -> Vec<SparseVec> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut qs: Vec<SparseVec> = (0..count)
        .map(|t| correlated_query(ds.vector(t * 13 % ds.n()), profile, ALPHA, &mut rng))
        .collect();
    qs.push(SparseVec::empty());
    qs
}

/// One mutation, with its target resolved against the slot population at the
/// point it executes — so the unsharded index, every sharded mirror, and the
/// shadow model all perform the same concrete operation.
#[derive(Clone, Copy, Debug)]
pub enum Op {
    /// Insert the given pool vector (its index is also its slot id).
    Insert(usize),
    /// Remove the given slot id (possibly already dead, possibly never
    /// assigned — both must be refused idempotently).
    Remove(usize),
    /// Explicit compaction (skipped by executors that only speak the trait
    /// API; compaction is answer-invariant so both sides must still agree).
    Compact,
}

/// Decodes a raw `(kind, payload)` script into concrete ops and returns the
/// surviving pool indices in ascending slot order. Inserts stop when the
/// pool is exhausted; removes target `payload % (slot_count + 1)` so the
/// one-past-the-end id (never assigned) is exercised too.
pub fn resolve(raw: &[(u8, u64)], n_build: usize, pool_len: usize) -> (Vec<Op>, Vec<usize>) {
    let mut alive: Vec<bool> = vec![true; n_build];
    let mut ops = Vec::with_capacity(raw.len());
    for &(kind, payload) in raw {
        match kind % 8 {
            0..=2 => {
                if alive.len() < pool_len {
                    ops.push(Op::Insert(alive.len()));
                    alive.push(true);
                }
            }
            7 => ops.push(Op::Compact),
            _ => {
                let slot = (payload % (alive.len() as u64 + 1)) as usize;
                ops.push(Op::Remove(slot));
                if let Some(flag) = alive.get_mut(slot) {
                    *flag = false;
                }
            }
        }
    }
    let survivors = (0..alive.len()).filter(|&s| alive[s]).collect();
    (ops, survivors)
}

/// Applies a script through the inherent `LsfIndex` API, checking that ids
/// stay dense and monotone along the way.
pub fn run_inherent(index: &mut LsfIndex<CorrelatedScheme>, ds: &Dataset, ops: &[Op]) {
    for &op in ops {
        match op {
            Op::Insert(p) => assert_eq!(index.insert_set(ds.vector(p).clone()), p, "dense ids"),
            Op::Remove(slot) => {
                let _ = index.remove_set(slot);
            }
            Op::Compact => index.compact(),
        }
    }
}

/// Applies a script through the `SetSimilaritySearch` mutation API (what a
/// `ShardedIndex` exposes). `Compact` is skipped: the wrapper compacts its
/// shards on their own buffer schedule, and compaction must be
/// answer-invariant anyway — the equivalence assertions prove exactly that.
pub fn run_trait<I: SetSimilaritySearch>(index: &mut I, ds: &Dataset, ops: &[Op]) {
    for &op in ops {
        match op {
            Op::Insert(p) => {
                assert_eq!(index.insert(ds.vector(p).clone()), Ok(p), "dense ids");
            }
            Op::Remove(slot) => {
                assert!(index.remove(slot).is_ok());
            }
            Op::Compact => {}
        }
    }
}

/// Renders matches from a mutated index in the oracle's dense id space.
pub fn remap(ms: &[Match], compact_of: &HashMap<usize, usize>) -> Vec<(usize, u64)> {
    ms.iter()
        .map(|m| (compact_of[&m.id], m.similarity.to_bits()))
        .collect()
}

/// Tagged variant of [`remap`].
pub fn remap_tagged(
    ms: &[TaggedMatch],
    compact_of: &HashMap<usize, usize>,
) -> Vec<(u32, u32, usize, u64)> {
    ms.iter()
        .map(|m| {
            (
                m.pass,
                m.step,
                compact_of[&m.hit.id],
                m.hit.similarity.to_bits(),
            )
        })
        .collect()
}

/// Renders matches from an already-dense index for comparison.
pub fn dense(ms: &[Match]) -> Vec<(usize, u64)> {
    ms.iter().map(|m| (m.id, m.similarity.to_bits())).collect()
}

/// Tagged variant of [`dense`].
pub fn dense_tagged(ms: &[TaggedMatch]) -> Vec<(u32, u32, usize, u64)> {
    ms.iter()
        .map(|m| (m.pass, m.step, m.hit.id, m.hit.similarity.to_bits()))
        .collect()
}

/// The core assertion: every answer surface of `index` (a mutated structure
/// whose live slots map to the oracle's dense ids via `compact_of`) equals
/// the from-scratch `oracle`, byte for byte.
pub fn assert_answers_like_rebuild<I: SetSimilaritySearch>(
    index: &I,
    oracle: &LsfIndex<CorrelatedScheme>,
    compact_of: &HashMap<usize, usize>,
    queries: &[SparseVec],
    label: &str,
) {
    assert_eq!(index.len(), oracle.len(), "{label}: live count");
    assert_eq!(index.threshold(), oracle.threshold(), "{label}");
    for (i, q) in queries.iter().enumerate() {
        let ctx = format!("{label} q={i}");
        assert_eq!(
            remap(&index.search_all(q), compact_of),
            dense(&oracle.search_all(q)),
            "{ctx}: search_all"
        );
        assert_eq!(
            remap_tagged(&index.search_all_tagged(q), compact_of),
            dense_tagged(&oracle.search_all_tagged(q)),
            "{ctx}: search_all_tagged"
        );
        assert_eq!(
            index
                .search(q)
                .map(|m| (compact_of[&m.id], m.similarity.to_bits())),
            oracle.search(q).map(|m| (m.id, m.similarity.to_bits())),
            "{ctx}: search"
        );
        // The enumerate→probe split must survive mutation: probing a plan
        // answers exactly like the fused search over the same live sets.
        let plan = index.plan_query(q);
        assert_eq!(
            remap_tagged(&index.probe_plan_tagged(&plan), compact_of),
            dense_tagged(&oracle.search_all_tagged(q)),
            "{ctx}: probe_plan_tagged"
        );
    }
    let batch: Vec<Vec<(usize, u64)>> = index
        .search_batch(queries)
        .iter()
        .map(|ms| remap(ms, compact_of))
        .collect();
    let oracle_batch: Vec<Vec<(usize, u64)>> = oracle
        .search_batch(queries)
        .iter()
        .map(|ms| dense(ms))
        .collect();
    assert_eq!(batch, oracle_batch, "{label}: search_batch");
}

/// Rebuilds the oracle over a script's survivors and returns it with the
/// slot → compact-id map.
pub fn oracle_for(
    survivors: &[usize],
    ds: &Dataset,
    profile: &BernoulliProfile,
) -> (LsfIndex<CorrelatedScheme>, HashMap<usize, usize>) {
    let vectors: Vec<SparseVec> = survivors.iter().map(|&s| ds.vector(s).clone()).collect();
    let oracle = build_fixed(vectors, profile, usize::MAX);
    let compact_of = survivors.iter().enumerate().map(|(c, &s)| (s, c)).collect();
    (oracle, compact_of)
}

/// A fixed interleaving mixing build-time removals, fresh inserts, a
/// remove-then-reinsert, and removal of freshly inserted sets.
pub fn fixed_script() -> Vec<(u8, u64)> {
    let mut raw: Vec<(u8, u64)> = vec![(3, 3), (3, 50), (0, 0), (0, 0), (3, 51)];
    raw.extend((0..26).map(|_| (0u8, 0u64)));
    raw.push((3, 170)); // one of the fresh inserts dies again
    raw.push((3, 0));
    raw.push((3, 0)); // double-remove: must be refused, must change nothing
    raw
}
