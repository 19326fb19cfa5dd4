//! The mutability contract, pinned end to end: after **any** interleaving of
//! `insert` / `remove` / `compact` / queries, a log-structured index answers
//! every surface — `search`, `search_all`, `search_all_tagged`,
//! `search_batch`, and `plan_query` + `probe_plan_tagged` —
//! **byte-identically** to an index built from scratch over the surviving
//! sets (under the monotone slot → compact-id renumbering), and a
//! `ShardedIndex` mutated through the trait API answers byte-identically to
//! the mutated unsharded index at every shard count.
//!
//! The oracle machinery (pool, fixed-seed builder, op scripts, rebuild
//! oracle, per-surface assertion) lives in `tests/common/mutation.rs`, where
//! `tests/service_equivalence.rs` reuses it to prove the same contract
//! *through the network service*.
//!
//! An insert planned ahead — `insert_planned(planner.plan(set))`, the path
//! the query service takes to keep enumeration out of its write lock — is
//! the same insert: the same ids, answers, memory and saved bytes.
//!
//! Deterministic tests pin a fixed interleaving plus the degenerate cases
//! from the issue (remove-then-reinsert, removing never-assigned ids,
//! emptying an index entirely, querying exactly at the compaction
//! threshold); a proptest block then randomizes the op script, the build
//! size, the buffer, and the shard count over {1, 3, 8}.

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use skewsearch::baselines::{BruteForce, MinHashLsh, MinHashParams, PrefixFilterIndex};
use skewsearch::core::{
    CorrelatedScheme, LsfIndex, MutationError, SetSimilaritySearch, ShardedIndex,
};
use skewsearch::datagen::Dataset;

mod common;
use common::mutation::{
    assert_answers_like_rebuild, build_fixed, fixed_script, oracle_for, pool, queries_for, resolve,
    run_inherent, run_trait, Op, SHARD_COUNTS,
};

#[test]
fn interleaved_mutations_answer_like_a_rebuild_on_every_surface() {
    let (ds, profile) = pool(0x5EED, 200);
    let n_build = 160;
    let (ops, survivors) = resolve(&fixed_script(), n_build, ds.n());
    let queries = queries_for(&ds, &profile, 0xCAFE, 20);

    let mut index = build_fixed(ds.vectors()[..n_build].to_vec(), &profile, usize::MAX);
    run_inherent(&mut index, &ds, &ops);
    let (oracle, compact_of) = oracle_for(&survivors, &ds, &profile);

    // Plans are mutation-invariant: the mutated index and the fresh rebuild
    // plan every query identically (plans depend only on the hash stacks).
    for q in &queries {
        assert_eq!(index.plan_query(q), oracle.plan_query(q));
    }

    assert_answers_like_rebuild(&index, &oracle, &compact_of, &queries, "mutated");

    // Explicit compaction is answer-invariant — re-check every surface.
    index.compact();
    assert_eq!(index.pending_mutations(), 0);
    assert_answers_like_rebuild(&index, &oracle, &compact_of, &queries, "compacted");
}

#[test]
fn compaction_threshold_crossings_are_answer_invariant() {
    // Queries issued exactly at, one below, and one above the auto-compaction
    // threshold must agree with a buffer-disabled twin fed the same script.
    let (ds, profile) = pool(0x5EED ^ 1, 140);
    let n_build = 100;
    let queries = queries_for(&ds, &profile, 0xD00D, 12);
    let buffer = 3;
    let mut buffered = build_fixed(ds.vectors()[..n_build].to_vec(), &profile, buffer);
    let mut unbuffered = build_fixed(ds.vectors()[..n_build].to_vec(), &profile, usize::MAX);

    let mut survivors: Vec<usize> = (0..n_build).collect();
    let script: Vec<Op> = vec![
        Op::Insert(100),
        Op::Remove(7),   // pending = 2: one below the threshold
        Op::Insert(101), // pending = 3: compaction fires here
        Op::Insert(102), // pending = 1 again
    ];
    survivors.retain(|&s| s != 7);
    survivors.extend([100, 101, 102]);

    for (step, &op) in script.iter().enumerate() {
        run_inherent(&mut buffered, &ds, &[op]);
        run_inherent(&mut unbuffered, &ds, &[op]);
        for (i, q) in queries.iter().enumerate() {
            assert_eq!(
                buffered.search_all(q),
                unbuffered.search_all(q),
                "step={step} q={i} (pending={} compactions={})",
                buffered.pending_mutations(),
                buffered.compaction_count(),
            );
        }
    }
    assert_eq!(buffered.compaction_count(), 1, "threshold crossed once");
    assert_eq!(unbuffered.compaction_count(), 0);

    // And both agree with the rebuild over the survivors.
    let (oracle, compact_of) = oracle_for(&survivors, &ds, &profile);
    assert_answers_like_rebuild(&buffered, &oracle, &compact_of, &queries, "buffered");
    assert_answers_like_rebuild(&unbuffered, &oracle, &compact_of, &queries, "unbuffered");
}

#[test]
fn degenerate_mutation_sequences() {
    let (ds, profile) = pool(0x5EED ^ 2, 60);
    let mut index = build_fixed(ds.vectors()[..40].to_vec(), &profile, usize::MAX);

    // Remove-then-reinsert identical content: fresh id, never reused.
    assert_eq!(index.insert(ds.vector(40).clone()), Ok(40));
    assert_eq!(index.remove(40), Ok(true));
    assert_eq!(
        index.insert(ds.vector(40).clone()),
        Ok(41),
        "ids not reused"
    );
    // Removing dead or never-assigned ids is refused without error.
    assert_eq!(index.remove(40), Ok(false), "already dead");
    assert_eq!(index.remove(999), Ok(false), "never assigned");
    // The reinserted copy answers; the tombstoned slot never does.
    let q = ds.vector(40).clone();
    let hits = index.search_all(&q);
    assert!(hits.iter().any(|m| m.id == 41 && m.similarity == 1.0));
    assert!(hits.iter().all(|m| m.id != 40));

    // Empty the index entirely: every surface answers "nothing", and the
    // empty structure still accepts inserts and compaction afterwards.
    for id in 0..index.slot_count() {
        let _ = index.remove_set(id);
    }
    assert_eq!(index.len(), 0);
    assert!(index.is_empty());
    assert!(index.search(&q).is_none());
    assert!(index.search_all(&q).is_empty());
    assert!(index.search_all_tagged(&q).is_empty());
    assert!(index.probe_plan_tagged(&index.plan_query(&q)).is_empty());
    assert_eq!(index.search_batch(std::slice::from_ref(&q)), vec![vec![]]);
    index.compact();
    assert!(index.search_all(&q).is_empty());
    let revived = index.insert_set(ds.vector(42).clone());
    assert_eq!(revived, index.slot_count() - 1);
    assert!(index
        .search_all(ds.vector(42))
        .iter()
        .any(|m| m.id == revived && m.similarity == 1.0));
}

#[test]
fn read_only_structures_refuse_mutation() {
    let (ds, _profile) = pool(0x5EED ^ 3, 50);
    let mut rng = StdRng::seed_from_u64(9);
    let v = ds.vector(0).clone();

    let mut brute = BruteForce::new(ds.vectors().to_vec(), 0.6);
    assert!(!brute.supports_mutation());
    assert_eq!(brute.insert(v.clone()), Err(MutationError::Unsupported));
    assert_eq!(brute.remove(0), Err(MutationError::Unsupported));

    let mut prefix = PrefixFilterIndex::build(&ds, 0.6);
    assert!(!prefix.supports_mutation());
    assert_eq!(prefix.insert(v.clone()), Err(MutationError::Unsupported));

    let mut minhash = MinHashLsh::build(&ds, MinHashParams::new(0.6, 0.3).unwrap(), &mut rng);
    assert!(!minhash.supports_mutation());
    let before = minhash.len();
    assert_eq!(minhash.insert(v.clone()), Err(MutationError::Unsupported));
    assert_eq!(minhash.len(), before, "no partial insert");
}

#[test]
fn mutated_sharded_indexes_match_at_every_shard_count() {
    let (ds, profile) = pool(0x5EED ^ 4, 200);
    let n_build = 160;
    let (ops, survivors) = resolve(&fixed_script(), n_build, ds.n());
    let queries = queries_for(&ds, &profile, 0xBEEF, 14);

    // The unsharded reference, mutated through the same trait API.
    // `build_fixed` is deterministic, so a second build is an exact twin of
    // the base the sharded mirrors are partitioned from.
    let base = build_fixed(ds.vectors()[..n_build].to_vec(), &profile, usize::MAX);
    let mut reference = build_fixed(ds.vectors()[..n_build].to_vec(), &profile, usize::MAX);
    run_trait(&mut reference, &ds, &ops);
    let (oracle, compact_of) = oracle_for(&survivors, &ds, &profile);
    assert_answers_like_rebuild(&reference, &oracle, &compact_of, &queries, "reference");

    for shards in SHARD_COUNTS {
        let label = format!("shards={shards}");
        let mut sharded = ShardedIndex::build(&base, shards);
        assert!(sharded.supports_mutation(), "{label}");
        run_trait(&mut sharded, &ds, &ops);
        assert_answers_like_rebuild(&sharded, &oracle, &compact_of, &queries, &label);
    }

    // Sharding an already-mutated index must reproduce its answers too:
    // build-time routing has to carry tombstones and delta entries.
    for shards in SHARD_COUNTS {
        let label = format!("post-mutation shards={shards}");
        let sharded = ShardedIndex::build(&reference, shards);
        assert_answers_like_rebuild(&sharded, &oracle, &compact_of, &queries, &label);
    }
}

/// Applies a script like `run_trait`, but inserts each set as a plan from
/// the planner taken before the first op.
fn run_planned<I: SetSimilaritySearch>(index: &mut I, ds: &Dataset, ops: &[Op]) {
    let planner = index.planner().expect("the LSF family plans");
    for &op in ops {
        match op {
            Op::Insert(p) => {
                let plan = planner.plan(ds.vector(p));
                assert_eq!(index.insert_planned(plan), Ok(p), "dense ids");
            }
            Op::Remove(slot) => {
                assert!(index.remove(slot).is_ok());
            }
            Op::Compact => {}
        }
    }
}

/// Every file `index.save` writes, by name, read back from a fresh
/// directory that is removed afterwards.
fn saved_files(index: &ShardedIndex<CorrelatedScheme>, label: &str) -> Vec<(String, Vec<u8>)> {
    let dir = std::env::temp_dir().join(format!(
        "skewsearch_planned_inserts_{}_{label}",
        std::process::id()
    ));
    index.save(&dir).expect("save the deployment");
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(&dir)
        .expect("list the deployment")
        .map(|entry| {
            let path = entry.expect("directory entry").path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).expect("read a saved file"))
        })
        .collect();
    std::fs::remove_dir_all(&dir).expect("remove the deployment");
    files.sort();
    files
}

/// A history applied through `insert_planned(planner.plan(set))`, with the
/// planner taken before it, answers, accounts and saves byte-identically to
/// the same history applied through `insert` — unsharded, across
/// auto-compactions, and at every shard count.
#[test]
fn planned_inserts_answer_and_save_like_inserts() {
    let (ds, profile) = pool(0x5EED ^ 5, 200);
    let n_build = 160;
    let (ops, survivors) = resolve(&fixed_script(), n_build, ds.n());
    let queries = queries_for(&ds, &profile, 0xFACE, 14);
    let (oracle, compact_of) = oracle_for(&survivors, &ds, &profile);
    let saved_file = |index: &LsfIndex<CorrelatedScheme>, label: &str| {
        let path = std::env::temp_dir().join(format!(
            "skewsearch_planned_inserts_{}_{label}.skx",
            std::process::id()
        ));
        index.save(&path).expect("save the index");
        let bytes = std::fs::read(&path).expect("read the saved file");
        std::fs::remove_file(&path).expect("remove the saved file");
        bytes
    };

    let mut inserted = build_fixed(ds.vectors()[..n_build].to_vec(), &profile, 5);
    run_trait(&mut inserted, &ds, &ops);
    let mut planned = build_fixed(ds.vectors()[..n_build].to_vec(), &profile, 5);
    run_planned(&mut planned, &ds, &ops);
    assert!(
        planned.compaction_count() > 0,
        "the history crossed compactions"
    );
    assert!(planned.pending_mutations() > 0, "and ends with a delta");
    assert_eq!(
        saved_file(&planned, "planned"),
        saved_file(&inserted, "inserted")
    );
    assert_eq!(planned.memory_stats(), inserted.memory_stats());
    assert_answers_like_rebuild(&planned, &oracle, &compact_of, &queries, "planned");

    let base = build_fixed(ds.vectors()[..n_build].to_vec(), &profile, usize::MAX);
    for shards in SHARD_COUNTS {
        let label = format!("shards={shards}");
        let mut inserted = ShardedIndex::build(&base, shards);
        run_trait(&mut inserted, &ds, &ops);
        let mut planned = ShardedIndex::build(&base, shards);
        run_planned(&mut planned, &ds, &ops);
        assert_eq!(
            saved_files(&planned, &format!("planned_{shards}")),
            saved_files(&inserted, &format!("inserted_{shards}")),
            "{label}"
        );
        assert_eq!(planned.memory_stats(), inserted.memory_stats(), "{label}");
        assert_answers_like_rebuild(&planned, &oracle, &compact_of, &queries, &label);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Randomized sweep: arbitrary op scripts (insert-heavy, with removes of
    /// live, dead, and never-assigned ids plus explicit compactions) over
    /// random build sizes and buffer settings, checked against the rebuild
    /// oracle both unsharded and through a sharded mirror.
    #[test]
    fn random_interleavings_match_rebuild_and_shards(
        raw in prop::collection::vec((any::<u8>(), any::<u64>()), 1..36),
        seed in 0u64..1_000_000,
        n_build in 20usize..60,
        buffer_ix in 0usize..3,
        shards_ix in 0usize..3,
    ) {
        let buffer = [2, 7, usize::MAX][buffer_ix];
        let shards = SHARD_COUNTS[shards_ix];
        let (ds, profile) = pool(seed, 100);
        let (ops, survivors) = resolve(&raw, n_build, ds.n());
        let queries = queries_for(&ds, &profile, seed ^ 0xF00D, 8);

        let base = build_fixed(ds.vectors()[..n_build].to_vec(), &profile, buffer);
        let mut index = build_fixed(ds.vectors()[..n_build].to_vec(), &profile, buffer);
        run_inherent(&mut index, &ds, &ops);
        let (oracle, compact_of) = oracle_for(&survivors, &ds, &profile);
        let label = format!("seed={seed} buffer={buffer}");
        assert_answers_like_rebuild(&index, &oracle, &compact_of, &queries, &label);

        let mut sharded = ShardedIndex::build(&base, shards);
        run_trait(&mut sharded, &ds, &ops);
        assert_answers_like_rebuild(
            &sharded,
            &oracle,
            &compact_of,
            &queries,
            &format!("{label} shards={shards}"),
        );
    }
}
