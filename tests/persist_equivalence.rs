//! Persistence semantics: for every index type, `load(save(index))` must
//! answer **byte-identically** to the original on every surface — `search`,
//! `search_all`, `search_all_tagged`, `search_batch`, `search_best`, and
//! `similarity_join` — including indexes that were mutated before being
//! saved, and whole sharded deployments at every shard count.
//!
//! Every round trip also re-saves the reloaded index and requires the same
//! bytes as the first save (every file of a sharded deployment included):
//! `save(load(x)) == x`.
//!
//! A second block pins the failure contract: truncated files, wrong magic,
//! unsupported versions, mismatched container kinds, flipped payload bytes,
//! and checksummed files whose contents disagree (a scheme table shorter
//! than the profile, a node budget other than the fixed one, a shard
//! manifest that does not match its shards or that holds a retired
//! pass-slice layout) must all surface as typed
//! [`PersistError`]s — never panics, never a silently
//! wrong index. A proptest block randomizes the dataset and query stream
//! over the correlated index round trip.

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use skewsearch::baselines::{ChosenPathIndex, ChosenPathParams, MinHashLsh, MinHashParams};
use skewsearch::core::persist::{fnv1a64, kind, write_bucket_map, write_container, Reader, Writer};
use skewsearch::core::{
    AdversarialIndex, AdversarialParams, AdversarialScheme, ChosenPathScheme, CompressedPostings,
    CorrelatedIndex, CorrelatedParams, CorrelatedScheme, IndexOptions, LsfIndex, Persist,
    PersistError, PersistScheme, Repetitions, SetSimilaritySearch, ShardManifest,
    ShardManifestEntry, Shardable, ShardedIndex, ThresholdScheme, DEFAULT_NODE_BUDGET,
};
use skewsearch::datagen::{correlated_query, BernoulliProfile, Dataset, VectorSampler};
use skewsearch::hashing::FxHashMap;
use skewsearch::join::similarity_join;
use skewsearch::sets::SparseVec;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

const SEED: u64 = 0xD15C;
const ALPHA: f64 = 0.7;

/// A collision-free scratch path (no wall clock: process id + counter).
fn scratch(label: &str) -> PathBuf {
    static UNIQUE: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "skewsearch_persist_{label}_{}_{}",
        std::process::id(),
        UNIQUE.fetch_add(1, Ordering::Relaxed)
    ))
}

fn fixture(n: usize, seed: u64) -> (Dataset, BernoulliProfile, Vec<SparseVec>) {
    let profile = BernoulliProfile::blocks(&[(60, 0.2), (900, 0.01)]).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let ds = Dataset::generate(&profile, n, &mut rng);
    let mut queries: Vec<SparseVec> = (0..20)
        .map(|t| correlated_query(ds.vector(t * 11 % n.max(1)), &profile, ALPHA, &mut rng))
        .collect();
    queries.push(SparseVec::empty()); // degenerate query rides along
    (ds, profile, queries)
}

fn opts(reps: usize) -> IndexOptions {
    IndexOptions {
        repetitions: Repetitions::Fixed(reps),
        ..IndexOptions::default()
    }
}

/// The core assertion: every answer surface of the reloaded index equals the
/// original's, byte for byte.
fn assert_same_answers<I: SetSimilaritySearch>(
    original: &I,
    reloaded: &I,
    queries: &[SparseVec],
    label: &str,
) {
    assert_eq!(reloaded.len(), original.len(), "{label} len");
    assert_eq!(
        reloaded.threshold(),
        original.threshold(),
        "{label} threshold"
    );
    for (i, q) in queries.iter().enumerate() {
        assert_eq!(reloaded.search(q), original.search(q), "{label} q={i}");
        assert_eq!(
            reloaded.search_all(q),
            original.search_all(q),
            "{label} q={i}"
        );
        assert_eq!(
            reloaded.search_all_tagged(q),
            original.search_all_tagged(q),
            "{label} q={i}"
        );
        assert_eq!(
            reloaded.search_best(q),
            original.search_best(q),
            "{label} q={i}"
        );
    }
    assert_eq!(
        reloaded.search_batch(queries),
        original.search_batch(queries),
        "{label} batch"
    );
    assert_eq!(
        similarity_join(queries, reloaded),
        similarity_join(queries, original),
        "{label} join"
    );
}

/// Round-trips `index` through a scratch file and checks every surface,
/// and that re-saving the reloaded index writes the same bytes.
fn assert_round_trip<I: Persist + SetSimilaritySearch>(
    index: &I,
    queries: &[SparseVec],
    label: &str,
) -> I {
    let path = scratch(label);
    index
        .save(&path)
        .unwrap_or_else(|e| panic!("{label} save: {e}"));
    let saved = std::fs::read(&path).unwrap();
    let reloaded = I::load(&path).unwrap_or_else(|e| panic!("{label} load: {e}"));
    reloaded
        .save(&path)
        .unwrap_or_else(|e| panic!("{label} re-save: {e}"));
    assert!(
        std::fs::read(&path).unwrap() == saved,
        "{label}: save(load(x)) is not byte-identical to x"
    );
    let _ = std::fs::remove_file(&path);
    assert_same_answers(index, &reloaded, queries, label);
    reloaded
}

/// Every file in `dir` with its bytes, sorted by name.
fn dir_contents(dir: &Path) -> Vec<(std::ffi::OsString, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let entry = entry.unwrap();
            (entry.file_name(), std::fs::read(entry.path()).unwrap())
        })
        .collect();
    files.sort();
    files
}

/// Round-trips a sharded deployment through a scratch directory, and
/// checks that re-saving the reloaded deployment writes the same files,
/// byte for byte.
fn sharded_round_trip<S: Shardable + Persist + Send + Sync>(
    sharded: &ShardedIndex<S>,
    label: &str,
) -> ShardedIndex<S> {
    let dir = scratch("sharded");
    sharded
        .save(&dir)
        .unwrap_or_else(|e| panic!("{label} save: {e}"));
    let reloaded = ShardedIndex::<S>::load(&dir).unwrap_or_else(|e| panic!("{label} load: {e}"));
    let resaved = scratch("sharded_resave");
    reloaded
        .save(&resaved)
        .unwrap_or_else(|e| panic!("{label} re-save: {e}"));
    let (first, second) = (dir_contents(&dir), dir_contents(&resaved));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&resaved);
    let names = |files: &[(std::ffi::OsString, Vec<u8>)]| -> Vec<std::ffi::OsString> {
        files.iter().map(|(name, _)| name.clone()).collect()
    };
    assert_eq!(names(&second), names(&first), "{label} re-saved file set");
    for ((name, a), (_, b)) in first.iter().zip(&second) {
        assert!(a == b, "{label}: re-saved {name:?} is not byte-identical");
    }
    reloaded
}

#[test]
fn lsf_index_round_trips() {
    let (ds, profile, queries) = fixture(250, SEED);
    let mut rng = StdRng::seed_from_u64(SEED ^ 1);
    let scheme = CorrelatedScheme::new(ALPHA, ds.n(), &profile);
    let index = LsfIndex::build(
        ds.vectors().to_vec(),
        profile.clone(),
        scheme,
        ALPHA / 1.3,
        opts(6),
        &mut rng,
    );
    assert_round_trip(&index, &queries, "LsfIndex");
}

#[test]
fn correlated_index_round_trips_with_diagnostics() {
    let (ds, profile, queries) = fixture(250, SEED ^ 2);
    let mut rng = StdRng::seed_from_u64(SEED ^ 3);
    let params = CorrelatedParams::new(ALPHA).unwrap().with_options(opts(6));
    let index = CorrelatedIndex::build(&ds, &profile, params, &mut rng);
    let reloaded = assert_round_trip(&index, &queries, "CorrelatedIndex");
    assert_eq!(reloaded.alpha(), index.alpha());
    assert_eq!(reloaded.diagnostics().c, index.diagnostics().c);
    assert_eq!(
        reloaded.diagnostics().warnings,
        index.diagnostics().warnings
    );
}

#[test]
fn adversarial_index_round_trips() {
    let (ds, profile, queries) = fixture(200, SEED ^ 4);
    let mut rng = StdRng::seed_from_u64(SEED ^ 5);
    let params = AdversarialParams::new(0.5).unwrap().with_options(opts(6));
    let index = AdversarialIndex::build(&ds, &profile, params, &mut rng);
    let reloaded = assert_round_trip(&index, &queries, "AdversarialIndex");
    // The analytical surface survives too (scheme calibration persisted).
    for q in queries.iter().filter(|q| !q.dims().is_empty()).take(5) {
        assert_eq!(reloaded.predicted_rho(q), index.predicted_rho(q));
    }
}

#[test]
fn chosen_path_index_round_trips() {
    let (ds, profile, queries) = fixture(200, SEED ^ 6);
    let mut rng = StdRng::seed_from_u64(SEED ^ 7);
    let params = ChosenPathParams::new(0.5, 0.1)
        .unwrap()
        .with_options(opts(6));
    let index = ChosenPathIndex::build(&ds, &profile, params, &mut rng);
    let reloaded = assert_round_trip(&index, &queries, "ChosenPathIndex");
    assert_eq!(reloaded.k(), index.k());
    assert_eq!(reloaded.predicted_rho(), index.predicted_rho());
}

#[test]
fn minhash_round_trips() {
    let (ds, profile, queries) = fixture(200, SEED ^ 8);
    let mut rng = StdRng::seed_from_u64(SEED ^ 9);
    let _ = profile;
    let index = MinHashLsh::build(&ds, MinHashParams::new(0.6, 0.1).unwrap(), &mut rng);
    assert_round_trip(&index, &queries, "MinHashLsh");
}

#[test]
fn mutated_index_round_trips() {
    // Tombstones, a delta segment, and the compaction watermark must all
    // survive: mutate heavily, save, reload, and compare — then keep
    // mutating the reloaded copy and compare again (the log keeps rolling
    // after a restart).
    let (ds, profile, queries) = fixture(220, SEED ^ 10);
    let mut rng = StdRng::seed_from_u64(SEED ^ 11);
    let scheme = CorrelatedScheme::new(ALPHA, 200, &profile);
    let mut index = LsfIndex::build(
        ds.vectors()[..200].to_vec(),
        profile.clone(),
        scheme,
        ALPHA / 1.3,
        opts(6),
        &mut rng,
    );
    let sampler = VectorSampler::new(&profile);
    for i in 0..40 {
        if i % 3 == 0 {
            index.remove(i).unwrap();
        } else {
            index.insert(sampler.sample(&mut rng)).unwrap();
        }
    }
    let reloaded = assert_round_trip(&index, &queries, "mutated LsfIndex");

    let mut original = index;
    let mut reloaded = reloaded;
    let fresh: Vec<SparseVec> = (0..10).map(|_| sampler.sample(&mut rng)).collect();
    for (i, v) in fresh.into_iter().enumerate() {
        assert_eq!(
            original.insert(v.clone()).unwrap(),
            reloaded.insert(v).unwrap(),
            "post-reload insert {i} assigned different ids"
        );
        // Remove a live slot (100..) and an already-dead one (0, 3, ...):
        // both the tombstone write and the no-op must agree after a reload.
        assert_eq!(
            original.remove(100 + i).unwrap(),
            reloaded.remove(100 + i).unwrap(),
            "post-reload remove {i} diverged"
        );
        assert_eq!(
            original.remove(3 * i).unwrap(),
            reloaded.remove(3 * i).unwrap(),
            "post-reload dead remove {i} diverged"
        );
    }
    assert_same_answers(&original, &reloaded, &queries, "mutated-after-reload");
}

#[test]
fn mutated_then_compacted_index_round_trips_as_format_v2() {
    // Compaction re-encodes the merged segment through the compressed
    // postings encoder — the second of the two encode sites. A compacted
    // index must round-trip through a format-v2 file (compressed arenas
    // persisted verbatim) with every surface intact.
    let (ds, profile, queries) = fixture(220, SEED ^ 20);
    let mut rng = StdRng::seed_from_u64(SEED ^ 21);
    let scheme = CorrelatedScheme::new(ALPHA, 200, &profile);
    let mut index = LsfIndex::build(
        ds.vectors()[..200].to_vec(),
        profile.clone(),
        scheme,
        ALPHA / 1.3,
        opts(6),
        &mut rng,
    );
    let sampler = VectorSampler::new(&profile);
    for i in 0..30 {
        if i % 4 == 0 {
            index.remove(i).unwrap();
        } else {
            index.insert(sampler.sample(&mut rng)).unwrap();
        }
    }
    index.compact();
    assert_eq!(index.pending_mutations(), 0);

    let path = scratch("compacted_v2");
    index.save(&path).unwrap();
    // The file header carries the current format version.
    let bytes = std::fs::read(&path).unwrap();
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    assert_eq!(
        version,
        skewsearch::core::persist::FORMAT_VERSION,
        "compacted index saves at the active write version"
    );
    let reloaded = LsfIndex::<CorrelatedScheme>::load(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert_same_answers(&index, &reloaded, &queries, "compacted v2");
    // The capacity-based accounting survives the round trip exactly: both
    // sides hold shrunk-to-fit arrays rebuilt from the same postings.
    assert!(index.memory_bytes() > 0);
    assert_eq!(
        reloaded.memory_stats().posting_bytes,
        index.memory_stats().posting_bytes,
        "posting accounting diverged across the round trip"
    );
}

#[test]
fn legacy_v1_files_still_load() {
    // The v1 fallback: a file whose base segments use the §2.1 bucket-map
    // layout (version 1 in the header) must load into the compressed
    // substrate and answer byte-identically. The index is saved at the
    // current version and its payload transcoded to v1 by the spec alone
    // (docs/PERSISTENCE.md §2.1, §4), so this also checks that the spec is
    // complete enough to decode from.
    let (ds, profile, queries) = fixture(200, SEED ^ 22);
    let mut rng = StdRng::seed_from_u64(SEED ^ 23);
    let scheme = CorrelatedScheme::new(ALPHA, ds.n(), &profile);
    let mut index = LsfIndex::build(
        ds.vectors().to_vec(),
        profile.clone(),
        scheme,
        ALPHA / 1.3,
        opts(5),
        &mut rng,
    );
    // A delta segment rides along: v1 encodes it the same way.
    let sampler = VectorSampler::new(&profile);
    for _ in 0..8 {
        index.insert(sampler.sample(&mut rng)).unwrap();
    }
    index.remove(5).unwrap();

    let path = scratch("legacy_v1");
    index.save(&path).unwrap();
    let current = std::fs::read(&path).unwrap();
    write_container(&path, kind::LSF, &transcode_to_v1(&current[32..])).unwrap();
    // The checksum covers only the payload, so stamping version 1 into
    // header bytes 8..12 keeps the file valid.
    let mut v1 = std::fs::read(&path).unwrap();
    v1[8..12].copy_from_slice(&1u32.to_le_bytes());
    std::fs::write(&path, &v1).unwrap();

    let reloaded = LsfIndex::<CorrelatedScheme>::load(&path).unwrap();
    assert_same_answers(&index, &reloaded, &queries, "legacy v1");
    // Saving it again writes the current version: exactly the bytes the
    // original index saved.
    reloaded.save(&path).unwrap();
    assert!(
        std::fs::read(&path).unwrap() == current,
        "save(load(v1)) differs from the current-version save"
    );
    let _ = std::fs::remove_file(&path);
}

/// Rewrites a current-version kind-1 `LsfIndex<CorrelatedScheme>` payload in
/// the v1 layout: every §4 field copied through, except that each base
/// segment goes from §2.2 postings to a §2.1 bucket map.
fn transcode_to_v1(payload: &[u8]) -> Vec<u8> {
    let mut r = Reader::new(payload);
    let mut w = Writer::new();
    // Scheme tag and calibration, then the profile.
    w.put_u32(r.get_u32().unwrap());
    CorrelatedScheme::decode_scheme(&mut r)
        .unwrap()
        .encode_scheme(&mut w);
    w.put_f64_slice(&r.get_f64_vec().unwrap());
    // verify_threshold, six counters, six build stats: 13 words.
    for _ in 0..13 {
        w.put_u64(r.get_u64().unwrap());
    }
    let n = r.get_u64().unwrap();
    w.put_u64(n);
    w.put_u64_slice(&r.get_u64_vec().unwrap()); // vector offsets
    w.put_u32_slice(&r.get_u32_vec().unwrap()); // vector dims
    w.put_bitmap(&r.get_bitmap().unwrap());
    let reps = r.get_u64().unwrap();
    w.put_u64(reps);
    for _ in 0..reps {
        let levels = r.get_u64().unwrap();
        w.put_u64(levels);
        for _ in 0..3 * levels {
            w.put_u128(r.get_u128().unwrap());
        }
        w.put_u64_slice(&r.get_u64_vec().unwrap()); // interner
        let base = CompressedPostings::from_parts(
            r.get_u64_vec().unwrap(),
            r.get_u64_vec().unwrap(),
            r.get_bytes().unwrap(),
            n as usize,
            0,
        )
        .unwrap();
        let map: FxHashMap<u64, Vec<u32>> =
            base.iter().map(|(k, ids)| (k, ids.collect())).collect();
        write_bucket_map(&mut w, &map);
        // The delta segment is a bucket map in both versions.
        w.put_u64_slice(&r.get_u64_vec().unwrap());
        w.put_u64_slice(&r.get_u64_vec().unwrap());
        w.put_u32_slice(&r.get_u32_vec().unwrap());
    }
    assert!(r.is_empty(), "transcoding consumed the whole payload");
    w.into_payload()
}

#[test]
fn sharded_deployments_round_trip() {
    let (ds, profile, queries) = fixture(250, SEED ^ 12);
    let mut rng = StdRng::seed_from_u64(SEED ^ 13);
    let params = CorrelatedParams::new(ALPHA).unwrap().with_options(opts(6));
    let index = CorrelatedIndex::build(&ds, &profile, params, &mut rng);
    for shards in [1usize, 3, 8] {
        let sharded = ShardedIndex::build(&index, shards);
        let reloaded = sharded_round_trip(&sharded, &format!("shards={shards}"));
        assert_eq!(reloaded.shard_count(), sharded.shard_count());
        assert_eq!(reloaded.shard_lens(), sharded.shard_lens());
        assert_same_answers(
            &sharded,
            &reloaded,
            &queries,
            &format!("ShardedIndex shards={shards}"),
        );
    }
}

/// The saved bytes of a fixed deployment, pinned by file name, length and
/// FNV-1a checksum: the index of `tests/postings_codec.rs`'s
/// `saved_bytes_of_a_fixed_index_are_pinned` split over 3 dataset shards.
/// Changing how shards are built or how the manifest is written may not
/// alter a saved byte (`docs/PERSISTENCE.md` §7).
#[test]
fn saved_bytes_of_a_fixed_deployment_are_pinned() {
    let profile = BernoulliProfile::blocks(&[(60, 0.2), (900, 0.01)]).unwrap();
    let mut rng = StdRng::seed_from_u64(0x5EED_0020);
    let ds = Dataset::generate(&profile, 300, &mut rng);
    let params = CorrelatedParams::new(0.7).unwrap().with_options(opts(4));
    let index = CorrelatedIndex::build(&ds, &profile, params, &mut rng);
    let dir = scratch("deployment_pin");
    ShardedIndex::build(&index, 3).save(&dir).unwrap();
    let files: Vec<(String, usize, u64)> = dir_contents(&dir)
        .into_iter()
        .map(|(name, bytes)| (name.into_string().unwrap(), bytes.len(), fnv1a64(&bytes)))
        .collect();
    std::fs::remove_dir_all(&dir).unwrap();
    let pinned = [
        ("manifest.skx", 3_832, 0x526c_7a1a_e364_45a4),
        ("shard-0000.skx", 857_544, 0xba6f_b745_4da2_2504),
        ("shard-0001.skx", 859_704, 0xd632_7a9c_1b9f_82ba),
        ("shard-0002.skx", 669_504, 0xa490_00b7_f038_fbbf),
    ];
    assert_eq!(
        files,
        pinned.map(|(name, len, hash)| (name.to_string(), len, hash))
    );
}

#[test]
fn sharded_minhash_round_trips() {
    // The manifest must also work over an index with its own section type
    // (MinHash, kind 5).
    let (ds, _profile, queries) = fixture(200, SEED ^ 14);
    let mut rng = StdRng::seed_from_u64(SEED ^ 15);
    let index = MinHashLsh::build(&ds, MinHashParams::new(0.6, 0.1).unwrap(), &mut rng);
    let sharded = ShardedIndex::build(&index, 3);
    let reloaded = sharded_round_trip(&sharded, "ShardedIndex<MinHashLsh>");
    assert_same_answers(&sharded, &reloaded, &queries, "ShardedIndex<MinHashLsh>");
}

/// Saves `index` and splits the file into its container kind (header bytes
/// 12..16) and its payload (everything after the 32-byte header).
fn saved_kind_and_payload<I: Persist>(index: &I, label: &str) -> (u32, Vec<u8>) {
    let path = scratch(label);
    index.save(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    let kind = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
    (kind, bytes[32..].to_vec())
}

/// A wrapper file is its own container kind, and its payload is the
/// wrapper's own fields followed by the kind-1 payload of a twin `LsfIndex`
/// built over `ds` from the wrapper's build seed, scheme, and threshold.
fn assert_wrapper_layout<W: Persist + SetSimilaritySearch, S>(
    wrapper: &W,
    (ds, profile, build_seed): (&Dataset, &BernoulliProfile, u64),
    scheme: S,
    own_fields: Writer,
    expected_kind: u32,
    label: &str,
) where
    S: ThresholdScheme + PersistScheme + Sync,
{
    let twin = LsfIndex::build(
        ds.vectors().to_vec(),
        profile.clone(),
        scheme,
        wrapper.threshold(),
        opts(4),
        &mut StdRng::seed_from_u64(build_seed),
    );
    let (wrapper_kind, wrapper_payload) = saved_kind_and_payload(wrapper, label);
    let (twin_kind, twin_payload) = saved_kind_and_payload(&twin, label);
    assert_eq!(wrapper_kind, expected_kind, "{label} container kind");
    assert_eq!(twin_kind, kind::LSF, "{label} twin container kind");
    let expected = [own_fields.into_payload(), twin_payload].concat();
    assert!(
        wrapper_payload == expected,
        "{label} payload is not its own fields + the twin's LSF payload"
    );
}

#[test]
fn wrapper_containers_frame_the_lsf_payload() {
    // docs/PERSISTENCE.md §5, byte for byte: each wrapper is rebuilt as a
    // twin `LsfIndex` from the same build seed, scheme, and threshold.
    let (ds, profile, _) = fixture(150, SEED ^ 30);
    let build_seed = SEED ^ 31;
    let n = ds.n();
    let source = (&ds, &profile, build_seed);

    // Kind 2: α, C, and the warnings, then the LSF payload.
    let correlated = CorrelatedIndex::build(
        &ds,
        &profile,
        CorrelatedParams::new(ALPHA).unwrap().with_options(opts(4)),
        &mut StdRng::seed_from_u64(build_seed),
    );
    let warnings = &correlated.diagnostics().warnings;
    assert!(!warnings.is_empty(), "the fixture violates Cα ≥ 15");
    let mut fields = Writer::new();
    fields.put_f64(correlated.alpha());
    fields.put_f64(correlated.diagnostics().c);
    fields.put_u64(warnings.len() as u64);
    for warning in warnings {
        fields.put_str(warning);
    }
    assert_wrapper_layout(
        &correlated,
        source,
        CorrelatedScheme::new(ALPHA, n, &profile),
        fields,
        kind::CORRELATED,
        "Correlated",
    );

    // Kind 3: no fields of its own.
    let b1 = 0.5;
    let adversarial = AdversarialIndex::build(
        &ds,
        &profile,
        AdversarialParams::new(b1).unwrap().with_options(opts(4)),
        &mut StdRng::seed_from_u64(build_seed),
    );
    assert_wrapper_layout(
        &adversarial,
        source,
        AdversarialScheme::new(b1, n, &profile),
        Writer::new(),
        kind::ADVERSARIAL,
        "Adversarial",
    );

    // Kind 4: b₂, then the LSF payload.
    let b2 = 0.1;
    let chosen_path = ChosenPathIndex::build(
        &ds,
        &profile,
        ChosenPathParams::new(b1, b2).unwrap().with_options(opts(4)),
        &mut StdRng::seed_from_u64(build_seed),
    );
    let mut fields = Writer::new();
    fields.put_f64(b2);
    assert_wrapper_layout(
        &chosen_path,
        source,
        ChosenPathScheme::new(b1, b2, n),
        fields,
        kind::CHOSEN_PATH,
        "ChosenPath",
    );
}

// ---------------------------------------------------------------------------
// Failure contract: corruption is a typed error, never a panic.
// ---------------------------------------------------------------------------

fn saved_correlated() -> (PathBuf, CorrelatedIndex) {
    let (ds, profile, _) = fixture(120, SEED ^ 16);
    let mut rng = StdRng::seed_from_u64(SEED ^ 17);
    let params = CorrelatedParams::new(ALPHA).unwrap().with_options(opts(4));
    let index = CorrelatedIndex::build(&ds, &profile, params, &mut rng);
    let path = scratch("corrupt");
    index.save(&path).unwrap();
    (path, index)
}

#[test]
fn missing_file_is_io_error() {
    let path = scratch("missing");
    assert!(matches!(
        CorrelatedIndex::load(&path),
        Err(PersistError::Io(_))
    ));
}

#[test]
fn garbage_magic_is_rejected() {
    let path = scratch("magic");
    std::fs::write(&path, b"definitely not an index file, but long enough").unwrap();
    assert!(matches!(
        CorrelatedIndex::load(&path),
        Err(PersistError::BadMagic)
    ));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn future_version_is_rejected() {
    let (path, _index) = saved_correlated();
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[8] = 99; // format-version word (LE) right after the 8-byte magic
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        CorrelatedIndex::load(&path),
        Err(PersistError::UnsupportedVersion(99))
    ));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn wrong_container_kind_is_rejected() {
    let (path, _index) = saved_correlated();
    assert!(matches!(
        AdversarialIndex::load(&path),
        Err(PersistError::WrongKind { .. })
    ));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn every_truncation_point_is_rejected_without_panicking() {
    let (path, _index) = saved_correlated();
    let bytes = std::fs::read(&path).unwrap();
    // Exhaustive near the header, sampled through the payload.
    let cuts: Vec<usize> = (0..64.min(bytes.len()))
        .chain((64..bytes.len()).step_by(997))
        .collect();
    for cut in cuts {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        assert!(
            CorrelatedIndex::load(&path).is_err(),
            "truncation at {cut}/{} bytes must fail",
            bytes.len()
        );
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn flipped_payload_bytes_fail_the_checksum() {
    let (path, _index) = saved_correlated();
    let bytes = std::fs::read(&path).unwrap();
    // Flip a byte at several payload offsets; each must be caught by the
    // FNV checksum before any structural decoding happens.
    for offset in [32usize, 100, bytes.len() / 2, bytes.len() - 1] {
        let mut corrupt = bytes.clone();
        corrupt[offset] ^= 0x40;
        std::fs::write(&path, &corrupt).unwrap();
        assert!(matches!(
            CorrelatedIndex::load(&path),
            Err(PersistError::ChecksumMismatch)
        ));
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn manifest_missing_shard_file_is_io_error() {
    let (ds, profile, _) = fixture(120, SEED ^ 18);
    let mut rng = StdRng::seed_from_u64(SEED ^ 19);
    let params = CorrelatedParams::new(ALPHA).unwrap().with_options(opts(4));
    let index = CorrelatedIndex::build(&ds, &profile, params, &mut rng);
    let sharded = ShardedIndex::build(&index, 2);
    let dir = scratch("manifest");
    sharded.save(&dir).unwrap();
    std::fs::remove_file(dir.join("shard-0001.skx")).unwrap();
    assert!(matches!(
        ShardedIndex::<CorrelatedIndex>::load(&dir),
        Err(PersistError::Io(_))
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Fails unless `result` is [`PersistError::Malformed`].
fn assert_malformed<T>(result: Result<T, PersistError>, what: &str) {
    match result {
        Err(PersistError::Malformed(_)) => {}
        Err(e) => panic!("{what}: expected Malformed, got {e}"),
        Ok(_) => panic!("{what}: loaded without error"),
    }
}

/// Decodes a manifest payload by the spec alone (docs/PERSISTENCE.md §7),
/// with the payload offset of each shard entry: its pass-offset word, then
/// 8 bytes on its id-map flag word.
fn decode_manifest(payload: &[u8]) -> (ShardManifest, Vec<usize>) {
    let mut r = Reader::new(payload);
    assert_eq!(r.get_u32().unwrap(), 2, "strategy tag");
    let threshold = r.get_f64().unwrap();
    let len = r.get_u64().unwrap() as usize;
    let next_id = r.get_u64().unwrap() as usize;
    assert_eq!(r.get_u32().unwrap(), 1, "plan-broadcast flag");
    let owner = (0..r.get_u64().unwrap())
        .map(|_| {
            let packed = r.get_u64().unwrap();
            (packed as u32, (packed >> 32) as u32)
        })
        .collect();
    let mut entries = Vec::new();
    let shards = (0..r.get_u64().unwrap())
        .map(|_| {
            entries.push(payload.len() - r.remaining());
            assert_eq!(r.get_u32().unwrap(), 0, "pass offset");
            assert_eq!(r.get_u32().unwrap(), 1, "id-map flag");
            ShardManifestEntry {
                id_map: r.get_u32_vec().unwrap(),
                file: r.get_string().unwrap(),
            }
        })
        .collect();
    assert!(r.is_empty(), "decoding consumed the whole manifest");
    let manifest = ShardManifest {
        threshold,
        len,
        next_id,
        owner,
        shards,
    };
    (manifest, entries)
}

/// Saves a 2-shard deployment, rewrites its manifest payload with `corrupt`
/// (given each shard entry's payload offset), reseals it as a valid
/// container, and requires the load to fail as `Malformed`.
fn assert_manifest_payload_rejected(corrupt: impl FnOnce(&mut Vec<u8>, &[usize])) {
    let (ds, profile, _) = fixture(120, SEED ^ 24);
    let mut rng = StdRng::seed_from_u64(SEED ^ 25);
    let params = CorrelatedParams::new(ALPHA).unwrap().with_options(opts(4));
    let index = CorrelatedIndex::build(&ds, &profile, params, &mut rng);
    let dir = scratch("manifest_check");
    ShardedIndex::build(&index, 2).save(&dir).unwrap();
    let path = dir.join("manifest.skx");
    let mut payload = std::fs::read(&path).unwrap()[32..].to_vec();
    let (manifest, entries) = decode_manifest(&payload);
    assert!(manifest.encode() == payload, "§7 decodes the manifest");
    corrupt(&mut payload, &entries);
    write_container(&path, kind::MANIFEST, &payload).unwrap();
    let result = ShardedIndex::<CorrelatedIndex>::load(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    assert_malformed(result, "manifest");
}

/// Rewrites the saved manifest with `corrupt` so that it no longer matches
/// its shards, and requires the load to fail as `Malformed`.
fn assert_manifest_rejected(corrupt: impl FnOnce(&mut ShardManifest)) {
    assert_manifest_payload_rejected(|payload, _| {
        let mut manifest = decode_manifest(payload).0;
        corrupt(&mut manifest);
        *payload = manifest.encode();
    });
}

/// Overwrites the `u32` word at payload offset `at`.
fn put_word(payload: &mut [u8], at: usize, value: u32) {
    payload[at..at + 4].copy_from_slice(&value.to_le_bytes());
}

#[test]
fn manifest_with_the_retired_strategy_tag_is_malformed() {
    // Tag 1 is a saved pass-slice deployment, a layout no longer built.
    assert_manifest_payload_rejected(|payload, _| put_word(payload, 0, 1));
}

#[test]
fn manifest_owner_pointing_past_the_shards_is_malformed() {
    assert_manifest_rejected(|m| m.owner[0] = (7, 0));
}

#[test]
fn manifest_owner_table_longer_than_next_id_is_malformed() {
    assert_manifest_rejected(|m| m.owner.push((0, 0)));
}

#[test]
fn manifest_dataset_shard_without_id_map_is_malformed() {
    // The bytes an id-less entry had: flag 0 and no map after it.
    assert_manifest_payload_rejected(|payload, entries| {
        let flag = entries[0] + 8;
        let map_len = u64::from_le_bytes(payload[flag + 8..flag + 16].try_into().unwrap());
        put_word(payload, flag, 0);
        payload.drain(flag + 8..flag + 16 + (4 * map_len as usize).next_multiple_of(8));
    });
}

#[test]
fn manifest_id_map_out_of_order_is_malformed() {
    // Swap two ids and their owner entries: the owner table stays the
    // inverse of the id maps, only the ascending order breaks.
    assert_manifest_rejected(|m| {
        let map = &mut m.shards[0].id_map;
        map.swap(0, 1);
        let (a, b) = (map[0] as usize, map[1] as usize);
        m.owner.swap(a, b);
    });
}

#[test]
fn manifest_id_map_past_next_id_is_malformed() {
    assert_manifest_rejected(|m| {
        let next_id = m.next_id as u32;
        *m.shards[0].id_map.last_mut().unwrap() = next_id;
    });
}

#[test]
fn manifest_id_map_length_differing_from_its_shard_is_malformed() {
    // Move one id from shard 0's map to shard 1's and rebuild the owner
    // table from the maps: it stays their exact inverse over next_id slots,
    // but neither map is as long as its shard any more.
    assert_manifest_rejected(|m| {
        let moved = m.shards[0].id_map.pop().unwrap();
        let map = &mut m.shards[1].id_map;
        map.insert(map.partition_point(|&g| g < moved), moved);
        for (k, shard) in m.shards.iter().enumerate() {
            for (local, &global) in shard.id_map.iter().enumerate() {
                m.owner[global as usize] = (k as u32, local as u32);
            }
        }
    });
}

#[test]
fn manifest_dataset_pass_offset_is_malformed() {
    assert_manifest_payload_rejected(|payload, entries| put_word(payload, entries[1], 1));
}

#[test]
fn manifest_len_disagreeing_with_the_shards_is_malformed() {
    assert_manifest_rejected(|m| m.len += 1);
}

#[test]
fn manifest_threshold_disagreeing_with_the_shards_is_malformed() {
    assert_manifest_rejected(|m| m.threshold /= 2.0);
}

/// Saves a kind-1 Correlated `LsfIndex`, replaces its payload with
/// `corrupt(payload)`, re-frames that as a valid container and requires the
/// load to fail with `Malformed`.
fn assert_lsf_payload_rejected(corrupt: impl FnOnce(&[u8]) -> Vec<u8>, what: &str) {
    let profile = BernoulliProfile::two_block(400, 0.2, 0.02).unwrap();
    let mut rng = StdRng::seed_from_u64(SEED ^ 26);
    let ds = Dataset::generate(&profile, 120, &mut rng);
    let scheme = CorrelatedScheme::new(ALPHA, ds.n(), &profile);
    let index = LsfIndex::build(
        ds.vectors().to_vec(),
        profile.clone(),
        scheme,
        ALPHA / 1.3,
        opts(2),
        &mut rng,
    );
    let path = scratch("lsf_payload");
    index.save(&path).unwrap();
    let payload = corrupt(&std::fs::read(&path).unwrap()[32..]);
    write_container(&path, kind::LSF, &payload).unwrap();
    let result = LsfIndex::<CorrelatedScheme>::load(&path);
    let _ = std::fs::remove_file(&path);
    assert_malformed(result, what);
}

#[test]
fn correlated_table_shorter_than_the_profile_is_malformed() {
    // A kind-1 Correlated payload whose p̂ table is cut to 10 entries over
    // d = 400: a query on any dim past the cut would index past the table,
    // so the load must fail instead.
    assert_lsf_payload_rejected(
        |payload| {
            // §3: scheme tag 2, then 1+δ, log2_n, depth_bound and the p̂·Σp table.
            let mut r = Reader::new(payload);
            let mut w = Writer::new();
            w.put_u32(r.get_u32().unwrap());
            w.put_f64(r.get_f64().unwrap());
            w.put_f64(r.get_f64().unwrap());
            w.put_u64(r.get_u64().unwrap());
            let table = r.get_f64_vec().unwrap();
            assert_eq!(table.len(), 400);
            w.put_f64_slice(&table[..10]);
            let rest = &payload[payload.len() - r.remaining()..];
            [w.into_payload(), rest.to_vec()].concat()
        },
        "10-entry p̂ table over d = 400",
    );
}

#[test]
fn node_budget_other_than_the_fixed_one_is_malformed() {
    // The saved base segments hold the filters enumerated under the one
    // budget every index uses, so a payload naming another must not load.
    assert_lsf_payload_rejected(
        |payload| {
            // §4: scheme tag and calibration, profile, verify threshold,
            // then the node-budget word.
            let mut r = Reader::new(payload);
            r.get_u32().unwrap();
            CorrelatedScheme::decode_scheme(&mut r).unwrap();
            r.get_f64_vec().unwrap();
            r.get_f64().unwrap();
            let at = payload.len() - r.remaining();
            assert_eq!(r.get_u64().unwrap(), DEFAULT_NODE_BUDGET as u64);
            let mut corrupt = payload.to_vec();
            corrupt[at..at + 8].copy_from_slice(&100u64.to_le_bytes());
            corrupt
        },
        "node budget 100",
    );
}

// ---------------------------------------------------------------------------
// Property-based round trip.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn prop_correlated_round_trip(
        seed in 0u64..1000,
        n in 40usize..160,
        alpha in 0.55f64..0.9,
    ) {
        let profile = BernoulliProfile::blocks(&[(40, 0.25), (400, 0.02)]).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let ds = Dataset::generate(&profile, n, &mut rng);
        let queries: Vec<SparseVec> = (0..8)
            .map(|t| correlated_query(ds.vector(t * 7 % n), &profile, alpha, &mut rng))
            .collect();
        let params = CorrelatedParams::new(alpha).unwrap().with_options(opts(4));
        let index = CorrelatedIndex::build(&ds, &profile, params, &mut rng);
        let path = scratch("prop");
        index.save(&path).unwrap();
        let reloaded = CorrelatedIndex::load(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        for q in &queries {
            prop_assert_eq!(reloaded.search_all(q), index.search_all(q));
            prop_assert_eq!(reloaded.search(q), index.search(q));
        }
    }
}
