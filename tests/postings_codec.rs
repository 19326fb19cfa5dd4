//! Round-trip and corruption contracts for the compressed postings codec.
//!
//! The codec (delta + LEB128 varint bucket arenas, `skewsearch::core::postings`)
//! sits under every base segment and every format-v2 file, so its failure
//! contract is load-bearing: **any** byte-level corruption must surface as a
//! typed [`PostingsError`] from `from_parts` — never a panic, never a silently
//! wrong bucket. The proptest block randomizes bucket shapes; the unit block
//! pins each corruption class by hand-crafting arenas at the byte level.
//! The last tests pin the lookup directory at its cell edges and the saved
//! bytes of a fixed index, which no in-memory layout may change.

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use skewsearch::core::persist::{fnv1a64, read_postings, write_postings, Reader, Writer};
use skewsearch::core::{
    CompressedPostings, CorrelatedIndex, CorrelatedParams, IndexOptions, PostingsEncoder,
    PostingsError, Repetitions,
};
use skewsearch::datagen::{BernoulliProfile, Dataset};

/// Encode a key-sorted map of buckets (ids strictly ascending within each).
fn encode(buckets: &[(u64, Vec<u32>)]) -> CompressedPostings {
    let mut enc = PostingsEncoder::new();
    for (key, ids) in buckets {
        for &id in ids {
            enc.push(*key, id);
        }
    }
    enc.finish()
}

/// Decode every bucket back out through the streaming cursor.
fn decode(p: &CompressedPostings) -> Vec<(u64, Vec<u32>)> {
    p.iter()
        .map(|(key, cursor)| (key, cursor.collect()))
        .collect()
}

/// A strategy producing well-formed bucket sets: sorted unique keys, each
/// with a strictly ascending non-empty id list. Raw `(key, ids)` pairs are
/// canonicalized through a `BTreeMap`/`BTreeSet` (dedup + sort), so any
/// random draw becomes a valid encoder input.
fn bucket_sets() -> impl Strategy<Value = Vec<(u64, Vec<u32>)>> {
    prop::collection::vec(
        (any::<u64>(), prop::collection::vec(any::<u32>(), 1..24)),
        0..24,
    )
    .prop_map(canonical)
}

/// Canonicalizes raw `(key, ids)` pairs into encoder input: keys sorted and
/// merged, ids sorted and deduplicated.
fn canonical(raw: impl IntoIterator<Item = (u64, Vec<u32>)>) -> Vec<(u64, Vec<u32>)> {
    let mut canonical: std::collections::BTreeMap<u64, std::collections::BTreeSet<u32>> =
        std::collections::BTreeMap::new();
    for (key, ids) in raw {
        canonical.entry(key).or_default().extend(ids);
    }
    canonical
        .into_iter()
        .map(|(k, ids)| (k, ids.into_iter().collect::<Vec<u32>>()))
        .collect()
}

/// Bucket sets with uniform keys, and with keys laid out against the
/// lookup's guess that a key's slot is `key · len / 2⁶⁴`: every key in a
/// 2¹⁰-wide window at the bottom, middle or top of `u64`, only the two
/// extreme keys, a single key, or no key at all.
fn lookup_bucket_sets() -> impl Strategy<Value = Vec<(u64, Vec<u32>)>> {
    (
        0u8..7,
        bucket_sets(),
        prop::collection::vec(0u64..1024, 1..600),
    )
        .prop_map(|(shape, uniform, offsets)| {
            let keys: Vec<u64> = match shape {
                0 => return uniform,
                1 => offsets.clone(),
                2 => offsets.iter().map(|o| (1 << 63) - 512 + o).collect(),
                3 => offsets.iter().map(|o| u64::MAX - 1023 + o).collect(),
                4 => vec![0, u64::MAX],
                5 => vec![offsets[0].wrapping_mul(0x9E37_79B9_7F4A_7C15)],
                _ => Vec::new(),
            };
            canonical(keys.into_iter().zip(0u32..).map(|(k, id)| (k, vec![id])))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// encode → decode is the identity on every well-formed bucket set,
    /// and the summary statistics match the input.
    #[test]
    fn round_trip_is_identity(buckets in bucket_sets()) {
        let p = encode(&buckets);
        prop_assert_eq!(decode(&p), buckets.clone());
        prop_assert_eq!(p.bucket_count(), buckets.len());
        let postings: usize = buckets.iter().map(|(_, ids)| ids.len()).sum();
        prop_assert_eq!(p.posting_count(), postings);
        let max = buckets.iter().map(|(_, ids)| ids.len()).max().unwrap_or(0);
        prop_assert_eq!(p.max_bucket_len(), max);
    }

    /// `get` agrees with `iter` on every key, and misses between keys.
    #[test]
    fn get_matches_iter(buckets in bucket_sets(), probe in any::<u64>()) {
        let p = encode(&buckets);
        for (key, ids) in &buckets {
            let got: Vec<u32> = p.get(*key).expect("present key").collect();
            prop_assert_eq!(&got, ids);
        }
        let expect = buckets.iter().find(|(k, _)| *k == probe).map(|(_, ids)| ids.clone());
        let got = p.get(probe).map(|c| c.collect::<Vec<u32>>());
        prop_assert_eq!(got, expect);
    }

    /// `get` finds exactly the decoded bucket of every present key, and
    /// nothing at each key's neighbours or at the ends of `u64`, whatever
    /// the key layout.
    #[test]
    fn get_agrees_with_decode_for_any_key_layout(
        buckets in lookup_bucket_sets(),
        probe in any::<u64>(),
    ) {
        let p = encode(&buckets);
        let decoded: std::collections::BTreeMap<u64, Vec<u32>> = decode(&p).into_iter().collect();
        prop_assert_eq!(decoded.len(), buckets.len());
        let mut probes = vec![0, u64::MAX, probe];
        for (key, _) in &buckets {
            probes.extend([*key, key.wrapping_sub(1), key.wrapping_add(1)]);
        }
        for key in probes {
            let got = p.get(key).map(|c| c.collect::<Vec<u32>>());
            prop_assert_eq!(got, decoded.get(&key).cloned());
        }
    }

    /// The format-v2 parts an encoder's output exports read back, through
    /// `from_parts`, into a map equal to it: the strict reader accepts
    /// everything the writer emits and lays it out the same way.
    #[test]
    fn from_parts_accepts_encoder_output(buckets in bucket_sets()) {
        let p = encode(&buckets);
        let n_slots = buckets
            .iter()
            .flat_map(|(_, ids)| ids.iter())
            .map(|&id| id as usize + 1)
            .max()
            .unwrap_or(0);
        let (offsets, arena) = p.v2_parts();
        let re = CompressedPostings::from_parts(p.keys().to_vec(), offsets, arena, n_slots, 0);
        prop_assert_eq!(re, Ok(p));
    }

    /// Truncating the arena at ANY byte boundary never panics: either the
    /// damage is caught as a typed error (mid-varint cut, collapsed offset
    /// ranges), or — when the cut lands exactly on a varint boundary inside
    /// the final bucket — the result decodes to strictly fewer postings.
    /// Silent full-content acceptance is impossible.
    #[test]
    fn truncated_arena_is_rejected_or_loses_postings(
        buckets in bucket_sets(),
        cut_raw in any::<usize>(),
    ) {
        let p = encode(&buckets);
        let (mut offsets, mut arena) = p.v2_parts();
        prop_assume!(!arena.is_empty());
        let cut = cut_raw % arena.len();
        // Clamp the offset table to the shortened arena so the table itself
        // stays internally consistent — the damage is inside the bytes.
        for o in &mut offsets {
            *o = (*o).min(cut as u64);
        }
        arena.truncate(cut);
        let re = CompressedPostings::from_parts(
            p.keys().to_vec(),
            offsets,
            arena,
            u32::MAX as usize,
            0,
        );
        if let Ok(q) = re {
            prop_assert!(
                q.posting_count() < p.posting_count(),
                "truncation at byte {} accepted without losing postings",
                cut
            );
        }
    }

    /// Flipping a single arena byte either still decodes (to possibly
    /// different ids) or fails with a typed error — it never panics. This is
    /// the blanket no-panic contract over random single-byte corruption.
    #[test]
    fn flipped_arena_byte_never_panics(
        buckets in bucket_sets(),
        at_raw in any::<usize>(),
        xor in 1u8..=255,
    ) {
        let p = encode(&buckets);
        let (offsets, mut arena) = p.v2_parts();
        prop_assume!(!arena.is_empty());
        let at = at_raw % arena.len();
        arena[at] ^= xor;
        let _ = CompressedPostings::from_parts(
            p.keys().to_vec(),
            offsets,
            arena,
            u32::MAX as usize,
            0,
        );
    }
}

// ---------------------------------------------------------------------------
// Hand-crafted corruption classes, byte by byte.
// ---------------------------------------------------------------------------

/// LEB128-encode `v` into `out` (test-local writer, mirrors the codec).
fn varint(out: &mut Vec<u8>, mut v: u32) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

/// One bucket under key 7: first id absolute, then gaps.
fn one_bucket(first: u32, gaps: &[u32]) -> (Vec<u64>, Vec<u64>, Vec<u8>) {
    let mut arena = Vec::new();
    varint(&mut arena, first);
    for &g in gaps {
        varint(&mut arena, g);
    }
    (vec![7], vec![0, arena.len() as u64], arena)
}

#[test]
fn zero_gap_is_non_monotone() {
    // ids 5 then gap 0 would repeat 5 — duplicates are never valid.
    let (keys, offsets, arena) = one_bucket(5, &[0]);
    let err = CompressedPostings::from_parts(keys, offsets, arena, 100, 0).unwrap_err();
    assert_eq!(err, PostingsError::NonMonotone);
}

#[test]
fn truncated_final_varint_is_typed() {
    // A continuation bit with no following byte: the varint never terminates.
    let keys = vec![7u64];
    let arena = vec![0x85u8]; // "more bytes follow" … but none do
    let offsets = vec![0, arena.len() as u64];
    let err = CompressedPostings::from_parts(keys, offsets, arena, 100, 0).unwrap_err();
    assert_eq!(err, PostingsError::Truncated);
}

#[test]
fn oversized_varint_is_overflow() {
    // Six continuation bytes: a u32 varint is at most five bytes.
    let keys = vec![7u64];
    let arena = vec![0x80, 0x80, 0x80, 0x80, 0x80, 0x01];
    let offsets = vec![0, arena.len() as u64];
    let err = CompressedPostings::from_parts(keys, offsets, arena, 100, 0).unwrap_err();
    assert_eq!(err, PostingsError::Overflow);
}

#[test]
fn fifth_byte_high_bits_are_overflow() {
    // Five bytes whose fifth carries bits above bit 31 of the value.
    let keys = vec![7u64];
    let arena = vec![0x80, 0x80, 0x80, 0x80, 0x10];
    let offsets = vec![0, arena.len() as u64];
    let err = CompressedPostings::from_parts(keys, offsets, arena, 100, 0).unwrap_err();
    assert_eq!(err, PostingsError::Overflow);
}

#[test]
fn gap_sum_past_u32_max_is_overflow() {
    // First id near the top of the range plus a huge gap wraps u32.
    let (keys, offsets, arena) = one_bucket(u32::MAX - 1, &[3]);
    let err =
        CompressedPostings::from_parts(keys, offsets, arena, u32::MAX as usize, 0).unwrap_err();
    assert_eq!(err, PostingsError::Overflow);
}

#[test]
fn id_at_or_past_n_slots_is_out_of_range() {
    // id 100 with only 100 slots (valid ids are 0..100).
    let (keys, offsets, arena) = one_bucket(100, &[]);
    let err = CompressedPostings::from_parts(keys, offsets, arena, 100, 0).unwrap_err();
    assert_eq!(err, PostingsError::IdOutOfRange);
}

#[test]
fn unsorted_keys_are_rejected() {
    let mut enc = PostingsEncoder::new();
    enc.push(7, 1);
    let p = enc.finish();
    // Duplicate the single key: 7, 7 is not strictly ascending.
    let keys = vec![7u64, 7u64];
    let (mut offsets, arena) = p.v2_parts();
    offsets.push(*offsets.last().unwrap()); // would also trip OffsetTable — keys are checked first
    let err = CompressedPostings::from_parts(keys, offsets, arena, 100, 0).unwrap_err();
    assert_eq!(err, PostingsError::KeyOrder);
}

#[test]
fn malformed_offset_tables_are_rejected() {
    let (keys, _, arena) = one_bucket(5, &[2]);
    let n = arena.len() as u64;
    // Wrong length (keys.len()+1 entries required).
    let err =
        CompressedPostings::from_parts(keys.clone(), vec![0], arena.clone(), 100, 0).unwrap_err();
    assert_eq!(err, PostingsError::OffsetTable);
    // First entry not zero.
    let err = CompressedPostings::from_parts(keys.clone(), vec![1, n], arena.clone(), 100, 0)
        .unwrap_err();
    assert_eq!(err, PostingsError::OffsetTable);
    // Last entry disagrees with the arena length.
    let err = CompressedPostings::from_parts(keys.clone(), vec![0, n + 1], arena.clone(), 100, 0)
        .unwrap_err();
    assert_eq!(err, PostingsError::OffsetTable);
    // Non-ascending interior (empty bucket blocks are impossible: every
    // stored bucket holds at least its absolute first id).
    let err = CompressedPostings::from_parts(vec![7, 9], vec![0, n, n], arena, 100, 0).unwrap_err();
    assert_eq!(err, PostingsError::OffsetTable);
}

#[test]
fn min_id_floor_is_enforced() {
    // Delta-segment reads pass `min_id = base_len`: an id below the floor
    // (e.g. written by a corrupted file claiming a base id lives in the
    // delta) is rejected.
    let (keys, offsets, arena) = one_bucket(3, &[]);
    let err = CompressedPostings::from_parts(keys, offsets, arena, 100, 10).unwrap_err();
    assert_eq!(err, PostingsError::IdOutOfRange);
}

#[test]
fn errors_display_without_panicking() {
    // Each variant renders a human-readable message (used by persist's
    // Malformed mapping and by anyone logging a failed load).
    for err in [
        PostingsError::Truncated,
        PostingsError::Overflow,
        PostingsError::NonMonotone,
        PostingsError::KeyOrder,
        PostingsError::OffsetTable,
        PostingsError::IdOutOfRange,
        PostingsError::TooLarge,
    ] {
        assert!(!err.to_string().is_empty());
    }
}

#[test]
fn empty_postings_are_well_formed() {
    let p = PostingsEncoder::new().finish();
    assert!(p.is_empty());
    assert_eq!(p.bucket_count(), 0);
    assert_eq!(p.posting_count(), 0);
    assert_eq!(p.max_bucket_len(), 0);
    assert_eq!(decode(&p), Vec::<(u64, Vec<u32>)>::new());
    assert!(p.get(0).is_none());
    let re = CompressedPostings::from_parts(Vec::new(), vec![0], Vec::new(), 0, 0);
    assert_eq!(re, Ok(p));
}

#[test]
fn default_is_the_empty_map() {
    let p = CompressedPostings::default();
    assert_eq!(p, CompressedPostings::new());
    assert!(p.get(0).is_none());
    assert!(p.get(u64::MAX).is_none());
    assert_eq!(p.iter().count(), 0);
    let mut w = Writer::new();
    write_postings(&mut w, &p);
    let payload = w.into_payload();
    let mut r = Reader::new(&payload);
    assert_eq!(read_postings(&mut r, 0, 0).unwrap(), p);
    assert!(r.is_empty());
}

/// The directory's cell count for `buckets` buckets: `2^b` cells with
/// `b = max(1, ⌊log₂ buckets⌋ − 1)`.
fn cell_bits(buckets: usize) -> u32 {
    buckets.max(1).ilog2().saturating_sub(1).max(1)
}

/// Asserts `get` finds every bucket of `keys` (one id each) and nothing at
/// each key's neighbours or at the ends of `u64`.
fn assert_lookups(keys: &[u64], what: &str) {
    let buckets = canonical(keys.iter().zip(0u32..).map(|(&k, id)| (k, vec![id])));
    let p = encode(&buckets);
    assert_eq!(p.bucket_count(), buckets.len(), "{what}");
    let stored: std::collections::BTreeMap<u64, Vec<u32>> = buckets.into_iter().collect();
    let mut probes = vec![0, 1, u64::MAX - 1, u64::MAX];
    for &key in keys {
        probes.extend([key, key.wrapping_sub(1), key.wrapping_add(1)]);
    }
    for key in probes {
        let got = p.get(key).map(|c| c.collect::<Vec<u32>>());
        assert_eq!(got, stored.get(&key).cloned(), "{what}: key {key:#x}");
    }
}

#[test]
fn directory_cells_find_every_key_at_their_edges() {
    // One- and two-bucket maps, at the ends of `u64` and in between.
    for keys in [
        vec![0],
        vec![u64::MAX],
        vec![1 << 63],
        vec![0, u64::MAX],
        vec![(1 << 63) - 1, 1 << 63],
        vec![5, 6],
    ] {
        assert_lookups(&keys, &format!("{keys:?}"));
    }
    // Every key in one cell: the cell's binary search carries the lookup.
    for buckets in [3usize, 64, 1000] {
        let shift = 64 - cell_bits(buckets);
        for cell in [0u64, 1, (1 << (64 - shift)) - 1] {
            let keys: Vec<u64> = (0..buckets as u64)
                .map(|k| (cell << shift) + k * 3)
                .collect();
            assert_lookups(&keys, &format!("{buckets} keys in cell {cell}"));
        }
    }
    // Keys on both sides of every cell boundary, plus 0 and u64::MAX:
    // 2^(b+1) keys, whose directory has exactly the 2^b cells bounded here.
    for bits in [1u32, 2, 4, 8] {
        let width = 1u64 << (64 - bits);
        let mut keys = vec![0, u64::MAX];
        for cell in 1..1u64 << bits {
            keys.extend([cell * width - 1, cell * width]);
        }
        assert_eq!(cell_bits(keys.len()), bits);
        assert_lookups(&keys, &format!("boundaries of {} cells", 1u64 << bits));
    }
}

/// The saved bytes of a fixed small index, pinned by length and FNV-1a
/// checksum: the in-memory postings layout may change, the format-v2 bytes
/// may not (`docs/PERSISTENCE.md` §2.2). The constants were taken with a
/// layout that held the v2 arena in memory verbatim, so any layout that
/// alters a saved byte fails here.
#[test]
fn saved_bytes_of_a_fixed_index_are_pinned() {
    let profile = BernoulliProfile::blocks(&[(60, 0.2), (900, 0.01)]).unwrap();
    let mut rng = StdRng::seed_from_u64(0x5EED_0020);
    let ds = Dataset::generate(&profile, 300, &mut rng);
    let options = IndexOptions {
        repetitions: Repetitions::Fixed(4),
        ..IndexOptions::default()
    };
    let params = CorrelatedParams::new(0.7).unwrap().with_options(options);
    let index = CorrelatedIndex::build(&ds, &profile, params, &mut rng);
    let path = std::env::temp_dir().join(format!(
        "skewsearch_postings_pin_{}.skx",
        std::process::id()
    ));
    index.save(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(
        (bytes.len(), fnv1a64(&bytes)),
        (2_013_128, 0x4e17_2bc5_fc25_5b1c)
    );
}
