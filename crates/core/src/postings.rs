//! Compressed posting storage: delta + varint bucket arenas.
//!
//! The base segment of every [`crate::LsfIndex`] repetition is an inverted
//! index `interned 64-bit bucket key → ascending set ids`. Storing each
//! bucket as its own heap `Vec<u32>` inside a hash map costs, per bucket,
//! a map entry (key + `Vec` header + load-factor slack) plus 4 bytes per
//! posting — at millions of indexed sets the per-repetition bucket maps
//! dominate resident memory. This module replaces that representation for
//! the *immutable* base segment with three flat arrays:
//!
//! * `keys` — the bucket keys, strictly ascending (looked up by a guessed
//!   slot and a gallop, see [`CompressedPostings::get`]);
//! * `offsets` — `keys.len() + 1` byte offsets into the arena, so bucket
//!   `i` occupies `arena[offsets[i]..offsets[i + 1]]`;
//! * `arena` — one contiguous byte stream holding every bucket,
//!   delta-encoded (first id absolute, then successive gaps, which are
//!   strictly positive because ids ascend) and LEB128-varint-compressed.
//!
//! Under skew the popular buckets are long and their id gaps small, so most
//! postings compress to one or two bytes — the bytes-per-posting currency
//! that LSF-Join (Rashtchian–Sharma–Woodruff 2020) identifies as the
//! communication and memory cost of filtering at scale. The probe hot path
//! finds a bucket by guessing its slot from the key and galloping from
//! there (the LSF index's keys are interned hashes, close to uniform, so
//! the guess lands within a few slots), then decodes lazily through
//! [`PostingsCursor`], a zero-allocation streaming iterator feeding the
//! index's single verification site unchanged.
//!
//! Encoding happens at exactly two sites — [`crate::LsfIndex`] build and
//! compaction — through [`PostingsEncoder`]. Decoding untrusted bytes (the
//! format-v2 persistence payload) goes through
//! [`CompressedPostings::from_parts`], which validates every structural
//! invariant and reports violations as a typed [`PostingsError`]; nothing in
//! this module panics on malformed input (skewcheck's `no-panic-in-lib`
//! contract).

/// Why a compressed postings payload was rejected by
/// [`CompressedPostings::from_parts`]. Every variant is a structural
/// invariant violation in untrusted bytes — reported, never panicked on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PostingsError {
    /// A varint ran past the end of its bucket's arena block.
    Truncated,
    /// A varint encoded a value outside `u32` range (more than 5 bytes, or
    /// a fifth byte with bits past bit 31), or a decoded id overflowed.
    Overflow,
    /// A gap of zero: posting ids within a bucket must strictly ascend.
    NonMonotone,
    /// Bucket keys are not strictly ascending.
    KeyOrder,
    /// The offset table is inconsistent (wrong length, wrong endpoints, or
    /// not strictly ascending — empty buckets are never encoded).
    OffsetTable,
    /// A decoded id lies outside the permitted `min_id..n_slots` range.
    IdOutOfRange,
}

impl std::fmt::Display for PostingsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PostingsError::Truncated => write!(f, "varint truncated mid-bucket"),
            PostingsError::Overflow => write!(f, "varint exceeds u32 range"),
            PostingsError::NonMonotone => write!(f, "zero gap: bucket ids not strictly ascending"),
            PostingsError::KeyOrder => write!(f, "bucket keys not strictly ascending"),
            PostingsError::OffsetTable => write!(f, "bucket offset table inconsistent"),
            PostingsError::IdOutOfRange => write!(f, "posting id outside the slot range"),
        }
    }
}

impl std::error::Error for PostingsError {}

/// Appends `v` to `arena` as a LEB128 varint (7 payload bits per byte,
/// high bit = continuation; at most 5 bytes for a `u32`).
#[inline]
fn put_varint(arena: &mut Vec<u8>, mut v: u32) {
    while v >= 0x80 {
        arena.push((v as u8 & 0x7F) | 0x80);
        v >>= 7;
    }
    arena.push(v as u8);
}

/// Strict varint decode for untrusted bytes: the value and the bytes
/// consumed, or a typed error on truncation / `u32` overflow.
#[inline]
fn get_varint_strict(bytes: &[u8]) -> Result<(u32, usize), PostingsError> {
    let mut value = 0u32;
    let mut shift = 0u32;
    for (i, &b) in bytes.iter().enumerate().take(5) {
        if shift == 28 && (b & !0x0F) != 0 && (b & 0x80) == 0 {
            // Fifth byte carries bits past bit 31 — the value is not a u32.
            return Err(PostingsError::Overflow);
        }
        value |= ((b & 0x7F) as u32) << shift;
        if b & 0x80 == 0 {
            return Ok((value, i + 1));
        }
        shift += 7;
    }
    if bytes.len() >= 5 {
        // Five continuation bytes: whatever follows, the value needs > 32 bits.
        return Err(PostingsError::Overflow);
    }
    Err(PostingsError::Truncated)
}

/// An immutable, compressed posting map: sorted bucket keys, a byte-offset
/// table, and one flat delta+varint arena (see the module docs for the
/// layout). The base-segment storage of every [`crate::LsfIndex`]
/// repetition.
///
/// Lookups ([`CompressedPostings::get`]) guess the key's slot, gallop to
/// it and return a streaming [`PostingsCursor`] over the bucket's block; no
/// bucket is ever materialized. Construction goes through [`PostingsEncoder`]
/// (trusted, build/compact) or [`CompressedPostings::from_parts`]
/// (untrusted, persistence).
///
/// # Examples
///
/// ```
/// use skewsearch_core::postings::PostingsEncoder;
///
/// let mut enc = PostingsEncoder::new();
/// for id in [3u32, 4, 1000] {
///     enc.push(7, id);
/// }
/// enc.push(9, 12);
/// let postings = enc.finish();
/// assert_eq!(postings.bucket_count(), 2);
/// assert_eq!(postings.posting_count(), 4);
/// let ids: Vec<u32> = postings.get(7).into_iter().flatten().collect();
/// assert_eq!(ids, vec![3, 4, 1000]);
/// assert!(postings.get(8).is_none());
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CompressedPostings {
    /// Bucket keys, strictly ascending.
    keys: Vec<u64>,
    /// `keys.len() + 1` byte offsets into `arena`; bucket `i` is
    /// `arena[offsets[i] as usize..offsets[i + 1] as usize]`.
    offsets: Vec<u64>,
    /// The delta+varint byte stream holding every bucket.
    arena: Vec<u8>,
    /// Total postings across buckets (counted at encode/validate time).
    postings: usize,
    /// Largest single bucket (counted at encode/validate time).
    max_bucket: usize,
}

impl CompressedPostings {
    /// The empty posting map (no keys, no arena).
    pub fn new() -> Self {
        Self {
            keys: Vec::new(),
            offsets: vec![0],
            arena: Vec::new(),
            postings: 0,
            max_bucket: 0,
        }
    }

    /// Reassembles a posting map from its persisted parts, validating every
    /// invariant the probe path relies on: keys strictly ascending, the
    /// offset table consistent with the arena, every bucket a well-formed
    /// varint stream with strictly positive gaps, and every decoded id in
    /// `min_id..n_slots`. Corrupt bytes yield a typed [`PostingsError`],
    /// never a panic. The format-v2 read path of `docs/PERSISTENCE.md` §4.
    pub fn from_parts(
        keys: Vec<u64>,
        offsets: Vec<u64>,
        arena: Vec<u8>,
        n_slots: usize,
        min_id: u32,
    ) -> Result<Self, PostingsError> {
        if keys.windows(2).any(|w| w[0] >= w[1]) {
            return Err(PostingsError::KeyOrder);
        }
        let expected_len = keys
            .len()
            .checked_add(1)
            .ok_or(PostingsError::OffsetTable)?;
        if offsets.len() != expected_len
            || offsets.first().copied() != Some(0)
            || offsets.last().copied() != Some(arena.len() as u64)
            || offsets.windows(2).any(|w| w[0] >= w[1])
        {
            return Err(PostingsError::OffsetTable);
        }
        let mut postings = 0usize;
        let mut max_bucket = 0usize;
        for i in 0..keys.len() {
            let start = offsets[i] as usize;
            let end = offsets[i + 1] as usize;
            let block = arena.get(start..end).ok_or(PostingsError::OffsetTable)?;
            let mut pos = 0usize;
            let mut prev = 0u32;
            let mut first = true;
            let mut len = 0usize;
            while pos < block.len() {
                let tail = block.get(pos..).ok_or(PostingsError::Truncated)?;
                let (v, consumed) = get_varint_strict(tail)?;
                pos += consumed;
                let id = if first {
                    first = false;
                    v
                } else {
                    if v == 0 {
                        return Err(PostingsError::NonMonotone);
                    }
                    prev.checked_add(v).ok_or(PostingsError::Overflow)?
                };
                if id < min_id || id as usize >= n_slots {
                    return Err(PostingsError::IdOutOfRange);
                }
                prev = id;
                len += 1;
            }
            postings += len;
            max_bucket = max_bucket.max(len);
        }
        Ok(Self {
            keys,
            offsets,
            arena,
            postings,
            max_bucket,
        })
    }

    /// The streaming cursor over `key`'s bucket, or `None` when the key has
    /// no bucket. The probe hot path: zero allocation.
    ///
    /// Bucket keys are interned hashes, so they are close to uniform over
    /// `u64`, and a key's slot is close to `key · len / 2⁶⁴`. The lookup
    /// starts there, gallops outward (1, 2, 4, … slots) until it brackets
    /// the key, and binary-searches the bracket: a few probes of one or two
    /// cache lines where a binary search over the whole array takes
    /// `log₂ len`. The guess is always in bounds, and the result is
    /// correct for any ascending key array; keys crafted to defeat the
    /// guess cost `O(log len)` probes, as a binary search does.
    #[inline]
    pub fn get(&self, key: u64) -> Option<PostingsCursor<'_>> {
        let i = self.position(key)?;
        let start = *self.offsets.get(i)? as usize;
        let end = *self.offsets.get(i + 1)? as usize;
        Some(PostingsCursor::new(self.arena.get(start..end)?))
    }

    /// The slot of `key` in `keys`, by a guess and a gallop (see
    /// [`CompressedPostings::get`]).
    #[inline]
    fn position(&self, key: u64) -> Option<usize> {
        let keys = self.keys.as_slice();
        let len = keys.len();
        // `key < 2⁶⁴`, so `guess < len` whenever `len > 0`.
        let guess = ((key as u128 * len as u128) >> 64) as usize;
        let at = *keys.get(guess)?;
        // The half-open bracket `lo..hi` that must hold the key if present.
        let (lo, hi) = if at < key {
            let (mut lo, mut step) = (guess + 1, 1);
            loop {
                match keys.get(guess + step) {
                    None => break (lo, len),
                    Some(&k) if k >= key => break (lo, guess + step + 1),
                    Some(_) => lo = guess + step + 1,
                }
                step *= 2;
            }
        } else if at > key {
            let (mut hi, mut step) = (guess, 1);
            loop {
                let Some(probe) = guess.checked_sub(step) else {
                    break (0, hi);
                };
                if keys[probe] <= key {
                    break (probe, hi);
                }
                hi = probe;
                step *= 2;
            }
        } else {
            return Some(guess);
        };
        let found = keys.get(lo..hi)?.binary_search(&key).ok()?;
        Some(lo + found)
    }

    /// Iterates buckets in ascending key order as `(key, cursor)` pairs —
    /// the traversal compaction, dataset sharding, and the v1 persistence
    /// fallback use.
    pub fn iter(&self) -> impl Iterator<Item = (u64, PostingsCursor<'_>)> + '_ {
        self.keys.iter().enumerate().map(move |(i, &key)| {
            let start = self.offsets[i] as usize;
            let end = self.offsets[i + 1] as usize;
            let block = self.arena.get(start..end).unwrap_or(&[]);
            (key, PostingsCursor::new(block))
        })
    }

    /// Number of buckets (distinct keys).
    pub fn bucket_count(&self) -> usize {
        self.keys.len()
    }

    /// Total postings across all buckets.
    pub fn posting_count(&self) -> usize {
        self.postings
    }

    /// Size of the largest bucket.
    pub fn max_bucket_len(&self) -> usize {
        self.max_bucket
    }

    /// True iff no bucket is stored.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Heap bytes resident in this structure (keys + offsets + arena,
    /// by capacity) — the posting-side term of
    /// [`crate::traits::MemoryStats`].
    pub fn heap_bytes(&self) -> usize {
        self.keys.capacity() * std::mem::size_of::<u64>()
            + self.offsets.capacity() * std::mem::size_of::<u64>()
            + self.arena.capacity()
    }

    /// The sorted key array (persisted verbatim by the format-v2 payload).
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }

    /// The byte-offset table (persisted verbatim by the format-v2 payload).
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// The delta+varint arena (persisted verbatim by the format-v2 payload).
    pub fn arena(&self) -> &[u8] {
        &self.arena
    }
}

/// Zero-allocation streaming decoder over one bucket's arena block: yields
/// the bucket's ids in ascending order.
///
/// Built only over blocks that were encoded by [`PostingsEncoder`] or
/// validated by [`CompressedPostings::from_parts`]; on bytes that are
/// nevertheless malformed the cursor *terminates* (yields `None`) instead
/// of panicking or looping.
#[derive(Clone, Debug)]
pub struct PostingsCursor<'a> {
    block: &'a [u8],
    pos: usize,
    prev: u32,
    started: bool,
}

impl<'a> PostingsCursor<'a> {
    /// A cursor at the start of `block`.
    #[inline]
    fn new(block: &'a [u8]) -> Self {
        Self {
            block,
            pos: 0,
            prev: 0,
            started: false,
        }
    }
}

impl Iterator for PostingsCursor<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.pos >= self.block.len() {
            return None;
        }
        let mut value = 0u32;
        let mut shift = 0u32;
        loop {
            let b = *self.block.get(self.pos)?;
            self.pos += 1;
            value |= ((b & 0x7F) as u32) << shift;
            if b & 0x80 == 0 {
                break;
            }
            shift += 7;
            if shift > 28 {
                // Malformed varint (validated arenas never produce this):
                // terminate rather than misdecode.
                self.pos = self.block.len();
                return None;
            }
        }
        let id = if self.started {
            // Gaps are strictly positive in well-formed blocks; checked_add
            // turns a corrupt overflowing gap into termination, not a panic.
            self.prev.checked_add(value)?
        } else {
            self.started = true;
            value
        };
        self.prev = id;
        Some(id)
    }
}

/// Builder for a [`CompressedPostings`] from an ordered posting stream —
/// the two trusted encode sites are [`crate::LsfIndex`] build (pairs sorted
/// by key, ids ascending within a key) and compaction (sorted-key merge of
/// base and delta segments).
///
/// # Examples
///
/// See [`CompressedPostings`].
#[derive(Debug, Default)]
pub struct PostingsEncoder {
    keys: Vec<u64>,
    offsets: Vec<u64>,
    arena: Vec<u8>,
    postings: usize,
    max_bucket: usize,
    /// Postings in the bucket currently being written.
    run: usize,
    /// Last id pushed into the current bucket.
    prev_id: u32,
}

impl PostingsEncoder {
    /// An empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends posting `id` to `key`'s bucket.
    ///
    /// Callers must push keys in non-decreasing order and, within one key,
    /// ids in strictly ascending order — the invariant both encode sites
    /// hold by construction and these asserts prove.
    #[inline]
    pub fn push(&mut self, key: u64, id: u32) {
        match self.keys.last() {
            Some(&last) if last == key => {
                assert!(
                    id > self.prev_id,
                    "posting ids must strictly ascend within a bucket"
                );
                put_varint(&mut self.arena, id - self.prev_id);
                self.run += 1;
            }
            last => {
                assert!(
                    last.is_none_or(|&l| l < key),
                    "bucket keys must be pushed in ascending order"
                );
                self.close_bucket();
                self.keys.push(key);
                put_varint(&mut self.arena, id);
                self.run = 1;
            }
        }
        self.prev_id = id;
        self.postings += 1;
    }

    /// Records the byte boundary of the bucket being written, if any.
    fn close_bucket(&mut self) {
        if self.run > 0 {
            self.offsets.push(self.arena.len() as u64);
            self.max_bucket = self.max_bucket.max(self.run);
            self.run = 0;
        }
    }

    /// Finalizes the encoding. The returned structure's arrays are shrunk
    /// to fit — the whole point is the memory diet.
    pub fn finish(mut self) -> CompressedPostings {
        self.close_bucket();
        let mut offsets = Vec::with_capacity(self.keys.len() + 1);
        offsets.push(0u64);
        offsets.extend_from_slice(&self.offsets);
        self.keys.shrink_to_fit();
        self.arena.shrink_to_fit();
        CompressedPostings {
            keys: self.keys,
            offsets,
            arena: self.arena,
            postings: self.postings,
            max_bucket: self.max_bucket,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode(buckets: &[(u64, &[u32])]) -> CompressedPostings {
        let mut enc = PostingsEncoder::new();
        for &(key, ids) in buckets {
            for &id in ids {
                enc.push(key, id);
            }
        }
        enc.finish()
    }

    #[test]
    fn varints_round_trip_at_width_boundaries() {
        for v in [0u32, 1, 127, 128, 129, 16383, 16384, 1 << 21, u32::MAX] {
            let mut arena = Vec::new();
            put_varint(&mut arena, v);
            assert!(arena.len() <= 5);
            let (back, used) = get_varint_strict(&arena).unwrap();
            assert_eq!(back, v);
            assert_eq!(used, arena.len());
        }
    }

    #[test]
    fn strict_varint_rejects_truncation_and_overflow() {
        // Continuation bit set on the last available byte.
        assert_eq!(get_varint_strict(&[0x80]), Err(PostingsError::Truncated));
        assert_eq!(
            get_varint_strict(&[0xFF, 0xFF]),
            Err(PostingsError::Truncated)
        );
        // Five continuation bytes can only encode > 32 bits.
        assert_eq!(
            get_varint_strict(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x01]),
            Err(PostingsError::Overflow)
        );
        // Fifth byte with bits past bit 31.
        assert_eq!(
            get_varint_strict(&[0xFF, 0xFF, 0xFF, 0xFF, 0x1F]),
            Err(PostingsError::Overflow)
        );
        // Fifth byte carrying exactly the top 4 bits is fine (u32::MAX).
        assert_eq!(
            get_varint_strict(&[0xFF, 0xFF, 0xFF, 0xFF, 0x0F]),
            Ok((u32::MAX, 5))
        );
    }

    #[test]
    fn encode_decode_round_trips() {
        let buckets: Vec<(u64, &[u32])> = vec![
            (2, &[0]),
            (5, &[1, 2, 3, 1000, 1001]),
            (9, &[7]),
            (u64::MAX, &[0, u32::MAX]),
        ];
        let p = encode(&buckets);
        assert_eq!(p.bucket_count(), 4);
        assert_eq!(p.posting_count(), 9);
        assert_eq!(p.max_bucket_len(), 5);
        for (key, ids) in &buckets {
            let got: Vec<u32> = p.get(*key).into_iter().flatten().collect();
            assert_eq!(&got, ids, "key {key}");
        }
        assert!(p.get(3).is_none());
        assert!(p.get(0).is_none());
        // Key-ordered iteration sees every bucket.
        let walked: Vec<(u64, Vec<u32>)> = p.iter().map(|(k, c)| (k, c.collect())).collect();
        let want: Vec<(u64, Vec<u32>)> =
            buckets.iter().map(|&(k, ids)| (k, ids.to_vec())).collect();
        assert_eq!(walked, want);
    }

    #[test]
    fn empty_postings_behave() {
        let p = CompressedPostings::new();
        assert!(p.is_empty());
        assert_eq!(p.bucket_count(), 0);
        assert_eq!(p.posting_count(), 0);
        assert!(p.get(0).is_none());
        assert_eq!(p.iter().count(), 0);
        let q = PostingsEncoder::new().finish();
        assert_eq!(q.bucket_count(), 0);
        assert!(q.get(42).is_none());
        // from_parts accepts the canonical empty encoding.
        let r = CompressedPostings::from_parts(vec![], vec![0], vec![], 10, 0).unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn from_parts_accepts_what_the_encoder_writes() {
        let p = encode(&[(1, &[0, 5, 6]), (4, &[2]), (8, &[0, 1, 2, 3])]);
        let q = CompressedPostings::from_parts(
            p.keys().to_vec(),
            p.offsets().to_vec(),
            p.arena().to_vec(),
            7,
            0,
        )
        .unwrap();
        assert_eq!(q.posting_count(), p.posting_count());
        assert_eq!(q.max_bucket_len(), p.max_bucket_len());
        let a: Vec<(u64, Vec<u32>)> = p.iter().map(|(k, c)| (k, c.collect())).collect();
        let b: Vec<(u64, Vec<u32>)> = q.iter().map(|(k, c)| (k, c.collect())).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn from_parts_rejects_structural_corruption() {
        let p = encode(&[(1, &[0, 5]), (4, &[2])]);
        let (keys, offsets, arena) = (p.keys().to_vec(), p.offsets().to_vec(), p.arena().to_vec());

        // Keys out of order.
        let mut bad = keys.clone();
        bad.swap(0, 1);
        assert_eq!(
            CompressedPostings::from_parts(bad, offsets.clone(), arena.clone(), 10, 0),
            Err(PostingsError::KeyOrder)
        );
        // Offset table too short.
        assert_eq!(
            CompressedPostings::from_parts(
                keys.clone(),
                offsets[..2].to_vec(),
                arena.clone(),
                10,
                0
            ),
            Err(PostingsError::OffsetTable)
        );
        // Endpoint past the arena.
        let mut bad = offsets.clone();
        if let Some(last) = bad.last_mut() {
            *last += 1;
        }
        assert_eq!(
            CompressedPostings::from_parts(keys.clone(), bad, arena.clone(), 10, 0),
            Err(PostingsError::OffsetTable)
        );
        // Truncated arena (drop the final byte, shrink the endpoint).
        let mut short = arena.clone();
        short.pop();
        let mut bad = offsets.clone();
        if let Some(last) = bad.last_mut() {
            *last -= 1;
        }
        assert!(CompressedPostings::from_parts(keys.clone(), bad, short, 10, 0).is_err());
        // Id outside the slot range.
        assert_eq!(
            CompressedPostings::from_parts(keys.clone(), offsets.clone(), arena.clone(), 5, 0),
            Err(PostingsError::IdOutOfRange)
        );
        // Id below the minimum (delta-segment watermark).
        assert_eq!(
            CompressedPostings::from_parts(keys, offsets, arena, 10, 1),
            Err(PostingsError::IdOutOfRange)
        );
    }

    #[test]
    fn from_parts_rejects_zero_gaps_and_overflow() {
        // Hand-built block: id 3, then gap 0 (duplicate id).
        let arena = vec![3u8, 0u8];
        assert_eq!(
            CompressedPostings::from_parts(vec![1], vec![0, 2], arena, 10, 0),
            Err(PostingsError::NonMonotone)
        );
        // id u32::MAX then gap 1 overflows the id space.
        let mut arena = Vec::new();
        put_varint(&mut arena, u32::MAX);
        put_varint(&mut arena, 1);
        let len = arena.len() as u64;
        assert_eq!(
            CompressedPostings::from_parts(vec![1], vec![0, len], arena, usize::MAX, 0),
            Err(PostingsError::Overflow)
        );
        // A varint that never terminates inside its block.
        let arena = vec![0x80u8, 0x80, 0x80];
        assert_eq!(
            CompressedPostings::from_parts(vec![1], vec![0, 3], arena, 10, 0),
            Err(PostingsError::Truncated)
        );
    }

    #[test]
    fn cursor_terminates_on_malformed_bytes_instead_of_panicking() {
        // Bypass validation: cursor directly over garbage blocks.
        for block in [
            &[0x80u8, 0x80, 0x80, 0x80, 0x80, 0x80][..], // endless continuation
            &[0xFFu8][..],                               // truncated
            &[0x05u8, 0x80][..],                         // valid id then truncated gap
        ] {
            let ids: Vec<u32> = PostingsCursor::new(block).collect();
            assert!(ids.len() <= 1, "cursor must stop, got {ids:?}");
        }
        // Overflowing gap: 5 then u32::MAX stops cleanly.
        let mut block = Vec::new();
        put_varint(&mut block, 5);
        put_varint(&mut block, u32::MAX);
        let ids: Vec<u32> = PostingsCursor::new(&block).collect();
        assert_eq!(ids, vec![5]);
    }

    #[test]
    fn heap_bytes_track_the_three_arrays() {
        let p = encode(&[(1, &[0, 1, 2, 3, 4, 5, 6, 7])]);
        let floor = p.keys().len() * 8 + p.offsets().len() * 8 + p.arena().len();
        assert!(p.heap_bytes() >= floor);
        // Dense ascending ids are one byte each after the first.
        assert_eq!(p.arena().len(), 8);
    }
}
