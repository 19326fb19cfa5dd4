//! Compressed posting storage: a directory over sorted keys, one word per
//! bucket, and a delta + varint arena for the buckets that hold more than
//! one id.
//!
//! The base segment of every [`crate::LsfIndex`] repetition is an inverted
//! index `interned 64-bit bucket key → ascending set ids`. Storing each
//! bucket as its own heap `Vec<u32>` inside a hash map costs, per bucket,
//! a map entry (key + `Vec` header + load-factor slack) plus 4 bytes per
//! posting — at millions of indexed sets the per-repetition bucket maps
//! dominate resident memory. This module replaces that representation for
//! the *immutable* base segment with four flat arrays:
//!
//! * `keys` — the bucket keys, strictly ascending;
//! * `words` — one `u32` per bucket. A bucket holding a single id below
//!   2³¹ stores it inline, as `INLINE | id`; any other bucket stores the
//!   byte offset of its block in the arena;
//! * `arena` — one contiguous byte stream holding the blocks of the
//!   buckets that are not inline: each is the bucket's id count, then its
//!   first id, then the gaps between successive ids (strictly positive,
//!   because ids ascend), all LEB128 varints;
//! * `dir` — a directory over the keys' top `b` bits: `dir[p]` is the
//!   first slot whose key's top bits are `≥ p`, so the keys of cell `p`
//!   are `keys[dir[p]..dir[p + 1]]`. It is derived from the keys whenever
//!   a map is built and never persisted.
//!
//! In an LSF index most buckets hold a single id (88% at n = 800), so most
//! lookups read one directory entry, one cache line of keys and one word,
//! and never touch the arena. Under skew the popular buckets are long and
//! their id gaps small, so most of their postings compress to one or two
//! bytes — the bytes-per-posting currency that LSF-Join
//! (Rashtchian–Sharma–Woodruff 2020) identifies as the communication and
//! memory cost of filtering at scale. A bucket is read through
//! [`PostingsCursor`], a zero-allocation streaming iterator feeding the
//! index's single verification site unchanged.
//!
//! Encoding happens at the trusted sites — [`crate::LsfIndex`] build,
//! compaction and sharding — through [`PostingsEncoder`]. Untrusted bytes
//! (the format-v2 persistence payload: keys, a byte-offset table and an
//! arena of count-free blocks) go through [`CompressedPostings::from_parts`],
//! which validates every structural invariant, reports violations as a
//! typed [`PostingsError`] and streams the checked buckets into the
//! encoder; [`CompressedPostings::v2_parts`] derives the same parts back,
//! byte for byte. Nothing in this module panics on malformed input
//! (skewcheck's `no-panic-in-lib` contract).

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
    /// The buckets do not fit the in-memory layout: a block would start at
    /// or past the 2³¹ arena bytes a word addresses, or there are 2³² or
    /// more buckets.
    TooLarge,
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
            PostingsError::TooLarge => write!(f, "postings exceed the in-memory layout's range"),
        }
    }
}

impl std::error::Error for PostingsError {}

/// The tag bit of a word holding its bucket's single id inline. A word
/// without it is the byte offset of the bucket's block in the arena, so
/// block offsets stay below 2³¹.
const INLINE: u32 = 1 << 31;

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

/// Appends ascending `ids` to `arena` as delta varints: the first id
/// absolute, then each gap from its predecessor.
fn put_deltas(arena: &mut Vec<u8>, ids: impl IntoIterator<Item = u32>) {
    let mut prev = 0;
    for id in ids {
        put_varint(arena, id - prev);
        prev = id;
    }
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

/// Varint decode for bytes an encoder wrote: the value at `*pos`, advancing
/// past it, or `None` on bytes no encoder writes (truncated, or more than
/// five bytes long).
#[inline]
fn next_varint(bytes: &[u8], pos: &mut usize) -> Option<u32> {
    let mut value = 0u32;
    let mut shift = 0u32;
    loop {
        let b = *bytes.get(*pos)?;
        *pos += 1;
        value |= ((b & 0x7F) as u32) << shift;
        if b & 0x80 == 0 {
            return Some(value);
        }
        shift += 7;
        if shift > 28 {
            return None;
        }
    }
}

/// The directory over ascending `keys` and the shift that selects a key's
/// cell: `b = max(1, ⌊log₂ len⌋ − 1)` top bits, so a cell holds two to
/// four keys when the keys are uniform, and `dir` has `2^b + 1` entries,
/// `dir[p]` the first slot whose key's top `b` bits are `≥ p`.
fn directory(keys: &[u64]) -> (Vec<u32>, u32) {
    let bits = keys.len().max(1).ilog2().saturating_sub(1).max(1);
    let shift = u64::BITS - bits;
    let cells = 1usize << bits;
    let mut dir = Vec::with_capacity(cells + 1);
    for (slot, &key) in keys.iter().enumerate() {
        let cell = (key >> shift) as usize;
        dir.resize(dir.len().max(cell + 1), slot as u32);
    }
    dir.resize(cells + 1, keys.len() as u32);
    (dir, shift)
}

/// An immutable, compressed posting map: sorted bucket keys, one word per
/// bucket, an arena for the buckets that do not fit in their word, and a
/// directory over the keys (see the module docs for the layout). The
/// base-segment storage of every [`crate::LsfIndex`] repetition.
///
/// A lookup ([`CompressedPostings::get`]) reads the key's directory cell,
/// binary-searches the few keys in it and returns a streaming
/// [`PostingsCursor`] over the bucket; no bucket is ever materialized.
/// Construction goes through [`PostingsEncoder`] (trusted:
/// build/compact/shard) or [`CompressedPostings::from_parts`] (untrusted,
/// persistence).
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
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompressedPostings {
    /// Bucket keys, strictly ascending.
    keys: Vec<u64>,
    /// One word per bucket: `INLINE | id` for a single id below 2³¹, else
    /// the byte offset of the bucket's block in `arena`.
    words: Vec<u32>,
    /// The blocks of the buckets that are not inline: a varint id count,
    /// then the ids as delta varints.
    arena: Vec<u8>,
    /// `dir[p]` is the first slot whose key's top bits (`key >> shift`)
    /// are `≥ p`; the last entry is `keys.len()`. Derived, never persisted.
    dir: Vec<u32>,
    /// `64 − b` for a `b`-bit directory.
    shift: u32,
    /// Total postings across buckets (counted at encode time).
    postings: usize,
    /// Largest single bucket (counted at encode time).
    max_bucket: usize,
}

impl Default for CompressedPostings {
    /// The empty posting map, as [`CompressedPostings::new`] builds it.
    fn default() -> Self {
        Self::new()
    }
}

impl CompressedPostings {
    /// The empty posting map (no keys, no arena).
    pub fn new() -> Self {
        PostingsEncoder::new().finish()
    }

    /// Rebuilds a posting map from its format-v2 parts — the sorted keys, a
    /// byte-offset table (`keys.len() + 1` entries) and an arena in which
    /// bucket `i` is `arena[offsets[i]..offsets[i + 1]]`, its first id
    /// then its gaps as varints — validating every invariant the probe
    /// path relies on: keys strictly ascending, the offset table
    /// consistent with the arena, every bucket a well-formed varint stream
    /// with strictly positive gaps, and every decoded id in
    /// `min_id..n_slots`. The checked buckets stream into a
    /// [`PostingsEncoder`], which lays them out in memory. Corrupt bytes
    /// yield a typed [`PostingsError`], never a panic. The format-v2 read
    /// path of `docs/PERSISTENCE.md` §4.
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
        let mut enc = PostingsEncoder::with_buckets(keys.len());
        for (&key, bounds) in keys.iter().zip(offsets.windows(2)) {
            let block = arena
                .get(bounds[0] as usize..bounds[1] as usize)
                .ok_or(PostingsError::OffsetTable)?;
            let mut pos = 0usize;
            let mut prev = None;
            while pos < block.len() {
                let tail = block.get(pos..).ok_or(PostingsError::Truncated)?;
                let (v, consumed) = get_varint_strict(tail)?;
                pos += consumed;
                let id = match prev {
                    None => v,
                    Some(_) if v == 0 => return Err(PostingsError::NonMonotone),
                    Some(prev) => u32::checked_add(prev, v).ok_or(PostingsError::Overflow)?,
                };
                if id < min_id || id as usize >= n_slots {
                    return Err(PostingsError::IdOutOfRange);
                }
                // Keys ascend and ids strictly ascend within the bucket, as
                // checked above — the encoder's contract.
                enc.push(key, id);
                prev = Some(id);
            }
        }
        enc.finish_checked()
    }

    /// The byte-offset table and the arena of this map's format-v2
    /// encoding (its keys are [`CompressedPostings::keys`]): bucket `i` is
    /// `arena[offsets[i]..offsets[i + 1]]`, its first id then its gaps as
    /// varints. Derived bucket by bucket; [`CompressedPostings::from_parts`]
    /// reads the parts back into an equal map, and the persisted bytes are
    /// these parts verbatim.
    pub fn v2_parts(&self) -> (Vec<u64>, Vec<u8>) {
        let mut offsets = Vec::with_capacity(self.keys.len() + 1);
        let mut arena = Vec::new();
        offsets.push(0);
        for (_, cursor) in self.iter() {
            put_deltas(&mut arena, cursor);
            offsets.push(arena.len() as u64);
        }
        (offsets, arena)
    }

    /// The streaming cursor over `key`'s bucket, or `None` when the key has
    /// no bucket. The probe hot path: zero allocation.
    ///
    /// The key's top bits pick its directory cell, and a binary search
    /// over the cell's keys finds the slot: bucket keys are interned
    /// hashes, close to uniform over `u64`, so a cell holds two to four
    /// keys, usually one cache line. The slot's word then holds a single
    /// id inline or points at the bucket's block. The result is correct
    /// for any ascending keys; keys crafted into one cell cost the
    /// `O(log len)` probes of a binary search.
    #[inline]
    pub fn get(&self, key: u64) -> Option<PostingsCursor<'_>> {
        let cell = (key >> self.shift) as usize;
        let lo = *self.dir.get(cell)? as usize;
        let hi = *self.dir.get(cell + 1)? as usize;
        let slot = lo + self.keys.get(lo..hi)?.partition_point(|&k| k < key);
        let word = *self.words.get(slot)?;
        let hit = self.keys.get(slot).is_some_and(|&k| k == key);
        hit.then(|| self.cursor(word))
    }

    /// The cursor over the bucket whose word is `word`.
    #[inline]
    fn cursor(&self, word: u32) -> PostingsCursor<'_> {
        if word & INLINE != 0 {
            PostingsCursor::inline(word & !INLINE)
        } else {
            PostingsCursor::block(self.arena.get(word as usize..).unwrap_or(&[]))
        }
    }

    /// Iterates buckets in ascending key order as `(key, cursor)` pairs —
    /// the traversal compaction, dataset sharding and persistence use.
    pub fn iter(&self) -> impl Iterator<Item = (u64, PostingsCursor<'_>)> + '_ {
        self.keys
            .iter()
            .zip(&self.words)
            .map(|(&key, &word)| (key, self.cursor(word)))
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

    /// Heap bytes resident in this structure (keys + words + directory +
    /// arena, by capacity) — the posting-side term of
    /// [`crate::traits::MemoryStats`].
    pub fn heap_bytes(&self) -> usize {
        self.keys.capacity() * std::mem::size_of::<u64>()
            + self.words.capacity() * std::mem::size_of::<u32>()
            + self.dir.capacity() * std::mem::size_of::<u32>()
            + self.arena.capacity()
    }

    /// The sorted key array (persisted verbatim by the format-v2 payload).
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }
}

/// Zero-allocation streaming decoder over one bucket: yields the bucket's
/// ids in ascending order.
///
/// It decodes `left` varints from `gaps`, each id its predecessor plus the
/// varint; the first id's predecessor is `prev = 0`, so the first varint
/// is the id itself. A block cursor starts after the block's count; an
/// inline id streams as `prev = id` followed by the one gap `0`.
///
/// Built only over buckets a [`PostingsEncoder`] wrote; on bytes that are
/// nevertheless malformed the cursor *terminates* (yields `None`) instead
/// of panicking or looping.
#[derive(Clone, Debug)]
pub struct PostingsCursor<'a> {
    gaps: &'a [u8],
    pos: usize,
    left: u32,
    prev: u32,
}

impl<'a> PostingsCursor<'a> {
    /// The cursor over a bucket holding only `id`.
    #[inline]
    fn inline(id: u32) -> Self {
        Self {
            gaps: &[0],
            pos: 0,
            left: 1,
            prev: id,
        }
    }

    /// The cursor over the block at the start of `bytes`: its id count,
    /// then its ids.
    #[inline]
    fn block(bytes: &'a [u8]) -> Self {
        let mut pos = 0;
        let left = next_varint(bytes, &mut pos).unwrap_or(0);
        Self {
            gaps: bytes,
            pos,
            left,
            prev: 0,
        }
    }
}

impl Iterator for PostingsCursor<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.left == 0 {
            return None;
        }
        // A malformed varint or an overflowing gap (neither of which an
        // encoder writes) ends the stream rather than misdecoding it.
        let Some(id) =
            next_varint(self.gaps, &mut self.pos).and_then(|gap| self.prev.checked_add(gap))
        else {
            self.left = 0;
            return None;
        };
        self.left -= 1;
        self.prev = id;
        Some(id)
    }
}

/// Builder for a [`CompressedPostings`] from an ordered posting stream —
/// the trusted encode sites are [`crate::LsfIndex`] build (pairs sorted by
/// key, ids ascending within a key), compaction (sorted-key merge of base
/// and delta segments) and sharding, and
/// [`CompressedPostings::from_parts`] streams checked buckets through it.
///
/// # Examples
///
/// See [`CompressedPostings`].
#[derive(Debug, Default)]
pub struct PostingsEncoder {
    keys: Vec<u64>,
    words: Vec<u32>,
    arena: Vec<u8>,
    /// The ids of the bucket being written.
    bucket: Vec<u32>,
    postings: usize,
    max_bucket: usize,
    /// Whether a block started at or past [`INLINE`] bytes, where a word
    /// can no longer address it.
    too_large: bool,
}

impl PostingsEncoder {
    /// An empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty encoder with room for `buckets` buckets.
    fn with_buckets(buckets: usize) -> Self {
        Self {
            keys: Vec::with_capacity(buckets),
            words: Vec::with_capacity(buckets),
            ..Self::default()
        }
    }

    /// Appends posting `id` to `key`'s bucket.
    ///
    /// Callers must push keys in non-decreasing order and, within one key,
    /// ids in strictly ascending order — the invariant every encode site
    /// holds by construction and these asserts prove.
    #[inline]
    pub fn push(&mut self, key: u64, id: u32) {
        match self.keys.last() {
            Some(&last) if last == key => {
                assert!(
                    self.bucket.last().is_some_and(|&prev| id > prev),
                    "posting ids must strictly ascend within a bucket"
                );
            }
            last => {
                assert!(
                    last.is_none_or(|&l| l < key),
                    "bucket keys must be pushed in ascending order"
                );
                self.close_bucket();
                self.keys.push(key);
            }
        }
        self.bucket.push(id);
        self.postings += 1;
    }

    /// Writes the word (and, unless it is an inline singleton, the block)
    /// of the bucket being written, if any.
    fn close_bucket(&mut self) {
        let word = match self.bucket[..] {
            [] => return,
            [id] if id & INLINE == 0 => INLINE | id,
            ref ids => {
                let start = self.arena.len();
                self.too_large |= start >= INLINE as usize;
                put_varint(&mut self.arena, ids.len() as u32);
                put_deltas(&mut self.arena, ids.iter().copied());
                start as u32
            }
        };
        self.words.push(word);
        self.max_bucket = self.max_bucket.max(self.bucket.len());
        self.bucket.clear();
    }

    /// Finalizes the encoding. The returned structure's arrays are shrunk
    /// to fit — the whole point is the memory diet.
    ///
    /// # Panics
    /// Panics if the buckets exceed the layout's range
    /// ([`PostingsError::TooLarge`]): 2³¹ arena bytes or 2³² buckets.
    pub fn finish(self) -> CompressedPostings {
        let postings = self.finish_checked();
        assert!(
            postings.is_ok(),
            "postings exceed 2³¹ arena bytes or 2³² buckets"
        );
        postings.unwrap_or_default()
    }

    /// [`PostingsEncoder::finish`], reporting a layout overflow as
    /// [`PostingsError::TooLarge`] instead of panicking.
    fn finish_checked(mut self) -> Result<CompressedPostings, PostingsError> {
        self.close_bucket();
        if self.too_large || u32::try_from(self.keys.len()).is_err() {
            return Err(PostingsError::TooLarge);
        }
        self.keys.shrink_to_fit();
        self.words.shrink_to_fit();
        self.arena.shrink_to_fit();
        let (dir, shift) = directory(&self.keys);
        Ok(CompressedPostings {
            keys: self.keys,
            words: self.words,
            arena: self.arena,
            dir,
            shift,
            postings: self.postings,
            max_bucket: self.max_bucket,
        })
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

    /// `p` rebuilt from its exported format-v2 parts.
    fn through_v2(
        p: &CompressedPostings,
        n_slots: usize,
    ) -> Result<CompressedPostings, PostingsError> {
        let (offsets, arena) = p.v2_parts();
        CompressedPostings::from_parts(p.keys().to_vec(), offsets, arena, n_slots, 0)
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
            let mut pos = 0;
            assert_eq!(next_varint(&arena, &mut pos), Some(v));
            assert_eq!(pos, arena.len());
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
        assert!(p.get(u64::MAX).is_none());
        assert_eq!(p.iter().count(), 0);
        let q = PostingsEncoder::new().finish();
        assert_eq!(q.bucket_count(), 0);
        assert!(q.get(42).is_none());
        // from_parts accepts the canonical empty encoding.
        let r = CompressedPostings::from_parts(vec![], vec![0], vec![], 10, 0).unwrap();
        assert!(r.is_empty());
        assert_eq!(CompressedPostings::default(), p);
    }

    #[test]
    fn from_parts_accepts_what_the_encoder_writes() {
        let p = encode(&[(1, &[0, 5, 6]), (4, &[2]), (8, &[0, 1, 2, 3])]);
        let q = through_v2(&p, 7).unwrap();
        assert_eq!(q, p);
        assert_eq!(q.posting_count(), p.posting_count());
        assert_eq!(q.max_bucket_len(), p.max_bucket_len());
        let a: Vec<(u64, Vec<u32>)> = p.iter().map(|(k, c)| (k, c.collect())).collect();
        let b: Vec<(u64, Vec<u32>)> = q.iter().map(|(k, c)| (k, c.collect())).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn from_parts_rejects_structural_corruption() {
        let p = encode(&[(1, &[0, 5]), (4, &[2])]);
        let keys = p.keys().to_vec();
        let (offsets, arena) = p.v2_parts();

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
        // Bypass the encoder: a block cursor (id count, then ids) directly
        // over garbage bytes.
        for block in [
            &[0x80u8, 0x80, 0x80, 0x80, 0x80, 0x80][..], // endless count
            &[0xFFu8][..],                               // truncated count
            &[0x02u8, 0x80][..],                         // truncated first id
            &[0x03u8, 0x05, 0x80][..],                   // valid id then truncated gap
            &[0x05u8, 0x07][..],                         // count past the bytes
        ] {
            let ids: Vec<u32> = PostingsCursor::block(block).collect();
            assert!(ids.len() <= 1, "cursor must stop, got {ids:?}");
        }
        // Overflowing gap: 5 then u32::MAX stops cleanly.
        let mut block = vec![2];
        put_varint(&mut block, 5);
        put_varint(&mut block, u32::MAX);
        let ids: Vec<u32> = PostingsCursor::block(&block).collect();
        assert_eq!(ids, vec![5]);
    }

    #[test]
    fn heap_bytes_track_the_four_arrays() {
        let p = encode(&[(1, &[0, 1, 2, 3, 4, 5, 6, 7]), (2, &[9])]);
        let floor = p.keys.len() * 8 + p.words.len() * 4 + p.dir.len() * 4 + p.arena.len();
        assert!(p.heap_bytes() >= floor);
        // The count, then dense ascending ids one byte each; the singleton
        // lives in its word.
        assert_eq!(p.arena.len(), 9);
        assert_eq!(p.words, vec![0, INLINE | 9]);
    }

    #[test]
    fn singletons_inline_below_the_tag_bit_and_take_the_arena_above_it() {
        for (id, inline) in [
            (0, true),
            ((1 << 31) - 1, true),
            (1 << 31, false),
            (u32::MAX, false),
        ] {
            let p = encode(&[(7, &[id])]);
            assert_eq!(p.arena.is_empty(), inline, "id {id}");
            assert_eq!(p.get(7).map(Iterator::collect), Some(vec![id]));
            assert_eq!(through_v2(&p, usize::MAX), Ok(p));
        }
        // Two ids below the tag bit still take a block.
        let p = encode(&[(7, &[1, 2])]);
        assert_eq!(p.words, vec![0]);
        assert_eq!(p.arena, vec![2, 1, 1]);
    }

    #[test]
    fn directory_has_two_to_the_b_plus_one_entries() {
        for (buckets, bits) in [
            (0, 1),
            (1, 1),
            (3, 1),
            (4, 1),
            (8, 2),
            (15, 2),
            (16, 3),
            (1000, 8),
        ] {
            let keys: Vec<u64> = (0..buckets as u64)
                .map(|k| k.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect::<std::collections::BTreeSet<u64>>()
                .into_iter()
                .collect();
            let (dir, shift) = directory(&keys);
            assert_eq!(shift, 64 - bits, "{buckets} buckets");
            assert_eq!(dir.len(), (1 << bits) + 1);
            assert_eq!(dir.last().copied(), Some(keys.len() as u32));
            for (p, &slot) in dir.iter().enumerate() {
                let first = keys.partition_point(|&k| ((k >> shift) as usize) < p);
                assert_eq!(slot as usize, first, "cell {p} of {buckets} buckets");
            }
        }
    }
}
