//! Versioned, checksummed on-disk persistence for built indexes.
//!
//! Every structure in this workspace is deterministic given its hash-function
//! draws, so an index is fully described by plain data: the scheme
//! calibration, the per-repetition hash stacks and key interners, the
//! inverted-index postings, the indexed vectors, and the mutation-log state
//! (`alive` bitmap + segment watermark). This module defines a hand-rolled
//! little-endian container for exactly that data — no serialization
//! dependency, matching the workspace's vendored-deps discipline — so a
//! built index can be saved once and reloaded with **byte-identical
//! answers** on every surface (`tests/persist_equivalence.rs` pins this for
//! all three LSF index types, and for mutated and sharded LSF indexes).
//!
//! ## Container layout
//!
//! Every `.skx` file is one 32-byte header followed by one payload:
//!
//! ```text
//! offset  size  field
//! 0       8     magic "SKSWIDX1"
//! 8       4     format version (u32 LE, currently 2)
//! 12      4     container kind (u32 LE, see `kind::*`)
//! 16      8     payload length in bytes (u64 LE)
//! 24      8     FNV-1a-64 checksum of the payload (u64 LE)
//! 32      —     payload
//! ```
//!
//! The header is 32 bytes and every variable-length field in the payload is
//! length-prefixed and padded to an 8-byte boundary, so all hot arrays are
//! 8-byte-aligned relative to the file start. Today `load` is a single read
//! into owned buffers; the alignment discipline is what will later allow an
//! `mmap`-based zero-copy loader without a format change. The full byte-level
//! specification (precise enough to write an independent decoder) lives in
//! `docs/PERSISTENCE.md`.
//!
//! Corrupt or mismatched files are rejected with a typed [`PersistError`] —
//! never a panic (skewcheck's `no-panic-in-lib` contract holds here like
//! everywhere else in the library).
//!
//! ## Entry points
//!
//! * [`crate::LsfIndex::save`] / [`crate::LsfIndex::load`] — one container
//!   file under each of the three schemes: [`crate::CorrelatedIndex`],
//!   [`crate::AdversarialIndex`] and [`crate::ChosenPathIndex`], the LSF
//!   family alone. The container kind is the scheme's
//!   ([`PersistScheme::KIND`]), and the scheme's codec
//!   ([`PersistScheme::encode`] / [`PersistScheme::decode`]) writes the
//!   payload's head.
//! * [`crate::ShardedIndex::save`] / [`crate::ShardedIndex::load`] — a
//!   directory of per-shard `.skx` files (kinds 2–4: only the LSF family
//!   shards) plus a [`ShardManifest`] recording the shard count and
//!   the local→global id maps, restoring a sharded deployment
//!   byte-identically.
//! * [`Writer`] / [`Reader`] — the little-endian encoding primitives, public
//!   because [`PersistScheme`]'s codec and [`ShardManifest`]'s take them, so
//!   a test or tool can decode a payload by the spec.
//! * [`write_container`] / [`load_container`] — the one writer and the one
//!   loader every `.skx` kind goes through. The format version is known
//!   only here: the loader hands it to decoders inside the [`Reader`], and
//!   [`read_postings`] is the one decoder whose layout depends on it.

use crate::postings::{CompressedPostings, PostingsEncoder, PostingsError};
use skewsearch_hashing::FxHashMap;
use skewsearch_sets::SparseVec;
use std::path::Path;

/// File magic: the first 8 bytes of every container written by this module.
pub const MAGIC: [u8; 8] = *b"SKSWIDX1";

/// Current container format version. Bump on any layout change; readers
/// reject files whose version they do not understand (see
/// `docs/PERSISTENCE.md` for the version-bump policy).
///
/// Version history: **1** — uncompressed bucket maps everywhere; **2** —
/// LSF base segments persist as compressed postings (sorted keys + byte
/// offsets + delta/varint arena, `docs/PERSISTENCE.md` §format-v2). Readers
/// accept `1..=FORMAT_VERSION`; writers always emit [`FORMAT_VERSION`].
pub const FORMAT_VERSION: u32 = 2;

/// Container kinds: what structure a `.skx` file holds. A reader checks the
/// kind before touching the payload, so loading a file as the wrong type
/// fails with [`PersistError::WrongKind`] instead of misinterpreting bytes.
pub mod kind {
    // Kind 1 held an `LsfIndex` without its scheme's fields, which only
    // tests wrote. It is retired and never reused, so a kind-1 file fails
    // every load with `WrongKind`.
    /// A [`crate::CorrelatedIndex`] (α + diagnostics, then the LSF payload).
    pub const CORRELATED: u32 = 2;
    /// An [`crate::AdversarialIndex`] (the LSF payload verbatim).
    pub const ADVERSARIAL: u32 = 3;
    /// A [`crate::ChosenPathIndex`] (`b₂`, then the LSF payload).
    pub const CHOSEN_PATH: u32 = 4;
    // Kind 5 held a MinHash LSH index. It is retired and never reused, so a
    // kind-5 file fails every load with `WrongKind`.
    /// A [`crate::ShardedIndex`] manifest (threshold, live count, owner
    /// table, per-shard files + id maps — see [`super::ShardManifest`]).
    pub const MANIFEST: u32 = 6;
}

/// Why a save or load failed. Every decode path returns one of these —
/// corrupt, truncated, or mismatched files are *reported*, never panicked
/// on.
///
/// # Examples
///
/// ```
/// use skewsearch_core::persist::PersistError;
/// use skewsearch_core::CorrelatedIndex;
///
/// // Loading a file that is not a container fails with BadMagic.
/// let path = std::env::temp_dir().join(format!(
///     "skewsearch_doctest_badmagic_{}.skx",
///     std::process::id()
/// ));
/// std::fs::write(&path, b"definitely not an index container, just prose").unwrap();
/// let err = match CorrelatedIndex::load(&path) {
///     Err(e) => e,
///     Ok(_) => unreachable!("garbage must not load"),
/// };
/// assert!(matches!(err, PersistError::BadMagic));
/// std::fs::remove_file(&path).unwrap();
/// ```
#[derive(Debug)]
pub enum PersistError {
    /// The underlying filesystem operation failed.
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`] — it is not a container at all
    /// (or the first bytes were corrupted).
    BadMagic,
    /// The container's format version is not one this reader understands.
    UnsupportedVersion(u32),
    /// The container holds a different structure than the caller asked for
    /// (e.g. loading a Chosen Path file as a `CorrelatedIndex`).
    WrongKind {
        /// The kind the caller expected (see [`kind`]).
        expected: u32,
        /// The kind recorded in the file header.
        found: u32,
    },
    /// The payload bytes do not hash to the checksum in the header: the file
    /// was corrupted after it was written.
    ChecksumMismatch,
    /// The file ended before the declared payload did, or a field ran past
    /// the end of the payload.
    Truncated,
    /// The payload decoded structurally but violated a format invariant
    /// (the message names which one).
    Malformed(&'static str),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "i/o error: {e}"),
            PersistError::BadMagic => write!(f, "not a skewsearch index file (bad magic)"),
            PersistError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported format version {v} (this reader understands 1..={FORMAT_VERSION})"
                )
            }
            PersistError::WrongKind { expected, found } => {
                write!(
                    f,
                    "container kind mismatch: expected {expected}, file holds {found}"
                )
            }
            PersistError::ChecksumMismatch => write!(f, "payload checksum mismatch (corrupt file)"),
            PersistError::Truncated => write!(f, "file truncated: a field ran past the payload"),
            PersistError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// FNV-1a 64-bit hash of `bytes` — the container checksum.
///
/// Chosen because it is trivially specified (two constants, one loop), has
/// no dependencies, and detects the corruption classes that matter for a
/// local index file (truncation, bit flips, torn writes). It is **not** a
/// cryptographic integrity check; see `docs/PERSISTENCE.md`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Little-endian payload encoder. All multi-byte values are little-endian;
/// every array is length-prefixed (`u64` element count) and padded so the
/// next field starts on an 8-byte boundary.
///
/// # Examples
///
/// ```
/// use skewsearch_core::persist::{Reader, Writer};
///
/// let mut w = Writer::new();
/// w.put_u64(42);
/// w.put_f64(0.8);
/// w.put_u32_slice(&[1, 2, 3]);
/// let payload = w.into_payload();
/// assert_eq!(payload.len() % 8, 0);
///
/// let mut r = Reader::new(&payload);
/// assert_eq!(r.get_u64().unwrap(), 42);
/// assert_eq!(r.get_f64().unwrap(), 0.8);
/// assert_eq!(r.get_u32_vec().unwrap(), vec![1, 2, 3]);
/// assert!(r.is_empty());
/// ```
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty payload buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the writer, returning the payload bytes (always a multiple
    /// of 8 long, given the padding discipline).
    pub fn into_payload(self) -> Vec<u8> {
        self.buf
    }

    fn pad_to_8(&mut self) {
        while self.buf.len() % 8 != 0 {
            self.buf.push(0);
        }
    }

    /// Writes a `u32` followed by 4 padding bytes (fields stay 8-aligned).
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self.buf.extend_from_slice(&[0u8; 4]);
    }

    /// Writes a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u128` as two `u64` words, low word first.
    pub fn put_u128(&mut self, v: u128) {
        self.put_u64(v as u64);
        self.put_u64((v >> 64) as u64);
    }

    /// Writes an `f64` as its IEEE-754 bit pattern (exact round-trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Writes a length-prefixed `u64` array.
    pub fn put_u64_slice(&mut self, vs: &[u64]) {
        self.put_u64(vs.len() as u64);
        for &v in vs {
            self.put_u64(v);
        }
    }

    /// Writes a length-prefixed `f64` array (bit patterns).
    pub fn put_f64_slice(&mut self, vs: &[f64]) {
        self.put_u64(vs.len() as u64);
        for &v in vs {
            self.put_f64(v);
        }
    }

    /// Writes a length-prefixed `u32` array, padded to an 8-byte boundary.
    pub fn put_u32_slice(&mut self, vs: &[u32]) {
        self.put_u64(vs.len() as u64);
        for &v in vs {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
        self.pad_to_8();
    }

    /// Writes a length-prefixed raw byte array, padded to an 8-byte
    /// boundary — the encoding of the compressed postings arena.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_u64(bytes.len() as u64);
        self.buf.extend_from_slice(bytes);
        self.pad_to_8();
    }

    /// Writes a length-prefixed UTF-8 string, padded to an 8-byte boundary.
    pub fn put_str(&mut self, s: &str) {
        self.put_u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
        self.pad_to_8();
    }

    /// Writes a `bool` slice packed into `u64` words, LSB-first: bit `i` of
    /// the packed stream is element `i` (word `i / 64`, bit `i % 64`). The
    /// element count is written first, then the word array — the encoding of
    /// the `alive` tombstone bitmap.
    pub fn put_bitmap(&mut self, bits: &[bool]) {
        self.put_u64(bits.len() as u64);
        let words = bits.len().div_ceil(64);
        self.put_u64(words as u64);
        for w in 0..words {
            let mut word = 0u64;
            for b in 0..64 {
                let i = w * 64 + b;
                if i < bits.len() && bits[i] {
                    word |= 1u64 << b;
                }
            }
            self.put_u64(word);
        }
    }

    /// Writes a set table: the set count `n`, an `n + 1`-entry offset table,
    /// and the flat dimension stream — set `i` is
    /// `dims[offsets[i]..offsets[i + 1]]` (`docs/PERSISTENCE.md` §4).
    pub fn put_sets(&mut self, sets: &[SparseVec]) {
        self.put_u64(sets.len() as u64);
        let mut offsets: Vec<u64> = Vec::with_capacity(sets.len() + 1);
        offsets.push(0);
        let mut flat: Vec<u32> = Vec::new();
        for set in sets {
            flat.extend_from_slice(set.dims());
            offsets.push(flat.len() as u64);
        }
        self.put_u64_slice(&offsets);
        self.put_u32_slice(&flat);
    }
}

/// Little-endian payload decoder: a cursor over a payload slice. Every read
/// is bounds-checked and returns [`PersistError::Truncated`] on overrun —
/// decoding never panics, whatever the bytes.
///
/// The cursor also carries the format version its payload was written at
/// (the container header's under [`load_container`]), private to this
/// module: [`read_postings`] is the one decoder whose layout depends on it.
///
/// See [`Writer`] for the encoding rules and a round-trip example.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    version: u32,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `payload`, written at [`FORMAT_VERSION`].
    pub fn new(payload: &'a [u8]) -> Self {
        Self {
            buf: payload,
            pos: 0,
            version: FORMAT_VERSION,
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// True iff the cursor has consumed the whole payload.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        let end = self.pos.checked_add(n).ok_or(PersistError::Truncated)?;
        let slice = self.buf.get(self.pos..end).ok_or(PersistError::Truncated)?;
        self.pos = end;
        Ok(slice)
    }

    fn skip_pad_to_8(&mut self) -> Result<(), PersistError> {
        let rem = self.pos % 8;
        if rem != 0 {
            self.take(8 - rem)?;
        }
        Ok(())
    }

    /// Reads a `u32` (and its 4 padding bytes).
    pub fn get_u32(&mut self) -> Result<u32, PersistError> {
        let bytes = self.take(8)?;
        let mut le = [0u8; 4];
        le.copy_from_slice(&bytes[..4]);
        Ok(u32::from_le_bytes(le))
    }

    /// Reads a `u64`.
    pub fn get_u64(&mut self) -> Result<u64, PersistError> {
        let bytes = self.take(8)?;
        let mut le = [0u8; 8];
        le.copy_from_slice(bytes);
        Ok(u64::from_le_bytes(le))
    }

    /// Reads a `u128` (two `u64` words, low first).
    pub fn get_u128(&mut self) -> Result<u128, PersistError> {
        let lo = self.get_u64()?;
        let hi = self.get_u64()?;
        Ok(((hi as u128) << 64) | lo as u128)
    }

    /// Reads an `f64` bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, PersistError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a `u64` declared as a length/count, bounding it by the bytes
    /// actually remaining (`elem_size` bytes per element) so a corrupt count
    /// cannot trigger an enormous allocation.
    fn get_len(&mut self, elem_size: usize) -> Result<usize, PersistError> {
        let n = self.get_u64()?;
        let n: usize = n.try_into().map_err(|_| PersistError::Truncated)?;
        let need = n.checked_mul(elem_size).ok_or(PersistError::Truncated)?;
        if need > self.remaining() {
            return Err(PersistError::Truncated);
        }
        Ok(n)
    }

    /// Reads a length-prefixed `u64` array.
    pub fn get_u64_vec(&mut self) -> Result<Vec<u64>, PersistError> {
        let n = self.get_len(8)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.get_u64()?);
        }
        Ok(out)
    }

    /// Reads a length-prefixed `f64` array.
    pub fn get_f64_vec(&mut self) -> Result<Vec<f64>, PersistError> {
        let n = self.get_len(8)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.get_f64()?);
        }
        Ok(out)
    }

    /// Reads a length-prefixed, 8-padded `u32` array.
    pub fn get_u32_vec(&mut self) -> Result<Vec<u32>, PersistError> {
        let n = self.get_len(4)?;
        let mut out = Vec::with_capacity(n);
        for chunk in self.take(n * 4)?.chunks_exact(4) {
            let mut le = [0u8; 4];
            le.copy_from_slice(chunk);
            out.push(u32::from_le_bytes(le));
        }
        self.skip_pad_to_8()?;
        Ok(out)
    }

    /// Reads a length-prefixed, 8-padded raw byte array written by
    /// [`Writer::put_bytes`].
    pub fn get_bytes(&mut self) -> Result<Vec<u8>, PersistError> {
        let n = self.get_len(1)?;
        let out = self.take(n)?.to_vec();
        self.skip_pad_to_8()?;
        Ok(out)
    }

    /// Reads a length-prefixed, 8-padded UTF-8 string.
    pub fn get_string(&mut self) -> Result<String, PersistError> {
        let n = self.get_len(1)?;
        let bytes = self.take(n)?;
        let s = std::str::from_utf8(bytes)
            .map_err(|_| PersistError::Malformed("string field is not UTF-8"))?
            .to_owned();
        self.skip_pad_to_8()?;
        Ok(s)
    }

    /// Reads a packed bitmap written by [`Writer::put_bitmap`].
    pub fn get_bitmap(&mut self) -> Result<Vec<bool>, PersistError> {
        let bits = self.get_u64()?;
        let bits: usize = bits.try_into().map_err(|_| PersistError::Truncated)?;
        let words = self.get_len(8)?;
        if words != bits.div_ceil(64) {
            return Err(PersistError::Malformed("bitmap word count mismatch"));
        }
        let mut out = Vec::with_capacity(bits);
        for _ in 0..words {
            let word = self.get_u64()?;
            for b in 0..64 {
                if out.len() < bits {
                    out.push(word & (1u64 << b) != 0);
                }
            }
        }
        Ok(out)
    }

    /// Reads a set table written by [`Writer::put_sets`], checking that the
    /// count fits the `u32` id space, that the offset table covers the
    /// dimension stream exactly and monotonically, and that every set's
    /// dimensions strictly ascend.
    pub fn get_sets(&mut self) -> Result<Vec<SparseVec>, PersistError> {
        let n = self.get_u64()?;
        if n > u32::MAX as u64 {
            return Err(PersistError::Malformed("slot count exceeds u32 id space"));
        }
        let offsets = self.get_u64_vec()?;
        let flat = self.get_u32_vec()?;
        let inconsistent = || PersistError::Malformed("vector offset table inconsistent");
        if offsets.len() as u64 != n + 1
            || offsets.first() != Some(&0)
            || offsets.last() != Some(&(flat.len() as u64))
        {
            return Err(inconsistent());
        }
        let mut sets = Vec::with_capacity(n as usize);
        for w in offsets.windows(2) {
            let dims = flat
                .get(w[0] as usize..w[1] as usize)
                .ok_or_else(inconsistent)?;
            if dims.windows(2).any(|p| p[0] >= p[1]) {
                return Err(PersistError::Malformed(
                    "vector dimensions not strictly ascending",
                ));
            }
            sets.push(SparseVec::from_sorted(dims.to_vec()));
        }
        Ok(sets)
    }
}

/// Encodes one inverted-index posting map as three aligned arrays: sorted
/// keys, a bucket offset table (`keys.len() + 1` entries into the id
/// stream), and the concatenated bucket ids. Sorting the keys makes the
/// encoding independent of the map's iteration order — and since probes
/// only ever `get` by key, rebuild insertion order is answer-invariant too.
/// The LSF delta segments use it (and, in format v1, the base segments).
pub fn write_bucket_map(w: &mut Writer, map: &FxHashMap<u64, Vec<u32>>) {
    // lint:allow(nondeterministic-iter, the keys are collected and sorted before any byte is written — the encoding is independent of the map's iteration order)
    let mut keys: Vec<u64> = map.keys().copied().collect();
    keys.sort_unstable();
    let mut offsets: Vec<u64> = Vec::with_capacity(keys.len() + 1);
    offsets.push(0);
    let mut flat: Vec<u32> = Vec::new();
    for key in &keys {
        if let Some(bucket) = map.get(key) {
            flat.extend_from_slice(bucket);
        }
        offsets.push(flat.len() as u64);
    }
    w.put_u64_slice(&keys);
    w.put_u64_slice(&offsets);
    w.put_u32_slice(&flat);
}

/// Decodes a posting map written by [`write_bucket_map`], enforcing the
/// invariants the probe loops rely on: keys strictly ascending, the offset
/// table monotone and consistent with the id stream, and every bucket's ids
/// strictly ascending within `min_id..n_slots` (`min_id > 0` for LSF delta
/// segments, whose ids must all lie past the base-segment watermark).
pub fn read_bucket_map(
    r: &mut Reader<'_>,
    n_slots: usize,
    min_id: u32,
) -> Result<FxHashMap<u64, Vec<u32>>, PersistError> {
    Ok(read_buckets(r, n_slots, min_id)?.into_iter().collect())
}

/// The checks of [`read_bucket_map`], yielding its buckets in key order.
fn read_buckets(
    r: &mut Reader<'_>,
    n_slots: usize,
    min_id: u32,
) -> Result<Vec<(u64, Vec<u32>)>, PersistError> {
    let keys = r.get_u64_vec()?;
    let offsets = r.get_u64_vec()?;
    let flat = r.get_u32_vec()?;
    if keys.windows(2).any(|w| w[0] >= w[1]) {
        return Err(PersistError::Malformed(
            "bucket keys not strictly ascending",
        ));
    }
    let inconsistent = || PersistError::Malformed("bucket offset table inconsistent");
    if offsets.len() != keys.len() + 1
        || offsets.first() != Some(&0)
        || offsets.last() != Some(&(flat.len() as u64))
    {
        return Err(inconsistent());
    }
    keys.iter()
        .zip(offsets.windows(2))
        .map(|(&key, w)| {
            let bucket = flat
                .get(w[0] as usize..w[1] as usize)
                .ok_or_else(inconsistent)?;
            if bucket.windows(2).any(|p| p[0] >= p[1]) {
                return Err(PersistError::Malformed("bucket ids not strictly ascending"));
            }
            if bucket
                .iter()
                .any(|&id| id < min_id || id as usize >= n_slots)
            {
                return Err(PersistError::Malformed("bucket id outside slot range"));
            }
            Ok((key, bucket.to_vec()))
        })
        .collect()
}

/// Writes one [`CompressedPostings`] as three aligned fields: the sorted key
/// array, the **byte**-offset table (`keys.len() + 1` entries into the
/// arena), and the delta+varint arena — the base-segment encoding
/// (`docs/PERSISTENCE.md` §2.2), re-derived bucket by bucket by
/// [`CompressedPostings::v2_parts`]. Contrast with [`write_bucket_map`],
/// whose offsets count *ids*, not bytes.
pub fn write_postings(w: &mut Writer, p: &CompressedPostings) {
    let (offsets, arena) = p.v2_parts();
    // lint:allow(nondeterministic-iter, CompressedPostings::keys is the sorted key array of the compressed encoding — a Vec accessor, not a hash map)
    w.put_u64_slice(p.keys());
    w.put_u64_slice(&offsets);
    w.put_bytes(&arena);
}

/// Decodes a base segment at the reader's format version — the one layout
/// in the format that depends on it. Since v2 it is the [`write_postings`]
/// encoding, every structural check (key order, offset consistency, varint
/// well-formedness, strictly ascending ids in `min_id..n_slots`) delegated
/// to [`CompressedPostings::from_parts`], which streams the checked buckets
/// into a [`PostingsEncoder`]; v1 stored a [`write_bucket_map`] map, whose
/// checked buckets stream into the encoder here. Corruption maps to
/// [`PersistError::Malformed`] naming the violated invariant.
pub fn read_postings(
    r: &mut Reader<'_>,
    n_slots: usize,
    min_id: u32,
) -> Result<CompressedPostings, PersistError> {
    match r.version {
        1 => {
            let mut enc = PostingsEncoder::new();
            for (key, ids) in read_buckets(r, n_slots, min_id)? {
                for id in ids {
                    enc.push(key, id);
                }
            }
            Ok(enc.finish())
        }
        _ => {
            let keys = r.get_u64_vec()?;
            let offsets = r.get_u64_vec()?;
            let arena = r.get_bytes()?;
            CompressedPostings::from_parts(keys, offsets, arena, n_slots, min_id).map_err(|e| {
                PersistError::Malformed(match e {
                    PostingsError::Truncated => "postings varint truncated mid-bucket",
                    PostingsError::Overflow => "postings varint exceeds u32 range",
                    PostingsError::NonMonotone => "postings bucket ids not strictly ascending",
                    PostingsError::KeyOrder => "postings keys not strictly ascending",
                    PostingsError::OffsetTable => "postings offset table inconsistent",
                    PostingsError::IdOutOfRange => "postings id outside slot range",
                    PostingsError::TooLarge => "postings exceed the in-memory layout's range",
                })
            })
        }
    }
}

/// Writes a container file: header (magic, [`FORMAT_VERSION`], `kind`,
/// length, checksum) followed by `payload`. The write goes to a `.tmp`
/// sibling first and is renamed into place, so a crash mid-write never
/// leaves a half-written file at `path`.
pub fn write_container(path: &Path, kind: u32, payload: &[u8]) -> Result<(), PersistError> {
    let mut file = Vec::with_capacity(32 + payload.len());
    file.extend_from_slice(&MAGIC);
    file.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    file.extend_from_slice(&kind.to_le_bytes());
    file.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    file.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    file.extend_from_slice(payload);
    let tmp = path.with_extension("skx.tmp");
    std::fs::write(&tmp, &file)?;
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Reads the container at `path` and decodes its payload with `decode` —
/// the one way a `.skx` file is opened for reading. Checks, in order:
/// magic, format version (any of `1..=FORMAT_VERSION`), container kind,
/// declared payload length, and the FNV-1a-64 checksum, each failure its
/// own [`PersistError`] variant. `decode` gets a [`Reader`] at the header's
/// version and must consume the payload exactly: leftover bytes are
/// [`PersistError::Malformed`].
pub fn load_container<T>(
    path: &Path,
    expected_kind: u32,
    decode: impl FnOnce(&mut Reader<'_>) -> Result<T, PersistError>,
) -> Result<T, PersistError> {
    let bytes = std::fs::read(path)?;
    let (header, payload) = bytes.split_at_checked(32).ok_or(PersistError::Truncated)?;
    let mut header = Reader::new(header);
    if *header.take(8)? != MAGIC {
        return Err(PersistError::BadMagic);
    }
    let version_and_kind = header.get_u64()?;
    let (version, found) = (version_and_kind as u32, (version_and_kind >> 32) as u32);
    if !(1..=FORMAT_VERSION).contains(&version) {
        return Err(PersistError::UnsupportedVersion(version));
    }
    if found != expected_kind {
        return Err(PersistError::WrongKind {
            expected: expected_kind,
            found,
        });
    }
    if header.get_u64()? != payload.len() as u64 {
        return Err(PersistError::Truncated);
    }
    if fnv1a64(payload) != header.get_u64()? {
        return Err(PersistError::ChecksumMismatch);
    }
    let mut r = Reader {
        buf: payload,
        pos: 0,
        version,
    };
    let value = decode(&mut r)?;
    if !r.is_empty() {
        return Err(PersistError::Malformed("trailing bytes after the payload"));
    }
    Ok(value)
}

/// A [`crate::ThresholdScheme`] that can round-trip through a container.
/// Implemented by the three concrete schemes; [`crate::LsfIndex`] saves and
/// loads exactly when its scheme does, in a container of the scheme's
/// [`PersistScheme::KIND`] whose payload opens with the bytes of
/// [`PersistScheme::encode`].
pub trait PersistScheme: Sized {
    /// The container kind an index under this scheme saves as (see
    /// [`kind`]): loading a file of another kind fails with
    /// [`PersistError::WrongKind`].
    const KIND: u32;

    /// Appends the scheme: its own fields, which planning never reads
    /// (`docs/PERSISTENCE.md` §5), then its tag word and its calibration
    /// (§3). The tag is distinct per scheme (1 = adversarial,
    /// 2 = correlated, 3 = chosen path).
    fn encode(&self, w: &mut Writer);

    /// Decodes and validates what [`PersistScheme::encode`] wrote. A tag
    /// word naming another scheme is [`PersistError::Malformed`], so a
    /// payload can never be decoded under the wrong scheme.
    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError>;

    /// The length of the calibration's per-dimension table, if it has one.
    /// [`crate::LsfIndex::load`] rejects a table that is not one entry per
    /// dimension of the profile decoded after it.
    fn table_len(&self) -> Option<usize> {
        None
    }
}

/// One shard's entry in a [`ShardManifest`]: where its container file lives
/// and how to lift its local answers back to global coordinates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardManifestEntry {
    /// File name of the shard's container, relative to the manifest's
    /// directory (e.g. `shard-0003.skx`).
    pub file: String,
    /// Local id → global id.
    pub id_map: Vec<u32>,
}

/// The manifest of a saved [`crate::ShardedIndex`]: everything the wrapper
/// needs beyond the shards themselves, written as the `manifest.skx`
/// container (kind [`kind::MANIFEST`]) in the deployment directory.
///
/// [`crate::ShardedIndex::save`] produces one; [`crate::ShardedIndex::load`]
/// consumes one and re-opens every referenced shard file, restoring answers
/// byte-identically — see the "restoring a sharded deployment" walkthrough
/// in `docs/PERSISTENCE.md`.
///
/// # Examples
///
/// ```
/// use skewsearch_core::persist::{Reader, ShardManifest, ShardManifestEntry};
///
/// let manifest = ShardManifest {
///     threshold: 0.6,
///     len: 3,
///     next_id: 3,
///     owner: vec![(0, 0), (1, 0), (0, 1)],
///     shards: vec![
///         ShardManifestEntry {
///             file: "shard-0000.skx".into(),
///             id_map: vec![0, 2],
///         },
///         ShardManifestEntry {
///             file: "shard-0001.skx".into(),
///             id_map: vec![1],
///         },
///     ],
/// };
/// // The encoding round-trips exactly.
/// let payload = manifest.encode();
/// let back = ShardManifest::decode(&mut Reader::new(&payload)).unwrap();
/// assert_eq!(back, manifest);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct ShardManifest {
    /// The wrapper's verification threshold.
    pub threshold: f64,
    /// Live set count across shards.
    pub len: usize,
    /// The next global [`crate::SetId`] to assign (the mutation-log
    /// watermark of the wrapper itself).
    pub next_id: usize,
    /// Global id → `(shard, local id)`.
    pub owner: Vec<(u32, u32)>,
    /// One entry per shard, in shard order.
    pub shards: Vec<ShardManifestEntry>,
}

/// Reads a `u32` field whose value is fixed: a scheme's tag word (§3) and
/// the words that once told pass-slice shards from dataset shards
/// (`docs/PERSISTENCE.md` §7).
pub(crate) fn expect_u32(
    r: &mut Reader<'_>,
    fixed: u32,
    what: &'static str,
) -> Result<(), PersistError> {
    if r.get_u32()? == fixed {
        Ok(())
    } else {
        Err(PersistError::Malformed(what))
    }
}

impl ShardManifest {
    /// Encodes the manifest into a container payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        // `strategy`: always 2, dataset shards (§7's fixed words).
        w.put_u32(2);
        w.put_f64(self.threshold);
        w.put_u64(self.len as u64);
        w.put_u64(self.next_id as u64);
        // The retired plan-broadcast flag: always on, still on disk.
        w.put_u32(1);
        w.put_u64(self.owner.len() as u64);
        for &(shard, local) in &self.owner {
            w.buf.extend_from_slice(&shard.to_le_bytes());
            w.buf.extend_from_slice(&local.to_le_bytes());
        }
        w.put_u64(self.shards.len() as u64);
        for entry in &self.shards {
            // `pass_offset` (always 0) and `has_id_map` (always 1).
            w.put_u32(0);
            w.put_u32(1);
            w.put_u32_slice(&entry.id_map);
            w.put_str(&entry.file);
        }
        w.into_payload()
    }

    /// Decodes a manifest payload written by [`ShardManifest::encode`].
    /// Whether the manifest agrees with its shards is for
    /// [`crate::ShardedIndex::load`] to check once it has loaded them.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        expect_u32(
            r,
            2,
            "shard strategy tag not 2 (tag 1, pass-slice shards, is retired)",
        )?;
        let threshold = r.get_f64()?;
        let len = r.get_u64()? as usize;
        let next_id = r.get_u64()? as usize;
        // The retired plan-broadcast flag: validated, then ignored.
        if r.get_u32()? > 1 {
            return Err(PersistError::Malformed("plan_broadcast flag not 0/1"));
        }
        let owners = r.get_len(8)?;
        let mut owner = Vec::with_capacity(owners);
        for _ in 0..owners {
            let packed = r.get_u64()?;
            owner.push((packed as u32, (packed >> 32) as u32));
        }
        let shard_count = r.get_len(16)?;
        let mut shards = Vec::with_capacity(shard_count);
        for _ in 0..shard_count {
            expect_u32(r, 0, "shard pass offset not 0")?;
            expect_u32(r, 1, "shard id-map flag not 1")?;
            let id_map = r.get_u32_vec()?;
            let file = r.get_string()?;
            shards.push(ShardManifestEntry { file, id_map });
        }
        Ok(Self {
            threshold,
            len,
            next_id,
            owner,
            shards,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static UNIQUE: AtomicUsize = AtomicUsize::new(0);
        std::env::temp_dir().join(format!(
            "skewsearch_persist_unit_{tag}_{}_{}.skx",
            std::process::id(),
            UNIQUE.fetch_add(1, Ordering::Relaxed)
        ))
    }

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.put_u32(7);
        w.put_u64(u64::MAX);
        w.put_u128(0x0123_4567_89AB_CDEF_0011_2233_4455_6677);
        w.put_f64(-0.25);
        w.put_u64_slice(&[1, 2, 3]);
        w.put_f64_slice(&[0.5, f64::INFINITY]);
        w.put_u32_slice(&[9, 8, 7, 6, 5]);
        w.put_str("héllo");
        w.put_bitmap(&[true, false, true]);
        let payload = w.into_payload();
        assert_eq!(payload.len() % 8, 0);

        let mut r = Reader::new(&payload);
        assert_eq!(r.get_u32().unwrap(), 7);
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert_eq!(
            r.get_u128().unwrap(),
            0x0123_4567_89AB_CDEF_0011_2233_4455_6677
        );
        assert_eq!(r.get_f64().unwrap(), -0.25);
        assert_eq!(r.get_u64_vec().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.get_f64_vec().unwrap(), vec![0.5, f64::INFINITY]);
        assert_eq!(r.get_u32_vec().unwrap(), vec![9, 8, 7, 6, 5]);
        assert_eq!(r.get_string().unwrap(), "héllo");
        assert_eq!(r.get_bitmap().unwrap(), vec![true, false, true]);
        assert!(r.is_empty());
    }

    #[test]
    fn bitmaps_round_trip_across_word_boundaries() {
        for n in [0usize, 1, 63, 64, 65, 128, 200] {
            let bits: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
            let mut w = Writer::new();
            w.put_bitmap(&bits);
            let payload = w.into_payload();
            let mut r = Reader::new(&payload);
            assert_eq!(r.get_bitmap().unwrap(), bits, "n={n}");
            assert!(r.is_empty());
        }
    }

    #[test]
    fn reader_rejects_overruns_without_panicking() {
        let mut w = Writer::new();
        w.put_u64(3);
        let payload = w.into_payload();
        let mut r = Reader::new(&payload);
        assert_eq!(r.get_u64().unwrap(), 3);
        assert!(matches!(r.get_u64(), Err(PersistError::Truncated)));
        // A declared length far past the buffer must not allocate or panic.
        let mut w = Writer::new();
        w.put_u64(u64::MAX);
        let payload = w.into_payload();
        let mut r = Reader::new(&payload);
        assert!(matches!(r.get_u64_vec(), Err(PersistError::Truncated)));
    }

    #[test]
    fn container_header_is_validated_field_by_field() {
        let path = temp_path("header");
        write_container(&path, kind::ADVERSARIAL, &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        let read = |kind| load_container(&path, kind, |r| Ok(r.get_u64()?.to_le_bytes()));

        // Round trip.
        assert_eq!(read(kind::ADVERSARIAL).unwrap(), [1, 2, 3, 4, 5, 6, 7, 8]);
        // Wrong kind.
        assert!(matches!(
            read(kind::CORRELATED),
            Err(PersistError::WrongKind {
                expected: kind::CORRELATED,
                found: kind::ADVERSARIAL
            })
        ));

        let original = std::fs::read(&path).unwrap();
        // Bad magic.
        let mut bad = original.clone();
        bad[0] ^= 0xFF;
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            read(kind::ADVERSARIAL),
            Err(PersistError::BadMagic)
        ));
        // Unsupported version.
        let mut bad = original.clone();
        bad[8] = 99;
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            read(kind::ADVERSARIAL),
            Err(PersistError::UnsupportedVersion(99))
        ));
        // Truncated payload.
        std::fs::write(&path, &original[..original.len() - 1]).unwrap();
        assert!(matches!(
            read(kind::ADVERSARIAL),
            Err(PersistError::Truncated)
        ));
        // Header shorter than 32 bytes.
        std::fs::write(&path, &original[..16]).unwrap();
        assert!(matches!(
            read(kind::ADVERSARIAL),
            Err(PersistError::Truncated)
        ));
        // Flipped payload byte fails the checksum.
        let mut bad = original.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            read(kind::ADVERSARIAL),
            Err(PersistError::ChecksumMismatch)
        ));
        // Missing file is an Io error.
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(read(kind::ADVERSARIAL), Err(PersistError::Io(_))));
    }

    #[test]
    fn fnv_vector() {
        // Standard FNV-1a-64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn manifest_round_trips_and_rejects_bad_tags() {
        let manifest = ShardManifest {
            threshold: 0.42,
            len: 2,
            next_id: 3,
            owner: vec![(0, 0), (0, 1), (0, 2)],
            shards: vec![ShardManifestEntry {
                file: "shard-0000.skx".into(),
                id_map: vec![0, 1, 2],
            }],
        };
        let payload = manifest.encode();
        assert_eq!(
            ShardManifest::decode(&mut Reader::new(&payload)).unwrap(),
            manifest
        );
        // Any other value in a fixed word — the strategy tag (1 is the
        // retired pass-slice strategy), the shard's pass offset or its
        // id-map flag — yields Malformed, not a panic.
        // The first entry follows five 8-byte header words, the owner
        // table and the shard count.
        let entry = 40 + 8 + 8 * manifest.owner.len() + 8;
        for (at, value) in [(0, 1), (0, 9), (entry, 1), (entry + 8, 0), (entry + 8, 2)] {
            let mut bad = payload.clone();
            bad[at..at + 4].copy_from_slice(&u32::to_le_bytes(value));
            assert!(
                matches!(
                    ShardManifest::decode(&mut Reader::new(&bad)),
                    Err(PersistError::Malformed(_))
                ),
                "word at {at} = {value}"
            );
        }
        // Trailing garbage is rejected.
        let mut long = payload.clone();
        long.extend_from_slice(&[0u8; 8]);
        let path = temp_path("manifest");
        write_container(&path, kind::MANIFEST, &long).unwrap();
        assert!(matches!(
            load_container(&path, kind::MANIFEST, ShardManifest::decode),
            Err(PersistError::Malformed(_))
        ));
        std::fs::remove_file(&path).unwrap();
    }
}
