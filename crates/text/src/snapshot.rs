//! Versioned binary snapshots of a [`LemmaIndex`] (+ the `SimEngine`
//! interning tables it owns): build once, serve from disk forever after.
//!
//! The paper front-loads all annotation cost into catalog index
//! construction (§6); a process restart used to pay that cost again in
//! full. [`LemmaIndex::save`] writes a single self-describing file and
//! [`LemmaIndex::load`] reconstructs the index from it with **zero
//! re-tokenization** — no string is normalized, split, or interned on the
//! load path — and the loaded index is bit-identical to the one saved
//! (same `IndexLayout`, same `content_digest`, so downstream candidate
//! caches keyed on the digest stay valid across restarts).
//!
//! ## File layout (format version 3, all integers little-endian)
//!
//! ```text
//! ┌────────────────────────────────────────────────────────────┐
//! │ header (56 B): magic "WTLEMIDX" · version u32 · #sections  │
//! │   u32 · config fingerprint u64 · content digest u64 ·      │
//! │   payload checksum u64 (FNV-1a) · payload offset u64 ·     │
//! │   file length u64                                          │
//! ├────────────────────────────────────────────────────────────┤
//! │ section table: #sections × { id u32 · pad u32 ·            │
//! │   offset u64 · len u64 }                                   │
//! ├──────────────── payload (page-aligned, 4 KiB) ─────────────┤
//! │  1 VOCAB           interned words, id order                │
//! │  2 IDF             document count + per-token frequencies  │
//! │  3 LEMMAS          kinds · owners · normalized texts       │
//! │  4 LEMMA_TOKENS    per-lemma token-id sequences (CSR)      │
//! │  5 ENTITY_POSTINGS token → entity-lemma CSR                │
//! │  6 TYPE_POSTINGS   token → type-lemma CSR                  │
//! │  7 ENTITY_LEMMAS   entity → lemma CSR                      │
//! │  8 TYPE_LEMMAS     type → lemma CSR                        │
//! │  9 ENTITY_UB       WAND upper bounds (f64 bits)            │
//! │ 10 TYPE_UB         WAND upper bounds (f64 bits)            │
//! │ 11 LEMMA_VECS      per-lemma TFIDF vectors, verbatim       │
//! └────────────────────────────────────────────────────────────┘
//! ```
//!
//! Sections start on 4 KiB page boundaries and every numeric array inside
//! a section is aligned to its element size (v2 inserted a 4-byte pad
//! after the count of each `f64` array so the data lands 8-aligned; v3
//! pads the lemma kind bytes to a 4-byte boundary so the owner array and
//! string-table offsets that follow stay 4-aligned). [`LemmaIndex::load_mmap`]
//! exploits this: it maps the file and wires the numeric tables (CSRs,
//! IDF counts, WAND bounds, TFIDF pair vectors) *and* the string tables
//! (vocabulary words, lemma norms — served through
//! [`StrTable`](crate::mmap::StrTable) views with validation up front)
//! straight into the mapping — zero copies, zero float recomputation, no
//! per-string heap decode. [`LemmaIndex::load`] reads the file into memory
//! and takes the same views into that buffer, so both paths run the
//! identical validation pipeline and produce bit-identical indexes.
//!
//! ## Versioning and validation policy
//!
//! * **Magic** rejects files that were never snapshots ([`SnapshotError::BadMagic`]).
//! * **Format version** is a single `u32`; readers load only versions they
//!   know ([`SnapshotError::UnsupportedVersion`]). Compatible additions
//!   (new optional sections) bump the version; old readers refuse rather
//!   than half-load.
//! * **Config fingerprint** hashes the structural constants a snapshot
//!   depends on (the OOV id band and the std hasher behaviour behind
//!   `content_digest`), so a binary whose constants differ refuses the
//!   file with [`SnapshotError::ConfigMismatch`] instead of silently
//!   mis-probing.
//! * **Payload checksum** (FNV-1a 64, a fixed algorithm independent of the
//!   std hasher) catches bit rot and truncation-with-padding
//!   ([`SnapshotError::ChecksumMismatch`]).
//! * **Content digest**: after reconstruction the loader recomputes
//!   [`LemmaIndex::content_digest`] and compares it to the stored value
//!   ([`SnapshotError::DigestMismatch`]) — the loaded index is provably
//!   the index that was saved, not merely a plausible one.
//!
//! Every failure mode returns a typed [`SnapshotError`]; no code path
//! panics on malformed input, and an error never yields a
//! partially-initialized index.

use std::path::Path;

use crate::engine::SimEngine;
use crate::index::{Csr, IndexedLemma, LemmaIndex, RefKind};
use crate::mmap::{NumericSlice, SectionSource, StrTable};
use crate::tfidf::{IdfTable, TokenWeight, WeightedVec};
use crate::tokenize::{to_sorted_set, Vocab, OOV_BASE};

/// First 8 bytes of every snapshot file.
pub const MAGIC: [u8; 8] = *b"WTLEMIDX";

/// Format version this build reads and writes. v2 added the 4-byte
/// alignment pad after `f64` array counts; v3 pads the lemma kind bytes to
/// a 4-byte boundary so the owner array and every string-table offset
/// array stay aligned for in-place views (strings now load zero-copy).
/// Readers require an exact match because an older file would mis-parse
/// under the v3 section layout.
pub const FORMAT_VERSION: u32 = 3;

/// Section alignment: numeric tables start on page boundaries so the
/// `mmap` loader can view them in place.
const PAGE: u64 = 4096;

/// Fixed header size (before the section table).
const HEADER_LEN: usize = 56;

/// Bytes per section-table entry.
const SECTION_ENTRY_LEN: usize = 24;

// Section ids.
const SEC_VOCAB: u32 = 1;
const SEC_IDF: u32 = 2;
const SEC_LEMMAS: u32 = 3;
const SEC_LEMMA_TOKENS: u32 = 4;
const SEC_ENTITY_POSTINGS: u32 = 5;
const SEC_TYPE_POSTINGS: u32 = 6;
const SEC_ENTITY_LEMMAS: u32 = 7;
const SEC_TYPE_LEMMAS: u32 = 8;
const SEC_ENTITY_UB: u32 = 9;
const SEC_TYPE_UB: u32 = 10;
const SEC_LEMMA_VECS: u32 = 11;

/// All sections of format version 3, in file order.
const ALL_SECTIONS: [u32; 11] = [
    SEC_VOCAB,
    SEC_IDF,
    SEC_LEMMAS,
    SEC_LEMMA_TOKENS,
    SEC_ENTITY_POSTINGS,
    SEC_TYPE_POSTINGS,
    SEC_ENTITY_LEMMAS,
    SEC_TYPE_LEMMAS,
    SEC_ENTITY_UB,
    SEC_TYPE_UB,
    SEC_LEMMA_VECS,
];

/// Why a snapshot failed to save or load. Loading never panics and never
/// returns a partially-initialized index: every variant is surfaced before
/// a [`LemmaIndex`] exists.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying file I/O failed.
    Io(std::io::Error),
    /// The file does not start with the snapshot magic — it was never a
    /// snapshot.
    BadMagic,
    /// The file's format version is not the one this build understands
    /// (older versions would mis-parse under the current section layout,
    /// newer ones may hold sections this build cannot interpret).
    UnsupportedVersion {
        /// Version stored in the file.
        found: u32,
        /// Version this build reads.
        supported: u32,
    },
    /// The file was written by a build with different structural constants
    /// (OOV band, digest hasher); its digests are not comparable.
    ConfigMismatch {
        /// Fingerprint stored in the file.
        stored: u64,
        /// Fingerprint of this build.
        expected: u64,
    },
    /// The file is shorter than its header claims.
    Truncated {
        /// Bytes the header (or a section bound) requires.
        needed: u64,
        /// Bytes actually present.
        actual: u64,
    },
    /// The payload bytes do not match the stored checksum (bit rot,
    /// partial overwrite).
    ChecksumMismatch {
        /// Checksum stored in the header.
        stored: u64,
        /// Checksum of the payload as read.
        computed: u64,
    },
    /// The reconstructed index's content digest differs from the stored
    /// one — the file is internally consistent but is not the index it
    /// claims to be.
    DigestMismatch {
        /// Digest stored in the header.
        stored: u64,
        /// Digest recomputed from the reconstructed index.
        computed: u64,
    },
    /// A structural invariant of the format is violated (duplicate vocab
    /// word, non-monotone CSR offsets, out-of-range id, …).
    Corrupt(String),
    /// The snapshot was saved against a different catalog than the one it
    /// is being attached to (entity/type counts or lemma content differ).
    CatalogMismatch {
        /// `(entities, types)` the snapshot was built over.
        snapshot: (usize, usize),
        /// `(entities, types)` of the catalog provided at load.
        catalog: (usize, usize),
        /// First difference found (counts, lemma counts, or lemma text).
        detail: String,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a lemma-index snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion { found, supported } => write!(
                f,
                "snapshot format version {found} is not supported (this build reads version \
                 {supported})"
            ),
            SnapshotError::ConfigMismatch { stored, expected } => write!(
                f,
                "snapshot config fingerprint {stored:#018x} does not match this build \
                 ({expected:#018x})"
            ),
            SnapshotError::Truncated { needed, actual } => {
                write!(f, "snapshot truncated: need {needed} bytes, have {actual}")
            }
            SnapshotError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot payload checksum mismatch: stored {stored:#018x}, computed \
                 {computed:#018x}"
            ),
            SnapshotError::DigestMismatch { stored, computed } => write!(
                f,
                "snapshot content digest mismatch: stored {stored:#018x}, reconstructed \
                 {computed:#018x}"
            ),
            SnapshotError::Corrupt(why) => write!(f, "snapshot corrupt: {why}"),
            SnapshotError::CatalogMismatch { snapshot, catalog, detail } => write!(
                f,
                "snapshot (built over {} entities / {} types) does not match the catalog \
                 ({} / {}): {detail}",
                snapshot.0, snapshot.1, catalog.0, catalog.1
            ),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// FNV-1a 64 over 8-byte little-endian words (final partial word
/// zero-padded) — a fixed, dependency-free checksum whose definition can
/// never drift with the std hasher. The word-at-a-time variant runs ~8×
/// faster than byte-serial FNV (one multiply per 8 bytes instead of one
/// per byte), which matters on the load hot path: the checksum scans the
/// entire payload.
fn checksum64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        h ^= u64::from_le_bytes(c.try_into().expect("8 bytes"));
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        h ^= u64::from_le_bytes(tail);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fingerprint of the structural constants a snapshot's digests depend on:
/// the OOV id band and the behaviour of the std hasher that computes
/// `content_digest` (hashed via a fixed probe — if a future std release
/// changes `DefaultHasher`, old snapshots fail with a clear
/// [`SnapshotError::ConfigMismatch`] instead of a baffling digest error).
fn config_fingerprint() -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    OOV_BASE.hash(&mut h);
    "webtable-lemma-index-snapshot".hash(&mut h);
    h.finish()
}

// ---------------------------------------------------------------- writer --

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Length-prefixed `u32` array.
fn put_u32_slice(buf: &mut Vec<u8>, xs: &[u32]) {
    put_u32(buf, xs.len() as u32);
    for &x in xs {
        put_u32(buf, x);
    }
}

/// Length-prefixed `f64` array, stored as IEEE-754 bits (exact
/// round-trip). A 4-byte pad after the count keeps the data 8-aligned
/// within the section; sections start page-aligned, so the mmap loader can
/// view the bits as `&[f64]` in place.
fn put_f64_slice(buf: &mut Vec<u8>, xs: &[f64]) {
    put_u32(buf, xs.len() as u32);
    put_u32(buf, 0);
    for &x in xs {
        put_u64(buf, x.to_bits());
    }
}

/// String table: count, byte offsets (count + 1), concatenated UTF-8.
fn put_str_table<'a>(buf: &mut Vec<u8>, strs: impl ExactSizeIterator<Item = &'a str>) {
    put_u32(buf, strs.len() as u32);
    let mut blob = Vec::new();
    put_u32(buf, 0);
    for s in strs {
        blob.extend_from_slice(s.as_bytes());
        put_u32(buf, blob.len() as u32);
    }
    buf.extend_from_slice(&blob);
}

fn put_csr(buf: &mut Vec<u8>, csr: &Csr) {
    put_u32_slice(buf, &csr.offsets);
    put_u32_slice(buf, &csr.values);
}

// ---------------------------------------------------------------- reader --

/// Bounds-checked little-endian cursor; every overrun is a typed
/// [`SnapshotError::Truncated`], never a panic. A cursor over a section
/// slice carries the section's absolute byte offset (`base`) within the
/// whole snapshot, so array reads can hand out zero-copy
/// [`NumericSlice`] views into the shared [`SectionSource`].
struct Cursor<'a> {
    bytes: &'a [u8],
    base: usize,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Cursor<'a> {
        Cursor { bytes, base: 0, pos: 0 }
    }

    /// Cursor over `bytes` that sit `base` bytes into the full source.
    fn with_base(bytes: &'a [u8], base: usize) -> Cursor<'a> {
        Cursor { bytes, base, pos: 0 }
    }

    /// Absolute offset of the next unread byte within the full source.
    fn abs_pos(&self) -> usize {
        self.base + self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Truncated {
            needed: u64::MAX,
            actual: self.bytes.len() as u64,
        })?;
        if end > self.bytes.len() {
            return Err(SnapshotError::Truncated {
                needed: end as u64,
                actual: self.bytes.len() as u64,
            });
        }
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn u32_slice(&mut self) -> Result<Vec<u32>, SnapshotError> {
        let n = self.u32()? as usize;
        let raw = self.take(n.checked_mul(4).ok_or_else(|| overflow("u32 slice"))?)?;
        Ok(raw.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().expect("4"))).collect())
    }

    /// Length-prefixed `u32` array as a zero-copy view into `src` (owned
    /// copy when misaligned or big-endian — see
    /// [`NumericSlice::view_or_copy`]).
    fn u32_slice_view(&mut self, src: &SectionSource) -> Result<NumericSlice<u32>, SnapshotError> {
        let n = self.u32()? as usize;
        let abs = self.abs_pos();
        self.take(n.checked_mul(4).ok_or_else(|| overflow("u32 slice"))?)?;
        Ok(NumericSlice::view_or_copy(src, abs, n))
    }

    /// Length-prefixed `f64` array (count, 4-byte alignment pad, bits) as
    /// a zero-copy view into `src`.
    fn f64_slice_view(&mut self, src: &SectionSource) -> Result<NumericSlice<f64>, SnapshotError> {
        let n = self.u32()? as usize;
        let _pad = self.u32()?;
        let abs = self.abs_pos();
        self.take(n.checked_mul(8).ok_or_else(|| overflow("f64 slice"))?)?;
        Ok(NumericSlice::view_or_copy(src, abs, n))
    }

    /// String table (count, `count + 1` byte offsets, UTF-8 blob) as a
    /// zero-copy [`StrTable`] over `src` — offsets view in place when
    /// aligned, the blob always does. Validation (monotone offsets that
    /// close over the blob, per-entry UTF-8) happens once here, in
    /// [`StrTable::new`]; every later access is unchecked.
    fn str_table_view(&mut self, src: &SectionSource) -> Result<StrTable, SnapshotError> {
        let n = self.u32()? as usize;
        let offsets_abs = self.abs_pos();
        let offsets_raw =
            self.take((n + 1).checked_mul(4).ok_or_else(|| overflow("str table"))?)?;
        let last = &offsets_raw[offsets_raw.len() - 4..];
        let blob_len = u32::from_le_bytes(last.try_into().expect("4 bytes")) as usize;
        let blob_abs = self.abs_pos();
        self.take(blob_len)?;
        let offsets: NumericSlice<u32> = NumericSlice::view_or_copy(src, offsets_abs, n + 1);
        StrTable::new(offsets, src.clone(), blob_abs, blob_len).map_err(SnapshotError::Corrupt)
    }

    fn csr_view(&mut self, src: &SectionSource) -> Result<Csr, SnapshotError> {
        Ok(Csr::from_parts(self.u32_slice_view(src)?, self.u32_slice_view(src)?))
    }
}

fn overflow(what: &str) -> SnapshotError {
    SnapshotError::Corrupt(format!("{what} length overflows"))
}

/// Validates a CSR: non-empty monotone offsets closing exactly over the
/// value array, optionally a fixed row count, values below `max_value`.
fn check_csr(
    csr: &Csr,
    name: &str,
    rows: Option<usize>,
    max_value: usize,
) -> Result<(), SnapshotError> {
    if csr.offsets.is_empty() || csr.offsets[0] != 0 {
        return Err(SnapshotError::Corrupt(format!("{name}: offsets must start at 0")));
    }
    if let Some(rows) = rows {
        if csr.offsets.len() != rows + 1 {
            return Err(SnapshotError::Corrupt(format!(
                "{name}: expected {} offset entries, found {}",
                rows + 1,
                csr.offsets.len()
            )));
        }
    }
    if csr.offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(SnapshotError::Corrupt(format!("{name}: offsets not monotone")));
    }
    if *csr.offsets.last().expect("non-empty") as usize != csr.values.len() {
        return Err(SnapshotError::Corrupt(format!("{name}: offsets do not close over values")));
    }
    if csr.values.iter().any(|&v| v as usize >= max_value) {
        return Err(SnapshotError::Corrupt(format!("{name}: value out of range")));
    }
    Ok(())
}

impl LemmaIndex {
    /// Serializes the index to the snapshot byte format (see the module
    /// docs for the layout). [`save`](LemmaIndex::save) is the file-writing
    /// wrapper; this form exists so tests and services can keep snapshots
    /// in memory or ship them over a network.
    pub fn to_snapshot_bytes(&self) -> Result<Vec<u8>, SnapshotError> {
        if self.lemmas.iter().any(|l| !l.doc.oov_terms.is_empty()) {
            // Unreachable for indexes built by this crate (the vocabulary
            // is constructed from exactly these token streams); refuse
            // rather than persist something `load` cannot reproduce.
            return Err(SnapshotError::Corrupt(
                "index holds a lemma with out-of-vocabulary tokens".into(),
            ));
        }
        // The format sizes every count and string-table offset as u32. An
        // index beyond those bounds must fail *here*, loudly — not save
        // wrapped offsets that surface as an opaque Corrupt at restore
        // time. (CSR arrays are u32-indexed in memory, so only the string
        // blobs and the flattened pair count can exceed the bound.)
        let limit = u32::MAX as usize;
        let word_blob: usize = self.engine.vocab().words().map(str::len).sum();
        let norm_blob: usize = self.lemmas.iter().map(|l| l.doc.norm.len()).sum();
        let pair_count: usize = self.lemmas.iter().map(|l| l.doc.vec.pairs().len()).sum();
        for (what, n) in [
            ("vocabulary text", word_blob),
            ("lemma text", norm_blob),
            ("TFIDF pairs", pair_count),
            ("lemmas", self.lemmas.len()),
        ] {
            if n >= limit {
                return Err(SnapshotError::Corrupt(format!(
                    "index too large for snapshot format v3: {n} bytes/entries of {what} \
                     exceed the u32 bound"
                )));
            }
        }
        let mut sections: Vec<(u32, Vec<u8>)> = Vec::with_capacity(ALL_SECTIONS.len());
        let mut buf = Vec::new();
        put_str_table(&mut buf, self.engine.vocab().words());
        sections.push((SEC_VOCAB, std::mem::take(&mut buf)));

        put_u32(&mut buf, self.engine.idf().num_documents());
        put_u32_slice(&mut buf, self.engine.idf().doc_frequencies());
        sections.push((SEC_IDF, std::mem::take(&mut buf)));

        put_u32(&mut buf, self.lemmas.len() as u32);
        for l in &self.lemmas {
            buf.push(match l.kind {
                RefKind::Entity => 0,
                RefKind::Type => 1,
            });
        }
        // v3: pad the kind bytes to a 4-byte boundary so the owner array
        // and the norm string-table offsets below view in place.
        while buf.len() % 4 != 0 {
            buf.push(0);
        }
        for l in &self.lemmas {
            put_u32(&mut buf, l.owner);
        }
        put_str_table(&mut buf, self.lemmas.iter().map(|l| l.doc.norm.as_str()));
        sections.push((SEC_LEMMAS, std::mem::take(&mut buf)));

        put_csr(&mut buf, &self.lemma_tokens);
        sections.push((SEC_LEMMA_TOKENS, std::mem::take(&mut buf)));
        put_csr(&mut buf, &self.entity_postings);
        sections.push((SEC_ENTITY_POSTINGS, std::mem::take(&mut buf)));
        put_csr(&mut buf, &self.type_postings);
        sections.push((SEC_TYPE_POSTINGS, std::mem::take(&mut buf)));
        put_csr(&mut buf, &self.entity_lemmas);
        sections.push((SEC_ENTITY_LEMMAS, std::mem::take(&mut buf)));
        put_csr(&mut buf, &self.type_lemmas);
        sections.push((SEC_TYPE_LEMMAS, std::mem::take(&mut buf)));

        put_f64_slice(&mut buf, &self.entity_token_ub);
        sections.push((SEC_ENTITY_UB, std::mem::take(&mut buf)));
        put_f64_slice(&mut buf, &self.type_token_ub);
        sections.push((SEC_TYPE_UB, std::mem::take(&mut buf)));

        // TFIDF vectors verbatim: the load path then performs no float
        // recomputation at all (and stays bit-identical trivially).
        let mut vec_offsets: Vec<u32> = Vec::with_capacity(self.lemmas.len() + 1);
        vec_offsets.push(0);
        let mut pairs: Vec<TokenWeight> = Vec::new();
        for l in &self.lemmas {
            pairs.extend_from_slice(l.doc.vec.pairs());
            vec_offsets.push(pairs.len() as u32);
        }
        put_u32_slice(&mut buf, &vec_offsets);
        put_u32(&mut buf, pairs.len() as u32);
        for p in pairs {
            put_u32(&mut buf, p.token);
            put_u32(&mut buf, p.weight.to_bits());
        }
        sections.push((SEC_LEMMA_VECS, std::mem::take(&mut buf)));

        // Assemble: header + section table + page-aligned payload.
        let table_end = HEADER_LEN + SECTION_ENTRY_LEN * sections.len();
        let payload_start = (table_end as u64).div_ceil(PAGE) * PAGE;
        let mut offset = payload_start;
        let mut table = Vec::new();
        let mut starts = Vec::with_capacity(sections.len());
        for (id, body) in &sections {
            put_u32(&mut table, *id);
            put_u32(&mut table, 0);
            put_u64(&mut table, offset);
            put_u64(&mut table, body.len() as u64);
            starts.push(offset);
            offset = (offset + body.len() as u64).div_ceil(PAGE) * PAGE;
        }
        let file_len = offset;
        let mut payload = vec![0u8; (file_len - payload_start) as usize];
        for ((_, body), start) in sections.iter().zip(starts) {
            let at = (start - payload_start) as usize;
            payload[at..at + body.len()].copy_from_slice(body);
        }
        let checksum = checksum64(&payload);

        let mut out = Vec::with_capacity(file_len as usize);
        out.extend_from_slice(&MAGIC);
        put_u32(&mut out, FORMAT_VERSION);
        put_u32(&mut out, sections.len() as u32);
        put_u64(&mut out, config_fingerprint());
        put_u64(&mut out, self.content_digest());
        put_u64(&mut out, checksum);
        put_u64(&mut out, payload_start);
        put_u64(&mut out, file_len);
        debug_assert_eq!(out.len(), HEADER_LEN);
        out.extend_from_slice(&table);
        out.resize(payload_start as usize, 0);
        out.extend_from_slice(&payload);
        Ok(out)
    }

    /// Writes the index as a snapshot file (atomically: to a uniquely named
    /// `.tmp` sibling first, then renamed into place, so readers never
    /// observe a torn file). The temp name appends to the full file name —
    /// never replaces the extension — and carries the process id, so
    /// concurrent saves of *different* snapshots in one directory cannot
    /// install each other's bytes.
    ///
    /// Crash safety: the temp file is fsynced before the rename (the
    /// rename must never publish unflushed bytes) and the parent
    /// directory is fsynced after it (so the rename itself survives a
    /// power cut). On any failure the temp file is removed — a failed
    /// save leaves the directory exactly as it was.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
        use std::io::Write;
        let path = path.as_ref();
        let bytes = self.to_snapshot_bytes()?;
        let file_name = path
            .file_name()
            .ok_or_else(|| SnapshotError::Corrupt("snapshot path has no file name".into()))?
            .to_string_lossy()
            .into_owned();
        let tmp = path.with_file_name(format!("{file_name}.{}.tmp", std::process::id()));
        let install = || -> std::io::Result<()> {
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(&bytes)?;
            file.sync_all()?;
            drop(file);
            std::fs::rename(&tmp, path)?;
            let parent = match path.parent() {
                Some(p) if !p.as_os_str().is_empty() => p,
                _ => Path::new("."),
            };
            std::fs::File::open(parent)?.sync_all()
        };
        install().map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            SnapshotError::Io(e)
        })
    }

    /// Reconstructs an index from snapshot bytes (copied into an owned
    /// buffer the numeric tables then borrow from). See
    /// [`load`](LemmaIndex::load) for the validation pipeline.
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<LemmaIndex, SnapshotError> {
        LemmaIndex::from_snapshot_source(SectionSource::from_vec(bytes.to_vec()))
    }

    /// Reconstructs an index from a [`SectionSource`] — the one loader
    /// behind both the heap and mmap paths. Numeric tables (CSRs, IDF
    /// counts, WAND bounds, TFIDF pair vectors) become zero-copy views
    /// into `src` whenever the platform is little-endian and the bytes
    /// are aligned (the writer guarantees alignment; a misaligned or
    /// big-endian source silently decodes onto the heap instead).
    /// Validation is identical for every source kind: checksum and
    /// content digest are always verified in full.
    pub fn from_snapshot_source(src: SectionSource) -> Result<LemmaIndex, SnapshotError> {
        let bytes = src.bytes();
        // -- header ----------------------------------------------------
        let mut cur = Cursor::new(bytes);
        if cur.take(8)? != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = cur.u32()?;
        if version != FORMAT_VERSION {
            // Exact match: a v1 file would mis-parse the padded f64
            // sections, and a future version may hold sections this
            // build cannot interpret.
            return Err(SnapshotError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let section_count = cur.u32()? as usize;
        let stored_config = cur.u64()?;
        let expected_config = config_fingerprint();
        if stored_config != expected_config {
            return Err(SnapshotError::ConfigMismatch {
                stored: stored_config,
                expected: expected_config,
            });
        }
        let stored_digest = cur.u64()?;
        let stored_checksum = cur.u64()?;
        let payload_start = cur.u64()?;
        let file_len = cur.u64()?;
        if (bytes.len() as u64) < file_len {
            return Err(SnapshotError::Truncated { needed: file_len, actual: bytes.len() as u64 });
        }
        if bytes.len() as u64 > file_len {
            return Err(SnapshotError::Corrupt("trailing bytes after snapshot payload".into()));
        }
        if payload_start > file_len {
            return Err(SnapshotError::Corrupt("payload offset beyond file length".into()));
        }

        // -- section table + payload checksum --------------------------
        // The table must fit between the header and the payload; checking
        // before allocating keeps a forged section count (≈100 GB at
        // u32::MAX entries) from reaching the allocator.
        let table_end = HEADER_LEN as u64
            + (section_count as u64)
                .checked_mul(SECTION_ENTRY_LEN as u64)
                .ok_or_else(|| overflow("section table"))?;
        if table_end > payload_start {
            return Err(SnapshotError::Corrupt("section table overruns the payload".into()));
        }
        let mut table: Vec<(u32, u64, u64)> = Vec::with_capacity(section_count);
        for _ in 0..section_count {
            let id = cur.u32()?;
            let _pad = cur.u32()?;
            let offset = cur.u64()?;
            let len = cur.u64()?;
            let end = offset.checked_add(len).ok_or_else(|| overflow("section"))?;
            if offset < payload_start || end > file_len {
                return Err(SnapshotError::Truncated { needed: end, actual: file_len });
            }
            table.push((id, offset, len));
        }
        let computed_checksum = checksum64(&bytes[payload_start as usize..]);
        if computed_checksum != stored_checksum {
            return Err(SnapshotError::ChecksumMismatch {
                stored: stored_checksum,
                computed: computed_checksum,
            });
        }
        let section = |id: u32| -> Result<Cursor<'_>, SnapshotError> {
            let &(_, offset, len) = table
                .iter()
                .find(|&&(sid, _, _)| sid == id)
                .ok_or_else(|| SnapshotError::Corrupt(format!("missing section {id}")))?;
            Ok(Cursor::with_base(&bytes[offset as usize..(offset + len) as usize], offset as usize))
        };

        // -- engine ----------------------------------------------------
        let words = section(SEC_VOCAB)?.str_table_view(&src)?;
        let vocab_len = words.len();
        let vocab = Vocab::from_table(words)
            .ok_or_else(|| SnapshotError::Corrupt("duplicate vocabulary word".into()))?;
        let mut idf_cur = section(SEC_IDF)?;
        let n_docs = idf_cur.u32()?;
        let df = idf_cur.u32_slice_view(&src)?;
        if df.len() != vocab_len {
            return Err(SnapshotError::Corrupt("IDF table size differs from vocabulary".into()));
        }
        let engine = SimEngine::from_parts(vocab, IdfTable::from_parts(df, n_docs));

        // -- lemmas ----------------------------------------------------
        let mut lem_cur = section(SEC_LEMMAS)?;
        let num_lemmas = lem_cur.u32()? as usize;
        let kind_bytes = lem_cur.take(num_lemmas)?.to_vec();
        // v3 pads the kind bytes to a 4-byte boundary (see the writer).
        lem_cur.take((4 - num_lemmas % 4) % 4)?;
        let owners_raw =
            lem_cur.take(num_lemmas.checked_mul(4).ok_or_else(|| overflow("owners"))?)?;
        let owners: Vec<u32> = owners_raw
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4")))
            .collect();
        let norms = lem_cur.str_table_view(&src)?;
        if norms.len() != num_lemmas {
            return Err(SnapshotError::Corrupt("lemma norm count differs from lemma count".into()));
        }
        let lemma_tokens = section(SEC_LEMMA_TOKENS)?.csr_view(&src)?;
        check_csr(&lemma_tokens, "lemma tokens", Some(num_lemmas), vocab_len)?;
        let mut vec_cur = section(SEC_LEMMA_VECS)?;
        let vec_offsets = vec_cur.u32_slice()?;
        let num_pairs = vec_cur.u32()? as usize;
        let pairs_abs = vec_cur.abs_pos();
        vec_cur.take(num_pairs.checked_mul(8).ok_or_else(|| overflow("lemma vectors"))?)?;
        if vec_offsets.len() != num_lemmas + 1
            || vec_offsets.first() != Some(&0)
            || vec_offsets.windows(2).any(|w| w[0] > w[1])
            || *vec_offsets.last().unwrap_or(&0) as usize != num_pairs
        {
            return Err(SnapshotError::Corrupt("lemma vector offsets malformed".into()));
        }

        let mut lemmas = Vec::with_capacity(num_lemmas);
        for (i, kind_byte) in kind_bytes.iter().enumerate() {
            let kind = match kind_byte {
                0 => RefKind::Entity,
                1 => RefKind::Type,
                other => return Err(SnapshotError::Corrupt(format!("unknown lemma kind {other}"))),
            };
            // Each lemma's vector views its slice of the shared pair
            // region in place — bounds were established above (offsets
            // are monotone and close over `num_pairs`, whose bytes the
            // cursor verified present).
            let vec_row: NumericSlice<TokenWeight> = NumericSlice::view_or_copy(
                &src,
                pairs_abs + vec_offsets[i] as usize * 8,
                (vec_offsets[i + 1] - vec_offsets[i]) as usize,
            );
            // The token set IS the vector's token column: `doc` derives both
            // from the same token sequence, and `WeightedVec::from_tokens`
            // emits one pair per distinct token in ascending order. Reading
            // it back saves a sort per lemma on the load hot path.
            let token_set: Vec<u32> = vec_row.iter().map(|p| p.token).collect();
            debug_assert_eq!(token_set, to_sorted_set(lemma_tokens.row(i as u32).to_vec()));
            lemmas.push(IndexedLemma {
                kind,
                owner: owners[i],
                doc: crate::engine::TextDoc {
                    norm: norms.shared(i),
                    token_set,
                    vec: WeightedVec::from_raw_pairs(vec_row),
                    oov_terms: Vec::new(),
                },
            });
        }

        // -- CSR tables + WAND bounds ----------------------------------
        let entity_postings = section(SEC_ENTITY_POSTINGS)?.csr_view(&src)?;
        check_csr(&entity_postings, "entity postings", Some(vocab_len), num_lemmas)?;
        let type_postings = section(SEC_TYPE_POSTINGS)?.csr_view(&src)?;
        check_csr(&type_postings, "type postings", Some(vocab_len), num_lemmas)?;
        let entity_lemmas = section(SEC_ENTITY_LEMMAS)?.csr_view(&src)?;
        check_csr(&entity_lemmas, "entity lemmas", None, num_lemmas)?;
        let type_lemmas = section(SEC_TYPE_LEMMAS)?.csr_view(&src)?;
        check_csr(&type_lemmas, "type lemmas", None, num_lemmas)?;
        let entity_token_ub = section(SEC_ENTITY_UB)?.f64_slice_view(&src)?;
        let type_token_ub = section(SEC_TYPE_UB)?.f64_slice_view(&src)?;
        if entity_token_ub.len() != vocab_len || type_token_ub.len() != vocab_len {
            return Err(SnapshotError::Corrupt("upper-bound table size mismatch".into()));
        }

        // -- digest: the reconstruction must BE the saved index --------
        let mut idx = LemmaIndex {
            engine,
            lemmas,
            lemma_tokens,
            entity_postings,
            type_postings,
            entity_lemmas,
            type_lemmas,
            entity_token_ub,
            type_token_ub,
            content_digest: 0,
        };
        idx.content_digest = idx.compute_content_digest();
        if idx.content_digest != stored_digest {
            return Err(SnapshotError::DigestMismatch {
                stored: stored_digest,
                computed: idx.content_digest,
            });
        }
        Ok(idx)
    }

    /// Reads a snapshot file written by [`save`](LemmaIndex::save),
    /// validating in order: magic, format version, config fingerprint,
    /// length, payload checksum, per-section structure, and finally that
    /// the reconstructed index's content digest equals the stored one. Any
    /// failure returns a typed [`SnapshotError`]; on success the index is
    /// bit-identical (layout and digest) to the one that was saved.
    pub fn load(path: impl AsRef<Path>) -> Result<LemmaIndex, SnapshotError> {
        LemmaIndex::from_snapshot_source(SectionSource::from_vec(std::fs::read(path)?))
    }

    /// [`load`](LemmaIndex::load), but memory-maps the file instead of
    /// reading it: the numeric tables become views into the mapping, so
    /// the load path allocates only the string tables and the kernel
    /// shares one set of physical pages across every process mapping the
    /// same snapshot. Falls back to the heap [`load`](LemmaIndex::load)
    /// when the file cannot be mapped (unsupported platform, empty file,
    /// mmap failure); validation errors from a successfully mapped file
    /// propagate as-is — a corrupt file is corrupt on either path.
    ///
    /// See the [module docs](crate::mmap) for rename/delete/truncate
    /// semantics of a live mapping.
    pub fn load_mmap(path: impl AsRef<Path>) -> Result<LemmaIndex, SnapshotError> {
        let path = path.as_ref();
        match SectionSource::map_path(path) {
            Ok(src) => LemmaIndex::from_snapshot_source(src),
            Err(_) => LemmaIndex::load(path),
        }
    }

    /// Number of entity ids the index was built over.
    pub fn num_indexed_entities(&self) -> usize {
        self.entity_lemmas.offsets.len() - 1
    }

    /// Number of type ids the index was built over.
    pub fn num_indexed_types(&self) -> usize {
        self.type_lemmas.offsets.len() - 1
    }
}
