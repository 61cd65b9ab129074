//! The inverted lemma index used for candidate generation.
//!
//! §4.3: "for each cell (r, c) we use a text index to collect candidate
//! entities E_rc based on overlap between cell and lemma tokens". This
//! module builds that index over *all* catalog lemmas (entities and types),
//! scores matches by IDF-weighted token overlap, and refines the top hits
//! with exact TFIDF cosine.
//!
//! The paper reports that ~80% of total annotation time is spent probing
//! this index and computing string similarities (§6.1.2, Fig. 7); the
//! pipeline instruments this phase separately so the claim can be checked.
//!
//! ## Layout and the probe hot path
//!
//! Postings are stored in CSR form (one offset table plus one flat `u32`
//! array), split by [`RefKind`] at build time, so a probe walks a single
//! contiguous slice per query token with no per-posting kind check. Query
//! accumulation uses an epoch-stamped dense scratch ([`ProbeScratch`])
//! instead of a hash map, and the overlap shortlist is selected with
//! `select_nth_unstable_by` rather than a full sort. Every probe takes a
//! caller-owned `ProbeScratch`; hot paths hold one per worker.
//!
//! ## Parallel construction
//!
//! [`LemmaIndex::build_with_threads`] shards the expensive build phases —
//! lemma tokenization, query-document preparation, and the two-pass
//! counting/filling CSR construction — over `std::thread::scope` workers.
//! Shards are contiguous, ascending lemma ranges, so concatenating each
//! worker's contribution reproduces the serial iteration order exactly:
//! the resulting offsets, posting arrays, and upper-bound tables are
//! byte-identical to a single-threaded build at any thread count
//! (asserted by `tests/build_equivalence.rs`; [`LemmaIndex::layout`]
//! exposes the raw arrays for that comparison).
//!
//! ## Persistence
//!
//! The index keeps each lemma's in-order token-id sequence beside the CSR
//! tables. That side table makes the whole structure self-contained: a
//! snapshot ([`LemmaIndex::save`] / [`LemmaIndex::load`], format in
//! [`crate::snapshot`]) round-trips bit-identically without re-tokenizing a
//! single string, and a [`SegmentedIndex`](crate::SegmentedIndex) replays
//! the stored sequences of its segments to derive collection-wide
//! statistics, so catalog growth is one new segment over the appended
//! slice ([`SegmentedIndex::append`](crate::SegmentedIndex::append)).
//!
//! ## WAND top-k early termination
//!
//! Alongside each posting row the index stores its maximum IDF-overlap
//! contribution (the token's IDF — every posting of a row contributes the
//! same weight). The probe can then run the IDF-overlap pass
//! document-at-a-time in WAND style ([`ProbeMode::Wand`]): posting cursors
//! advance in lemma-id order, and whole runs of lemmas are skipped whenever
//! the sum of upper bounds of the rows that could still contain them cannot
//! beat the current top-`shortlist` threshold. The skip test uses a small
//! relative safety margin so floating-point reassociation can never drop a
//! qualifying lemma, which keeps the early-terminated result bit-identical
//! to the exhaustive pass ([`ProbeMode::Exhaustive`], the PR 2 reference).

use std::ops::Range;

use webtable_catalog::{Catalog, EntityId, TypeId};

use crate::engine::{SimEngine, SimEngineBuilder, StringSim, TextDoc};
use crate::mmap::NumericSlice;
use crate::tfidf::cosine;
use crate::tokenize::{normalize, tokenize, Vocab};

/// What a lemma belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RefKind {
    /// The lemma names an entity.
    Entity,
    /// The lemma names a type.
    Type,
}

/// A lemma occurrence in the index.
#[derive(Debug, Clone)]
pub struct IndexedLemma {
    /// Entity or type lemma?
    pub kind: RefKind,
    /// Raw id of the owner (entity or type id).
    pub owner: u32,
    /// Prepared text of the lemma.
    pub doc: TextDoc,
}

/// A scored candidate returned by index queries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Match<Id> {
    /// The matched owner.
    pub id: Id,
    /// Best TFIDF cosine between the query and any of the owner's lemmas.
    pub score: f64,
}

/// How the IDF-overlap pass of a probe is executed. All modes produce
/// bit-identical results; they differ only in work skipped. Candidate
/// generation always runs `Auto`; the forced modes are the reference the
/// equivalence suites compare WAND against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProbeMode {
    /// Pick per query: WAND when the posting volume dwarfs the shortlist,
    /// exhaustive otherwise.
    #[default]
    Auto,
    /// Term-at-a-time accumulation over every posting of every query token
    /// (the PR 2 reference path).
    Exhaustive,
    /// Document-at-a-time top-k with upper-bound skipping.
    Wand,
}

/// A CSR (compressed sparse row) map from a dense `u32` key to a flat slice
/// of `u32` values: `values[offsets[k]..offsets[k+1]]`. Both arrays live in
/// a [`NumericSlice`], so a snapshot-loaded index reads them zero-copy out
/// of the mapped file; build paths always construct them owned.
#[derive(Debug, Clone)]
pub(crate) struct Csr {
    pub(crate) offsets: NumericSlice<u32>,
    pub(crate) values: NumericSlice<u32>,
}

/// Raw `*mut` wrapper so scoped workers can fill disjoint slots of one
/// shared output buffer.
#[derive(Clone, Copy)]
struct SendPtr<T>(*mut T);
// SAFETY: only used for writes to slot indices that the two-pass cursor
// construction proves disjoint across workers.
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

impl Csr {
    /// Builds a CSR from `(key, value)` pairs with the classic two-pass
    /// counting/filling scheme, sharded over `ranges` (one worker per
    /// range). `pairs_in` must yield the same pairs for a range in both
    /// passes, in value order per key within the range.
    ///
    /// Each worker counts its shard into a private histogram; a serial
    /// prefix pass turns the histograms into global offsets plus per-shard
    /// write cursors; the fill pass then writes disjoint slots. Because
    /// shards are contiguous ascending ranges, every row's values are the
    /// concatenation of the shards' contributions in shard order — exactly
    /// the serial iteration order, so the layout is byte-identical to a
    /// single-shard build.
    fn build_sharded<I, F>(num_keys: usize, ranges: &[Range<usize>], pairs_in: F) -> Csr
    where
        F: Fn(Range<usize>) -> I + Sync,
        I: Iterator<Item = (u32, u32)>,
    {
        // Pass 1: count keys per shard.
        let shard_counts: Vec<Vec<u32>> = if ranges.len() == 1 {
            let mut counts = vec![0u32; num_keys];
            for (k, _) in pairs_in(ranges[0].clone()) {
                counts[k as usize] += 1;
            }
            vec![counts]
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = ranges
                    .iter()
                    .map(|range| {
                        let range = range.clone();
                        let pairs_in = &pairs_in;
                        scope.spawn(move || {
                            let mut counts = vec![0u32; num_keys];
                            for (k, _) in pairs_in(range) {
                                counts[k as usize] += 1;
                            }
                            counts
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("csr count worker")).collect()
            })
        };

        // Serial prefix pass: global offsets and per-shard write cursors.
        let mut offsets = Vec::with_capacity(num_keys + 1);
        offsets.push(0u32);
        let mut total = 0u32;
        for k in 0..num_keys {
            for counts in &shard_counts {
                total += counts[k];
            }
            offsets.push(total);
        }
        let mut running: Vec<u32> = offsets[..num_keys].to_vec();
        let cursors: Vec<Vec<u32>> = shard_counts
            .iter()
            .map(|counts| {
                let cur = running.clone();
                for (r, c) in running.iter_mut().zip(counts) {
                    *r += c;
                }
                cur
            })
            .collect();

        // Pass 2: fill.
        let mut values = vec![0u32; total as usize];
        if ranges.len() == 1 {
            let mut cursor = cursors.into_iter().next().expect("one shard");
            for (k, v) in pairs_in(ranges[0].clone()) {
                let slot = &mut cursor[k as usize];
                values[*slot as usize] = v;
                *slot += 1;
            }
        } else {
            let ptr = SendPtr(values.as_mut_ptr());
            std::thread::scope(|scope| {
                for (range, mut cursor) in ranges.iter().cloned().zip(cursors) {
                    let pairs_in = &pairs_in;
                    scope.spawn(move || {
                        let ptr = ptr;
                        for (k, v) in pairs_in(range) {
                            let slot = &mut cursor[k as usize];
                            // SAFETY: cursor ranges partition each row, so
                            // no two workers ever write the same slot.
                            unsafe { ptr.0.add(*slot as usize).write(v) };
                            *slot += 1;
                        }
                    });
                }
            });
        }
        Csr { offsets: offsets.into(), values: values.into() }
    }

    /// An empty map with zero rows (rows are appended with
    /// [`push_row`](Csr::push_row)).
    pub(crate) fn empty() -> Csr {
        Csr { offsets: vec![0].into(), values: Vec::new().into() }
    }

    /// Wraps already-validated arrays (the snapshot-load path; possibly
    /// zero-copy views into the snapshot source).
    pub(crate) fn from_parts(offsets: NumericSlice<u32>, values: NumericSlice<u32>) -> Csr {
        Csr { offsets, values }
    }

    /// Appends one row holding `values` (row key = current row count).
    pub(crate) fn push_row(&mut self, values: &[u32]) {
        let total = {
            let vals = self.values.make_mut();
            vals.extend_from_slice(values);
            vals.len() as u32
        };
        self.offsets.make_mut().push(total);
    }

    #[inline]
    pub(crate) fn row(&self, key: u32) -> &[u32] {
        let k = key as usize;
        if k + 1 >= self.offsets.len() {
            return &[];
        }
        &self.values[self.offsets[k] as usize..self.offsets[k + 1] as usize]
    }

    /// `(start, end)` bounds of a row in `values`.
    #[inline]
    pub(crate) fn row_bounds(&self, key: u32) -> (u32, u32) {
        let k = key as usize;
        if k + 1 >= self.offsets.len() {
            return (0, 0);
        }
        (self.offsets[k], self.offsets[k + 1])
    }
}

/// One query term of a WAND probe: a posting-row cursor plus the row's
/// upper-bound contribution.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WandTerm {
    /// Token id (terms tie-sort by token, which keeps score accumulation in
    /// ascending-token order — bit-identical to the exhaustive pass).
    /// Segmented probes put the *global* token id here so the tie order
    /// matches a monolithic probe (see `crate::segment`).
    pub(crate) tok: u32,
    /// Max contribution of this row per matching lemma (= the token IDF).
    pub(crate) ub: f64,
    /// Row start in the postings `values` array.
    pub(crate) start: u32,
    /// Row end.
    pub(crate) end: u32,
    /// Cursor offset from `start`.
    pub(crate) pos: u32,
}

/// Reusable per-worker query state for [`LemmaIndex`] probes.
///
/// Holds an epoch-stamped dense accumulator (`score`/`stamp`) sized to the
/// number of indexed lemmas, plus small shortlist/dedup workspaces, so a
/// steady-state probe performs no heap allocation. One scratch may be used
/// against any number of indexes (it grows to the largest).
///
/// ## Epoch wraparound audit (u32 overflow after 2³² probes)
///
/// `epoch` is a `u32` that increments once per exhaustive-mode query, so it
/// wraps after ~4.3 B probes. Correctness relies on two invariants:
/// 1. between two wraps every `begin` gets a *unique* epoch value, so a
///    stamp written by an earlier query can never equal the current epoch;
/// 2. at the wrap itself (`epoch == 0` after `wrapping_add`), **all**
///    stamps are reset to 0 and the epoch restarts at 1, so no stamp
///    written before the wrap survives into the new numbering.
///
/// Growth via `begin`'s `resize` only appends zero stamps (never equal to a
/// live epoch, which is ≥ 1), so using one scratch against indexes of
/// different sizes cannot alias either. The WAND path keeps its own cursor
/// state (`wand_terms`) that is rebuilt per query and never consults the
/// epoch. Regression tests force a wrap (including mid-sequence and across
/// probe modes) in `index::tests` and `tests/properties.rs`.
#[derive(Debug, Default)]
pub struct ProbeScratch {
    score: Vec<f64>,
    stamp: Vec<u32>,
    epoch: u32,
    touched: Vec<u32>,
    pub(crate) hits: Vec<(u32, f64)>,
    pub(crate) owners: Vec<(u32, f64)>,
    pub(crate) wand_terms: Vec<WandTerm>,
    /// Cross-segment merge workspace (`crate::segment`): overlap-shortlist
    /// entries as `(overlap, global lemma rank, segment, local lemma)`.
    pub(crate) merged: Vec<(f64, u32, u32, u32)>,
}

impl ProbeScratch {
    /// Creates an empty scratch; it grows lazily on first use.
    pub fn new() -> ProbeScratch {
        ProbeScratch::default()
    }

    /// Forces the epoch counter to its maximum value so the next exhaustive
    /// probe exercises the wraparound reset (test hook).
    pub fn force_epoch_wrap(&mut self) {
        self.epoch = u32::MAX;
    }

    /// Starts a new query epoch over `num_lemmas` accumulator slots.
    pub(crate) fn begin(&mut self, num_lemmas: usize) {
        if self.stamp.len() < num_lemmas {
            self.stamp.resize(num_lemmas, 0);
            self.score.resize(num_lemmas, 0.0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // One wrap every 2^32 queries: reset stamps so stale epochs
            // can never alias the new one.
            self.stamp.fill(0);
            self.epoch = 1;
        }
        self.touched.clear();
    }

    #[inline]
    pub(crate) fn accumulate(&mut self, li: u32, idf: f64) {
        let slot = li as usize;
        if self.stamp[slot] == self.epoch {
            self.score[slot] += idf;
        } else {
            self.stamp[slot] = self.epoch;
            self.score[slot] = idf;
            self.touched.push(li);
        }
    }
}

/// `true` if hit `a` ranks strictly worse than `b` in the shortlist order
/// (higher score first, ties to the smaller lemma id).
#[inline]
fn worse(a: (u32, f64), b: (u32, f64)) -> bool {
    a.1 < b.1 || (a.1 == b.1 && a.0 > b.0)
}

/// Pushes onto a binary heap whose root is the *worst* kept hit.
fn heap_push(heap: &mut Vec<(u32, f64)>, item: (u32, f64)) {
    heap.push(item);
    let mut i = heap.len() - 1;
    while i > 0 {
        let parent = (i - 1) / 2;
        if worse(heap[i], heap[parent]) {
            heap.swap(i, parent);
            i = parent;
        } else {
            break;
        }
    }
}

/// Replaces the heap root (the worst kept hit) and restores the invariant.
fn heap_replace_root(heap: &mut [(u32, f64)], item: (u32, f64)) {
    heap[0] = item;
    let mut i = 0;
    loop {
        let (l, r) = (2 * i + 1, 2 * i + 2);
        let mut w = i;
        if l < heap.len() && worse(heap[l], heap[w]) {
            w = l;
        }
        if r < heap.len() && worse(heap[r], heap[w]) {
            w = r;
        }
        if w == i {
            break;
        }
        heap.swap(i, w);
        i = w;
    }
}

/// Borrowed view of the index's internal CSR layout and WAND upper-bound
/// tables, exposed so equivalence tests can assert that parallel builds
/// are bit-identical to the serial build.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndexLayout<'a> {
    /// Entity postings offset table (token id → row bounds).
    pub entity_posting_offsets: &'a [u32],
    /// Entity postings flat value array (lemma indices).
    pub entity_posting_values: &'a [u32],
    /// Type postings offset table.
    pub type_posting_offsets: &'a [u32],
    /// Type postings flat value array.
    pub type_posting_values: &'a [u32],
    /// Entity-owner offset table (entity id → lemma indices).
    pub entity_lemma_offsets: &'a [u32],
    /// Entity-owner flat value array.
    pub entity_lemma_values: &'a [u32],
    /// Type-owner offset table.
    pub type_lemma_offsets: &'a [u32],
    /// Type-owner flat value array.
    pub type_lemma_values: &'a [u32],
    /// Per-lemma token-sequence offset table (lemma index → row bounds).
    pub lemma_token_offsets: &'a [u32],
    /// Per-lemma token sequences, flat (in text order, duplicates kept).
    pub lemma_token_values: &'a [u32],
    /// WAND upper bounds per token for the entity postings.
    pub entity_token_ub: &'a [f64],
    /// WAND upper bounds per token for the type postings.
    pub type_token_ub: &'a [f64],
}

/// Inverted index over catalog lemmas. Immutable after construction.
///
/// Fields are `pub(crate)` so the snapshot codec (`crate::snapshot`) can
/// persist and reconstruct the structure verbatim.
#[derive(Debug)]
pub struct LemmaIndex {
    pub(crate) engine: SimEngine,
    pub(crate) lemmas: Vec<IndexedLemma>,
    /// lemma index → its in-order token-id sequence (duplicates kept — the
    /// term frequencies behind the TFIDF vectors). This is the material
    /// snapshots and segmented indexes rebuild documents from without
    /// re-tokenizing any string.
    pub(crate) lemma_tokens: Csr,
    /// token id → entity-lemma indices (CSR, ascending per token).
    pub(crate) entity_postings: Csr,
    /// token id → type-lemma indices (CSR, ascending per token).
    pub(crate) type_postings: Csr,
    /// entity id → its lemma indices (CSR).
    pub(crate) entity_lemmas: Csr,
    /// type id → its lemma indices (CSR).
    pub(crate) type_lemmas: Csr,
    /// token id → max IDF-overlap contribution of its entity posting row
    /// (the token IDF; 0 for empty rows). WAND skip bounds.
    pub(crate) entity_token_ub: NumericSlice<f64>,
    /// token id → max contribution of its type posting row.
    pub(crate) type_token_ub: NumericSlice<f64>,
    /// Build-time digest of the whole index content (see
    /// [`content_digest`](LemmaIndex::content_digest)).
    pub(crate) content_digest: u64,
}

/// Default number of IDF-overlap hits rescored exactly per query, as a
/// multiple of the requested `k`. Overridable per query via the `*_with`
/// methods (plumbed from `AnnotatorConfig::rescoring_factor` upstream).
pub const DEFAULT_RESCORING_FACTOR: usize = 6;

/// Relative safety margin applied to WAND upper-bound sums before the skip
/// test. Upper-bound prefixes are summed in cursor order while real scores
/// accumulate in ascending-token order; reassociation of ≤ a few dozen
/// positive IDFs perturbs the sum by well under one part in 10⁻¹², so this
/// margin keeps the bound admissible (never skips a qualifying lemma)
/// without ever admitting meaningfully more work.
pub(crate) const WAND_SAFETY: f64 = 1.0 + 1e-9;

/// Why [`SegmentedIndex::append`](crate::SegmentedIndex::append) rejected
/// a grown catalog. The base index is never modified: on error no
/// partially-merged state exists anywhere.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExtendError {
    /// The grown catalog has fewer entities or types than the base index
    /// was built over — not an append-only change.
    BaseShrunk {
        /// `"entities"` or `"types"`.
        what: &'static str,
        /// Count in the base index.
        base: usize,
        /// Count in the grown catalog.
        grown: usize,
    },
    /// A base entity's or type's lemma list differs from what the index was
    /// built over (compared on normalized text).
    BaseChanged {
        /// `"entity"` or `"type"`.
        what: &'static str,
        /// Raw id of the offending owner.
        owner: u32,
        /// Human-readable description of the difference.
        detail: String,
    },
}

impl std::fmt::Display for ExtendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExtendError::BaseShrunk { what, base, grown } => write!(
                f,
                "grown catalog has {grown} {what}, fewer than the {base} the index was built over"
            ),
            ExtendError::BaseChanged { what, owner, detail } => {
                write!(f, "base {what} {owner} changed: {detail}")
            }
        }
    }
}

impl std::error::Error for ExtendError {}

/// `0` = one worker per available core.
fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    }
}

/// Splits `0..n` into at most `threads` contiguous, ascending ranges.
fn shard_ranges(n: usize, threads: usize) -> Vec<Range<usize>> {
    let chunk = n.div_ceil(threads.max(1)).max(1);
    let mut ranges: Vec<Range<usize>> =
        (0..n).step_by(chunk).map(|s| s..(s + chunk).min(n)).collect();
    if ranges.is_empty() {
        ranges.push(0..0);
    }
    ranges
}

/// Order-preserving parallel map over contiguous chunks of `items`.
pub(crate) fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if threads <= 1 || items.len() < 2 {
        return items.iter().map(f).collect();
    }
    let chunk = items.len().div_ceil(threads).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|chunk| {
                let f = &f;
                scope.spawn(move || chunk.iter().map(f).collect::<Vec<R>>())
            })
            .collect();
        let mut out = Vec::with_capacity(items.len());
        for h in handles {
            out.extend(h.join().expect("par_map worker"));
        }
        out
    })
}

/// Per-shard `(token, lemma)` pairs for one [`RefKind`], in serial order.
fn token_pairs(
    lemmas: &[IndexedLemma],
    want: RefKind,
    range: Range<usize>,
) -> impl Iterator<Item = (u32, u32)> + '_ {
    lemmas[range.clone()].iter().zip(range).filter(move |(l, _)| l.kind == want).flat_map(
        |(l, li)| {
            l.doc
                .token_set
                .iter()
                .filter(|&&tok| !Vocab::is_oov(tok))
                .map(move |&tok| (tok, li as u32))
        },
    )
}

/// Per-shard `(owner, lemma)` pairs for one [`RefKind`], in serial order.
fn owner_pairs(
    lemmas: &[IndexedLemma],
    want: RefKind,
    range: Range<usize>,
) -> impl Iterator<Item = (u32, u32)> + '_ {
    lemmas[range.clone()]
        .iter()
        .zip(range)
        .filter(move |(l, _)| l.kind == want)
        .map(|(l, li)| (l.owner, li as u32))
}

impl LemmaIndex {
    /// Builds the index over every entity and type lemma of a catalog,
    /// using all available cores (see [`build_with_threads`]).
    ///
    /// [`build_with_threads`]: LemmaIndex::build_with_threads
    pub fn build(cat: &Catalog) -> LemmaIndex {
        LemmaIndex::build_with_threads(cat, 0)
    }

    /// Builds the index with an explicit worker count (`0` = one worker per
    /// available core). The output is byte-identical at every thread count:
    /// tokenization and document preparation are order-preserving parallel
    /// maps, and the CSR postings use contiguous ascending shards whose
    /// concatenation reproduces the serial layout (see the module docs).
    pub fn build_with_threads(cat: &Catalog, threads: usize) -> LemmaIndex {
        let entities: Vec<&[String]> = cat.entity_ids().map(|e| cat.entity_lemmas(e)).collect();
        let types: Vec<&[String]> = cat.type_ids().map(|t| cat.type_lemmas(t)).collect();
        LemmaIndex::build_from_lists(&entities, &types, threads)
    }

    /// [`build_with_threads`](LemmaIndex::build_with_threads) over raw lemma
    /// lists: `entities[i]` / `types[i]` hold owner `i`'s lemmas. This is the
    /// real build entry point — the catalog variant just collects the lists —
    /// and it is what lets `crate::segment` build a [`LemmaIndex`] over a
    /// contiguous *slice* of a catalog (owner ids local to the slice) with
    /// the exact machinery, byte for byte, of a whole-catalog build.
    pub(crate) fn build_from_lists(
        entities: &[&[String]],
        types: &[&[String]],
        threads: usize,
    ) -> LemmaIndex {
        let threads = resolve_threads(threads);
        let mut raw: Vec<(RefKind, u32, String)> = Vec::new();
        for (e, lemmas) in entities.iter().enumerate() {
            for l in *lemmas {
                raw.push((RefKind::Entity, e as u32, l.clone()));
            }
        }
        for (t, lemmas) in types.iter().enumerate() {
            for l in *lemmas {
                raw.push((RefKind::Type, t as u32, l.clone()));
            }
        }

        // Normalize once up front: interning and document preparation then
        // see the *same* token streams (`normalize` is idempotent), which
        // makes the vocabulary a pure function of the lemma norms — the
        // property segment replay and the snapshot codec rebuild from.
        let norms: Vec<String> = par_map(&raw, threads, |(_, _, text)| normalize(text));

        // Vocabulary interning must run serially (ids depend on first-seen
        // order), but the tokenization feeding it parallelizes cleanly.
        let token_lists: Vec<Vec<String>> = par_map(&norms, threads, |text| tokenize(text));
        let mut builder = SimEngineBuilder::new();
        for words in &token_lists {
            builder.add_tokens(words);
        }
        drop(token_lists);
        let engine = builder.freeze();

        // Query-document preparation is the heaviest build phase
        // (re-tokenization + TFIDF vectors); the engine is frozen, so it
        // shards trivially. Each lemma's in-order token-id sequence is kept
        // beside its document for persistence and segment replay.
        let prepped: Vec<(RefKind, u32, String)> = raw
            .into_iter()
            .zip(norms)
            .map(|((kind, owner, _), norm)| (kind, owner, norm))
            .collect();
        let docs: Vec<(IndexedLemma, Vec<u32>)> =
            par_map(&prepped, threads, |&(kind, owner, ref norm)| {
                let (doc, tokens) = engine.doc_with_token_ids_from_norm(norm.clone());
                (IndexedLemma { kind, owner, doc }, tokens)
            });
        drop(prepped);
        let mut lemmas = Vec::with_capacity(docs.len());
        let mut lemma_tokens = Csr::empty();
        for (lemma, tokens) in docs {
            lemma_tokens.push_row(&tokens);
            lemmas.push(lemma);
        }

        LemmaIndex::assemble(engine, lemmas, lemma_tokens, entities.len(), types.len(), threads)
    }

    /// Final assembly of [`build_from_lists`](LemmaIndex::build_from_lists):
    /// CSR postings and owner maps, WAND upper bounds, content digest.
    fn assemble(
        engine: SimEngine,
        lemmas: Vec<IndexedLemma>,
        lemma_tokens: Csr,
        num_entities: usize,
        num_types: usize,
        threads: usize,
    ) -> LemmaIndex {
        let ranges = shard_ranges(lemmas.len(), threads);
        let vocab_len = engine.vocab().len();
        let entity_postings =
            Csr::build_sharded(vocab_len, &ranges, |r| token_pairs(&lemmas, RefKind::Entity, r));
        let type_postings =
            Csr::build_sharded(vocab_len, &ranges, |r| token_pairs(&lemmas, RefKind::Type, r));
        let entity_lemmas =
            Csr::build_sharded(num_entities, &ranges, |r| owner_pairs(&lemmas, RefKind::Entity, r));
        let type_lemmas =
            Csr::build_sharded(num_types, &ranges, |r| owner_pairs(&lemmas, RefKind::Type, r));

        // WAND upper bounds: every posting of a row contributes exactly the
        // token's IDF to the overlap score, so the row bound *is* the IDF.
        let ub_table = |csr: &Csr| -> Vec<f64> {
            (0..vocab_len as u32)
                .map(|tok| if csr.row(tok).is_empty() { 0.0 } else { engine.idf().idf(tok) })
                .collect()
        };
        let entity_token_ub: NumericSlice<f64> = ub_table(&entity_postings).into();
        let type_token_ub: NumericSlice<f64> = ub_table(&type_postings).into();

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
        idx
    }

    /// Hashes every part of the index a probe can observe: the vocabulary
    /// words, the IDF table, every lemma (kind, owner, normalized text,
    /// TFIDF vector), the per-lemma token sequences, the CSR layouts, and
    /// the upper-bound tables. The snapshot loader recomputes this over the
    /// *reconstructed* structure, so a snapshot whose stored vectors, vocab
    /// spellings, or document frequencies were altered cannot pass the
    /// digest check — not just one whose hashed metadata changed.
    /// Deterministic for a given content — independent of build thread
    /// count by the shard-order argument in the module docs.
    pub(crate) fn compute_content_digest(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.engine.vocab().len().hash(&mut h);
        self.lemmas.len().hash(&mut h);
        // Variable-length pieces are flattened into length-prefixed buffers
        // and hashed with one write each: the hasher's per-call overhead
        // would otherwise dominate these loops (the digest runs on the
        // snapshot-load hot path, where it is the index's integrity proof).
        let word_bytes: usize = self.engine.vocab().words().map(str::len).sum();
        let mut flat: Vec<u8> = Vec::with_capacity(self.engine.vocab().len() * 4 + word_bytes);
        for w in self.engine.vocab().words() {
            flat.extend_from_slice(&(w.len() as u32).to_le_bytes());
            flat.extend_from_slice(w.as_bytes());
        }
        flat.hash(&mut h);
        self.engine.idf().num_documents().hash(&mut h);
        self.engine.idf().doc_frequencies().hash(&mut h);
        let norm_bytes: usize = self.lemmas.iter().map(|l| l.doc.norm.len()).sum();
        let mut flat: Vec<u8> = Vec::with_capacity(self.lemmas.len() * 9 + norm_bytes);
        for l in &self.lemmas {
            flat.push(match l.kind {
                RefKind::Entity => 0,
                RefKind::Type => 1,
            });
            flat.extend_from_slice(&l.owner.to_le_bytes());
            flat.extend_from_slice(&(l.doc.norm.len() as u32).to_le_bytes());
            flat.extend_from_slice(l.doc.norm.as_bytes());
        }
        flat.hash(&mut h);
        // TFIDF vectors, packed one pair per u64 (weight bits ‖ token) with a
        // length word between lemmas: integer-slice hashing compiles to a
        // single hasher write over the buffer, so binding the vectors into
        // the digest costs one push per pair, not a byte-copy loop.
        let pair_count: usize = self.lemmas.iter().map(|l| l.doc.vec.pairs().len()).sum();
        let mut pair_words: Vec<u64> = Vec::with_capacity(pair_count + self.lemmas.len());
        for l in &self.lemmas {
            pair_words.push(l.doc.vec.pairs().len() as u64);
            for p in l.doc.vec.pairs() {
                pair_words.push(((p.weight.to_bits() as u64) << 32) | p.token as u64);
            }
        }
        pair_words.hash(&mut h);
        let layout = self.layout();
        for arr in [
            layout.entity_posting_offsets,
            layout.entity_posting_values,
            layout.type_posting_offsets,
            layout.type_posting_values,
            layout.entity_lemma_offsets,
            layout.entity_lemma_values,
            layout.type_lemma_offsets,
            layout.type_lemma_values,
            layout.lemma_token_offsets,
            layout.lemma_token_values,
        ] {
            arr.hash(&mut h);
        }
        for ub in [layout.entity_token_ub, layout.type_token_ub] {
            for x in ub {
                x.to_bits().hash(&mut h);
            }
        }
        h.finish()
    }

    /// The similarity engine (frozen vocabulary + IDF).
    pub fn engine(&self) -> &SimEngine {
        &self.engine
    }

    /// Number of indexed lemmas.
    pub fn num_lemmas(&self) -> usize {
        self.lemmas.len()
    }

    /// True when the numeric tables view a snapshot buffer (heap or
    /// mapped) in place instead of owning their elements — i.e. the index
    /// came off the zero-copy load path, not a fresh build. Probing for
    /// one representative table is enough: the loader wires all of them
    /// from the same source. Used by tests and startup logs.
    pub fn is_zero_copy(&self) -> bool {
        self.entity_postings.values.is_view()
    }

    /// A digest of the full index content: every lemma's kind, owner, and
    /// normalized text, the CSR layouts, and the upper-bound tables. Two
    /// indexes with equal digests are interchangeable for candidate
    /// generation (same probes, same scores, same similarity profiles) —
    /// downstream caches use this as their compatibility fingerprint.
    /// Computed once at build time (the index is immutable after
    /// construction), so reading it is free.
    pub fn content_digest(&self) -> u64 {
        self.content_digest
    }

    /// The raw CSR layout and upper-bound tables (equivalence-test hook).
    pub fn layout(&self) -> IndexLayout<'_> {
        IndexLayout {
            entity_posting_offsets: &self.entity_postings.offsets,
            entity_posting_values: &self.entity_postings.values,
            type_posting_offsets: &self.type_postings.offsets,
            type_posting_values: &self.type_postings.values,
            entity_lemma_offsets: &self.entity_lemmas.offsets,
            entity_lemma_values: &self.entity_lemmas.values,
            type_lemma_offsets: &self.type_lemmas.offsets,
            type_lemma_values: &self.type_lemmas.values,
            lemma_token_offsets: &self.lemma_tokens.offsets,
            lemma_token_values: &self.lemma_tokens.values,
            entity_token_ub: &self.entity_token_ub,
            type_token_ub: &self.type_token_ub,
        }
    }

    /// Prepares a query document (convenience passthrough).
    pub fn doc(&self, text: &str) -> TextDoc {
        self.engine.doc(text)
    }

    /// Raw scored lemma hits into `scratch.hits`: IDF-overlap shortlist
    /// (bounded top-`shortlist` selection, exhaustive or WAND) rescored by
    /// exact cosine, sorted best-first with ties broken by lemma id.
    fn lemma_hits_into(
        &self,
        query: &TextDoc,
        kind: RefKind,
        shortlist: usize,
        mode: ProbeMode,
        scratch: &mut ProbeScratch,
    ) {
        let (postings, ub_table) = match kind {
            RefKind::Entity => (&self.entity_postings, &self.entity_token_ub),
            RefKind::Type => (&self.type_postings, &self.type_token_ub),
        };
        // Gather the query terms (non-OOV tokens with non-empty rows) in
        // ascending token order; both probe modes consume them.
        scratch.wand_terms.clear();
        let mut total_postings = 0usize;
        for &tok in &query.token_set {
            if Vocab::is_oov(tok) {
                continue;
            }
            let (start, end) = postings.row_bounds(tok);
            if start == end {
                continue;
            }
            total_postings += (end - start) as usize;
            scratch.wand_terms.push(WandTerm {
                tok,
                ub: ub_table[tok as usize],
                start,
                end,
                pos: 0,
            });
        }
        run_overlap(postings, self.lemmas.len(), shortlist, mode, total_postings, scratch);
        let hits = &mut scratch.hits;
        for (li, score) in hits.iter_mut() {
            *score = cosine(&query.vec, &self.lemmas[*li as usize].doc.vec);
        }
        hits.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    }

    /// Top-`k` candidate entities for a mention text (§4.3's `E_rc`),
    /// deduplicated by entity, scored by best lemma cosine, ties broken by
    /// id for determinism, under [`ProbeMode::Auto`]. The scratch is
    /// caller-owned (allocation-free in steady state); the shortlist
    /// rescored by cosine is `k × rescoring_factor` lemmas.
    pub fn entity_candidates_with(
        &self,
        query: &TextDoc,
        k: usize,
        rescoring_factor: usize,
        scratch: &mut ProbeScratch,
    ) -> Vec<Match<EntityId>> {
        self.entity_candidates_mode(query, k, rescoring_factor, ProbeMode::Auto, scratch)
    }

    /// Top-`k` candidate types for a header text, deduplicated by type.
    /// See [`entity_candidates_with`](LemmaIndex::entity_candidates_with).
    pub fn type_candidates_with(
        &self,
        query: &TextDoc,
        k: usize,
        rescoring_factor: usize,
        scratch: &mut ProbeScratch,
    ) -> Vec<Match<TypeId>> {
        self.type_candidates_mode(query, k, rescoring_factor, ProbeMode::Auto, scratch)
    }

    /// [`entity_candidates_with`](LemmaIndex::entity_candidates_with) with
    /// an explicit [`ProbeMode`]. All modes return bit-identical results.
    pub fn entity_candidates_mode(
        &self,
        query: &TextDoc,
        k: usize,
        rescoring_factor: usize,
        mode: ProbeMode,
        scratch: &mut ProbeScratch,
    ) -> Vec<Match<EntityId>> {
        self.owner_candidates(query, RefKind::Entity, k, rescoring_factor, mode, scratch);
        scratch.owners.iter().map(|&(owner, score)| Match { id: EntityId(owner), score }).collect()
    }

    /// [`type_candidates_with`](LemmaIndex::type_candidates_with) with an
    /// explicit [`ProbeMode`]. All modes return bit-identical results.
    pub fn type_candidates_mode(
        &self,
        query: &TextDoc,
        k: usize,
        rescoring_factor: usize,
        mode: ProbeMode,
        scratch: &mut ProbeScratch,
    ) -> Vec<Match<TypeId>> {
        self.owner_candidates(query, RefKind::Type, k, rescoring_factor, mode, scratch);
        scratch.owners.iter().map(|&(owner, score)| Match { id: TypeId(owner), score }).collect()
    }

    /// Leaves the top-`k` `(owner, score)` pairs in `scratch.owners`.
    pub(crate) fn owner_candidates(
        &self,
        query: &TextDoc,
        kind: RefKind,
        k: usize,
        rescoring_factor: usize,
        mode: ProbeMode,
        scratch: &mut ProbeScratch,
    ) {
        let shortlist = k.saturating_mul(rescoring_factor).max(16);
        self.lemma_hits_into(query, kind, shortlist, mode, scratch);
        let (hits, owners) = (&scratch.hits, &mut scratch.owners);
        owners.clear();
        owners.extend(hits.iter().map(|&(li, score)| (self.lemmas[li as usize].owner, score)));
        // Best score per owner: group by owner (score descending within a
        // group), keep the head of each group.
        owners.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(b.1.total_cmp(&a.1)));
        owners.dedup_by_key(|p| p.0);
        owners.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        owners.truncate(k);
    }

    /// Full similarity profile between a query and an entity: element-wise
    /// max over the entity's lemmas — `max_{ℓ∈L(E)} sim(D_rc, ℓ)` (§4.2.1).
    pub fn entity_profile(&self, query: &TextDoc, e: EntityId) -> StringSim {
        self.best_profile(query, self.entity_lemmas.row(e.raw()))
    }

    /// Full similarity profile between a query and a type's lemmas (§4.2.2).
    pub fn type_profile(&self, query: &TextDoc, t: TypeId) -> StringSim {
        self.best_profile(query, self.type_lemmas.row(t.raw()))
    }

    /// The posting CSR for one lemma kind (`crate::segment` fan-out hook).
    pub(crate) fn postings(&self, kind: RefKind) -> &Csr {
        match kind {
            RefKind::Entity => &self.entity_postings,
            RefKind::Type => &self.type_postings,
        }
    }

    /// Lemma indices of one entity (id local to this index).
    pub(crate) fn entity_lemma_row(&self, e: u32) -> &[u32] {
        self.entity_lemmas.row(e)
    }

    /// Lemma indices of one type (id local to this index).
    pub(crate) fn type_lemma_row(&self, t: u32) -> &[u32] {
        self.type_lemmas.row(t)
    }

    /// A lemma's normalized text.
    pub(crate) fn lemma_norm(&self, li: u32) -> &str {
        &self.lemmas[li as usize].doc.norm
    }

    /// True when every string the index serves — vocabulary words and lemma
    /// normalized text — is a view into the snapshot mapping rather than a
    /// heap copy. Test hook for the zero-copy load guarantee.
    #[doc(hidden)]
    pub fn strings_are_zero_copy(&self) -> bool {
        self.engine.vocab().words_are_zero_copy()
            && self.lemmas.iter().all(|l| l.doc.norm.is_view())
    }

    /// A lemma's owner id (local to this index).
    pub(crate) fn lemma_owner(&self, li: u32) -> u32 {
        self.lemmas[li as usize].owner
    }

    /// A lemma's stored in-order token-id sequence.
    pub(crate) fn lemma_token_row(&self, li: u32) -> &[u32] {
        self.lemma_tokens.row(li)
    }

    /// Total entity lemmas — also the count of leading lemma indices that
    /// are entities (the build pushes every entity lemma before any type).
    pub(crate) fn entity_lemma_total(&self) -> u32 {
        self.entity_lemmas.values.len() as u32
    }

    fn best_profile(&self, query: &TextDoc, lemma_idxs: &[u32]) -> StringSim {
        let mut best = StringSim::default();
        for &li in lemma_idxs {
            let p = self.engine.profile(query, &self.lemmas[li as usize].doc);
            best.max_with(&p);
        }
        best
    }
}

/// The IDF-overlap pass shared by monolithic and segmented probes: consumes
/// the query terms prepared in `scratch.wand_terms` (posting-row cursors in
/// ascending token order) and leaves the top-`shortlist` `(lemma, overlap)`
/// hits in `scratch.hits` — exactly the set the exhaustive pass would keep
/// under (overlap desc, lemma id asc), in unspecified order. `num_lemmas`
/// sizes the dense accumulator; `total_postings` feeds the
/// [`ProbeMode::Auto`] heuristic.
pub(crate) fn run_overlap(
    postings: &Csr,
    num_lemmas: usize,
    shortlist: usize,
    mode: ProbeMode,
    total_postings: usize,
    scratch: &mut ProbeScratch,
) {
    let use_wand = match mode {
        ProbeMode::Exhaustive => false,
        ProbeMode::Wand => true,
        // WAND pays for its cursor bookkeeping only when the candidate
        // volume dwarfs what the shortlist keeps.
        ProbeMode::Auto => scratch.wand_terms.len() >= 2 && total_postings > 8 * shortlist,
    };
    if use_wand {
        wand_hits(postings, shortlist, scratch);
    } else {
        scratch.begin(num_lemmas);
        for ti in 0..scratch.wand_terms.len() {
            let WandTerm { ub: idf, start, end, .. } = scratch.wand_terms[ti];
            // Slice iteration (not indexed access) keeps the hottest
            // loop of the crate free of per-posting bounds checks.
            for &li in &postings.values[start as usize..end as usize] {
                scratch.accumulate(li, idf);
            }
        }
        let (touched, score, hits) = (&scratch.touched, &scratch.score, &mut scratch.hits);
        hits.clear();
        hits.extend(touched.iter().map(|&li| (li, score[li as usize])));
        // Bounded selection: only the surviving shortlist is ever sorted.
        if hits.len() > shortlist && shortlist > 0 {
            hits.select_nth_unstable_by(shortlist - 1, |a, b| {
                b.1.total_cmp(&a.1).then(a.0.cmp(&b.0))
            });
            hits.truncate(shortlist);
        }
    }
}

/// WAND document-at-a-time top-`shortlist` over the terms prepared in
/// `scratch.wand_terms`, leaving `(lemma, overlap score)` hits in
/// `scratch.hits` (unordered — the caller rescans and sorts anyway).
///
/// The kept set is exactly the exhaustive pass's top-`shortlist` under
/// (score desc, lemma id asc): lemmas are scored in ascending id order, so
/// at equal score an incumbent (smaller id) always wins, which means a
/// candidate enters the full heap only with a strictly higher score — and a
/// pivot whose upper bound (with [`WAND_SAFETY`] margin) cannot beat the
/// current worst kept score is skipped without scoring.
pub(crate) fn wand_hits(postings: &Csr, shortlist: usize, scratch: &mut ProbeScratch) {
    let terms = &mut scratch.wand_terms;
    let heap = &mut scratch.hits;
    heap.clear();
    if shortlist == 0 {
        return;
    }
    let cur_doc = |t: &WandTerm, values: &[u32]| values[(t.start + t.pos) as usize];
    let values = &postings.values;
    loop {
        terms.retain(|t| t.start + t.pos < t.end);
        if terms.is_empty() {
            return;
        }
        terms.sort_unstable_by_key(|t| (cur_doc(t, values), t.tok));
        let threshold = if heap.len() == shortlist { heap[0].1 } else { f64::NEG_INFINITY };
        // Pivot: first cursor position where the cumulative upper bound
        // could still beat the threshold.
        let mut acc = 0.0f64;
        let mut pivot = None;
        for (i, t) in terms.iter().enumerate() {
            acc += t.ub;
            if acc * WAND_SAFETY > threshold {
                pivot = Some(i);
                break;
            }
        }
        let Some(p) = pivot else {
            // Even all remaining rows together cannot beat the worst kept
            // hit: every unseen lemma is dominated. Done.
            return;
        };
        let pivot_doc = cur_doc(&terms[p], values);
        if cur_doc(&terms[0], values) == pivot_doc {
            // Terms are sorted by (cursor doc, token), so the rows
            // containing `pivot_doc` form a token-ascending prefix run —
            // accumulating over the run reproduces the exhaustive pass's
            // addition order bit for bit.
            let mut score = 0.0f64;
            for t in terms.iter_mut() {
                if values[(t.start + t.pos) as usize] != pivot_doc {
                    break;
                }
                score += t.ub;
                t.pos += 1;
            }
            if heap.len() < shortlist {
                heap_push(heap, (pivot_doc, score));
            } else if score > heap[0].1 {
                heap_replace_root(heap, (pivot_doc, score));
            }
        } else {
            // Skip: advance every cursor below the pivot straight to it.
            for t in terms[..p].iter_mut() {
                let row = &values[t.start as usize..t.end as usize];
                t.pos += row[t.pos as usize..].partition_point(|&d| d < pivot_doc) as u32;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use proptest::prelude::*;
    use webtable_catalog::{generate_world, Cardinality, CatalogBuilder, WorldConfig};

    use super::*;

    fn small_catalog() -> webtable_catalog::Catalog {
        let mut b = CatalogBuilder::new();
        let person = b.add_type("person", &["people"]).unwrap();
        let physicist = b.add_type("physicist", &[]).unwrap();
        let book = b.add_type("book", &["title"]).unwrap();
        b.add_subtype(physicist, person);
        b.add_entity("Albert Einstein", &["A. Einstein", "Einstein"], &[physicist]).unwrap();
        b.add_entity("Russell Stannard", &["Stannard"], &[person]).unwrap();
        b.add_entity("Albert Brooks", &["A. Brooks"], &[person]).unwrap();
        b.add_entity("The Time and Space of Uncle Albert", &[], &[book]).unwrap();
        b.add_entity("Relativity: The Special and the General Theory", &["Relativity"], &[book])
            .unwrap();
        let e2 = b.entity_id("Albert Einstein").unwrap();
        let bk = b.entity_id("Relativity: The Special and the General Theory").unwrap();
        let writes = b.add_relation("writes", book, person, Cardinality::ManyToOne).unwrap();
        b.add_tuple(writes, bk, e2);
        b.finish().unwrap()
    }

    fn entities(idx: &LemmaIndex, q: &TextDoc, k: usize) -> Vec<Match<EntityId>> {
        idx.entity_candidates_with(q, k, DEFAULT_RESCORING_FACTOR, &mut ProbeScratch::new())
    }

    fn types(idx: &LemmaIndex, q: &TextDoc, k: usize) -> Vec<Match<TypeId>> {
        idx.type_candidates_with(q, k, DEFAULT_RESCORING_FACTOR, &mut ProbeScratch::new())
    }

    #[test]
    fn exact_mention_ranks_first() {
        let cat = small_catalog();
        let idx = LemmaIndex::build(&cat);
        let q = idx.doc("Albert Einstein");
        let cands = entities(&idx, &q, 5);
        assert!(!cands.is_empty());
        assert_eq!(cands[0].id, cat.entity_named("Albert Einstein").unwrap());
        assert!(cands[0].score > 0.9);
    }

    #[test]
    fn ambiguous_mention_returns_multiple_candidates() {
        let cat = small_catalog();
        let idx = LemmaIndex::build(&cat);
        let q = idx.doc("Albert");
        let cands = entities(&idx, &q, 5);
        // Einstein, Brooks, and the Uncle Albert book all mention "albert".
        assert!(cands.len() >= 3, "got {cands:?}");
    }

    #[test]
    fn abbreviated_mention_finds_entity() {
        let cat = small_catalog();
        let idx = LemmaIndex::build(&cat);
        let q = idx.doc("A. Einstein");
        let cands = entities(&idx, &q, 3);
        assert_eq!(cands[0].id, cat.entity_named("Albert Einstein").unwrap());
    }

    #[test]
    fn type_candidates_match_headers() {
        let cat = small_catalog();
        let idx = LemmaIndex::build(&cat);
        let q = idx.doc("Title");
        let cands = types(&idx, &q, 3);
        assert_eq!(cands[0].id, cat.type_named("book").unwrap());
        let q = idx.doc("people");
        let cands = types(&idx, &q, 3);
        assert_eq!(cands[0].id, cat.type_named("person").unwrap());
    }

    #[test]
    fn unknown_text_returns_empty() {
        let cat = small_catalog();
        let idx = LemmaIndex::build(&cat);
        let q = idx.doc("zzz qqq www");
        assert!(entities(&idx, &q, 5).is_empty());
        assert!(types(&idx, &q, 5).is_empty());
    }

    #[test]
    fn k_truncates_results_deterministically() {
        let cat = small_catalog();
        let idx = LemmaIndex::build(&cat);
        let q = idx.doc("the albert theory of relativity");
        let k2 = entities(&idx, &q, 2);
        let k5 = entities(&idx, &q, 5);
        assert!(k2.len() <= 2);
        assert_eq!(&k5[..k2.len()], &k2[..], "prefix stability");
    }

    #[test]
    fn entity_profile_takes_best_lemma() {
        let cat = small_catalog();
        let idx = LemmaIndex::build(&cat);
        let e = cat.entity_named("Albert Einstein").unwrap();
        let q = idx.doc("Einstein");
        let p = idx.entity_profile(&q, e);
        // The lemma "Einstein" matches exactly even though the canonical
        // name does not.
        assert!((p.edit_sim - 1.0).abs() < 1e-9);
        assert!((p.tfidf_cosine - 1.0).abs() < 1e-6);
    }

    #[test]
    fn num_lemmas_counts_entities_and_types() {
        let cat = small_catalog();
        let idx = LemmaIndex::build(&cat);
        // 5 entities with 3+2+2+1+2 = 10 lemmas; types: person(2), physicist(1),
        // book(2) = 5. (The root type contributes its own lemma when synthesized.)
        assert!(idx.num_lemmas() >= 15, "{}", idx.num_lemmas());
    }

    #[test]
    fn scratch_survives_epoch_wraparound() {
        let cat = small_catalog();
        let idx = LemmaIndex::build(&cat);
        let q = idx.doc("Albert Einstein");
        let mut scratch = ProbeScratch::new();
        let fresh = idx.entity_candidates_with(&q, 5, DEFAULT_RESCORING_FACTOR, &mut scratch);
        scratch.epoch = u32::MAX; // next begin() wraps to 0 and resets
        let wrapped = idx.entity_candidates_with(&q, 5, DEFAULT_RESCORING_FACTOR, &mut scratch);
        assert_eq!(fresh, wrapped);
        let again = idx.entity_candidates_with(&q, 5, DEFAULT_RESCORING_FACTOR, &mut scratch);
        assert_eq!(fresh, again);
    }

    #[test]
    fn epoch_wrap_with_stale_stamps_from_other_queries() {
        // Wraparound regression for the stale-stamp alias class: slots
        // stamped by *different* queries before the wrap must not leak
        // scores into queries after the wrap (the wrap resets every stamp,
        // including slots the wrapping query does not touch).
        let cat = small_catalog();
        let idx = LemmaIndex::build(&cat);
        let albert = idx.doc("albert einstein relativity theory");
        let russell = idx.doc("russell stannard");
        let mut scratch = ProbeScratch::new();
        let mut fresh = ProbeScratch::new();
        // Stamp a broad set of slots, then force the wrap on a query that
        // touches a *different* subset.
        let _ = idx.entity_candidates_with(&albert, 8, 6, &mut scratch);
        scratch.force_epoch_wrap();
        assert_eq!(
            idx.entity_candidates_with(&russell, 8, 6, &mut scratch),
            idx.entity_candidates_with(&russell, 8, 6, &mut fresh),
        );
        // And the epoch numbering stays self-consistent after the wrap.
        for _ in 0..3 {
            assert_eq!(
                idx.entity_candidates_with(&albert, 8, 6, &mut scratch),
                idx.entity_candidates_with(&albert, 8, 6, &mut fresh),
            );
        }
    }

    #[test]
    fn parallel_build_matches_serial_on_small_catalog() {
        let cat = small_catalog();
        let serial = LemmaIndex::build_with_threads(&cat, 1);
        for threads in [2usize, 3, 8] {
            let par = LemmaIndex::build_with_threads(&cat, threads);
            assert_eq!(par.num_lemmas(), serial.num_lemmas());
            assert_eq!(par.layout(), serial.layout(), "threads={threads}");
        }
    }

    /// The pre-CSR implementation, kept verbatim as the equivalence oracle:
    /// hash-map IDF accumulation over a lemma scan, full sorts, hash-map
    /// owner dedup. The optimized path must match it bit for bit.
    fn naive_owner_candidates(
        idx: &LemmaIndex,
        query: &TextDoc,
        kind: RefKind,
        k: usize,
        rescoring_factor: usize,
    ) -> Vec<(u32, f64)> {
        let mut acc: HashMap<u32, f64> = HashMap::new();
        for &tok in &query.token_set {
            if Vocab::is_oov(tok) {
                continue;
            }
            let idf = idx.engine.idf().idf(tok);
            for (li, lemma) in idx.lemmas.iter().enumerate() {
                if lemma.kind == kind && lemma.doc.token_set.binary_search(&tok).is_ok() {
                    *acc.entry(li as u32).or_insert(0.0) += idf;
                }
            }
        }
        let mut hits: Vec<(u32, f64)> = acc.into_iter().collect();
        hits.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        hits.truncate(k.saturating_mul(rescoring_factor).max(16));
        for (li, score) in hits.iter_mut() {
            *score = cosine(&query.vec, &idx.lemmas[*li as usize].doc.vec);
        }
        hits.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut best: HashMap<u32, f64> = HashMap::new();
        for (li, score) in hits {
            let owner = idx.lemmas[li as usize].owner;
            let slot = best.entry(owner).or_insert(f64::NEG_INFINITY);
            if score > *slot {
                *slot = score;
            }
        }
        let mut out: Vec<(u32, f64)> = best.into_iter().collect();
        out.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        out.truncate(k);
        out
    }

    fn assert_matches_naive(idx: &LemmaIndex, scratch: &mut ProbeScratch, text: &str, k: usize) {
        let q = idx.doc(text);
        for factor in [1usize, 6] {
            for mode in [ProbeMode::Auto, ProbeMode::Exhaustive, ProbeMode::Wand] {
                let fast: Vec<(u32, f64)> = idx
                    .entity_candidates_mode(&q, k, factor, mode, scratch)
                    .into_iter()
                    .map(|m| (m.id.raw(), m.score))
                    .collect();
                let naive = naive_owner_candidates(idx, &q, RefKind::Entity, k, factor);
                assert_eq!(
                    fast, naive,
                    "entities diverge for {text:?} k={k} factor={factor} mode={mode:?}"
                );
                let fast: Vec<(u32, f64)> = idx
                    .type_candidates_mode(&q, k, factor, mode, scratch)
                    .into_iter()
                    .map(|m| (m.id.raw(), m.score))
                    .collect();
                let naive = naive_owner_candidates(idx, &q, RefKind::Type, k, factor);
                assert_eq!(
                    fast, naive,
                    "types diverge for {text:?} k={k} factor={factor} mode={mode:?}"
                );
            }
        }
    }

    #[test]
    fn optimized_probe_matches_naive_on_generated_world() {
        let w = generate_world(&WorldConfig::tiny(13)).unwrap();
        let idx = LemmaIndex::build(&w.catalog);
        let mut scratch = ProbeScratch::new();
        // Real lemma texts plus adversarial junk queries.
        let mut queries: Vec<String> =
            w.catalog.entity_ids().take(20).map(|e| w.catalog.entity_name(e).to_string()).collect();
        queries.extend(["the of and".into(), "1984".into(), "zzz unseen".into(), "".into()]);
        for text in &queries {
            for k in [1usize, 3, 8] {
                assert_matches_naive(&idx, &mut scratch, text, k);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn optimized_probe_matches_naive_on_random_queries(
            words in proptest::collection::vec("[a-e]{1,6}", 0..6),
            k in 1usize..12,
        ) {
            let cat = small_catalog();
            let idx = LemmaIndex::build(&cat);
            let mut scratch = ProbeScratch::new();
            let text = words.join(" ");
            assert_matches_naive(&idx, &mut scratch, &text, k);
        }
    }
}
