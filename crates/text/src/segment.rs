//! Segmented index: a catalog sharded into contiguous slices, each with its
//! own self-contained [`LemmaIndex`] and snapshot file, probed per segment
//! and merged into one bounded top-k — bit-identical to a monolithic build.
//!
//! ## Why segments
//!
//! A monolithic index must be rebuilt and re-persisted whole every time
//! the catalog grows. Segments make the delta cheap: a catalog append *is* a new segment — built in the background over
//! just the appended slice, written to its own snapshot file, and published
//! by adding one line to the manifest. Old segment files are never rewritten.
//!
//! ## Exact equivalence to the monolithic build
//!
//! Each segment is a plain [`LemmaIndex`] over a contiguous sub-catalog
//! slice with **local** ids (entities `[base_i, base_{i+1})` renumbered from
//! 0, likewise types), so the existing snapshot codec persists it verbatim.
//! Query-time scoring, however, must see *collection-wide* statistics, or
//! segment boundaries would leak into IDF weights and scores would drift
//! from the monolithic build. So at construction time (count > 1) the
//! segmented index derives:
//!
//! - a **global engine**: the union vocabulary interned by replaying every
//!   segment's stored token sequences in monolithic build order (all entity
//!   lemmas in segment order, then all type lemmas — exactly the order
//!   `LemmaIndex::build` walks the union catalog, so first-occurrence token
//!   ids match bit for bit), plus an IDF recount over the same stream;
//! - per segment, **refreshed documents** (TFIDF vectors recomputed from
//!   the remapped token ids against the global IDF — bitwise equal to the
//!   monolithic build's documents) and a dense global→local token map.
//!
//! This replay is pure integer/float work over stored sequences: no string
//! re-tokenization, and no segment file is ever touched.
//!
//! A probe then fans out over segments: per segment the query terms are
//! gathered in ascending **global** token order (upper bound = global IDF,
//! postings row = local), the shared overlap pass
//! ([`run_overlap`]) keeps that segment's top-`shortlist`
//! lemmas, and the per-segment shortlists merge under (overlap desc, global
//! lemma rank asc) — the exact order the monolithic pass uses, since a
//! lemma's monolithic id restricted to one [`RefKind`] is its per-kind rank.
//! Any lemma in the merged top-`shortlist` is necessarily in its own
//! segment's top-`shortlist`, so the merged set equals the monolithic
//! shortlist; cosine rescoring against the refreshed documents and the
//! owner dedup then reproduce the monolithic candidate list bit for bit
//! (asserted by `tests/segment_equivalence.rs` at 2/4/8 segments, and for
//! the whole annotation pipeline by `webtable-core`'s equivalence tests).
//!
//! ## Cross-segment pruning
//!
//! The fan-out visits segments in order on the calling thread and skips a
//! whole segment when the sum of its query-term upper bounds (the best
//! overlap any of its lemmas could reach) cannot beat the current merged
//! shortlist threshold — the same admissible bound WAND uses inside a
//! segment, with the same [`WAND_SAFETY`] float margin, so pruning never
//! changes results (later segments hold larger ranks and lose ties
//! anyway). [`probe_stats`](SegmentedIndex::probe_stats) counts the
//! segments probed and skipped.
//!
//! Candidate generation upstream probes this type only. At segment count 1
//! every call delegates straight to the inner [`LemmaIndex`] — no derived
//! state, no overhead, trivially bit-identical. The `*_with` probes run
//! under [`ProbeMode::Auto`]; the `*_mode` probes force one pass and are
//! the reference the equivalence suites compare WAND against.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use webtable_catalog::{Catalog, EntityId, TypeId};

use crate::engine::{SimEngine, StringSim, TextDoc};
use crate::index::{
    run_overlap, ExtendError, LemmaIndex, Match, ProbeMode, ProbeScratch, RefKind, WandTerm,
    WAND_SAFETY,
};
use crate::tfidf::{cosine, IdfTable};
use crate::tokenize::{normalize, to_sorted_set, Vocab};

/// Sentinel for "token absent" in local↔global token maps.
const UNSET: u32 = u32::MAX;

/// Per-segment state derived against the global engine (multi-segment only).
#[derive(Debug)]
struct SegDerived {
    /// Refreshed documents (global token ids, global IDF weights), indexed
    /// by local lemma index. Bitwise equal to the monolithic build's docs.
    docs: Vec<TextDoc>,
    /// Dense global token id → local token id ([`UNSET`] when the segment
    /// never saw the token).
    g2l: Vec<u32>,
    /// Number of entity lemmas (local lemma indices `0..entity_lemma_count`
    /// are entities — `LemmaIndex::build` pushes entities first).
    entity_lemma_count: u32,
}

/// Collection-wide query state (multi-segment only).
#[derive(Debug)]
struct GlobalState {
    /// Union vocabulary + IDF, identical to a monolithic build's engine.
    engine: SimEngine,
    per_seg: Vec<SegDerived>,
    /// Prefix sums of per-segment entity-lemma counts: segment `i`'s local
    /// entity lemma `li` has global per-kind rank `entity_rank_bases[i]+li`,
    /// which equals its monolithic lemma id.
    entity_rank_bases: Vec<u32>,
    /// Likewise for type lemmas (monolithic type-lemma *rank*; comparisons
    /// are always within one kind, where rank order = lemma-id order).
    type_rank_bases: Vec<u32>,
}

/// A catalog index sharded into contiguous segments. See the module docs.
#[derive(Debug)]
pub struct SegmentedIndex {
    segments: Vec<Arc<LemmaIndex>>,
    /// Prefix sums of per-segment entity counts (`len = segments + 1`):
    /// segment `i` owns global entities `[entity_bases[i], entity_bases[i+1])`.
    entity_bases: Vec<u32>,
    /// Prefix sums of per-segment type counts.
    type_bases: Vec<u32>,
    /// `None` iff there is exactly one segment (pure delegation).
    global: Option<GlobalState>,
    /// Segments actually probed by multi-segment fan-outs.
    segments_probed: AtomicU64,
    /// Segments skipped by the cross-segment upper-bound test.
    segments_skipped: AtomicU64,
    content_digest: u64,
}

impl SegmentedIndex {
    /// Wraps one monolithic index as a single-segment catalog. Every probe
    /// delegates to it directly; the content digest is the segment's own, so
    /// cache fingerprints (and warm caches restored from snapshots) carry
    /// over unchanged from the monolithic path.
    pub fn from_single(index: Arc<LemmaIndex>) -> SegmentedIndex {
        SegmentedIndex::from_segments(vec![index])
    }

    /// Assembles a segmented index from per-slice [`LemmaIndex`]es, in
    /// catalog order (segment `i`'s local entity 0 is global entity
    /// `Σ_{j<i} num_entities_j`, likewise types). With more than one segment
    /// this derives the global engine and refreshed per-segment state — see
    /// the module docs.
    pub fn from_segments(segments: Vec<Arc<LemmaIndex>>) -> SegmentedIndex {
        assert!(!segments.is_empty(), "a segmented index needs at least one segment");
        let mut entity_bases = Vec::with_capacity(segments.len() + 1);
        let mut type_bases = Vec::with_capacity(segments.len() + 1);
        entity_bases.push(0u32);
        type_bases.push(0u32);
        for seg in &segments {
            entity_bases.push(entity_bases.last().unwrap() + seg.num_indexed_entities() as u32);
            type_bases.push(type_bases.last().unwrap() + seg.num_indexed_types() as u32);
        }
        let global = if segments.len() > 1 { Some(derive_global(&segments)) } else { None };
        let content_digest = combined_digest(&segments);
        SegmentedIndex {
            segments,
            entity_bases,
            type_bases,
            global,
            segments_probed: AtomicU64::new(0),
            segments_skipped: AtomicU64::new(0),
            content_digest,
        }
    }

    /// Builds a catalog's index pre-split into `num_segments` contiguous
    /// slices (entities and types each split as evenly as possible).
    /// `num_segments = 1` is byte-identical to [`LemmaIndex::build`].
    pub fn build_split(cat: &Catalog, num_segments: usize, threads: usize) -> SegmentedIndex {
        let n = num_segments.max(1);
        let entities: Vec<&[String]> = cat.entity_ids().map(|e| cat.entity_lemmas(e)).collect();
        let types: Vec<&[String]> = cat.type_ids().map(|t| cat.type_lemmas(t)).collect();
        let e_chunk = entities.len().div_ceil(n).max(1);
        let t_chunk = types.len().div_ceil(n).max(1);
        let segments = (0..n)
            .map(|i| {
                let es = &entities
                    [(i * e_chunk).min(entities.len())..((i + 1) * e_chunk).min(entities.len())];
                let ts =
                    &types[(i * t_chunk).min(types.len())..((i + 1) * t_chunk).min(types.len())];
                Arc::new(LemmaIndex::build_from_lists(es, ts, threads))
            })
            .collect();
        SegmentedIndex::from_segments(segments)
    }

    /// Grows the index over an append-only catalog change by building **one
    /// new segment** over just the appended slice — no existing segment is
    /// rebuilt, re-persisted, or even re-read. The result's probes are
    /// bit-identical to a monolithic rebuild over `grown` (the global-state
    /// refresh recomputes every derived statistic; see the module docs).
    ///
    /// Returns [`ExtendError`] if `grown` is not an append-only superset of
    /// the catalog this index covers.
    pub fn append(&self, grown: &Catalog, threads: usize) -> Result<SegmentedIndex, ExtendError> {
        let base_entities = self.num_indexed_entities();
        let base_types = self.num_indexed_types();
        if grown.num_entities() < base_entities {
            return Err(ExtendError::BaseShrunk {
                what: "entities",
                base: base_entities,
                grown: grown.num_entities(),
            });
        }
        if grown.num_types() < base_types {
            return Err(ExtendError::BaseShrunk {
                what: "types",
                base: base_types,
                grown: grown.num_types(),
            });
        }
        self.verify_prefix(grown)?;
        let mut segments = self.segments.clone();
        if grown.num_entities() > base_entities || grown.num_types() > base_types {
            let entities: Vec<&[String]> = (base_entities..grown.num_entities())
                .map(|e| grown.entity_lemmas(EntityId(e as u32)))
                .collect();
            let types: Vec<&[String]> = (base_types..grown.num_types())
                .map(|t| grown.type_lemmas(TypeId(t as u32)))
                .collect();
            segments.push(Arc::new(LemmaIndex::build_from_lists(&entities, &types, threads)));
        }
        Ok(SegmentedIndex::from_segments(segments))
    }

    /// Checks that this index's covered slice is exactly the prefix of
    /// `grown`, comparing per-owner lemma counts and normalized text (the
    /// form every derived artifact is a function of).
    fn verify_prefix(&self, grown: &Catalog) -> Result<(), ExtendError> {
        for (si, seg) in self.segments.iter().enumerate() {
            for local in 0..seg.num_indexed_entities() as u32 {
                let global = EntityId(self.entity_bases[si] + local);
                seg_owner_check(
                    seg,
                    RefKind::Entity,
                    local,
                    grown.entity_lemmas(global),
                    global.0,
                )?;
            }
            for local in 0..seg.num_indexed_types() as u32 {
                let global = TypeId(self.type_bases[si] + local);
                seg_owner_check(seg, RefKind::Type, local, grown.type_lemmas(global), global.0)?;
            }
        }
        Ok(())
    }

    /// Verifies that this index covers exactly `cat` (count match + lemma
    /// text match on normalized form). The lemma-level check matters
    /// because two same-generator catalogs can share shape while naming
    /// entirely different things — a count-only check would attach the
    /// wrong index and serve nonsense without an error.
    pub fn verify_catalog(&self, cat: &Catalog) -> Result<(), String> {
        if self.num_indexed_entities() != cat.num_entities() {
            return Err(format!(
                "index covers {} entities, catalog has {}",
                self.num_indexed_entities(),
                cat.num_entities()
            ));
        }
        if self.num_indexed_types() != cat.num_types() {
            return Err(format!(
                "index covers {} types, catalog has {}",
                self.num_indexed_types(),
                cat.num_types()
            ));
        }
        self.verify_prefix(cat).map_err(|e| e.to_string())
    }

    /// Number of segments.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// The segments, in catalog order.
    pub fn segments(&self) -> &[Arc<LemmaIndex>] {
        &self.segments
    }

    /// Entities covered (sum over segments).
    pub fn num_indexed_entities(&self) -> usize {
        *self.entity_bases.last().unwrap() as usize
    }

    /// Types covered (sum over segments).
    pub fn num_indexed_types(&self) -> usize {
        *self.type_bases.last().unwrap() as usize
    }

    /// Total indexed lemmas (sum over segments).
    pub fn num_lemmas(&self) -> usize {
        self.segments.iter().map(|s| s.num_lemmas()).sum()
    }

    /// The collection-wide similarity engine: the single segment's own
    /// engine, or the derived global engine (identical to the monolithic
    /// build's) when sharded.
    pub fn engine(&self) -> &SimEngine {
        match &self.global {
            Some(g) => &g.engine,
            None => self.segments[0].engine(),
        }
    }

    /// `(probed, skipped)` segment counters accumulated by multi-segment
    /// fan-outs (a single-segment index never touches them).
    pub fn probe_stats(&self) -> (u64, u64) {
        (
            self.segments_probed.load(Ordering::Relaxed),
            self.segments_skipped.load(Ordering::Relaxed),
        )
    }

    /// Content digest: the inner index's digest for a single segment (so
    /// monolithic cache fingerprints carry over), a combined hash of the
    /// per-segment digests and slice bounds otherwise.
    pub fn content_digest(&self) -> u64 {
        self.content_digest
    }

    /// Prepares a query document (collection-wide statistics).
    pub fn doc(&self, text: &str) -> TextDoc {
        match &self.global {
            Some(g) => g.engine.doc(text),
            None => self.segments[0].doc(text),
        }
    }

    /// See [`LemmaIndex::entity_candidates_mode`]; fans out over segments.
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

    /// See [`LemmaIndex::type_candidates_mode`]; fans out over segments.
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

    /// [`ProbeMode::Auto`] convenience (see `entity_candidates_mode`).
    pub fn entity_candidates_with(
        &self,
        query: &TextDoc,
        k: usize,
        rescoring_factor: usize,
        scratch: &mut ProbeScratch,
    ) -> Vec<Match<EntityId>> {
        self.entity_candidates_mode(query, k, rescoring_factor, ProbeMode::Auto, scratch)
    }

    /// [`ProbeMode::Auto`] convenience (see `type_candidates_mode`).
    pub fn type_candidates_with(
        &self,
        query: &TextDoc,
        k: usize,
        rescoring_factor: usize,
        scratch: &mut ProbeScratch,
    ) -> Vec<Match<TypeId>> {
        self.type_candidates_mode(query, k, rescoring_factor, ProbeMode::Auto, scratch)
    }

    /// See [`LemmaIndex::entity_profile`]; routes to the owning segment.
    pub fn entity_profile(&self, query: &TextDoc, e: EntityId) -> StringSim {
        match &self.global {
            None => self.segments[0].entity_profile(query, e),
            Some(g) => {
                let si = locate(&self.entity_bases, e.raw());
                let seg = &self.segments[si];
                let local = e.raw() - self.entity_bases[si];
                best_profile(&g.engine, query, &g.per_seg[si].docs, seg.entity_lemma_row(local))
            }
        }
    }

    /// See [`LemmaIndex::type_profile`]; routes to the owning segment.
    pub fn type_profile(&self, query: &TextDoc, t: TypeId) -> StringSim {
        match &self.global {
            None => self.segments[0].type_profile(query, t),
            Some(g) => {
                let si = locate(&self.type_bases, t.raw());
                let seg = &self.segments[si];
                let local = t.raw() - self.type_bases[si];
                best_profile(&g.engine, query, &g.per_seg[si].docs, seg.type_lemma_row(local))
            }
        }
    }

    /// Leaves the top-`k` `(global owner, score)` pairs in `scratch.owners`.
    /// One segment delegates to it; several fan out: per-segment overlap
    /// shortlists merged under (overlap desc, global rank asc),
    /// cosine-rescored against refreshed docs, deduplicated to the best
    /// score per owner — exactly as the monolithic [`LemmaIndex`] pass
    /// would.
    ///
    /// Segments are visited in order, and a segment whose best-possible
    /// overlap (sum of its query-term upper bounds, with the
    /// [`WAND_SAFETY`] margin) cannot beat the current merged threshold is
    /// skipped entirely. Admissible for the same reason the WAND skip is —
    /// and ties are safe to skip because every lemma of a later segment has
    /// a larger global rank than every already-merged lemma, so at equal
    /// overlap it loses the tie-break anyway.
    fn owner_candidates(
        &self,
        query: &TextDoc,
        kind: RefKind,
        k: usize,
        rescoring_factor: usize,
        mode: ProbeMode,
        scratch: &mut ProbeScratch,
    ) {
        let Some(g) = &self.global else {
            let seg = &self.segments[0];
            return seg.owner_candidates(query, kind, k, rescoring_factor, mode, scratch);
        };
        let shortlist = k.saturating_mul(rescoring_factor).max(16);
        scratch.merged.clear();
        let mut threshold = f64::NEG_INFINITY;
        let mut probed = 0u64;
        let mut skipped = 0u64;
        for si in 0..self.segments.len() {
            let seg = &self.segments[si];
            let derived = &g.per_seg[si];
            let (bound, total_postings) =
                gather_terms(seg, derived, &g.engine, query, kind, scratch);
            if scratch.wand_terms.is_empty() {
                continue;
            }
            if scratch.merged.len() >= shortlist
                && shortlist > 0
                && bound * WAND_SAFETY <= threshold
            {
                skipped += 1;
                continue;
            }
            probed += 1;
            let postings = seg.postings(kind);
            run_overlap(postings, seg.num_lemmas(), shortlist, mode, total_postings, scratch);
            merge_hits(g, kind, si as u32, derived.entity_lemma_count, scratch);
            if scratch.merged.len() > shortlist && shortlist > 0 {
                scratch.merged.select_nth_unstable_by(shortlist - 1, |a, b| {
                    b.0.total_cmp(&a.0).then(a.1.cmp(&b.1))
                });
                scratch.merged.truncate(shortlist);
            }
            if scratch.merged.len() >= shortlist && shortlist > 0 {
                threshold = scratch.merged.iter().fold(f64::INFINITY, |worst, e| worst.min(e.0));
            }
        }
        self.segments_probed.fetch_add(probed, Ordering::Relaxed);
        self.segments_skipped.fetch_add(skipped, Ordering::Relaxed);
        // Rescore the merged shortlist by exact cosine against the refreshed
        // (= monolithic) documents, then reduce to best-per-owner.
        let mut merged = std::mem::take(&mut scratch.merged);
        for entry in merged.iter_mut() {
            let doc = &g.per_seg[entry.2 as usize].docs[entry.3 as usize];
            entry.0 = cosine(&query.vec, &doc.vec);
        }
        merged.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        let owner_bases = match kind {
            RefKind::Entity => &self.entity_bases,
            RefKind::Type => &self.type_bases,
        };
        let owners = &mut scratch.owners;
        owners.clear();
        owners.extend(merged.iter().map(|&(score, _, si, li)| {
            let owner = self.segments[si as usize].lemma_owner(li) + owner_bases[si as usize];
            (owner, score)
        }));
        scratch.merged = merged;
        owners.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(b.1.total_cmp(&a.1)));
        owners.dedup_by_key(|p| p.0);
        owners.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        owners.truncate(k);
    }
}

/// Gathers the query terms visible in one segment, in ascending **global**
/// token order: local posting-row bounds, global-IDF upper bounds, global
/// token ids (so WAND's tie sort and the exhaustive accumulation order both
/// match the monolithic pass bit for bit). Returns the segment's total
/// upper bound and posting volume.
fn gather_terms(
    seg: &LemmaIndex,
    derived: &SegDerived,
    engine: &SimEngine,
    query: &TextDoc,
    kind: RefKind,
    scratch: &mut ProbeScratch,
) -> (f64, usize) {
    let postings = seg.postings(kind);
    scratch.wand_terms.clear();
    let mut bound = 0.0f64;
    let mut total_postings = 0usize;
    for &tok in &query.token_set {
        if Vocab::is_oov(tok) {
            continue;
        }
        let local = derived.g2l[tok as usize];
        if local == UNSET {
            continue;
        }
        let (start, end) = postings.row_bounds(local);
        if start == end {
            continue;
        }
        let ub = engine.idf().idf(tok);
        bound += ub;
        total_postings += (end - start) as usize;
        scratch.wand_terms.push(WandTerm { tok, ub, start, end, pos: 0 });
    }
    (bound, total_postings)
}

/// Converts one segment's overlap shortlist (`scratch.hits`, local lemma
/// indices) into merge entries carrying the **global per-kind lemma rank**
/// (= the monolithic lemma id's order within the kind) for tie-breaking.
fn merge_hits(
    g: &GlobalState,
    kind: RefKind,
    si: u32,
    entity_lemma_count: u32,
    scratch: &mut ProbeScratch,
) {
    let (hits, merged) = (&scratch.hits, &mut scratch.merged);
    merged.extend(hits.iter().map(|&(li, overlap)| {
        let rank = match kind {
            RefKind::Entity => g.entity_rank_bases[si as usize] + li,
            RefKind::Type => g.type_rank_bases[si as usize] + (li - entity_lemma_count),
        };
        (overlap, rank, si, li)
    }));
}

/// Element-wise max profile over an owner's lemma documents.
fn best_profile(
    engine: &SimEngine,
    query: &TextDoc,
    docs: &[TextDoc],
    lemma_idxs: &[u32],
) -> StringSim {
    let mut best = StringSim::default();
    for &li in lemma_idxs {
        let p = engine.profile(query, &docs[li as usize]);
        best.max_with(&p);
    }
    best
}

/// Segment owning global id `id` under prefix-sum `bases` (`len = n + 1`).
fn locate(bases: &[u32], id: u32) -> usize {
    debug_assert!(id < *bases.last().unwrap());
    bases.partition_point(|&b| b <= id) - 1
}

/// One owner's slice-vs-index lemma check (append-only verification).
fn seg_owner_check(
    seg: &LemmaIndex,
    kind: RefKind,
    local: u32,
    texts: &[String],
    global_owner: u32,
) -> Result<(), ExtendError> {
    let (what, row) = match kind {
        RefKind::Entity => ("entity", seg.entity_lemma_row(local)),
        RefKind::Type => ("type", seg.type_lemma_row(local)),
    };
    if row.len() != texts.len() {
        return Err(ExtendError::BaseChanged {
            what,
            owner: global_owner,
            detail: format!("lemma count changed from {} to {}", row.len(), texts.len()),
        });
    }
    for (&li, text) in row.iter().zip(texts) {
        if seg.lemma_norm(li) != normalize(text) {
            return Err(ExtendError::BaseChanged {
                what,
                owner: global_owner,
                detail: format!("lemma {text:?} was reworded"),
            });
        }
    }
    Ok(())
}

/// Replays every segment's stored token sequences in monolithic build order
/// (entity lemmas across segments, then type lemmas), interning a union
/// vocabulary and recounting IDF. Pure integer/float work.
fn derive_global(segments: &[Arc<LemmaIndex>]) -> GlobalState {
    let n = segments.len();
    let entity_counts: Vec<u32> = segments.iter().map(|s| s.entity_lemma_total()).collect();
    let mut vocab = Vocab::new();
    let mut l2g: Vec<Vec<u32>> =
        segments.iter().map(|s| vec![UNSET; s.engine().vocab().len()]).collect();
    let mut rows: Vec<Vec<Vec<u32>>> =
        segments.iter().map(|s| vec![Vec::new(); s.num_lemmas()]).collect();

    let mut remap_row = |si: usize, li: u32| {
        let seg = &segments[si];
        let seg_vocab = seg.engine().vocab();
        let row: Vec<u32> = seg
            .lemma_token_row(li)
            .iter()
            .map(|&old| {
                let mapped = &mut l2g[si][old as usize];
                if *mapped == UNSET {
                    *mapped = vocab.intern(seg_vocab.word(old).expect("token id in vocab"));
                }
                *mapped
            })
            .collect();
        rows[si][li as usize] = row;
    };
    // Monolithic interning order: every segment's entity-lemma prefix in
    // segment order, then every segment's type-lemma suffix. (Entity ids are
    // partitioned contiguously across segments, so this is exactly the order
    // `LemmaIndex::build` walks the union catalog's lemmas.)
    for (si, &count) in entity_counts.iter().enumerate() {
        for li in 0..count {
            remap_row(si, li);
        }
    }
    for si in 0..n {
        for li in entity_counts[si]..segments[si].num_lemmas() as u32 {
            remap_row(si, li);
        }
    }

    // IDF recount over the same stream, as `SimEngineBuilder::freeze` would.
    let mut idf = IdfTable::new(vocab.len());
    for (si, seg_rows) in rows.iter().enumerate() {
        for row in seg_rows.iter().take(entity_counts[si] as usize) {
            idf.add_document(&to_sorted_set(row.clone()));
        }
    }
    for (si, seg_rows) in rows.iter().enumerate() {
        for row in seg_rows.iter().skip(entity_counts[si] as usize) {
            idf.add_document(&to_sorted_set(row.clone()));
        }
    }
    let engine = SimEngine::from_parts(vocab, idf);

    // Per-segment refresh: global→local token maps and documents rebuilt
    // from the remapped sequences against the global IDF — bitwise equal to
    // what a monolithic build would prepare for the same lemmas.
    let vocab_len = engine.vocab().len();
    let per_seg: Vec<SegDerived> = segments
        .iter()
        .enumerate()
        .map(|(si, seg)| {
            let mut g2l = vec![UNSET; vocab_len];
            for (local, &global) in l2g[si].iter().enumerate() {
                if global != UNSET {
                    g2l[global as usize] = local as u32;
                }
            }
            let docs: Vec<TextDoc> = (0..seg.num_lemmas() as u32)
                .map(|li| {
                    engine
                        .doc_from_token_ids(seg.lemma_norm(li).to_string(), &rows[si][li as usize])
                })
                .collect();
            SegDerived { docs, g2l, entity_lemma_count: entity_counts[si] }
        })
        .collect();

    let mut entity_rank_bases = Vec::with_capacity(n);
    let mut type_rank_bases = Vec::with_capacity(n);
    let (mut e_acc, mut t_acc) = (0u32, 0u32);
    for (si, seg) in segments.iter().enumerate() {
        entity_rank_bases.push(e_acc);
        type_rank_bases.push(t_acc);
        e_acc += entity_counts[si];
        t_acc += seg.num_lemmas() as u32 - entity_counts[si];
    }

    GlobalState { engine, per_seg, entity_rank_bases, type_rank_bases }
}

/// Digest rule described on [`SegmentedIndex::content_digest`].
fn combined_digest(segments: &[Arc<LemmaIndex>]) -> u64 {
    if segments.len() == 1 {
        return segments[0].content_digest();
    }
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    "webtable-segmented-index".hash(&mut h);
    segments.len().hash(&mut h);
    for seg in segments {
        seg.content_digest().hash(&mut h);
        seg.num_indexed_entities().hash(&mut h);
        seg.num_indexed_types().hash(&mut h);
    }
    h.finish()
}
