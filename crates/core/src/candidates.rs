//! Candidate-space construction (§4.3).
//!
//! For each cell `(r, c)` the lemma index proposes candidate entities
//! `E_rc`; the space of column labels is `⋃_{E ∈ E_rc} T(E)` pruned to the
//! best `type_k`; the space of relation labels for a column pair is the set
//! of relations holding between candidate entities of the same row, in
//! either orientation. Every variable additionally admits the label `na` at
//! domain index 0.
//!
//! Construction is the pipeline's hot phase (~80% of annotation time,
//! Fig. 7), so it is built to be allocation-light: a [`CandidateScratch`]
//! carries the index probe scratch, a per-table cell memo (real web tables
//! repeat the same country/team/year strings across rows — each distinct
//! cell text is tokenized, probed and profiled exactly once), and reusable
//! sorted dedup buffers. Batch workers hold one scratch each.

use std::collections::HashMap;

use webtable_catalog::{Catalog, EntityId, RelationId, TypeId};
use webtable_tables::Table;
use webtable_text::{ProbeScratch, SegmentedIndex, StringSim, TextDoc};

use crate::cache::CellCandidateCache;
use crate::config::AnnotatorConfig;

/// A relation label with orientation: `reversed == false` means column `c1`
/// holds the relation's left (first schema) type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RelLabel {
    /// The catalog relation.
    pub rel: RelationId,
    /// True if the columns appear in (right, left) order.
    pub reversed: bool,
}

/// Candidates for one cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellCandidates {
    /// Candidate entities, best-first.
    pub entities: Vec<EntityId>,
    /// `f1` similarity profiles, parallel to `entities`.
    pub profiles: Vec<StringSim>,
}

/// Candidates for one column.
#[derive(Debug, Clone)]
pub struct ColumnCandidates {
    /// Candidate types, best-first after pruning.
    pub types: Vec<TypeId>,
    /// `f2` header similarity profiles, parallel to `types` (zero profile
    /// when the column has no header).
    pub header_profiles: Vec<StringSim>,
}

/// Candidates for one column pair that is "likely to be related".
#[derive(Debug, Clone)]
pub struct PairCandidates {
    /// First column (smaller index).
    pub c1: usize,
    /// Second column.
    pub c2: usize,
    /// Candidate relation labels.
    pub rels: Vec<RelLabel>,
}

/// All candidate sets for a table.
#[derive(Debug, Clone)]
pub struct TableCandidates {
    /// Per cell, row-major `[r][c]`.
    pub cells: Vec<Vec<CellCandidates>>,
    /// Per column.
    pub columns: Vec<ColumnCandidates>,
    /// Column pairs with at least one candidate relation.
    pub pairs: Vec<PairCandidates>,
}

/// Reusable worker state for [`TableCandidates::build_with_scratch`]:
/// the index probe scratch, the per-table cell-text memo, and sorted
/// dedup buffers. One per worker; cleared per table.
#[derive(Debug, Default)]
pub struct CandidateScratch {
    probe: ProbeScratch,
    /// `Arc`ed so memo/cache sharing bumps a refcount; the one deep copy
    /// per cell happens when the value lands in the table's cell grid.
    cell_memo: HashMap<String, std::sync::Arc<CellCandidates>>,
    seen_types: Vec<TypeId>,
    seen_rels: Vec<RelLabel>,
}

impl CandidateScratch {
    /// Creates an empty scratch; buffers grow lazily to steady state.
    pub fn new() -> CandidateScratch {
        CandidateScratch::default()
    }
}

impl TableCandidates {
    /// Builds candidate sets for a table (one-shot convenience; batch
    /// callers should reuse a scratch via
    /// [`build_with_scratch`](TableCandidates::build_with_scratch)).
    pub fn build(
        catalog: &Catalog,
        index: &SegmentedIndex,
        table: &Table,
        cfg: &AnnotatorConfig,
    ) -> TableCandidates {
        TableCandidates::build_with_scratch(
            catalog,
            index,
            table,
            cfg,
            &mut CandidateScratch::new(),
        )
    }

    /// Builds candidate sets for a table, reusing worker scratch buffers.
    pub fn build_with_scratch(
        catalog: &Catalog,
        index: &SegmentedIndex,
        table: &Table,
        cfg: &AnnotatorConfig,
        scratch: &mut CandidateScratch,
    ) -> TableCandidates {
        TableCandidates::build_cached(catalog, index, table, cfg, scratch, None)
    }

    /// [`build_with_scratch`](TableCandidates::build_with_scratch) with an
    /// optional cross-table candidate cache. Lookup order per cell: the
    /// per-table memo (no lock), then the shared cache (keyed by the cell's
    /// *normalized* text — the exact normalization [`SegmentedIndex::doc`]
    /// applies, so the key determines the result), then a fresh probe whose
    /// result feeds both layers. Output is identical with or without a
    /// cache; only the work performed changes.
    pub fn build_cached(
        catalog: &Catalog,
        index: &SegmentedIndex,
        table: &Table,
        cfg: &AnnotatorConfig,
        scratch: &mut CandidateScratch,
        cache: Option<&CellCandidateCache>,
    ) -> TableCandidates {
        let m = table.num_rows();
        let n = table.num_cols();
        let cache = cache.filter(|c| c.is_enabled());

        // --- cells (memoized per distinct cell text) ---
        scratch.cell_memo.clear();
        let mut cells: Vec<Vec<CellCandidates>> = Vec::with_capacity(m);
        for r in 0..m {
            let mut row = Vec::with_capacity(n);
            for c in 0..n {
                let text = table.cell(r, c);
                if let Some(hit) = scratch.cell_memo.get(text) {
                    row.push(CellCandidates::clone(hit));
                    continue;
                }
                let cc: std::sync::Arc<CellCandidates> = match cache {
                    Some(cache) => {
                        // The same normalization `index.doc` applies, so
                        // key equality implies an identical candidate set.
                        let key = webtable_text::normalize(text);
                        match cache.get(&key) {
                            Some(hit) => hit,
                            None => {
                                let cc = std::sync::Arc::new(cell_candidates(
                                    index,
                                    text,
                                    cfg,
                                    &mut scratch.probe,
                                ));
                                cache.insert(key, std::sync::Arc::clone(&cc));
                                cc
                            }
                        }
                    }
                    None => {
                        std::sync::Arc::new(cell_candidates(index, text, cfg, &mut scratch.probe))
                    }
                };
                row.push(CellCandidates::clone(&cc));
                scratch.cell_memo.insert(text.to_string(), cc);
            }
            cells.push(row);
        }

        // --- columns ---
        let mut columns = Vec::with_capacity(n);
        for c in 0..n {
            let header_doc = table.header(c).map(|h| index.doc(h));
            columns.push(column_candidates(
                catalog,
                index,
                &cells,
                c,
                header_doc.as_ref(),
                cfg,
                scratch,
            ));
        }

        // --- pairs ---
        let mut pairs = Vec::new();
        for c1 in 0..n {
            for c2 in (c1 + 1)..n {
                if let Some(p) =
                    pair_candidates(catalog, &cells, c1, c2, cfg.relation_k, &mut scratch.seen_rels)
                {
                    pairs.push(p);
                }
            }
        }

        TableCandidates { cells, columns, pairs }
    }

    /// Mean number of entity candidates over non-empty cells (the paper
    /// reports 7–8 on its corpora, §6.1.1).
    pub fn mean_entity_candidates(&self) -> f64 {
        let mut total = 0usize;
        let mut cnt = 0usize;
        for row in &self.cells {
            for cell in row {
                if !cell.entities.is_empty() {
                    total += cell.entities.len();
                    cnt += 1;
                }
            }
        }
        if cnt == 0 {
            0.0
        } else {
            total as f64 / cnt as f64
        }
    }
}

fn cell_candidates(
    index: &SegmentedIndex,
    text: &str,
    cfg: &AnnotatorConfig,
    probe: &mut ProbeScratch,
) -> CellCandidates {
    let doc = index.doc(text);
    if doc.token_set.is_empty() {
        return CellCandidates { entities: Vec::new(), profiles: Vec::new() };
    }
    let matches = index.entity_candidates_with(&doc, cfg.entity_k, cfg.rescoring_factor, probe);
    let mut entities = Vec::with_capacity(matches.len());
    let mut profiles = Vec::with_capacity(matches.len());
    for m in matches {
        if m.score < cfg.min_candidate_score {
            continue; // only stop-ish token overlap with any lemma
        }
        entities.push(m.id);
        profiles.push(index.entity_profile(&doc, m.id));
    }
    CellCandidates { entities, profiles }
}

#[allow(clippy::too_many_arguments)]
fn column_candidates(
    catalog: &Catalog,
    index: &SegmentedIndex,
    cells: &[Vec<CellCandidates>],
    c: usize,
    header_doc: Option<&TextDoc>,
    cfg: &AnnotatorConfig,
    scratch: &mut CandidateScratch,
) -> ColumnCandidates {
    // Coverage: how many cells have a candidate entity inside each type.
    let mut coverage: HashMap<TypeId, u32> = HashMap::new();
    for row in cells.iter() {
        let cell = &row[c];
        let seen = &mut scratch.seen_types;
        seen.clear();
        for &e in &cell.entities {
            seen.extend_from_slice(catalog.types_of(e));
        }
        seen.sort_unstable();
        seen.dedup();
        for &t in seen.iter() {
            *coverage.entry(t).or_insert(0) += 1;
        }
    }
    // Header text can also propose types directly (e.g. header "Film" when
    // no cell disambiguates).
    if let Some(h) = header_doc {
        for m in index.type_candidates_with(h, 8, cfg.rescoring_factor, &mut scratch.probe) {
            coverage.entry(m.id).or_insert(0);
        }
    }
    // The full header profile is computed once per coverage type and reused
    // for the surviving types' `header_profiles`.
    let mut scored: Vec<(TypeId, u32, StringSim, f64)> = coverage
        .into_iter()
        .map(|(t, cov)| {
            let profile = header_doc.map(|h| index.type_profile(h, t)).unwrap_or_default();
            (t, cov, profile, catalog.specificity(t))
        })
        .collect();
    // Primary: coverage; then header similarity; then specificity (favor
    // narrow types); id for determinism.
    scored.sort_unstable_by(|a, b| {
        b.1.cmp(&a.1)
            .then(b.2.tfidf_cosine.total_cmp(&a.2.tfidf_cosine))
            .then(b.3.total_cmp(&a.3))
            .then(a.0.cmp(&b.0))
    });
    scored.truncate(cfg.type_k);
    let types: Vec<TypeId> = scored.iter().map(|&(t, ..)| t).collect();
    let header_profiles: Vec<StringSim> = match header_doc {
        Some(_) => scored.iter().map(|&(_, _, p, _)| p).collect(),
        None => vec![StringSim::default(); types.len()],
    };
    ColumnCandidates { types, header_profiles }
}

fn pair_candidates(
    catalog: &Catalog,
    cells: &[Vec<CellCandidates>],
    c1: usize,
    c2: usize,
    k: usize,
    seen_this_row: &mut Vec<RelLabel>,
) -> Option<PairCandidates> {
    let mut support: HashMap<RelLabel, u32> = HashMap::new();
    for row in cells.iter() {
        let (a, b) = (&row[c1], &row[c2]);
        seen_this_row.clear();
        for &e1 in &a.entities {
            for &e2 in &b.entities {
                for &rel in catalog.relations_between(e1, e2) {
                    seen_this_row.push(RelLabel { rel, reversed: false });
                }
                for &rel in catalog.relations_between(e2, e1) {
                    seen_this_row.push(RelLabel { rel, reversed: true });
                }
            }
        }
        seen_this_row.sort_unstable();
        seen_this_row.dedup();
        for &l in seen_this_row.iter() {
            *support.entry(l).or_insert(0) += 1;
        }
    }
    if support.is_empty() {
        return None;
    }
    let mut scored: Vec<(RelLabel, u32)> = support.into_iter().collect();
    scored.sort_unstable_by(|a, b| {
        b.1.cmp(&a.1).then(a.0.rel.cmp(&b.0.rel)).then(a.0.reversed.cmp(&b.0.reversed))
    });
    scored.truncate(k);
    Some(PairCandidates { c1, c2, rels: scored.into_iter().map(|(l, _)| l).collect() })
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use webtable_catalog::{generate_world, WorldConfig};
    use webtable_tables::{NoiseConfig, TableGenerator, TruthMask};

    use super::*;

    /// The pre-optimization candidate builder, kept verbatim as the
    /// equivalence oracle: no cell memo, fresh probe scratch per query,
    /// `Vec::contains` dedup, header profiles computed twice.
    mod reference {
        use super::*;

        pub fn build(
            catalog: &Catalog,
            index: &SegmentedIndex,
            table: &Table,
            cfg: &AnnotatorConfig,
        ) -> TableCandidates {
            let m = table.num_rows();
            let n = table.num_cols();
            let mut cells: Vec<Vec<CellCandidates>> = Vec::with_capacity(m);
            for r in 0..m {
                let mut row = Vec::with_capacity(n);
                for c in 0..n {
                    row.push(cell_candidates(index, table.cell(r, c), cfg));
                }
                cells.push(row);
            }
            let mut columns = Vec::with_capacity(n);
            for c in 0..n {
                let header_doc = table.header(c).map(|h| index.doc(h));
                columns.push(column_candidates(
                    catalog,
                    index,
                    &cells,
                    c,
                    header_doc.as_ref(),
                    cfg,
                ));
            }
            let mut pairs = Vec::new();
            for c1 in 0..n {
                for c2 in (c1 + 1)..n {
                    if let Some(p) = pair_candidates(catalog, &cells, c1, c2, cfg.relation_k) {
                        pairs.push(p);
                    }
                }
            }
            TableCandidates { cells, columns, pairs }
        }

        fn cell_candidates(
            index: &SegmentedIndex,
            text: &str,
            cfg: &AnnotatorConfig,
        ) -> CellCandidates {
            let doc = index.doc(text);
            if doc.token_set.is_empty() {
                return CellCandidates { entities: Vec::new(), profiles: Vec::new() };
            }
            let matches = index.entity_candidates_with(
                &doc,
                cfg.entity_k,
                cfg.rescoring_factor,
                &mut ProbeScratch::new(),
            );
            let mut entities = Vec::with_capacity(matches.len());
            let mut profiles = Vec::with_capacity(matches.len());
            for m in matches {
                if m.score < cfg.min_candidate_score {
                    continue;
                }
                entities.push(m.id);
                profiles.push(index.entity_profile(&doc, m.id));
            }
            CellCandidates { entities, profiles }
        }

        fn column_candidates(
            catalog: &Catalog,
            index: &SegmentedIndex,
            cells: &[Vec<CellCandidates>],
            c: usize,
            header_doc: Option<&TextDoc>,
            cfg: &AnnotatorConfig,
        ) -> ColumnCandidates {
            let mut coverage: HashMap<TypeId, u32> = HashMap::new();
            for row in cells.iter() {
                let cell = &row[c];
                let mut seen: Vec<TypeId> = Vec::new();
                for &e in &cell.entities {
                    for &t in catalog.types_of(e) {
                        if !seen.contains(&t) {
                            seen.push(t);
                        }
                    }
                }
                for t in seen {
                    *coverage.entry(t).or_insert(0) += 1;
                }
            }
            if let Some(h) = header_doc {
                let ms = index.type_candidates_with(
                    h,
                    8,
                    cfg.rescoring_factor,
                    &mut ProbeScratch::new(),
                );
                for m in ms {
                    coverage.entry(m.id).or_insert(0);
                }
            }
            let mut scored: Vec<(TypeId, u32, f64, f64)> = coverage
                .into_iter()
                .map(|(t, cov)| {
                    let header_sim =
                        header_doc.map(|h| index.type_profile(h, t).tfidf_cosine).unwrap_or(0.0);
                    (t, cov, header_sim, catalog.specificity(t))
                })
                .collect();
            scored.sort_unstable_by(|a, b| {
                b.1.cmp(&a.1)
                    .then(b.2.total_cmp(&a.2))
                    .then(b.3.total_cmp(&a.3))
                    .then(a.0.cmp(&b.0))
            });
            scored.truncate(cfg.type_k);
            let types: Vec<TypeId> = scored.iter().map(|&(t, ..)| t).collect();
            let header_profiles: Vec<StringSim> = match header_doc {
                Some(h) => types.iter().map(|&t| index.type_profile(h, t)).collect(),
                None => vec![StringSim::default(); types.len()],
            };
            ColumnCandidates { types, header_profiles }
        }

        fn pair_candidates(
            catalog: &Catalog,
            cells: &[Vec<CellCandidates>],
            c1: usize,
            c2: usize,
            k: usize,
        ) -> Option<PairCandidates> {
            let mut support: HashMap<RelLabel, u32> = HashMap::new();
            for row in cells.iter() {
                let (a, b) = (&row[c1], &row[c2]);
                let mut seen_this_row: Vec<RelLabel> = Vec::new();
                for &e1 in &a.entities {
                    for &e2 in &b.entities {
                        for &rel in catalog.relations_between(e1, e2) {
                            let l = RelLabel { rel, reversed: false };
                            if !seen_this_row.contains(&l) {
                                seen_this_row.push(l);
                            }
                        }
                        for &rel in catalog.relations_between(e2, e1) {
                            let l = RelLabel { rel, reversed: true };
                            if !seen_this_row.contains(&l) {
                                seen_this_row.push(l);
                            }
                        }
                    }
                }
                for l in seen_this_row {
                    *support.entry(l).or_insert(0) += 1;
                }
            }
            if support.is_empty() {
                return None;
            }
            let mut scored: Vec<(RelLabel, u32)> = support.into_iter().collect();
            scored.sort_unstable_by(|a, b| {
                b.1.cmp(&a.1).then(a.0.rel.cmp(&b.0.rel)).then(a.0.reversed.cmp(&b.0.reversed))
            });
            scored.truncate(k);
            Some(PairCandidates { c1, c2, rels: scored.into_iter().map(|(l, _)| l).collect() })
        }
    }

    /// Field-wise equality: ids, order, and bit-exact scores/profiles.
    fn assert_candidates_equal(got: &TableCandidates, want: &TableCandidates) {
        assert_eq!(got.cells.len(), want.cells.len());
        for (gr, wr) in got.cells.iter().zip(&want.cells) {
            for (g, w) in gr.iter().zip(wr) {
                assert_eq!(g.entities, w.entities);
                assert_eq!(g.profiles, w.profiles);
            }
        }
        assert_eq!(got.columns.len(), want.columns.len());
        for (g, w) in got.columns.iter().zip(&want.columns) {
            assert_eq!(g.types, w.types);
            assert_eq!(g.header_profiles, w.header_profiles);
        }
        assert_eq!(got.pairs.len(), want.pairs.len());
        for (g, w) in got.pairs.iter().zip(&want.pairs) {
            assert_eq!((g.c1, g.c2, &g.rels), (w.c1, w.c2, &w.rels));
        }
    }

    fn equivalence_world() -> &'static (webtable_catalog::World, SegmentedIndex) {
        static WORLD: std::sync::OnceLock<(webtable_catalog::World, SegmentedIndex)> =
            std::sync::OnceLock::new();
        WORLD.get_or_init(|| {
            let w = generate_world(&WorldConfig::tiny(5)).unwrap();
            let idx = SegmentedIndex::build_split(&w.catalog, 1, 0);
            (w, idx)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn optimized_build_matches_reference(
            seed in 0u64..1000,
            noise_sel in 0usize..3,
            rows in 2usize..12,
            entity_k in 2usize..10,
            rescoring_factor in 1usize..8,
        ) {
            let (w, index) = equivalence_world();
            let noise = [NoiseConfig::clean(), NoiseConfig::web(), NoiseConfig::wiki()]
                [noise_sel]
                .clone();
            let mut g = TableGenerator::new(w, noise, TruthMask::full(), seed);
            let lt = g.gen_table(rows);
            let cfg = AnnotatorConfig { entity_k, rescoring_factor, ..Default::default() };
            // The same scratch serves consecutive tables without bleed-over.
            let mut scratch = CandidateScratch::new();
            let fast =
                TableCandidates::build_with_scratch(&w.catalog, index, &lt.table, &cfg, &mut scratch);
            let naive = reference::build(&w.catalog, index, &lt.table, &cfg);
            assert_candidates_equal(&fast, &naive);
            let again =
                TableCandidates::build_with_scratch(&w.catalog, index, &lt.table, &cfg, &mut scratch);
            assert_candidates_equal(&again, &naive);
        }
    }

    #[test]
    fn cell_memo_returns_identical_candidates_for_duplicate_cells() {
        let (w, index) = equivalence_world();
        let name = w.catalog.entity_name(w.catalog.entity_ids().next().unwrap()).to_string();
        let table = webtable_tables::Table::new(
            webtable_tables::TableId(7),
            "dup",
            vec![Some("name".into()), Some("name again".into())],
            vec![
                vec![name.clone(), name.clone()],
                vec![name.clone(), "something else".into()],
                vec![name.clone(), name.clone()],
            ],
        );
        let cfg = AnnotatorConfig::default();
        let cands = TableCandidates::build(&w.catalog, index, &table, &cfg);
        let first = &cands.cells[0][0];
        assert!(!first.entities.is_empty(), "a real entity name must have candidates");
        for (r, c) in [(0usize, 1usize), (1, 0), (2, 0), (2, 1)] {
            assert_eq!(first.entities, cands.cells[r][c].entities, "cell ({r},{c})");
            assert_eq!(first.profiles, cands.cells[r][c].profiles, "cell ({r},{c})");
        }
        // And the memoized path agrees with the unmemoized reference.
        let naive = reference::build(&w.catalog, index, &table, &cfg);
        assert_candidates_equal(&cands, &naive);
    }

    #[test]
    fn candidates_cover_ground_truth_on_clean_tables() {
        let w = generate_world(&WorldConfig::tiny(5)).unwrap();
        let index = SegmentedIndex::build_split(&w.catalog, 1, 0);
        let mut g = TableGenerator::new(&w, NoiseConfig::clean(), TruthMask::full(), 3);
        let cfg = AnnotatorConfig::default();
        let lt = g.gen_table(8);
        let cands = TableCandidates::build(&w.catalog, &index, &lt.table, &cfg);
        let mut covered = 0usize;
        let mut total = 0usize;
        for (&(r, c), gold) in &lt.truth.cell_entities {
            if let Some(e) = gold {
                total += 1;
                if cands.cells[r][c].entities.contains(e) {
                    covered += 1;
                }
            }
        }
        assert!(total > 0);
        assert!(
            covered * 10 >= total * 8,
            "clean mentions should usually contain gold: {covered}/{total}"
        );
    }

    #[test]
    fn type_space_is_union_of_candidate_ancestors() {
        let w = generate_world(&WorldConfig::tiny(5)).unwrap();
        let index = SegmentedIndex::build_split(&w.catalog, 1, 0);
        let mut g = TableGenerator::new(&w, NoiseConfig::clean(), TruthMask::full(), 4);
        let cfg = AnnotatorConfig::default();
        let lt = g.gen_table_for_relation(w.relations.directed, 10);
        let cands = TableCandidates::build(&w.catalog, &index, &lt.table, &cfg);
        // The gold column type should be among the pruned candidates for
        // its column.
        for (&c, gold) in &lt.truth.column_types {
            if let Some(t) = gold {
                assert!(
                    cands.columns[c].types.contains(t),
                    "column {c} lost gold type {} in pruning",
                    w.catalog.type_name(*t)
                );
            }
        }
    }

    #[test]
    fn pair_candidates_find_the_generating_relation() {
        let w = generate_world(&WorldConfig::tiny(5)).unwrap();
        let index = SegmentedIndex::build_split(&w.catalog, 1, 0);
        let mut g = TableGenerator::new(&w, NoiseConfig::clean(), TruthMask::full(), 5);
        let cfg = AnnotatorConfig::default();
        let lt = g.gen_table_for_relation(w.relations.plays_for, 8);
        let cands = TableCandidates::build(&w.catalog, &index, &lt.table, &cfg);
        let found =
            cands.pairs.iter().any(|p| p.rels.iter().any(|l| l.rel == w.relations.plays_for));
        assert!(found, "playsFor must be proposed for some pair: {:?}", cands.pairs);
    }

    #[test]
    fn empty_cells_get_no_candidates() {
        let w = generate_world(&WorldConfig::tiny(5)).unwrap();
        let index = SegmentedIndex::build_split(&w.catalog, 1, 0);
        let cfg = AnnotatorConfig::default();
        let table = webtable_tables::Table::new(
            webtable_tables::TableId(0),
            "",
            vec![None, None],
            vec![vec!["".into(), "12.5".into()]],
        );
        let cands = TableCandidates::build(&w.catalog, &index, &table, &cfg);
        assert!(cands.cells[0][0].entities.is_empty());
        // Numeric cells rarely match lemmas; candidates may exist but the
        // structure must still be sane.
        assert_eq!(cands.cells[0].len(), 2);
    }

    #[test]
    fn candidate_counts_respect_k() {
        let w = generate_world(&WorldConfig::tiny(5)).unwrap();
        let index = SegmentedIndex::build_split(&w.catalog, 1, 0);
        let cfg = AnnotatorConfig { entity_k: 3, type_k: 5, ..Default::default() };
        let mut g = TableGenerator::new(&w, NoiseConfig::web(), TruthMask::full(), 6);
        let lt = g.gen_table(10);
        let cands = TableCandidates::build(&w.catalog, &index, &lt.table, &cfg);
        for row in &cands.cells {
            for cell in row {
                assert!(cell.entities.len() <= 3);
            }
        }
        for col in &cands.columns {
            assert!(col.types.len() <= 5);
        }
    }
}
