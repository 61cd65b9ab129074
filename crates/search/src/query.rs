//! Select-project query processing (§5, Figures 3 and 4).
//!
//! The query form: given `R, T1, T2, E2 ∈+ T2` with `R(T1, T2)` in the
//! catalog, return ranked `E1 ∈+ T1` such that `R(E1, E2)` holds.
//!
//! Three processors, each run through
//! [`SearchEngine::search`](crate::SearchEngine::search):
//! * `Query::Baseline` — Figure 3: all inputs interpreted as strings,
//!   tables matched by header/context text, answers are cell strings;
//! * `Query::Typed` with `use_relations = false` — Figure 4 restricted
//!   to column-type annotations;
//! * `Query::Typed` with `use_relations = true` — full Figure 4, using
//!   type and relation annotations and entity-annotated cells.
//!
//! The typed processor works outward from `E2`'s cells, as Figure 4 does:
//! it sorts them by (table, column, row), and for each of their tables in
//! ascending order finds that table's `T1`/`T2` columns (or its `R` pairs)
//! by binary search on the table id, so its cost follows how often `E2`
//! occurs, not how many columns carry `T1` or `T2`. The baseline merges
//! its two header-matched column lists on the table id. Both visit
//! (table, answer column, given column, row) in ascending order — the
//! order the sorted triples of a full scan gave — and every answer sums
//! its evidence in that visiting order, so scores are the same bits
//! whichever plan found the rows.

use webtable_catalog::{Catalog, EntityId, RelationId, TypeId};
use webtable_text::{to_sorted_set, tokenize};

use crate::corpus::AnnotatedCorpus;
use crate::index::{CellRef, ColRef, SearchIndex};

/// A select-project entity query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntityQuery {
    /// The relation `R`.
    pub relation: RelationId,
    /// Answer type `T1` (the relation's left/subject role).
    pub t1: TypeId,
    /// Given-side type `T2`.
    pub t2: TypeId,
    /// The given entity `E2 ∈+ T2`.
    pub e2: EntityId,
}

/// An answer: a resolved catalog entity (typed processors) or a raw cell
/// string (baseline / unannotated cells).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AnswerKey {
    /// A catalog entity.
    Entity(EntityId),
    /// A normalized (lowercased, trimmed) cell string.
    Text(String),
    /// A whole corpus table, by external [`webtable_tables::TableId`] value
    /// (table retrieval answers).
    Table(u64),
    /// A suggested table column (column population answers): a normalized
    /// header label plus the column's annotated type, when one is known.
    Column {
        /// Normalized (lowercased, trimmed) header label.
        label: String,
        /// Column-type annotation backing the suggestion, if any.
        ty: Option<TypeId>,
    },
}

/// One ranked answer.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedAnswer {
    /// The answer key.
    pub key: AnswerKey,
    /// Aggregated evidence score (higher = better).
    pub score: f64,
}

/// Ranks summed evidence deterministically (score desc, key asc).
fn rank(evidence: Vec<(AnswerKey, f64)>) -> Vec<RankedAnswer> {
    rank_bounded(evidence, usize::MAX)
}

/// Ranks scored keys deterministically (score desc, key asc) and keeps the
/// top `k`. Shared by the retrieval and augmentation processors, which all
/// carry an explicit result bound.
pub(crate) fn rank_bounded(
    evidence: impl IntoIterator<Item = (AnswerKey, f64)>,
    k: usize,
) -> Vec<RankedAnswer> {
    let mut out: Vec<RankedAnswer> =
        evidence.into_iter().map(|(key, score)| RankedAnswer { key, score }).collect();
    out.sort_unstable_by(|a, b| b.score.total_cmp(&a.score).then(a.key.cmp(&b.key)));
    out.truncate(k);
    out
}

/// Figure 3: the annotation-free baseline. All query parts become strings
/// (catalog names); tables qualify when *both* type strings match some
/// column header; `E2`'s string is sought in the `T2` column by token
/// overlap; the co-row `T1` cells are collected, clustered by normalized
/// text, and ranked by (context-boosted) frequency.
pub(crate) fn baseline_search_impl(
    catalog: &Catalog,
    index: &SearchIndex,
    corpus: &AnnotatedCorpus,
    q: &EntityQuery,
) -> Vec<RankedAnswer> {
    let t1_str = catalog.type_name(q.t1);
    let t2_str = catalog.type_name(q.t2);
    let r_str = catalog.relation_name(q.relation);
    let e2_tokens = to_sorted_set(
        tokenize(catalog.entity_name(q.e2)).into_iter().map(|t| hash_token(&t)).collect(),
    );

    // Columns whose headers match the type strings, sorted and distinct.
    let header_cols = |text: &str| -> Vec<ColRef> {
        let mut cols: Vec<ColRef> = tokenize(text)
            .iter()
            .flat_map(|tok| index.header_cols_with_token(tok))
            .copied()
            .collect();
        cols.sort_unstable();
        cols.dedup();
        cols
    };
    let t1_cols = header_cols(t1_str);
    let t2_cols = header_cols(t2_str);
    // Context matches for the relation string (a soft boost): a table
    // occurs once per matching token.
    let mut ctx_tables: Vec<u32> = tokenize(r_str)
        .iter()
        .flat_map(|tok| index.tables_with_context_token(tok))
        .copied()
        .collect();
    ctx_tables.sort_unstable();

    let mut evidence: Vec<(AnswerKey, f64)> = Vec::new();
    for cs1 in runs(&t1_cols, |&(t, _)| t) {
        let t = cs1[0].0;
        let cs2 = run_of(&t2_cols, t, |&(t, _)| t);
        if cs2.is_empty() {
            continue;
        }
        let table = &corpus.tables[t as usize];
        let boost = 1.0 + 0.5 * run_of(&ctx_tables, t, |&t| t).len() as f64;
        for &(_, c1) in cs1 {
            for &(_, c2) in cs2 {
                if c1 == c2 {
                    continue;
                }
                for row in &table.rows {
                    let cell2 = &row[c2 as usize];
                    let cell2_tokens = to_sorted_set(
                        tokenize(cell2).into_iter().map(|s| hash_token(&s)).collect(),
                    );
                    let overlap = webtable_text::sim::containment(&e2_tokens, &cell2_tokens);
                    if overlap < 0.6 {
                        continue;
                    }
                    let answer_text = row[c1 as usize].trim().to_lowercase();
                    if answer_text.is_empty() {
                        continue;
                    }
                    evidence.push((AnswerKey::Text(answer_text), boost * overlap));
                }
            }
        }
    }
    rank(sum_in_order(evidence))
}

/// Figure 4: the annotation-aware processor. With `use_relations = false`,
/// tables qualify through column-type annotations alone (`T1`, `T2`
/// columns in the same table); with `use_relations = true`, the pair must
/// additionally be annotated with `R` in the correct orientation. Shared
/// by the join processor. (The catalog is not needed here: the subtype
/// expansion lives in `SearchIndex::build`.)
pub(crate) fn typed_search_impl(
    index: &SearchIndex,
    corpus: &AnnotatedCorpus,
    q: &EntityQuery,
    use_relations: bool,
) -> Vec<RankedAnswer> {
    let t1_cols = index.columns_of_type(q.t1);
    let t2_cols = index.columns_of_type(q.t2);
    let pairs = index.pairs_of_relation(q.relation);
    let mut evidence: Vec<(AnswerKey, f64)> = Vec::new();
    for cells in runs(&by_column(index.cells_of_entity(q.e2)), |&(t, _, _)| t) {
        let t = cells[0].0;
        // Rows where the given column c2 holds E2, for answer column c1.
        let mut visit = |c1: u16, c2: u16| {
            for &(_, _, r) in run_of(cells, c2, |&(_, c, _)| c) {
                vote_row(index, corpus, t, r, c1, &mut evidence);
            }
        };
        if use_relations {
            for &(_, c1, c2) in run_of(pairs, t, |&(t, _, _)| t) {
                visit(c1, c2);
            }
        } else {
            let cs2 = run_of(t2_cols, t, |&(t, _)| t);
            for &(_, c1) in run_of(t1_cols, t, |&(t, _)| t) {
                for &(_, c2) in cs2 {
                    if c1 != c2 {
                        visit(c1, c2);
                    }
                }
            }
        }
    }
    rank(sum_in_order(evidence))
}

/// One vote for the answer cell `(r, c)` of table `t`: its entity, or its
/// normalized text when it has none (an empty cell casts no vote),
/// weighted by the annotator's confidence in the cell (§5: "aggregate
/// evidence in favor of known entities"). Shared by the typed and related
/// processors.
pub(crate) fn vote_row(
    index: &SearchIndex,
    corpus: &AnnotatedCorpus,
    t: u32,
    r: u32,
    c: u16,
    evidence: &mut Vec<(AnswerKey, f64)>,
) {
    let answer = match index.entity_at(t, r, c) {
        Some(e) => AnswerKey::Entity(e),
        None => {
            let text = corpus.tables[t as usize].cell(r as usize, c as usize).trim().to_lowercase();
            if text.is_empty() {
                return;
            }
            AnswerKey::Text(text)
        }
    };
    let ann = &corpus.annotations[t as usize];
    let conf = ann.cell_confidence.get(&(r as usize, c as usize)).copied().unwrap_or(0.0);
    evidence.push((answer, 1.0 + conf.min(2.0)));
}

/// An entity's cells as `(table, column, row)`, sorted: per table, the
/// rows of each column ascending.
pub(crate) fn by_column(cells: &[CellRef]) -> Vec<(u32, u16, u32)> {
    let mut out: Vec<(u32, u16, u32)> = cells.iter().map(|&(t, r, c)| (t, c, r)).collect();
    out.sort_unstable();
    out
}

/// The run of a sorted slice whose `key` equals `k` — a table's postings,
/// or a column's rows — found by binary search.
pub(crate) fn run_of<T, K: Ord>(items: &[T], k: K, key: impl Fn(&T) -> K) -> &[T] {
    let start = items.partition_point(|x| key(x) < k);
    let len = items[start..].partition_point(|x| key(x) <= k);
    &items[start..start + len]
}

/// Splits a sorted slice into its runs of equal `key`.
pub(crate) fn runs<'a, T, K: PartialEq>(
    mut items: &'a [T],
    key: impl Fn(&T) -> K + 'a,
) -> impl Iterator<Item = &'a [T]> + 'a {
    std::iter::from_fn(move || {
        let k = key(items.first()?);
        let len = items.iter().position(|x| key(x) != k).unwrap_or(items.len());
        let (run, rest) = items.split_at(len);
        items = rest;
        Some(run)
    })
}

/// Sums each key's contributions, from `0.0`, in the order they were
/// pushed (the sort is stable), so a score's bits follow the visiting
/// order alone. Keys come out ascending.
pub(crate) fn sum_in_order<K: Ord>(mut contributions: Vec<(K, f64)>) -> Vec<(K, f64)> {
    contributions.sort_by(|a, b| a.0.cmp(&b.0));
    let mut out: Vec<(K, f64)> = Vec::new();
    for (key, v) in contributions {
        match out.last_mut() {
            Some((last, sum)) if *last == key => *sum += v,
            _ => out.push((key, 0.0 + v)),
        }
    }
    out
}

/// Stable 32-bit FNV-1a hash for token-set overlap computations.
fn hash_token(s: &str) -> u32 {
    let mut h: u32 = 0x811c9dc5;
    for b in s.bytes() {
        h ^= b as u32;
        h = h.wrapping_mul(0x01000193);
    }
    h
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use webtable_catalog::{generate_world, WorldConfig};
    use webtable_core::Annotator;
    use webtable_tables::{NoiseConfig, TableGenerator, TruthMask};

    use super::*;

    fn searchable_world() -> (webtable_catalog::World, AnnotatedCorpus, SearchIndex) {
        let w = generate_world(&WorldConfig::tiny(5)).unwrap();
        let annotator = Annotator::new(Arc::clone(&w.catalog));
        let mut g = TableGenerator::new(&w, NoiseConfig::wiki(), TruthMask::full(), 61);
        let mut tables = Vec::new();
        for _ in 0..6 {
            tables.push(g.gen_table_for_relation(w.relations.directed, 10).table);
        }
        for _ in 0..4 {
            tables.push(g.gen_table_for_relation(w.relations.acted_in, 8).table);
        }
        let annotations =
            annotator.run(&webtable_core::AnnotateRequest::new(&tables).workers(2)).annotations;
        let corpus = AnnotatedCorpus::from_parts(tables, annotations);
        let index = SearchIndex::build(&corpus, &w.catalog);
        (w, corpus, index)
    }

    fn a_query(w: &webtable_catalog::World) -> EntityQuery {
        // Pick a director appearing in the corpus-generating relation.
        let rel = w.oracle.relation(w.relations.directed);
        let (_, e2) = rel.tuples[0];
        EntityQuery { relation: w.relations.directed, t1: w.types.movie, t2: w.types.director, e2 }
    }

    #[test]
    fn typed_search_returns_ranked_answers() {
        let (w, corpus, index) = searchable_world();
        let q = a_query(&w);
        let res = typed_search_impl(&index, &corpus, &q, true);
        // Ranking is sorted.
        for pair in res.windows(2) {
            assert!(pair[0].score >= pair[1].score);
        }
        let res2 = typed_search_impl(&index, &corpus, &q, true);
        assert_eq!(res, res2, "search must be deterministic");
    }

    #[test]
    fn typed_beats_nothing_when_relation_absent() {
        let (w, corpus, index) = searchable_world();
        // Query a relation the corpus never expresses: capital.
        let rel = w.oracle.relation(w.relations.capital);
        let Some(&(_, e2)) = rel.tuples.first() else { return };
        let q = EntityQuery {
            relation: w.relations.capital,
            t1: w.types.country,
            t2: w.types.city,
            e2,
        };
        let res = typed_search_impl(&index, &corpus, &q, true);
        assert!(res.is_empty(), "no annotated capital pairs exist: {res:?}");
    }

    #[test]
    fn baseline_returns_text_answers() {
        let (w, corpus, index) = searchable_world();
        let q = a_query(&w);
        let res = baseline_search_impl(&w.catalog, &index, &corpus, &q);
        for a in &res {
            assert!(matches!(a.key, AnswerKey::Text(_)), "baseline answers are strings");
        }
    }

    #[test]
    fn hash_token_is_stable() {
        assert_eq!(hash_token("film"), hash_token("film"));
        assert_ne!(hash_token("film"), hash_token("films"));
    }
}
