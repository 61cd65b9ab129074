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

use std::collections::{BTreeSet, HashMap};

use webtable_catalog::{Catalog, EntityId, RelationId, TypeId};
use webtable_text::{to_sorted_set, tokenize};

use crate::corpus::AnnotatedCorpus;
use crate::index::{ColRef, SearchIndex};

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

/// Ranks an evidence map deterministically (score desc, key asc).
fn rank(evidence: HashMap<AnswerKey, f64>) -> Vec<RankedAnswer> {
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

    // Column sets whose headers match the type strings, in key order so
    // every answer's evidence below is summed in one fixed order.
    let header_cols = |text: &str| -> BTreeSet<ColRef> {
        tokenize(text).iter().flat_map(|tok| index.header_cols_with_token(tok)).copied().collect()
    };
    let t1_cols = header_cols(t1_str);
    let t2_cols = header_cols(t2_str);
    // Context matches for the relation string (a soft boost).
    let mut ctx_tables: HashMap<u32, usize> = HashMap::new();
    for tok in tokenize(r_str) {
        for &t in index.tables_with_context_token(&tok) {
            *ctx_tables.entry(t).or_insert(0) += 1;
        }
    }

    let mut evidence: HashMap<AnswerKey, f64> = HashMap::new();
    for &(t, c1) in &t1_cols {
        for &(t2, c2) in &t2_cols {
            if t != t2 || c1 == c2 {
                continue;
            }
            let table = &corpus.tables[t as usize];
            let boost = 1.0 + 0.5 * *ctx_tables.get(&t).unwrap_or(&0) as f64;
            for row in &table.rows {
                let cell2 = &row[c2 as usize];
                let cell2_tokens =
                    to_sorted_set(tokenize(cell2).into_iter().map(|s| hash_token(&s)).collect());
                let overlap = webtable_text::sim::containment(&e2_tokens, &cell2_tokens);
                if overlap < 0.6 {
                    continue;
                }
                let answer_text = row[c1 as usize].trim().to_lowercase();
                if answer_text.is_empty() {
                    continue;
                }
                *evidence.entry(AnswerKey::Text(answer_text)).or_insert(0.0) += boost * overlap;
            }
        }
    }
    rank(evidence)
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
    // Qualifying (table, c1, c2) triples, c1 = answer column.
    let mut triples: Vec<(u32, u16, u16)> = Vec::new();
    if use_relations {
        for &(t, c_left, c_right) in index.pairs_of_relation(q.relation) {
            triples.push((t, c_left, c_right));
        }
    } else {
        let t1_cols = index.columns_of_type(q.t1);
        let t2_cols = index.columns_of_type(q.t2);
        let mut by_table: HashMap<u32, (Vec<u16>, Vec<u16>)> = HashMap::new();
        for &(t, c) in t1_cols {
            by_table.entry(t).or_default().0.push(c);
        }
        for &(t, c) in t2_cols {
            by_table.entry(t).or_default().1.push(c);
        }
        for (t, (cs1, cs2)) in by_table {
            for &c1 in &cs1 {
                for &c2 in &cs2 {
                    if c1 != c2 {
                        triples.push((t, c1, c2));
                    }
                }
            }
        }
        triples.sort_unstable();
    }

    // Rows where the c2 cell is annotated with E2.
    let e2_cells: HashMap<(u32, u16), Vec<u32>> = {
        let mut m: HashMap<(u32, u16), Vec<u32>> = HashMap::new();
        for &(t, r, c) in index.cells_of_entity(q.e2) {
            m.entry((t, c)).or_default().push(r);
        }
        m
    };

    let mut evidence: HashMap<AnswerKey, f64> = HashMap::new();
    for (t, c1, c2) in triples {
        let Some(rows) = e2_cells.get(&(t, c2)) else { continue };
        let table = &corpus.tables[t as usize];
        let ann = &corpus.annotations[t as usize];
        for &r in rows {
            let key = (r as usize, c1 as usize);
            let answer = match ann.cell_entities.get(&key).copied().flatten() {
                Some(e1) => AnswerKey::Entity(e1),
                None => {
                    let text = table.cell(r as usize, c1 as usize).trim().to_lowercase();
                    if text.is_empty() {
                        continue;
                    }
                    AnswerKey::Text(text)
                }
            };
            // Evidence: one vote per supporting row, weighted by the
            // annotator's confidence in the answer cell (§5: "aggregate
            // evidence in favor of known entities").
            let conf = ann.cell_confidence.get(&key).copied().unwrap_or(0.0);
            *evidence.entry(answer).or_insert(0.0) += 1.0 + conf.min(2.0);
        }
    }
    rank(evidence)
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
