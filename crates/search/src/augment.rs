//! Table augmentation: row population, column population, and
//! entity-relationship queries over the annotated corpus.
//!
//! These are the augmentation tasks the Zhang & Balog survey names as the
//! downstream payoff of table annotation. All three processors run over
//! the cell-level [`SearchIndex`] — no extra index is needed, because
//! `cells_of_entity` / `pairs_of_relation` already give the entity→cell
//! and relation→column-pair maps, and the corpus's annotation store
//! ([`AnnotatedCorpus`]) gives each cell's entity and each column's type.
//!
//! * [`populate_rows`] — given seed entities from a partial table's key
//!   column, find corpus columns containing the seeds and vote for the
//!   *other* entities those columns contain, boosting candidates that are
//!   instances of the seed columns' dominant annotated type.
//! * [`populate_columns`] — given the same seeds, find tables whose
//!   columns contain them and vote for those tables' *other* columns,
//!   keyed by normalized header label plus annotated type.
//! * [`related_search`] — answer "what is related to E via R?" directly
//!   over relation-annotated column pairs, in either orientation.
//!
//! Each starts from its most selective postings: the seeds' cells, or the
//! query entity's. The population processors collect the seed columns as
//! a sorted `(table, column, distinct seeds)` list and sum every
//! candidate's evidence in (table, column, row) order, so a score does
//! not depend on hash order (with three seeds, supports of 1/3 and 2/3
//! sum to different bits in different orders). [`related_search`] visits
//! only the entity's tables, finds each one's relation pairs by binary
//! search, and adds its votes in the order a scan of every pair gave.

use webtable_catalog::{Catalog, EntityId, RelationId, TypeId};

use crate::corpus::AnnotatedCorpus;
use crate::index::SearchIndex;
use crate::query::{
    by_column, rank_bounded, run_of, runs, sum_in_order, vote_row, AnswerKey, RankedAnswer,
};

/// Multiplier applied to a row-population candidate's co-occurrence score
/// when the candidate is an instance of the seed columns' dominant type.
const TYPE_COMPAT_BOOST: f64 = 1.5;

/// Row population: rank candidate entities to extend a key column seeded
/// with `seeds`. Candidates are entities co-occurring with seeds in corpus
/// columns, scored by the fraction of seeds each supporting column holds,
/// then boosted by [`TYPE_COMPAT_BOOST`] when the candidate is an instance
/// of the dominant column-type annotation across the seed columns.
///
/// Returns the top `k` as [`AnswerKey::Entity`] answers (score desc,
/// entity id asc). Seeds never appear among the answers.
pub fn populate_rows(
    catalog: &Catalog,
    index: &SearchIndex,
    corpus: &AnnotatedCorpus,
    seeds: &[EntityId],
    k: usize,
) -> Vec<RankedAnswer> {
    if k == 0 || seeds.is_empty() {
        return Vec::new();
    }
    let seed_set = distinct(seeds);
    let seed_cols = seed_columns(index, &seed_set);
    if seed_cols.is_empty() {
        return Vec::new();
    }

    // Dominant annotated type over the seed columns (most supporting
    // columns; smaller TypeId on ties, for determinism).
    let mut types: Vec<TypeId> = seed_cols
        .iter()
        .filter_map(|&(t, c, _)| corpus.column_type(t as usize, c as usize))
        .collect();
    types.sort_unstable();
    let dominant: Option<TypeId> = runs(&types, |&ty| ty)
        .max_by(|a, b| a.len().cmp(&b.len()).then(b[0].cmp(&a[0])))
        .map(|run| run[0]);

    // Vote: every non-seed entity in a seed column earns that column's
    // support fraction.
    let n_seeds = seed_set.len() as f64;
    let mut evidence: Vec<(EntityId, f64)> = Vec::new();
    for &(t, c, hits) in &seed_cols {
        let support = hits as f64 / n_seeds;
        for e in corpus.column_entities(t as usize, c as usize) {
            if seed_set.binary_search(&e).is_err() {
                evidence.push((e, support));
            }
        }
    }

    rank_bounded(
        sum_in_order(evidence).into_iter().map(|(e, mut score)| {
            if let Some(ty) = dominant {
                if ty.index() < catalog.num_types()
                    && e.index() < catalog.num_entities()
                    && catalog.is_instance(e, ty)
                {
                    score *= TYPE_COMPAT_BOOST;
                }
            }
            (AnswerKey::Entity(e), score)
        }),
        k,
    )
}

/// Column population: rank candidate new columns for a table whose key
/// column holds `seeds`. Tables containing seeds vote for their *other*
/// columns; each suggestion is keyed by normalized header label (falling
/// back to the annotated type's name in the catalog the index was built
/// with, when the column is headerless) plus the column-type annotation.
///
/// Returns the top `k` as [`AnswerKey::Column`] answers.
pub fn populate_columns(
    catalog: &Catalog,
    index: &SearchIndex,
    corpus: &AnnotatedCorpus,
    seeds: &[EntityId],
    k: usize,
) -> Vec<RankedAnswer> {
    if k == 0 || seeds.is_empty() {
        return Vec::new();
    }
    let seed_set = distinct(seeds);
    let n_seeds = seed_set.len() as f64;
    // Evidence keyed by (label id, type): ids stand for distinct labels,
    // so the sums are the same as under the label strings.
    let mut evidence: Vec<((u32, Option<TypeId>), f64)> = Vec::new();
    for (t, c, hits) in seed_columns(index, &seed_set) {
        let support = hits as f64 / n_seeds;
        let t = t as usize;
        for c2 in 0..corpus.tables[t].num_cols() {
            if c2 == c as usize {
                continue;
            }
            let Some(label) = index.column_label(corpus.column_slot(t, c2)) else { continue };
            let ty = corpus.column_type(t, c2).filter(|ty| {
                // Foreign annotations (ids outside this catalog) are kept
                // out of suggestions — their names can't be resolved.
                ty.index() < catalog.num_types()
            });
            evidence.push(((label, ty), support));
        }
    }
    rank_bounded(
        sum_in_order(evidence).into_iter().map(|((label, ty), score)| {
            (AnswerKey::Column { label: index.label(label).to_owned(), ty }, score)
        }),
        k,
    )
}

/// The seeds, sorted and without repeats.
fn distinct(seeds: &[EntityId]) -> Vec<EntityId> {
    let mut out = seeds.to_vec();
    out.sort_unstable();
    out.dedup();
    out
}

/// Columns holding at least one seed, as `(table, column, number of
/// distinct seeds it holds)` (the column's support), in (table, column)
/// order.
fn seed_columns(index: &SearchIndex, seed_set: &[EntityId]) -> Vec<(u32, u16, usize)> {
    let mut hits: Vec<(u32, u16, EntityId)> = seed_set
        .iter()
        .flat_map(|&seed| index.cells_of_entity(seed).iter().map(move |&(t, _, c)| (t, c, seed)))
        .collect();
    hits.sort_unstable();
    hits.dedup();
    runs(&hits, |&(t, c, _)| (t, c)).map(|run| (run[0].0, run[0].1, run.len())).collect()
}

/// Entity-relationship query: "what is related to `entity` via
/// `relation`?" answered over relation-annotated column pairs, in both
/// orientations. Evidence mirrors the typed processor: one vote per
/// supporting row, weighted by the answer cell's annotation confidence.
///
/// Returns the top `k` answers — [`AnswerKey::Entity`] when the answer
/// cell carries an entity annotation, [`AnswerKey::Text`] otherwise.
pub fn related_search(
    index: &SearchIndex,
    corpus: &AnnotatedCorpus,
    entity: EntityId,
    relation: RelationId,
    k: usize,
) -> Vec<RankedAnswer> {
    if k == 0 {
        return Vec::new();
    }
    let pairs = index.pairs_of_relation(relation);
    let mut evidence: Vec<(AnswerKey, f64)> = Vec::new();
    for cells in runs(&by_column(index.cells_of_entity(entity)), |&(t, _, _)| t) {
        let t = cells[0].0;
        // Rows where column `given` holds the entity vote for the cell in
        // `answer_col`.
        let mut collect = |given: u16, answer_col: u16| {
            for &(_, _, r) in run_of(cells, given, |&(_, c, _)| c) {
                vote_row(corpus, t, r, answer_col, &mut evidence);
            }
        };
        for &(_, c_left, c_right) in run_of(pairs, t, |&(t, _, _)| t) {
            // entity on the left → answers from the right column, and
            // vice versa ("related to" is asked in either direction).
            collect(c_left, c_right);
            collect(c_right, c_left);
        }
    }
    rank_bounded(sum_in_order(evidence), k)
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
        let annotations =
            annotator.run(&webtable_core::AnnotateRequest::new(&tables).workers(2)).annotations;
        let corpus = AnnotatedCorpus::from_parts(tables, annotations);
        let index = SearchIndex::build(&corpus, &w.catalog);
        (w, corpus, index)
    }

    /// Seed entities: movies that actually appear (annotated) in the corpus.
    fn annotated_movies(w: &webtable_catalog::World, index: &SearchIndex) -> Vec<EntityId> {
        let rel = w.oracle.relation(w.relations.directed);
        let mut seen: Vec<EntityId> = rel
            .tuples
            .iter()
            .map(|&(m, _)| m)
            .filter(|&m| !index.cells_of_entity(m).is_empty())
            .collect();
        seen.sort_unstable();
        seen.dedup();
        seen
    }

    #[test]
    fn row_population_suggests_unseen_movies() {
        let (w, corpus, index) = searchable_world();
        let movies = annotated_movies(&w, &index);
        assert!(movies.len() >= 3, "world too small for the test: {movies:?}");
        let seeds = &movies[..2];
        let res = populate_rows(&w.catalog, &index, &corpus, seeds, 10);
        assert!(!res.is_empty());
        for a in &res {
            let AnswerKey::Entity(e) = a.key else { panic!("row answers are entities") };
            assert!(!seeds.contains(&e), "seeds must not be suggested back");
        }
        // Deterministic.
        assert_eq!(res, populate_rows(&w.catalog, &index, &corpus, seeds, 10));
        assert!(populate_rows(&w.catalog, &index, &corpus, &[], 10).is_empty());
        assert!(populate_rows(&w.catalog, &index, &corpus, seeds, 0).is_empty());
    }

    #[test]
    fn column_population_suggests_the_director_column() {
        let (w, corpus, index) = searchable_world();
        let movies = annotated_movies(&w, &index);
        let seeds = &movies[..2.min(movies.len())];
        let res = populate_columns(&w.catalog, &index, &corpus, seeds, 10);
        assert!(!res.is_empty());
        // Somewhere in the suggestions there should be a director-typed
        // column (the corpus is all movie→director tables).
        let director = w.types.director;
        assert!(
            res.iter()
                .any(|a| matches!(a.key, AnswerKey::Column { ty: Some(t), .. } if t == director)),
            "expected a director column suggestion: {res:?}"
        );
        assert_eq!(res, populate_columns(&w.catalog, &index, &corpus, seeds, 10));
    }

    #[test]
    fn related_search_finds_the_director() {
        let (w, corpus, index) = searchable_world();
        let movies = annotated_movies(&w, &index);
        let rel = w.oracle.relation(w.relations.directed);
        let movie = movies[0];
        let res = related_search(&index, &corpus, movie, w.relations.directed, 10);
        assert!(!res.is_empty());
        // The oracle director should rank among the answers.
        let golds: Vec<EntityId> = rel.rights_of(movie).to_vec();
        assert!(
            res.iter().any(|a| matches!(a.key, AnswerKey::Entity(e) if golds.contains(&e))),
            "gold director missing from {res:?}"
        );
        assert_eq!(res, related_search(&index, &corpus, movie, w.relations.directed, 10));
        assert!(related_search(&index, &corpus, movie, w.relations.directed, 0).is_empty());
    }
}
