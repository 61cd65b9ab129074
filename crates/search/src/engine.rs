//! The search front door: one engine, one query type, one entry point.
//!
//! The [`SearchEngine`] owns the catalog, the annotated corpus and the
//! search index — built once, queried many times — and a [`Query`] value
//! names the processor:
//!
//! ```text
//! tables ─► Annotator::run ─► AnnotatedCorpus ─► SearchEngine::build
//!                                                      │
//! Query::Baseline / Typed / Join ─► SearchEngine::search ─► Vec<RankedAnswer>
//! ```

use std::sync::Arc;

use webtable_catalog::Catalog;
use webtable_core::Annotator;
use webtable_tables::Table;

use webtable_catalog::{EntityId, RelationId, TypeId};

use crate::augment::{populate_columns, populate_rows, related_search};
use crate::corpus::AnnotatedCorpus;
use crate::index::SearchIndex;
use crate::join::{join_search_impl, JoinQuery};
use crate::query::{baseline_search_impl, typed_search_impl, AnswerKey, EntityQuery, RankedAnswer};
use crate::retrieval::TableIndex;

/// One search request: which processor to run, with its inputs.
///
/// `#[non_exhaustive]`, matching [`webtable_core::Error`]'s contract: new
/// workloads land as new variants without breaking downstream matches —
/// match with a `_` arm. Existing variants stay constructible; the wire
/// names in [`crate::wire`] are the stable serialized form.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Query {
    /// Figure 3: strings only, no annotations consulted. Answers are
    /// normalized cell strings.
    Baseline(EntityQuery),
    /// Figure 4: column-type annotations qualify tables; with
    /// `use_relations` the column pair must additionally carry the
    /// relation annotation in the correct orientation.
    Typed {
        /// The select-project query.
        query: EntityQuery,
        /// Whether relation annotations are required (full Figure 4).
        use_relations: bool,
    },
    /// Two-hop join `R1(e1, e2) ∧ R2(e2, E3)` (§2.1's declared future
    /// work): answers are the outer `e1`, scored by multiplied evidence
    /// along the chain, best `e2` per answer.
    Join {
        /// The join query.
        query: JoinQuery,
        /// How many join-variable candidates stage one explores.
        mid_k: usize,
    },
    /// Keyword table retrieval: rank whole annotated tables for a keyword
    /// query over the table-level index. Answers are
    /// [`AnswerKey::Table`] keys.
    Tables {
        /// The keyword query (tokenized, deduplicated).
        keywords: String,
        /// Result bound.
        k: usize,
    },
    /// Row population: given seed entities from a partial table's key
    /// column, suggest new row entities by corpus co-occurrence plus
    /// type compatibility. Answers are [`AnswerKey::Entity`] keys.
    PopulateRows {
        /// Seed entities already in the key column.
        seeds: Vec<EntityId>,
        /// Result bound.
        k: usize,
    },
    /// Column population: given the same seeds, suggest candidate new
    /// columns (header label + annotated type) from tables sharing the
    /// entity set. Answers are [`AnswerKey::Column`] keys.
    PopulateColumns {
        /// Seed entities identifying the table's subject column.
        seeds: Vec<EntityId>,
        /// Result bound.
        k: usize,
    },
    /// Entity-relationship query: "what is related to `entity` via
    /// `relation`?", answered over relation annotations in either
    /// orientation.
    Related {
        /// The given entity.
        entity: EntityId,
        /// The relation to follow.
        relation: RelationId,
        /// Result bound.
        k: usize,
    },
}

impl Query {
    /// The query's stable wire-format kind name (also used as the
    /// per-kind metrics label in `webtable-serve`).
    pub fn kind(&self) -> &'static str {
        match self {
            Query::Baseline(_) => "baseline",
            Query::Typed { .. } => "typed",
            Query::Join { .. } => "join",
            Query::Tables { .. } => "tables",
            Query::PopulateRows { .. } => "populate_rows",
            Query::PopulateColumns { .. } => "populate_columns",
            Query::Related { .. } => "related",
        }
    }
}

/// The engine owning everything a query needs: the catalog the corpus was
/// annotated against, the annotated corpus, and the two-layer
/// [`SearchIndex`] over it. Build once, [`search`](SearchEngine::search)
/// many times; cheap to share behind an `Arc`.
#[derive(Debug)]
pub struct SearchEngine {
    catalog: Arc<Catalog>,
    corpus: AnnotatedCorpus,
    index: SearchIndex,
    tables: TableIndex,
}

impl SearchEngine {
    /// Builds the engine (and its cell-level and table-level indexes)
    /// over an already-annotated corpus.
    pub fn build(catalog: Arc<Catalog>, corpus: AnnotatedCorpus) -> SearchEngine {
        let index = SearchIndex::build(&corpus, &catalog);
        let tables = TableIndex::build(&corpus, &catalog);
        SearchEngine { catalog, corpus, index, tables }
    }

    /// The full ingest path: annotates raw tables with `workers` threads
    /// (via [`Annotator::run`], a chunk of tables per call, each chunk
    /// packed into the corpus's annotation store before the next starts)
    /// and builds the engine over the result. The annotations are those of
    /// one `run` over every table.
    pub fn from_tables(annotator: &Annotator, tables: Vec<Table>, workers: usize) -> SearchEngine {
        SearchEngine::build(
            Arc::clone(&annotator.catalog),
            AnnotatedCorpus::annotate(annotator, tables, workers),
        )
    }

    /// Executes one query — the single search entry point. Results are
    /// deterministic (score descending, key ascending on ties).
    ///
    /// `Query::Join` answers are projected onto the outer entity `e1`
    /// keeping the best-scoring join chain per answer. A query naming an
    /// entity, type or relation id past the catalog has no answers.
    pub fn search(&self, query: &Query) -> Vec<RankedAnswer> {
        if !self.ids_in_catalog(query) {
            return Vec::new();
        }
        match *query {
            Query::Baseline(ref q) => {
                baseline_search_impl(&self.catalog, &self.index, &self.corpus, q)
            }
            Query::Typed { ref query, use_relations } => {
                typed_search_impl(&self.index, &self.corpus, query, use_relations)
            }
            Query::Join { ref query, mid_k } => {
                // join_search_impl sorts score-desc, so the first sighting
                // of each e1 carries its best chain.
                let mut out: Vec<RankedAnswer> = Vec::new();
                let mut seen: std::collections::HashSet<AnswerKey> =
                    std::collections::HashSet::new();
                for a in join_search_impl(&self.catalog, &self.index, &self.corpus, query, mid_k) {
                    if seen.insert(a.e1.clone()) {
                        out.push(RankedAnswer { key: a.e1, score: a.score });
                    }
                }
                out
            }
            Query::Tables { ref keywords, k } => self.tables.search(keywords, k),
            Query::PopulateRows { ref seeds, k } => {
                populate_rows(&self.catalog, &self.index, &self.corpus, seeds, k)
            }
            Query::PopulateColumns { ref seeds, k } => {
                populate_columns(&self.catalog, &self.index, &self.corpus, seeds, k)
            }
            Query::Related { entity, relation, k } => {
                related_search(&self.index, &self.corpus, entity, relation, k)
            }
        }
    }

    /// Whether every entity, type and relation id the query names exists
    /// in the catalog. An id past it names nothing, so the query has no
    /// answers; the processors index the catalog by these ids directly.
    fn ids_in_catalog(&self, query: &Query) -> bool {
        let cat = &self.catalog;
        let entity = |e: EntityId| e.index() < cat.num_entities();
        let ty = |t: TypeId| t.index() < cat.num_types();
        let relation = |r: RelationId| r.index() < cat.num_relations();
        match query {
            Query::Baseline(q) | Query::Typed { query: q, .. } => {
                relation(q.relation) && ty(q.t1) && ty(q.t2) && entity(q.e2)
            }
            Query::Join { query: q, .. } => relation(q.r1) && relation(q.r2) && entity(q.e3),
            Query::Tables { .. } => true,
            Query::PopulateRows { seeds, .. } | Query::PopulateColumns { seeds, .. } => {
                seeds.iter().all(|&e| entity(e))
            }
            Query::Related { entity: e, relation: r, .. } => entity(*e) && relation(*r),
        }
    }

    /// The catalog queries resolve against.
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// The annotated corpus being searched.
    pub fn corpus(&self) -> &AnnotatedCorpus {
        &self.corpus
    }

    /// The two-layer search index.
    pub fn index(&self) -> &SearchIndex {
        &self.index
    }

    /// The table-level retrieval index.
    pub fn table_index(&self) -> &TableIndex {
        &self.tables
    }
}

#[cfg(test)]
mod tests {
    use webtable_catalog::{generate_world, WorldConfig};
    use webtable_tables::{NoiseConfig, TableGenerator, TruthMask};

    use super::*;

    fn engine() -> (webtable_catalog::World, SearchEngine) {
        let w = generate_world(&WorldConfig::tiny(5)).unwrap();
        let annotator = Annotator::new(Arc::clone(&w.catalog));
        let mut g = TableGenerator::new(&w, NoiseConfig::wiki(), TruthMask::full(), 61);
        let mut tables = Vec::new();
        for _ in 0..6 {
            tables.push(g.gen_table_for_relation(w.relations.directed, 10).table);
        }
        let e = SearchEngine::from_tables(&annotator, tables, 2);
        (w, e)
    }

    #[test]
    fn one_entry_point_serves_all_three_processors() {
        let (w, engine) = engine();
        let rel = w.oracle.relation(w.relations.directed);
        let (_, e2) = rel.tuples[0];
        let q = EntityQuery {
            relation: w.relations.directed,
            t1: w.types.movie,
            t2: w.types.director,
            e2,
        };
        for query in [
            Query::Baseline(q),
            Query::Typed { query: q, use_relations: false },
            Query::Typed { query: q, use_relations: true },
        ] {
            let res = engine.search(&query);
            let again = engine.search(&query);
            assert_eq!(res, again, "search must be deterministic: {query:?}");
            for pair in res.windows(2) {
                assert!(pair[0].score >= pair[1].score, "ranking must be sorted: {query:?}");
            }
        }
    }

    #[test]
    fn join_projection_dedups_on_best_chain() {
        let (w, engine) = engine();
        // A join over relations the corpus doesn't express yields nothing
        // (rather than fuzzy text matches).
        let q = Query::Join {
            query: JoinQuery {
                r1: w.relations.directed,
                r2: w.relations.born_in,
                e3: webtable_catalog::EntityId(0),
            },
            mid_k: 5,
        };
        let res = engine.search(&q);
        let mut keys: Vec<&AnswerKey> = res.iter().map(|a| &a.key).collect();
        let before = keys.len();
        keys.dedup();
        assert_eq!(before, keys.len(), "projected join answers must be unique per e1");
        for pair in res.windows(2) {
            assert!(pair[0].score >= pair[1].score);
        }
    }

    #[test]
    fn retrieval_and_augmentation_share_the_entry_point() {
        let (w, engine) = engine();
        let rel = w.oracle.relation(w.relations.directed);
        let mut seeds: Vec<webtable_catalog::EntityId> = rel
            .tuples
            .iter()
            .map(|&(m, _)| m)
            .filter(|&m| !engine.index().cells_of_entity(m).is_empty())
            .collect();
        seeds.sort_unstable();
        seeds.dedup();
        seeds.truncate(2);
        assert!(!seeds.is_empty());
        let queries = [
            Query::Tables { keywords: "movie director".into(), k: 5 },
            Query::PopulateRows { seeds: seeds.clone(), k: 5 },
            Query::PopulateColumns { seeds: seeds.clone(), k: 5 },
            Query::Related { entity: seeds[0], relation: w.relations.directed, k: 5 },
        ];
        for query in &queries {
            let res = engine.search(query);
            assert!(!res.is_empty(), "empty answers for {query:?}");
            assert!(res.len() <= 5);
            assert_eq!(res, engine.search(query), "search must be deterministic: {query:?}");
            for pair in res.windows(2) {
                assert!(pair[0].score >= pair[1].score, "ranking must be sorted: {query:?}");
            }
        }
        assert_eq!(queries[0].kind(), "tables");
        assert_eq!(queries[1].kind(), "populate_rows");
        assert_eq!(queries[2].kind(), "populate_columns");
        assert_eq!(queries[3].kind(), "related");
    }

    #[test]
    fn accessors_expose_the_owned_parts() {
        let (w, engine) = engine();
        assert_eq!(engine.catalog().num_entities(), w.catalog.num_entities());
        assert_eq!(engine.corpus().len(), 6);
        // The index is usable directly for lower-level probes.
        assert!(engine.index().columns_of_type(w.types.movie).len() <= engine.corpus().len() * 4);
    }
}
