//! The search index over an annotated corpus.
//!
//! Two layers, mirroring §5:
//!
//! * a **text layer** (the Lucene stand-in): inverted postings from tokens
//!   to table contexts and column headers — what the baseline of Figure 3
//!   matches on (it reads cell text from the tables themselves, so there
//!   are no cell postings);
//! * an **annotation layer**: type → annotated columns, relation →
//!   annotated column pairs (oriented), entity → annotated cells — what
//!   the typed processors of Figure 4 use — plus, per column, the label
//!   column population suggests it under.
//!
//! The build reads the corpus's annotation store in storage order (table,
//! then row and column), so postings come out in that order with no hash
//! order to undo. A cell's entity and confidence and a column's type are
//! read from the store itself ([`AnnotatedCorpus`]); the index keeps only
//! the inverted lists and the labels. Every posting list is sorted by table
//! first, so a processor that starts from one entity's cells finds a
//! table's type columns or relation pairs by binary search on the table id.

use std::collections::HashMap;

use webtable_catalog::{Catalog, EntityId, RelationId, TypeId};
use webtable_text::{normalize, tokenize, Vocab};

use crate::corpus::AnnotatedCorpus;

/// Posting: a column of a table.
pub type ColRef = (u32, u16);
/// Posting: a cell of a table.
pub type CellRef = (u32, u32, u16);
/// Posting: an oriented column pair (left column first).
pub type PairRef = (u32, u16, u16);

/// Marks a column without a suggestion label.
const NONE: u32 = u32::MAX;

/// The two-layer search index. Immutable after construction.
#[derive(Debug)]
pub struct SearchIndex {
    vocab: Vocab,
    /// token → tables whose *context* contains it.
    context_postings: Vec<Vec<u32>>,
    /// token → header columns containing it.
    header_postings: Vec<Vec<ColRef>>,
    /// query type → columns annotated with it *or any subtype*, merged and
    /// sorted at build time (the subtype expansion Figure 4's "column
    /// labeled T1" implies), so lookups return a precomputed slice.
    type_cols: HashMap<TypeId, Vec<ColRef>>,
    /// relation → oriented column pairs.
    rel_pairs: HashMap<RelationId, Vec<PairRef>>,
    /// entity → cells annotated with it.
    entity_cells: HashMap<EntityId, Vec<CellRef>>,
    /// Per column, in the corpus's column order (see
    /// `AnnotatedCorpus::column_slot`): the id in `labels` of the label
    /// column population suggests it under, or [`NONE`].
    column_labels: Vec<u32>,
    /// Distinct suggestion labels.
    labels: Vocab,
}

impl SearchIndex {
    /// Builds the index over a corpus. The catalog supplies the type DAG
    /// for the build-time subtype expansion of
    /// [`columns_of_type`](SearchIndex::columns_of_type) and the type names
    /// headerless columns are suggested under.
    pub fn build(corpus: &AnnotatedCorpus, catalog: &Catalog) -> SearchIndex {
        let mut vocab = Vocab::new();
        let mut context_postings: Vec<Vec<u32>> = Vec::new();
        let mut header_postings: Vec<Vec<ColRef>> = Vec::new();
        let mut type_cols: HashMap<TypeId, Vec<ColRef>> = HashMap::new();
        let mut rel_pairs: HashMap<RelationId, Vec<PairRef>> = HashMap::new();
        let mut entity_cells: HashMap<EntityId, Vec<CellRef>> = HashMap::new();
        let mut column_labels = Vec::new();
        let mut labels = Vocab::new();

        for (ti, table) in corpus.tables.iter().enumerate() {
            let t = ti as u32;
            for tok in tokenize(&table.context) {
                let id = vocab.intern(&tok) as usize;
                if context_postings.len() <= id {
                    context_postings.resize_with(id + 1, Vec::new);
                }
                if context_postings[id].last() != Some(&t) {
                    context_postings[id].push(t);
                }
            }
            for (c, header) in table.headers.iter().enumerate() {
                if let Some(h) = header {
                    for tok in tokenize(h) {
                        let id = vocab.intern(&tok) as usize;
                        if header_postings.len() <= id {
                            header_postings.resize_with(id + 1, Vec::new);
                        }
                        let entry = (t, c as u16);
                        if header_postings[id].last() != Some(&entry) {
                            header_postings[id].push(entry);
                        }
                    }
                }
            }

            // Annotation layer, in storage order.
            for (c, header) in table.headers.iter().enumerate() {
                let ty = corpus.column_type(ti, c);
                if let Some(ty) = ty {
                    type_cols.entry(ty).or_default().push((t, c as u16));
                }
                let label = match (header, ty) {
                    (Some(h), _) => normalize(h),
                    (None, Some(ty)) if ty.index() < catalog.num_types() => {
                        normalize(catalog.type_name(ty))
                    }
                    (None, _) => String::new(),
                };
                column_labels.push(if label.is_empty() { NONE } else { labels.intern(&label) });
            }
            for &(left, right, rel) in corpus.relations(ti) {
                rel_pairs.entry(rel).or_default().push((t, left as u16, right as u16));
            }
            for (r, c, e) in corpus.entities(ti) {
                entity_cells.entry(e).or_default().push((t, r as u32, c as u16));
            }
        }
        // Subtype expansion, once, at build time: a column annotated
        // `film` must answer queries for `work` too. Every ancestor of an
        // annotated type gets the merged posting; queries for types no
        // annotated type reaches return the empty slice. (Annotated ids
        // outside the catalog's range — foreign annotations — keep a
        // posting under their own id only.)
        let mut expanded: HashMap<TypeId, Vec<ColRef>> = HashMap::new();
        for (&t, cols) in &type_cols {
            if t.index() < catalog.num_types() {
                for &ancestor in catalog.ancestors(t) {
                    expanded.entry(ancestor).or_default().extend_from_slice(cols);
                }
            } else {
                expanded.entry(t).or_default().extend_from_slice(cols);
            }
        }
        // The merge interleaves subtypes' postings; the relation and
        // entity postings came out of the store already in order.
        let mut type_cols = expanded;
        for v in type_cols.values_mut() {
            v.sort_unstable();
        }
        SearchIndex {
            vocab,
            context_postings,
            header_postings,
            type_cols,
            rel_pairs,
            entity_cells,
            column_labels,
            labels,
        }
    }

    /// Tables whose context contains `token`.
    pub fn tables_with_context_token(&self, token: &str) -> &[u32] {
        self.lookup(&self.context_postings, token)
    }

    /// Header columns containing `token`.
    pub fn header_cols_with_token(&self, token: &str) -> &[ColRef] {
        self.lookup(&self.header_postings, token)
    }

    fn lookup<'a, T>(&self, postings: &'a [Vec<T>], token: &str) -> &'a [T] {
        match self.vocab.get(&token.to_lowercase()) {
            Some(id) => postings.get(id as usize).map(Vec::as_slice).unwrap_or(&[]),
            None => &[],
        }
    }

    /// Columns annotated with a type `T' ⊆* query_type`. The subtype
    /// expansion happens once at [`build`](SearchIndex::build) time (it
    /// used to be recomputed — and a fresh `Vec` allocated — on every
    /// call), so this is now a plain posting lookup like its sibling
    /// accessors.
    pub fn columns_of_type(&self, query_type: TypeId) -> &[ColRef] {
        self.type_cols.get(&query_type).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Oriented column pairs annotated with a relation.
    pub fn pairs_of_relation(&self, rel: RelationId) -> &[PairRef] {
        self.rel_pairs.get(&rel).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Cells annotated with an entity.
    pub fn cells_of_entity(&self, e: EntityId) -> &[CellRef] {
        self.entity_cells.get(&e).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The label column population suggests a column under, by its
    /// position among the corpus's columns (`AnnotatedCorpus::column_slot`):
    /// its normalized header, or for a headerless column the normalized
    /// name of its type in the catalog the index was built with. `None`
    /// when that leaves nothing (headerless and untyped, or blank).
    pub(crate) fn column_label(&self, slot: usize) -> Option<u32> {
        let id = self.column_labels[slot];
        (id != NONE).then_some(id)
    }

    /// The text of a [`column_label`](SearchIndex::column_label) id.
    pub(crate) fn label(&self, id: u32) -> &str {
        self.labels.word(id).expect("label ids come from this index")
    }
}

#[cfg(test)]
mod tests {
    use webtable_catalog::CatalogBuilder;
    use webtable_core::TableAnnotation;
    use webtable_tables::{Table, TableId};

    use super::*;

    /// A minimal catalog; the tiny corpus annotates with ids outside its
    /// range on purpose (foreign annotations keep working).
    fn tiny_catalog() -> Catalog {
        let mut b = CatalogBuilder::new();
        let t = b.add_type("thing", &[]).unwrap();
        b.add_entity("something", &[], &[t]).unwrap();
        b.finish().unwrap()
    }

    fn tiny_corpus() -> AnnotatedCorpus {
        let t0 = Table::new(
            TableId(0),
            "movies directed by people",
            vec![Some("Film".into()), Some("Director".into())],
            vec![vec!["Heat".into(), "Mann".into()], vec!["Alien".into(), "Scott".into()]],
        );
        let mut ann = TableAnnotation::default();
        ann.column_types.insert(0, Some(TypeId(10)));
        ann.column_types.insert(1, Some(TypeId(20)));
        ann.relations.insert((0, 1), Some(RelationId(5)));
        ann.cell_entities.insert((0, 0), Some(EntityId(100)));
        ann.cell_entities.insert((0, 1), Some(EntityId(200)));
        ann.cell_entities.insert((1, 0), None);
        AnnotatedCorpus::from_parts(vec![t0], vec![ann])
    }

    #[test]
    fn text_layer_finds_tokens() {
        let idx = SearchIndex::build(&tiny_corpus(), &tiny_catalog());
        assert_eq!(idx.tables_with_context_token("directed"), &[0]);
        assert_eq!(idx.header_cols_with_token("film"), &[(0, 0)]);
        assert_eq!(idx.header_cols_with_token("director"), &[(0, 1)]);
        assert!(idx.header_cols_with_token("nonexistent").is_empty());
        // Case-insensitive lookups.
        assert_eq!(idx.header_cols_with_token("FILM"), &[(0, 0)]);
    }

    #[test]
    fn annotation_layer_finds_labels() {
        let idx = SearchIndex::build(&tiny_corpus(), &tiny_catalog());
        assert_eq!(idx.pairs_of_relation(RelationId(5)), &[(0, 0, 1)]);
        assert!(idx.pairs_of_relation(RelationId(9)).is_empty());
        assert_eq!(idx.cells_of_entity(EntityId(100)), &[(0, 0, 0)]);
        assert!(idx.cells_of_entity(EntityId(999)).is_empty());
    }

    #[test]
    fn labels_and_postings_follow_the_store() {
        let t0 = Table::new(
            TableId(0),
            "",
            vec![Some("Film".into()), Some("Director".into())],
            vec![vec!["Heat".into(), "Mann".into()], vec!["Alien".into(), "Scott".into()]],
        );
        let mut ann = TableAnnotation::default();
        ann.cell_entities.insert((0, 0), Some(EntityId(100)));
        ann.cell_entities.insert((1, 0), Some(EntityId(100)));
        // Decisions outside the 2×2 grid never reach the store.
        ann.cell_entities.insert((2, 0), Some(EntityId(300)));
        ann.cell_entities.insert((0, 2), Some(EntityId(300)));
        ann.column_types.insert(2, Some(TypeId(30)));
        ann.relations.insert((1, 2), Some(RelationId(6)));
        // A headerless column typed in the catalog is suggested under the
        // type's name; an untyped one under nothing.
        let t1 = Table::new(TableId(1), "", vec![None, None], vec![vec!["x".into(), "y".into()]]);
        let mut ann1 = TableAnnotation::default();
        ann1.column_types.insert(0, Some(TypeId(0)));
        let corpus = AnnotatedCorpus::from_parts(vec![t0, t1], vec![ann, ann1]);
        let idx = SearchIndex::build(&corpus, &tiny_catalog());
        assert_eq!(idx.cells_of_entity(EntityId(100)), &[(0, 0, 0), (0, 1, 0)]);
        assert!(idx.cells_of_entity(EntityId(300)).is_empty());
        assert!(idx.columns_of_type(TypeId(30)).is_empty());
        assert!(idx.pairs_of_relation(RelationId(6)).is_empty());
        let label = |t, c| idx.column_label(corpus.column_slot(t, c)).map(|id| idx.label(id));
        assert_eq!(label(0, 0), Some("film"));
        assert_eq!(label(0, 1), Some("director"));
        assert_eq!(label(1, 0), Some("thing"));
        assert_eq!(label(1, 1), None);
    }

    #[test]
    fn type_lookup_expands_subtypes() {
        let mut b = CatalogBuilder::new();
        let work = b.add_type("work", &[]).unwrap();
        let film = b.add_type("film", &[]).unwrap();
        b.add_subtype(film, work);
        let cat = b.finish().unwrap();
        // Column annotated `film` (id 1 == TypeId(1)).
        let t0 = Table::new(TableId(0), "", vec![None], vec![vec!["x".into()]]);
        let mut ann = TableAnnotation::default();
        ann.column_types.insert(0, Some(film));
        let corpus = AnnotatedCorpus::from_parts(vec![t0], vec![ann]);
        let idx = SearchIndex::build(&corpus, &cat);
        // Query for the supertype must find the film column.
        assert_eq!(idx.columns_of_type(work), &[(0, 0)]);
        assert_eq!(idx.columns_of_type(film), &[(0, 0)]);
    }
}
