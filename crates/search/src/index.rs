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
//!   the typed processors of Figure 4 use — plus a dense per-table view of
//!   the entity and type decisions, which the augmentation processors scan
//!   instead of the annotation maps.
//!
//! Every posting list is sorted by table first, so a processor that starts
//! from one entity's cells finds a table's type columns or relation pairs
//! by binary search on the table id.

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

/// Marks a cell or column without an annotation in the dense view.
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
    /// The dense view: table `t`'s columns are `column_types[col_start[t]..
    /// col_start[t + 1]]`, its cells `cell_entities[cell_start[t]..
    /// cell_start[t + 1]]` row by row, each an id or [`NONE`]. This is the
    /// part of the dense, ordered `TableAnnotation` ROADMAP.md plans that
    /// search needs, and goes when that lands. Confidences stay in the
    /// annotation maps: only the rows that vote in the typed and related
    /// processors read them.
    col_start: Vec<u32>,
    column_types: Vec<u32>,
    cell_start: Vec<u32>,
    cell_entities: Vec<u32>,
    /// Per column, beside `column_types`: the id in `labels` of the label
    /// column population suggests it under, or [`NONE`].
    column_labels: Vec<u32>,
    /// Distinct suggestion labels.
    labels: Vocab,
}

impl SearchIndex {
    /// Builds the index over a corpus. The catalog supplies the type DAG
    /// for the build-time subtype expansion of
    /// [`columns_of_type`](SearchIndex::columns_of_type) and the type names
    /// headerless columns are suggested under. Annotations of cells or
    /// columns outside their table's grid are left out of the annotation
    /// layer.
    pub fn build(corpus: &AnnotatedCorpus, catalog: &Catalog) -> SearchIndex {
        let mut vocab = Vocab::new();
        let mut context_postings: Vec<Vec<u32>> = Vec::new();
        let mut header_postings: Vec<Vec<ColRef>> = Vec::new();
        let mut type_cols: HashMap<TypeId, Vec<ColRef>> = HashMap::new();
        let mut rel_pairs: HashMap<RelationId, Vec<PairRef>> = HashMap::new();
        let mut entity_cells: HashMap<EntityId, Vec<CellRef>> = HashMap::new();
        let mut col_start = vec![0u32];
        let mut column_types = Vec::new();
        let mut cell_start = vec![0u32];
        let mut cell_entities = Vec::new();
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

            // Annotation layer.
            let ann = &corpus.annotations[ti];
            let (rows, cols) = (table.num_rows(), table.num_cols());
            let types = column_types.len();
            column_types.resize(types + cols, NONE);
            for (&c, &ty) in &ann.column_types {
                let Some(ty) = ty.filter(|_| c < cols) else { continue };
                type_cols.entry(ty).or_default().push((t, c as u16));
                column_types[types + c] = ty.0;
            }
            col_start.push(column_types.len() as u32);
            for (c, header) in table.headers.iter().enumerate() {
                let ty = TypeId(column_types[types + c]);
                let label = match header {
                    Some(h) => normalize(h),
                    None if ty.0 != NONE && ty.index() < catalog.num_types() => {
                        normalize(catalog.type_name(ty))
                    }
                    None => String::new(),
                };
                column_labels.push(if label.is_empty() { NONE } else { labels.intern(&label) });
            }
            for (&(c1, c2), &rel) in &ann.relations {
                let Some(rel) = rel.filter(|_| c1 < cols && c2 < cols) else { continue };
                rel_pairs.entry(rel).or_default().push((t, c1 as u16, c2 as u16));
            }
            let cells = cell_entities.len();
            cell_entities.resize(cells + rows * cols, NONE);
            for (&(r, c), &e) in &ann.cell_entities {
                let Some(e) = e.filter(|_| r < rows && c < cols) else { continue };
                entity_cells.entry(e).or_default().push((t, r as u32, c as u16));
                cell_entities[cells + r * cols + c] = e.0;
            }
            cell_start.push(cell_entities.len() as u32);
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
        let mut type_cols = expanded;

        // Deterministic ordering for annotation postings.
        for v in type_cols.values_mut() {
            v.sort_unstable();
        }
        for v in rel_pairs.values_mut() {
            v.sort_unstable();
        }
        for v in entity_cells.values_mut() {
            v.sort_unstable();
        }
        SearchIndex {
            vocab,
            context_postings,
            header_postings,
            type_cols,
            rel_pairs,
            entity_cells,
            col_start,
            column_types,
            cell_start,
            cell_entities,
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

    /// The type annotated on column `c` of table `t`.
    pub(crate) fn column_type(&self, t: u32, c: u16) -> Option<TypeId> {
        let id = self.column_types[self.col_start[t as usize] as usize + c as usize];
        (id != NONE).then_some(TypeId(id))
    }

    /// The label column population suggests column `c` of table `t` under:
    /// its normalized header, or for a headerless column the normalized
    /// name of its type in the catalog the index was built with. `None`
    /// when that leaves nothing (headerless and untyped, or blank).
    pub(crate) fn column_label(&self, t: u32, c: u16) -> Option<u32> {
        let id = self.column_labels[self.col_start[t as usize] as usize + c as usize];
        (id != NONE).then_some(id)
    }

    /// The text of a [`column_label`](SearchIndex::column_label) id.
    pub(crate) fn label(&self, id: u32) -> &str {
        self.labels.word(id).expect("label ids come from this index")
    }

    /// The entity annotated on cell `(r, c)` of table `t`.
    pub(crate) fn entity_at(&self, t: u32, r: u32, c: u16) -> Option<EntityId> {
        let width = self.col_start[t as usize + 1] - self.col_start[t as usize];
        let id =
            self.cell_entities[(self.cell_start[t as usize] + r * width) as usize + c as usize];
        (id != NONE).then_some(EntityId(id))
    }

    /// The entities annotated on column `c` of table `t`, top to bottom.
    pub(crate) fn column_entities(&self, t: u32, c: u16) -> impl Iterator<Item = EntityId> + '_ {
        let width = (self.col_start[t as usize + 1] - self.col_start[t as usize]) as usize;
        let cells = &self.cell_entities
            [self.cell_start[t as usize] as usize..self.cell_start[t as usize + 1] as usize];
        cells
            .iter()
            .skip(c as usize)
            .step_by(width.max(1))
            .filter(|&&id| id != NONE)
            .map(|&id| EntityId(id))
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
    fn dense_view_matches_the_annotation_maps() {
        let mut corpus = tiny_corpus();
        // Decisions outside the 2×2 grid stay out of the annotation layer.
        corpus.annotations[0].cell_entities.insert((2, 0), Some(EntityId(300)));
        corpus.annotations[0].cell_entities.insert((0, 2), Some(EntityId(300)));
        corpus.annotations[0].column_types.insert(2, Some(TypeId(30)));
        corpus.annotations[0].relations.insert((1, 2), Some(RelationId(6)));
        let idx = SearchIndex::build(&corpus, &tiny_catalog());
        assert_eq!(idx.column_type(0, 0), Some(TypeId(10)));
        assert_eq!(idx.column_type(0, 1), Some(TypeId(20)));
        assert_eq!(idx.entity_at(0, 0, 0), Some(EntityId(100)));
        assert_eq!(idx.entity_at(0, 0, 1), Some(EntityId(200)));
        assert_eq!(idx.entity_at(0, 1, 0), None, "an `na` decision");
        assert_eq!(idx.entity_at(0, 1, 1), None, "no decision");
        assert_eq!(idx.column_entities(0, 0).collect::<Vec<_>>(), [EntityId(100)]);
        assert_eq!(idx.column_entities(0, 1).collect::<Vec<_>>(), [EntityId(200)]);
        assert_eq!(idx.column_label(0, 0).map(|id| idx.label(id)), Some("film"));
        assert_eq!(idx.column_label(0, 1).map(|id| idx.label(id)), Some("director"));
        assert!(idx.cells_of_entity(EntityId(300)).is_empty());
        assert!(idx.columns_of_type(TypeId(30)).is_empty());
        assert!(idx.pairs_of_relation(RelationId(6)).is_empty());
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
