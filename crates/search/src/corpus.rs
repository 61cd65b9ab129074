//! An annotated table corpus: the searchable artifact.
//!
//! [`AnnotatedCorpus`] holds the corpus tables and the search engine's only
//! copy of their annotations, packed into one dense, ordered store:
//!
//! * the entity of every cell, row-major, one `u32` each;
//! * the annotator's confidence in every cell, its `f64` bit for bit
//!   (`0.0` where it reported none);
//! * the type of every column, one `u32` each;
//! * per table, the non-`na` oriented relations, sorted by (left, right).
//!
//! An `na` decision and no decision are both stored as a none marker
//! (`u32::MAX`, which no catalog id reaches). Each table's cells, columns
//! and relations start at an offset kept per table, so every accessor is a
//! few array reads, and storage order is key order: walking a table's
//! decisions needs no sort, and no hash order can reach a consumer.
//! Decisions outside a table's grid are dropped when packed; the annotator
//! never makes them.
//!
//! This is the compact form of a corpus's annotations. The search engine
//! fills it a chunk of tables at a time
//! ([`SearchEngine::from_tables`](crate::SearchEngine::from_tables)), so the
//! annotator's map-form [`TableAnnotation`]s never exist for the whole
//! corpus at once.

use std::ops::Range;

use webtable_catalog::{EntityId, RelationId, TypeId};
use webtable_core::{AnnotateRequest, Annotator, TableAnnotation};
use webtable_tables::Table;

/// Marks a cell or column without a (non-`na`) decision.
const NONE: u32 = u32::MAX;

/// Tables annotated per [`Annotator::run`] call while a corpus is packed:
/// one chunk's map-form annotations take about half a megabyte.
const CHUNK_TABLES: usize = 256;

/// Tables plus their (machine-produced) annotations, aligned by index.
#[derive(Debug, Clone)]
pub struct AnnotatedCorpus {
    /// The source tables.
    pub tables: Vec<Table>,
    /// Table `t`'s columns are `column_types[col_start[t]..col_start[t + 1]]`.
    col_start: Vec<u32>,
    column_types: Vec<u32>,
    /// Table `t`'s cells are `cell_entities[cell_start[t]..cell_start[t +
    /// 1]]`, row by row; `cell_confidence` runs beside it.
    cell_start: Vec<u32>,
    cell_entities: Vec<u32>,
    cell_confidence: Vec<f64>,
    /// Table `t`'s relations are `relations[rel_start[t]..rel_start[t +
    /// 1]]`; the tables packed so far are the first `rel_start.len() - 1`.
    rel_start: Vec<u32>,
    relations: Vec<(u32, u32, RelationId)>,
}

impl Default for AnnotatedCorpus {
    fn default() -> AnnotatedCorpus {
        AnnotatedCorpus::unpacked(Vec::new())
    }
}

impl AnnotatedCorpus {
    /// Packs pre-computed annotations, one per table, consuming each as it
    /// goes.
    pub fn from_parts(tables: Vec<Table>, annotations: Vec<TableAnnotation>) -> AnnotatedCorpus {
        assert_eq!(tables.len(), annotations.len(), "misaligned corpus");
        let mut corpus = AnnotatedCorpus::unpacked(tables);
        for ann in annotations {
            corpus.pack(&ann);
        }
        corpus
    }

    /// Annotates `tables` with `workers` threads and packs the result,
    /// [`CHUNK_TABLES`] tables per [`Annotator::run`]. Chunking keeps the
    /// output of one run over every table: a table's annotation depends on
    /// that table alone, never on the cache. The runs share one candidate
    /// cache, of the size a single run would create, only so that each
    /// chunk finds the entries the chunks before it left warm.
    pub(crate) fn annotate(
        annotator: &Annotator,
        tables: Vec<Table>,
        workers: usize,
    ) -> AnnotatedCorpus {
        let mut corpus = AnnotatedCorpus::unpacked(tables);
        let cache = annotator.new_cell_cache(annotator.config.batch_cache_capacity);
        for start in (0..corpus.len()).step_by(CHUNK_TABLES) {
            let chunk = &corpus.tables[start..(start + CHUNK_TABLES).min(corpus.len())];
            let request = AnnotateRequest::new(chunk).workers(workers).shared_cache(&cache);
            for ann in annotator.run(&request).annotations {
                corpus.pack(&ann);
            }
        }
        corpus
    }

    /// The tables with room for their annotations and none packed yet.
    fn unpacked(tables: Vec<Table>) -> AnnotatedCorpus {
        let mut col_start = Vec::with_capacity(tables.len() + 1);
        let mut cell_start = Vec::with_capacity(tables.len() + 1);
        let (mut cols, mut cells) = (0usize, 0usize);
        col_start.push(0);
        cell_start.push(0);
        for table in &tables {
            cols += table.num_cols();
            cells += table.num_rows() * table.num_cols();
            col_start.push(offset(cols));
            cell_start.push(offset(cells));
        }
        let mut rel_start = Vec::with_capacity(tables.len() + 1);
        rel_start.push(0);
        AnnotatedCorpus {
            tables,
            col_start,
            column_types: vec![NONE; cols],
            cell_start,
            cell_entities: vec![NONE; cells],
            cell_confidence: vec![0.0; cells],
            rel_start,
            relations: Vec::new(),
        }
    }

    /// Packs the annotation of the first table not yet packed.
    fn pack(&mut self, ann: &TableAnnotation) {
        let t = self.rel_start.len() - 1;
        let cols = self.width(t);
        for (&c, &ty) in &ann.column_types {
            if let Some(ty) = ty.filter(|_| c < cols) {
                let slot = self.column_slot(t, c);
                self.column_types[slot] = ty.0;
            }
        }
        for (&(r, c), &e) in &ann.cell_entities {
            if let (Some(e), Some(i)) = (e, self.cell(t, r, c)) {
                self.cell_entities[i] = e.0;
            }
        }
        for (&(r, c), &conf) in &ann.cell_confidence {
            if let Some(i) = self.cell(t, r, c) {
                self.cell_confidence[i] = conf;
            }
        }
        let start = self.relations.len();
        self.relations.extend(ann.relations.iter().filter_map(|(&(left, right), &rel)| {
            let rel = rel.filter(|_| left < cols && right < cols)?;
            Some((left as u32, right as u32, rel))
        }));
        self.relations[start..].sort_unstable_by_key(|&(left, right, _)| (left, right));
        self.rel_start.push(offset(self.relations.len()));
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True if the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// The entity annotated on cell `(r, c)` of table `t`: `None` for an
    /// `na` decision, no decision, or a cell outside the grid.
    pub fn entity(&self, t: usize, r: usize, c: usize) -> Option<EntityId> {
        let id = self.cell_entities[self.cell(t, r, c)?];
        (id != NONE).then_some(EntityId(id))
    }

    /// The annotator's confidence in cell `(r, c)` of table `t`, or `0.0`
    /// where it reported none.
    pub fn confidence(&self, t: usize, r: usize, c: usize) -> f64 {
        self.cell(t, r, c).map_or(0.0, |i| self.cell_confidence[i])
    }

    /// The type annotated on column `c` of table `t`.
    pub fn column_type(&self, t: usize, c: usize) -> Option<TypeId> {
        if c >= self.width(t) {
            return None;
        }
        let id = self.column_types[self.column_slot(t, c)];
        (id != NONE).then_some(TypeId(id))
    }

    /// The annotated cells of table `t` as `(row, column, entity)`, in
    /// storage order: row by row, left to right.
    pub fn entities(&self, t: usize) -> impl Iterator<Item = (usize, usize, EntityId)> + '_ {
        let width = self.width(t);
        self.cell_entities[self.cells(t)]
            .iter()
            .enumerate()
            .filter(|&(_, &id)| id != NONE)
            .map(move |(i, &id)| (i / width, i % width, EntityId(id)))
    }

    /// The entities annotated on column `c` of table `t`, top to bottom.
    pub fn column_entities(&self, t: usize, c: usize) -> impl Iterator<Item = EntityId> + '_ {
        let width = self.width(t);
        let cells = &self.cell_entities[self.cells(t)];
        cells
            .iter()
            .skip(if c < width { c } else { cells.len() })
            .step_by(width.max(1))
            .filter(|&&id| id != NONE)
            .map(|&id| EntityId(id))
    }

    /// Table `t`'s non-`na` relations as `(left column, right column,
    /// relation)`, sorted by (left, right): column `left` plays the
    /// relation's left role.
    pub fn relations(&self, t: usize) -> &[(u32, u32, RelationId)] {
        &self.relations[self.rel_start[t] as usize..self.rel_start[t + 1] as usize]
    }

    /// The position of column `c` of table `t` among all the corpus's
    /// columns, table by table: per-column data kept beside the corpus
    /// (the search index's suggestion labels) is laid out in this order.
    pub(crate) fn column_slot(&self, t: usize, c: usize) -> usize {
        self.col_start[t] as usize + c
    }

    /// Columns of table `t`.
    fn width(&self, t: usize) -> usize {
        (self.col_start[t + 1] - self.col_start[t]) as usize
    }

    /// The store positions of table `t`'s cells.
    fn cells(&self, t: usize) -> Range<usize> {
        self.cell_start[t] as usize..self.cell_start[t + 1] as usize
    }

    /// The store position of cell `(r, c)` of table `t`, if it is in the
    /// grid.
    fn cell(&self, t: usize, r: usize, c: usize) -> Option<usize> {
        let cells = self.cells(t);
        let width = self.width(t);
        let i = r.checked_mul(width)?.checked_add(c)?;
        (c < width && i < cells.len()).then_some(cells.start + i)
    }
}

/// A store offset, which a `u32` holds for any corpus an index can address.
fn offset(n: usize) -> u32 {
    u32::try_from(n).expect("annotation store holds at most u32::MAX cells")
}

#[cfg(test)]
mod tests {
    use webtable_tables::TableId;

    use super::*;

    #[test]
    #[should_panic(expected = "misaligned corpus")]
    fn misaligned_parts_panic() {
        AnnotatedCorpus::from_parts(vec![], vec![TableAnnotation::default()]);
    }

    #[test]
    fn empty_corpus() {
        let c = AnnotatedCorpus::default();
        assert!(c.is_empty());
        assert_eq!(c.len(), 0);
    }

    fn grid(id: u64, rows: usize, cols: usize) -> Table {
        let headers = (0..cols).map(|c| Some(format!("h{c}"))).collect();
        let cells = (0..rows).map(|r| (0..cols).map(|c| format!("{r}.{c}")).collect()).collect();
        Table::new(TableId(id), "", headers, cells)
    }

    #[test]
    fn store_matches_the_annotation_maps() {
        let mut a = TableAnnotation::default();
        a.column_types.insert(0, Some(TypeId(10)));
        a.column_types.insert(1, None);
        a.cell_entities.insert((0, 0), Some(EntityId(100)));
        a.cell_entities.insert((1, 1), Some(EntityId(200)));
        a.cell_entities.insert((1, 0), None);
        a.cell_confidence.insert((0, 0), 1.25);
        a.cell_confidence.insert((1, 0), -0.0);
        a.relations.insert((1, 0), Some(RelationId(6)));
        a.relations.insert((0, 1), Some(RelationId(5)));
        a.relations.insert((0, 0), None);
        // Decisions outside the 2×2 grid are dropped.
        a.cell_entities.insert((2, 0), Some(EntityId(300)));
        a.cell_entities.insert((0, 2), Some(EntityId(300)));
        a.cell_confidence.insert((0, 2), 9.0);
        a.column_types.insert(2, Some(TypeId(30)));
        a.relations.insert((1, 2), Some(RelationId(7)));
        let mut b = TableAnnotation::default();
        b.cell_entities.insert((0, 0), Some(EntityId(400)));
        let corpus = AnnotatedCorpus::from_parts(vec![grid(1, 2, 2), grid(2, 1, 1)], vec![a, b]);

        assert_eq!(corpus.column_type(0, 0), Some(TypeId(10)));
        assert_eq!(corpus.column_type(0, 1), None, "an `na` decision");
        assert_eq!(corpus.column_type(0, 2), None, "outside the grid");
        assert_eq!(corpus.entity(0, 0, 0), Some(EntityId(100)));
        assert_eq!(corpus.entity(0, 1, 0), None, "an `na` decision");
        assert_eq!(corpus.entity(0, 0, 1), None, "no decision");
        assert_eq!(corpus.entity(0, 1, 1), Some(EntityId(200)));
        assert_eq!(corpus.entity(0, 2, 0), None, "outside the grid");
        assert_eq!(corpus.entity(0, 0, 2), None, "outside the grid");
        assert_eq!(corpus.confidence(0, 0, 0).to_bits(), 1.25f64.to_bits());
        assert_eq!(corpus.confidence(0, 1, 0).to_bits(), (-0.0f64).to_bits(), "bit for bit");
        assert_eq!(corpus.confidence(0, 1, 1).to_bits(), 0.0f64.to_bits(), "none reported");
        assert_eq!(corpus.confidence(0, 0, 2), 0.0, "outside the grid");
        assert_eq!(corpus.relations(0), [(0, 1, RelationId(5)), (1, 0, RelationId(6))]);
        assert_eq!(corpus.column_entities(0, 0).collect::<Vec<_>>(), [EntityId(100)]);
        assert_eq!(corpus.column_entities(0, 1).collect::<Vec<_>>(), [EntityId(200)]);
        assert_eq!(corpus.column_entities(0, 2).count(), 0, "outside the grid");
        assert_eq!(
            corpus.entities(0).collect::<Vec<_>>(),
            [(0, 0, EntityId(100)), (1, 1, EntityId(200))]
        );
        // The second table starts where the first one ends.
        assert_eq!(corpus.entity(1, 0, 0), Some(EntityId(400)));
        assert_eq!(corpus.column_type(1, 0), None);
        assert!(corpus.relations(1).is_empty());
    }
}
