//! An annotated table corpus: the searchable artifact.

use webtable_core::TableAnnotation;
use webtable_tables::Table;

/// Tables plus their (machine-produced) annotations, aligned by index.
#[derive(Debug, Clone, Default)]
pub struct AnnotatedCorpus {
    /// The source tables.
    pub tables: Vec<Table>,
    /// One annotation per table.
    pub annotations: Vec<TableAnnotation>,
}

impl AnnotatedCorpus {
    /// Wraps pre-computed annotations.
    pub fn from_parts(tables: Vec<Table>, annotations: Vec<TableAnnotation>) -> AnnotatedCorpus {
        assert_eq!(tables.len(), annotations.len(), "misaligned corpus");
        AnnotatedCorpus { tables, annotations }
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True if the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

#[cfg(test)]
mod tests {
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
}
