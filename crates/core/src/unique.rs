//! Unique (key) column enforcement (§4.4.1).
//!
//! "Primary key or unique constraints on a column can be handled using a
//! min cost flow formulation" — after collective inference fixes the
//! column type, re-assign the column's cells to *distinct* entities so the
//! summed `φ1 + φ3` score is maximal, via [`crate::assignment`].

use webtable_catalog::{Catalog, EntityId};

use crate::assignment::{assign_unique, FORBIDDEN};
use crate::candidates::TableCandidates;
use crate::config::AnnotatorConfig;
use crate::features::f3;
use crate::result::TableAnnotation;
use crate::weights::{dot, Weights};

/// Re-assigns the cells of the given columns so that no two cells of a
/// column share an entity, maximizing the summed `φ1 + φ3` benefit under
/// the column's already-decided type. Cells may fall back to `na`.
pub fn enforce_unique_columns(
    catalog: &Catalog,
    cfg: &AnnotatorConfig,
    weights: &Weights,
    cands: &TableCandidates,
    annotation: &mut TableAnnotation,
    columns: &[usize],
) {
    for &c in columns {
        if c >= cands.columns.len() {
            continue;
        }
        let chosen_type = annotation.column_types.get(&c).copied().flatten();
        // Distinct candidate entities of the column, in first-seen order.
        let mut labels: Vec<EntityId> = Vec::new();
        for row in &cands.cells {
            for &e in &row[c].entities {
                if !labels.contains(&e) {
                    labels.push(e);
                }
            }
        }
        let rows = cands.cells.len();
        let mut benefit = vec![vec![FORBIDDEN; labels.len()]; rows];
        let na_benefit = vec![0.0; rows];
        for (r, row) in cands.cells.iter().enumerate() {
            let cell = &row[c];
            for (i, &e) in cell.entities.iter().enumerate() {
                let k = labels.iter().position(|&x| x == e).expect("label interned");
                let mut score = dot(&weights.w1, &cell.profiles[i].as_array());
                if let Some(t) = chosen_type {
                    score += dot(&weights.w3, &f3(catalog, cfg, t, e));
                }
                benefit[r][k] = score;
            }
        }
        let solution = assign_unique(&benefit, &na_benefit);
        for (r, choice) in solution.into_iter().enumerate() {
            annotation.cell_entities.insert((r, c), choice.map(|k| labels[k]));
        }
    }
}

#[cfg(test)]
mod tests {
    use webtable_catalog::CatalogBuilder;
    use webtable_tables::{Table, TableId};
    use webtable_text::SegmentedIndex;

    use super::*;
    use crate::infer::annotate_collective;

    /// A league-table scenario: every row is a *different* club, but two
    /// clubs share the mention "United".
    #[test]
    fn unique_column_separates_duplicate_picks() {
        let mut b = CatalogBuilder::new();
        let club = b.add_type("football club", &["club"]).unwrap();
        let e1 = b.add_entity("Norwich United", &["United", "Norwich"], &[club]).unwrap();
        let e2 = b.add_entity("Leeds United", &["United", "Leeds"], &[club]).unwrap();
        b.add_entity("Hull City", &["Hull"], &[club]).unwrap();
        let cat = b.finish().unwrap();
        let index = SegmentedIndex::build_split(&cat, 1, 0);
        let cfg = AnnotatorConfig::default();
        let weights = Weights::default();

        // Both "United" cells most resemble the same top candidate; the
        // third row disambiguates nothing.
        let table = Table::new(
            TableId(0),
            "league standings",
            vec![Some("Club".into())],
            vec![
                vec!["Norwich United".into()],
                vec!["United".into()], // ambiguous: Norwich or Leeds
                vec!["Hull City".into()],
            ],
        );
        let cands = TableCandidates::build(&cat, &index, &table, &cfg);
        let mut ann = annotate_collective(&cat, &index, &cfg, &weights, &table);
        enforce_unique_columns(&cat, &cfg, &weights, &cands, &mut ann, &[0]);

        let picks: Vec<Option<EntityId>> = (0..3).map(|r| ann.cell_entities[&(r, 0)]).collect();
        // Row 0 must keep the exact match.
        assert_eq!(picks[0], Some(e1));
        // Row 1 cannot reuse e1; it must take e2 or na.
        assert_ne!(picks[1], Some(e1));
        assert!(picks[1] == Some(e2) || picks[1].is_none());
        // No duplicates overall.
        let non_na: Vec<EntityId> = picks.iter().flatten().copied().collect();
        let distinct: std::collections::HashSet<_> = non_na.iter().collect();
        assert_eq!(distinct.len(), non_na.len(), "{picks:?}");
    }

    #[test]
    fn unique_on_out_of_range_column_is_a_noop() {
        let mut b = CatalogBuilder::new();
        let t = b.add_type("t", &[]).unwrap();
        b.add_entity("x", &[], &[t]).unwrap();
        let cat = b.finish().unwrap();
        let index = SegmentedIndex::build_split(&cat, 1, 0);
        let cfg = AnnotatorConfig::default();
        let weights = Weights::default();
        let table = Table::new(TableId(0), "", vec![Some("A".into())], vec![vec!["x".into()]]);
        let cands = TableCandidates::build(&cat, &index, &table, &cfg);
        let mut ann = annotate_collective(&cat, &index, &cfg, &weights, &table);
        let before = ann.clone();
        enforce_unique_columns(&cat, &cfg, &weights, &cands, &mut ann, &[7]);
        assert_eq!(ann, before);
    }
}
