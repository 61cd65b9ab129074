//! Inference entry points: collective (§4.4.2) and the simplified special
//! case without relation variables (§4.4.1, Figure 2).

use webtable_catalog::Catalog;
use webtable_tables::Table;
use webtable_text::SegmentedIndex;

use crate::candidates::TableCandidates;
use crate::config::AnnotatorConfig;
use crate::features::f3;
use crate::model::TableModel;
use crate::result::TableAnnotation;
use crate::weights::{dot, Weights};

/// Full collective inference: builds the joint model over `t_c`, `e_rc`,
/// `b_cc'` and runs max-product BP with the Figure 11 schedule.
pub fn annotate_collective(
    catalog: &Catalog,
    index: &SegmentedIndex,
    cfg: &AnnotatorConfig,
    weights: &Weights,
    table: &Table,
) -> TableAnnotation {
    let cands = TableCandidates::build(catalog, index, table, cfg);
    let model = TableModel::build(catalog, cfg, weights, table, cands);
    model.decode()
}

/// The simplified exact algorithm of Figure 2: no `b_cc'` variables, so
/// each column's type (and then each cell's entity) is optimized
/// independently:
///
/// ```text
/// for each column c:
///   for each type T ∈ T_c:   A_T ← φ2(c,T) · Π_r max_E φ1(r,c,E)·φ3(T,E)
///   t*_c ← argmax_T A_T; recall cell argmaxes
/// ```
///
/// `na` participates as a label with potential 1 (log 0) at both levels.
pub fn annotate_simple(
    catalog: &Catalog,
    index: &SegmentedIndex,
    cfg: &AnnotatorConfig,
    weights: &Weights,
    table: &Table,
) -> TableAnnotation {
    let cands = TableCandidates::build(catalog, index, table, cfg);
    let mut out = TableAnnotation { converged: true, ..Default::default() };
    for c in 0..table.num_cols() {
        let col = &cands.columns[c];
        // Label 0 = na.
        let mut best_label = 0usize;
        let mut best_score = f64::NEG_INFINITY;
        let mut best_cells: Vec<usize> = Vec::new();
        for t_label in 0..=col.types.len() {
            let phi2 = if t_label == 0 {
                0.0
            } else {
                dot(&weights.w2, &col.header_profiles[t_label - 1].as_array())
            };
            let mut score = phi2;
            let mut cells = Vec::with_capacity(table.num_rows());
            for r in 0..table.num_rows() {
                let cell = &cands.cells[r][c];
                let mut cell_best = 0.0; // e = na
                let mut cell_label = 0usize;
                for (ei, &e) in cell.entities.iter().enumerate() {
                    let phi1 = dot(&weights.w1, &cell.profiles[ei].as_array());
                    let phi3 = if t_label == 0 {
                        0.0
                    } else {
                        dot(&weights.w3, &f3(catalog, cfg, col.types[t_label - 1], e))
                    };
                    let s = phi1 + phi3;
                    if s > cell_best {
                        cell_best = s;
                        cell_label = ei + 1;
                    }
                }
                score += cell_best;
                cells.push(cell_label);
            }
            if score > best_score {
                best_score = score;
                best_label = t_label;
                best_cells = cells;
            }
        }
        out.column_types.insert(c, (best_label > 0).then(|| col.types[best_label - 1]));
        for (r, &cell_label) in best_cells.iter().enumerate() {
            let e = (cell_label > 0).then(|| cands.cells[r][c].entities[cell_label - 1]);
            out.cell_entities.insert((r, c), e);
            out.cell_confidence.insert((r, c), 0.0);
        }
    }
    // No relation variables: every pair is na.
    for c1 in 0..table.num_cols() {
        for c2 in (c1 + 1)..table.num_cols() {
            out.relations.insert((c1, c2), None);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use webtable_catalog::{generate_world, WorldConfig};
    use webtable_tables::{NoiseConfig, TableGenerator, TruthMask};

    use super::*;

    fn setup() -> (webtable_catalog::World, SegmentedIndex) {
        let w = generate_world(&WorldConfig::tiny(5)).unwrap();
        let index = SegmentedIndex::build_split(&w.catalog, 1, 0);
        (w, index)
    }

    #[test]
    fn collective_recovers_clean_table_entities() {
        let (w, index) = setup();
        let cfg = AnnotatorConfig::default();
        let weights = Weights::default();
        let mut g = TableGenerator::new(&w, NoiseConfig::clean(), TruthMask::full(), 21);
        let lt = g.gen_table_for_relation(w.relations.directed, 8);
        let ann = annotate_collective(&w.catalog, &index, &cfg, &weights, &lt.table);
        let mut right = 0usize;
        let mut total = 0usize;
        for (&(r, c), gold) in &lt.truth.cell_entities {
            if gold.is_some() {
                total += 1;
                if ann.cell_entities[&(r, c)] == *gold {
                    right += 1;
                }
            }
        }
        assert!(total > 0);
        assert!(
            right * 10 >= total * 7,
            "collective should get most clean cells right: {right}/{total}"
        );
    }

    #[test]
    fn collective_finds_the_relation_on_clean_tables() {
        let (w, index) = setup();
        let cfg = AnnotatorConfig::default();
        let weights = Weights::default();
        let mut g = TableGenerator::new(&w, NoiseConfig::clean(), TruthMask::full(), 22);
        let lt = g.gen_table_for_relation(w.relations.plays_for, 10);
        let ann = annotate_collective(&w.catalog, &index, &cfg, &weights, &lt.table);
        let found = ann.relations.values().any(|&v| v == Some(w.relations.plays_for));
        assert!(found, "playsFor should be annotated: {:?}", ann.relations);
    }

    #[test]
    fn simple_equals_collective_shape_without_pairs() {
        // On a table whose columns share no candidate relations, the
        // collective model has no b variables and reduces to Figure 2.
        let (w, index) = setup();
        let cfg = AnnotatorConfig::default();
        let weights = Weights::default();
        let table = webtable_tables::Table::new(
            webtable_tables::TableId(1),
            "no relations here",
            vec![Some("Year".into()), Some("Rating".into())],
            vec![vec!["1984".into(), "7.5".into()], vec!["1999".into(), "8.1".into()]],
        );
        let simple = annotate_simple(&w.catalog, &index, &cfg, &weights, &table);
        let collective = annotate_collective(&w.catalog, &index, &cfg, &weights, &table);
        assert_eq!(simple.column_types, collective.column_types);
        assert_eq!(simple.cell_entities, collective.cell_entities);
    }

    #[test]
    fn simple_assigns_na_to_junk_columns() {
        let (w, index) = setup();
        let cfg = AnnotatorConfig::default();
        let weights = Weights::default();
        let table = webtable_tables::Table::new(
            webtable_tables::TableId(2),
            "",
            vec![Some("Rating".into())],
            vec![vec!["9.1".into()], vec!["3.2".into()]],
        );
        let ann = annotate_simple(&w.catalog, &index, &cfg, &weights, &table);
        assert_eq!(ann.cell_entities[&(0, 0)], None);
        assert_eq!(ann.cell_entities[&(1, 0)], None);
    }

    #[test]
    fn collective_beats_or_ties_simple_on_noisy_relational_tables() {
        // The paper's core claim (Figure 6): joint inference helps. On a
        // batch of noisy tables, collective entity accuracy must be ≥
        // simple accuracy (they coincide on easy tables).
        let (w, index) = setup();
        let cfg = AnnotatorConfig::default();
        let weights = Weights::default();
        let mut g = TableGenerator::new(&w, NoiseConfig::web(), TruthMask::full(), 23);
        let mut simple_right = 0usize;
        let mut collective_right = 0usize;
        let mut total = 0usize;
        for _ in 0..6 {
            let lt = g.gen_table(8);
            let s = annotate_simple(&w.catalog, &index, &cfg, &weights, &lt.table);
            let c = annotate_collective(&w.catalog, &index, &cfg, &weights, &lt.table);
            for (&rc, gold) in &lt.truth.cell_entities {
                total += 1;
                if s.cell_entities[&rc] == *gold {
                    simple_right += 1;
                }
                if c.cell_entities[&rc] == *gold {
                    collective_right += 1;
                }
            }
        }
        assert!(total > 0);
        assert!(
            collective_right + 2 >= simple_right,
            "collective {collective_right} vs simple {simple_right} of {total}"
        );
    }
}
