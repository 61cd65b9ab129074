//! The baseline annotators of §4.5: LCA and threshold-voting (Majority).
//!
//! Both produce *set-valued* column-type predictions (evaluated with F1,
//! §4.5.1) plus per-cell entity choices; Majority additionally votes for
//! relations using its independently-chosen cell entities.

use std::collections::HashMap;

use webtable_catalog::{Catalog, EntityId, RelationId, TypeId};
use webtable_tables::Table;
use webtable_text::SegmentedIndex;

use crate::candidates::TableCandidates;
use crate::config::AnnotatorConfig;
use crate::features::f3;
use crate::weights::{dot, Weights};

/// Output of a baseline: set-valued types, point entity decisions, and
/// oriented relation decisions (same key convention as
/// [`crate::result::TableAnnotation`]).
#[derive(Debug, Clone, Default)]
pub struct BaselineAnnotation {
    /// `col` → candidate type set (may be empty = na).
    pub column_types: HashMap<usize, Vec<TypeId>>,
    /// `(row, col)` → entity decision.
    pub cell_entities: HashMap<(usize, usize), Option<EntityId>>,
    /// Oriented pair → relation decision.
    pub relations: HashMap<(usize, usize), Option<RelationId>>,
}

/// The LCA baseline (§4.5.1): a column's types are the most specific
/// members of `⋂_r ⋃_{E∈E_rc} T(E)`; cells are then assigned by the
/// Figure 2 rule with the best type fixed.
///
/// Equivalent to [`majority`] with a 100% vote threshold.
pub fn lca(
    catalog: &Catalog,
    index: &SegmentedIndex,
    cfg: &AnnotatorConfig,
    weights: &Weights,
    table: &Table,
) -> BaselineAnnotation {
    majority_with_threshold(catalog, index, cfg, weights, table, 1.0)
}

/// The Majority baseline (§4.5.2): types supported by more than 50% of
/// cells; entities chosen independently per cell by `φ1` alone.
pub fn majority(
    catalog: &Catalog,
    index: &SegmentedIndex,
    cfg: &AnnotatorConfig,
    weights: &Weights,
    table: &Table,
) -> BaselineAnnotation {
    majority_with_threshold(catalog, index, cfg, weights, table, 0.5)
}

/// Threshold-voting baseline family: `F = 1.0` recovers LCA, `F = 0.5`
/// Majority; the paper also sweeps intermediate thresholds ("best type
/// accuracy of 46% with a 60% threshold", §6.1.1).
pub fn majority_with_threshold(
    catalog: &Catalog,
    index: &SegmentedIndex,
    cfg: &AnnotatorConfig,
    weights: &Weights,
    table: &Table,
    threshold: f64,
) -> BaselineAnnotation {
    // Candidate generation is shared with the main annotator, but the
    // voting uses *unpruned* type sets per cell (the baseline defines its
    // own type space).
    let mut big = cfg.clone();
    big.type_k = usize::MAX;
    let cands = TableCandidates::build(catalog, index, table, &big);
    let lca_mode = threshold >= 1.0;
    let mut out = BaselineAnnotation::default();

    for c in 0..table.num_cols() {
        // Votes: for each cell, the union of candidate-entity ancestor
        // types gets one vote each.
        let mut votes: HashMap<TypeId, usize> = HashMap::new();
        let mut non_empty_cells = 0usize;
        for r in 0..table.num_rows() {
            let cell = &cands.cells[r][c];
            if cell.entities.is_empty() {
                continue;
            }
            non_empty_cells += 1;
            let mut seen: Vec<TypeId> = Vec::new();
            for &e in &cell.entities {
                for &t in catalog.types_of(e) {
                    if !seen.contains(&t) {
                        seen.push(t);
                    }
                }
            }
            for t in seen {
                *votes.entry(t).or_insert(0) += 1;
            }
        }
        let needed = if lca_mode {
            non_empty_cells
        } else {
            // "more than a threshold F% vote"
            ((non_empty_cells as f64) * threshold).floor() as usize + 1
        };
        let mut passing: Vec<TypeId> = votes
            .iter()
            .filter(|&(_, &v)| non_empty_cells > 0 && v >= needed.max(1))
            .map(|(&t, _)| t)
            .collect();
        passing.sort_unstable();
        // Most specific members only (LCA rule; also sensible for voting).
        let chosen = catalog.most_specific(&passing);
        out.column_types.insert(c, chosen.clone());

        // Entity assignment.
        if lca_mode {
            // Figure 2 with the type fixed to the best passing type.
            for r in 0..table.num_rows() {
                let cell = &cands.cells[r][c];
                let mut best = 0.0;
                let mut best_e = None;
                for (ei, &e) in cell.entities.iter().enumerate() {
                    let phi1 = dot(&weights.w1, &cell.profiles[ei].as_array());
                    let phi3 = chosen
                        .iter()
                        .map(|&t| dot(&weights.w3, &f3(catalog, cfg, t, e)))
                        .fold(0.0f64, f64::max);
                    if phi1 + phi3 > best {
                        best = phi1 + phi3;
                        best_e = Some(e);
                    }
                }
                out.cell_entities.insert((r, c), best_e);
            }
        } else {
            // "entity assignment independently for each cell" — φ1 only.
            for r in 0..table.num_rows() {
                let cell = &cands.cells[r][c];
                let mut best = 0.0;
                let mut best_e = None;
                for (ei, &e) in cell.entities.iter().enumerate() {
                    let phi1 = dot(&weights.w1, &cell.profiles[ei].as_array());
                    if phi1 > best {
                        best = phi1;
                        best_e = Some(e);
                    }
                }
                out.cell_entities.insert((r, c), best_e);
            }
        }
    }

    // Relation vote (Majority only; the paper reports no LCA relation
    // numbers): for each pair, count rows whose *chosen* entities are in
    // some relation; keep relations above the threshold.
    if !lca_mode {
        for c1 in 0..table.num_cols() {
            for c2 in (c1 + 1)..table.num_cols() {
                let mut votes: HashMap<(RelationId, bool), usize> = HashMap::new();
                let mut rows_with_pairs = 0usize;
                for r in 0..table.num_rows() {
                    let (e1, e2) = (
                        out.cell_entities.get(&(r, c1)).copied().flatten(),
                        out.cell_entities.get(&(r, c2)).copied().flatten(),
                    );
                    let (Some(e1), Some(e2)) = (e1, e2) else { continue };
                    rows_with_pairs += 1;
                    for &rel in catalog.relations_between(e1, e2) {
                        *votes.entry((rel, false)).or_insert(0) += 1;
                    }
                    for &rel in catalog.relations_between(e2, e1) {
                        *votes.entry((rel, true)).or_insert(0) += 1;
                    }
                }
                // Plurality vote with minimal support: the catalog holds
                // only a seed fraction of the facts (§1.2), so demanding a
                // strict share of *all* rows would always abstain. The mode
                // must still be supported by at least two rows (one row
                // proves nothing about the column pair).
                let needed = if rows_with_pairs >= 4 { 2 } else { 1 };
                let mut winners: Vec<((RelationId, bool), usize)> =
                    votes.into_iter().filter(|&(_, v)| v >= needed).collect();
                winners.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0 .0.cmp(&b.0 .0)));
                match winners.first() {
                    Some(&((rel, reversed), _)) => {
                        let key = if reversed { (c2, c1) } else { (c1, c2) };
                        out.relations.insert(key, Some(rel));
                    }
                    None => {
                        out.relations.insert((c1, c2), None);
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use webtable_catalog::{generate_world, CatalogBuilder, WorldConfig};
    use webtable_tables::{NoiseConfig, TableGenerator, TableId, TruthMask};

    use super::*;

    fn setup() -> (webtable_catalog::World, SegmentedIndex) {
        let w = generate_world(&WorldConfig::tiny(5)).unwrap();
        let index = SegmentedIndex::build_split(&w.catalog, 1, 0);
        (w, index)
    }

    #[test]
    fn majority_votes_types_on_clean_columns() {
        let (w, index) = setup();
        let cfg = AnnotatorConfig::default();
        let weights = Weights::default();
        let mut g = TableGenerator::new(&w, NoiseConfig::clean(), TruthMask::full(), 31);
        let lt = g.gen_table_for_relation(w.relations.directed, 8);
        let ann = majority(&w.catalog, &index, &cfg, &weights, &lt.table);
        // The gold types should be *contained* in the majority sets most of
        // the time on clean data.
        let mut hit = 0;
        let mut total = 0;
        for (&c, gold) in &lt.truth.column_types {
            if let Some(t) = gold {
                total += 1;
                if ann.column_types[&c].contains(t) {
                    hit += 1;
                }
            }
        }
        assert!(total > 0);
        assert!(hit > 0, "majority must find some gold types");
    }

    #[test]
    fn lca_overgeneralizes_with_missing_links() {
        // Appendix F: one entity lost its ∈ link to the series type, so
        // the 100%-intersection collapses toward the root while Majority
        // (50%) keeps the specific type.
        let mut b = CatalogBuilder::new();
        let root = b.add_type("entity", &[]).unwrap();
        let novel = b.add_type("novel", &["title"]).unwrap();
        let nancy = b.add_type("nancy drew books", &["nancy drew"]).unwrap();
        b.add_subtype(novel, root);
        b.add_subtype(nancy, novel);
        let mut names = Vec::new();
        // Token-disjoint titles so the degraded entity's cell can only
        // propose itself as a candidate.
        for name in ["Larkspur Lane", "Blackwood Hall", "Leaning Chimney", "Wooden Lady"] {
            b.add_entity(name, &[], &[nancy]).unwrap();
            names.push(name.to_string());
        }
        // The degraded one: attached to `novel` only (∈ nancy missing).
        let name = "The Clue of the Black Keys".to_string();
        b.add_entity(name.clone(), &[], &[novel]).unwrap();
        names.push(name);
        let cat = b.finish().unwrap();
        let index = SegmentedIndex::build_split(&cat, 1, 0);
        let cfg = AnnotatorConfig::default();
        let weights = Weights::default();
        let rows: Vec<Vec<String>> = names.iter().map(|n| vec![n.clone()]).collect();
        let table = Table::new(TableId(0), "novels", vec![Some("Title".into())], rows);
        let l = lca(&cat, &index, &cfg, &weights, &table);
        let m = majority(&cat, &index, &cfg, &weights, &table);
        let nancy_t = cat.type_named("nancy drew books").unwrap();
        let novel_t = cat.type_named("novel").unwrap();
        assert!(
            !l.column_types[&0].contains(&nancy_t),
            "LCA must lose the specific type: {:?}",
            l.column_types[&0]
        );
        assert!(
            l.column_types[&0].contains(&novel_t) || l.column_types[&0].contains(&cat.root()),
            "LCA over-generalizes to an ancestor"
        );
        assert!(
            m.column_types[&0].contains(&nancy_t),
            "Majority keeps the specific type: {:?}",
            m.column_types[&0]
        );
    }

    #[test]
    fn threshold_interpolates_between_majority_and_lca() {
        let (w, index) = setup();
        let cfg = AnnotatorConfig::default();
        let weights = Weights::default();
        let mut g = TableGenerator::new(&w, NoiseConfig::wiki(), TruthMask::full(), 33);
        let lt = g.gen_table(10);
        let m50 = majority_with_threshold(&w.catalog, &index, &cfg, &weights, &lt.table, 0.5);
        let m100 = majority_with_threshold(&w.catalog, &index, &cfg, &weights, &lt.table, 1.0);
        // Higher thresholds can only shrink (or keep) the passing vote
        // sets before the most-specific filter, so the 100% set's *votes*
        // are a subset. After most-specific filtering sizes may vary, but
        // both must exist for each column.
        assert_eq!(m50.column_types.len(), m100.column_types.len());
    }

    #[test]
    fn majority_finds_relations_on_clean_tables() {
        let (w, index) = setup();
        let cfg = AnnotatorConfig::default();
        let weights = Weights::default();
        let mut g = TableGenerator::new(&w, NoiseConfig::clean(), TruthMask::full(), 34);
        let lt = g.gen_table_for_relation(w.relations.capital, 6);
        let ann = majority(&w.catalog, &index, &cfg, &weights, &lt.table);
        let found = ann.relations.values().any(|&v| v == Some(w.relations.capital));
        assert!(found, "capital should win the vote: {:?}", ann.relations);
    }

    #[test]
    fn empty_table_is_handled() {
        let (w, index) = setup();
        let cfg = AnnotatorConfig::default();
        let weights = Weights::default();
        let table = Table::new(TableId(5), "", vec![Some("X".into())], vec![vec!["".into()]]);
        let ann = majority(&w.catalog, &index, &cfg, &weights, &table);
        assert_eq!(ann.cell_entities[&(0, 0)], None);
        assert!(ann.column_types[&0].is_empty());
    }
}
