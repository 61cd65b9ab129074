//! Figure 12 / Appendix F: the LCA over-generalization anecdote.
//!
//! A column of series novels where one entity's `∈` link to the series
//! category is missing from the catalog: LCA's 100%-intersection collapses
//! to an ancestor (ultimately the root), while Majority and Collective
//! keep the specific type; Collective additionally exploits the
//! missing-link feature (§4.2.3).

use webtable_catalog::{Catalog, CatalogBuilder};
use webtable_core::{annotate_collective, lca, majority, AnnotatorConfig, Weights};
use webtable_tables::{Table, TableId};
use webtable_text::SegmentedIndex;

/// The demo outcome: which type each method picked for the column.
#[derive(Debug, Clone)]
pub struct AnecdoteResult {
    /// Types chosen by LCA.
    pub lca_types: Vec<String>,
    /// Types chosen by Majority.
    pub majority_types: Vec<String>,
    /// Type chosen by Collective (singleton or na).
    pub collective_type: Option<String>,
}

fn nancy_catalog() -> (Catalog, Table) {
    let mut b = CatalogBuilder::new();
    let root = b.add_type("entity", &[]).unwrap();
    let novel = b.add_type("novel", &["title", "book"]).unwrap();
    let nancy = b.add_type("nancy drew books", &["nancy drew"]).unwrap();
    let y1951 = b.add_type("1951 novels", &[]).unwrap();
    let childrens = b.add_type("children's novels", &[]).unwrap();
    b.add_subtype(novel, root);
    b.add_subtype(nancy, novel);
    b.add_subtype(y1951, novel);
    b.add_subtype(childrens, novel);
    let titles = [
        "The Secret of the Old Clock",
        "The Hidden Staircase",
        "The Bungalow Mystery",
        "The Mystery at Lilac Inn",
        "The Secret of Shadow Ranch",
    ];
    for (i, t) in titles.iter().enumerate() {
        // A couple of the series books are also 1951 novels, so the year
        // category's extent overlaps the series extent — the signal the
        // missing-link feature uses (§4.2.3).
        let direct = if i < 2 { vec![nancy, y1951] } else { vec![nancy] };
        b.add_entity(*t, &[], &direct).unwrap();
    }
    // The degraded entity of Appendix F: `∈ nancy drew books` is missing;
    // only the year and audience categories survive. (Token-disjoint title
    // so its candidate set is unambiguous.)
    b.add_entity("Password to Larkspur Lane", &[], &[y1951, childrens]).unwrap();
    let cat = b.finish().unwrap();
    let mut rows: Vec<Vec<String>> = titles.iter().map(|t| vec![t.to_string()]).collect();
    rows.push(vec!["Password to Larkspur Lane".to_string()]);
    // Headerless column, as is common for Web tables.
    let table = Table::new(TableId(12), "Nancy Drew novels", vec![None], rows);
    (cat, table)
}

/// Runs the anecdote and reports each method's column type.
pub fn run_anecdote() -> (AnecdoteResult, String) {
    let (cat, table) = nancy_catalog();
    let index = SegmentedIndex::build_split(&cat, 1, 0);
    let cfg = AnnotatorConfig::default();
    let weights = Weights::default();
    let name = |t: webtable_catalog::TypeId| cat.type_name(t).to_string();

    let l = lca(&cat, &index, &cfg, &weights, &table);
    let m = majority(&cat, &index, &cfg, &weights, &table);
    let c = annotate_collective(&cat, &index, &cfg, &weights, &table);
    let result = AnecdoteResult {
        lca_types: l.column_types[&0].iter().map(|&t| name(t)).collect(),
        majority_types: m.column_types[&0].iter().map(|&t| name(t)).collect(),
        collective_type: c.column_types[&0].map(name),
    };
    let mut out = String::from("== Figure 12 / Appendix F: LCA over-generalizes ==\n");
    out.push_str("Column of six Nancy Drew novels; one lost its '∈ nancy drew books' link.\n");
    out.push_str(&format!("LCA        → {:?}\n", result.lca_types));
    out.push_str(&format!("Majority   → {:?}\n", result.majority_types));
    out.push_str(&format!("Collective → {:?}\n", result.collective_type));
    (result, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anecdote_reproduces_paper_failure_mode() {
        let (r, rendered) = run_anecdote();
        assert!(
            !r.lca_types.contains(&"nancy drew books".to_string()),
            "LCA must over-generalize: {:?}",
            r.lca_types
        );
        assert!(
            r.majority_types.contains(&"nancy drew books".to_string()),
            "Majority keeps the specific type: {:?}",
            r.majority_types
        );
        assert_eq!(
            r.collective_type.as_deref(),
            Some("nancy drew books"),
            "Collective picks the specific type"
        );
        assert!(rendered.contains("LCA"));
    }
}
