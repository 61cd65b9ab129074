//! Search-index equivalence: the precomputed `columns_of_type` postings
//! must equal the old on-the-fly subtype scan over the corpus annotations.

use std::sync::{Arc, OnceLock};

use webtable_catalog::{Catalog, TypeId, World};
use webtable_core::Annotator;
use webtable_search::{ColRef, SearchEngine};
use webtable_tables::{NoiseConfig, TableGenerator, TruthMask};

fn fixture() -> &'static (World, SearchEngine) {
    static FIXTURE: OnceLock<(World, SearchEngine)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let w = webtable_catalog::generate_world(&webtable_catalog::WorldConfig::tiny(43)).unwrap();
        let annotator = Annotator::new(Arc::clone(&w.catalog));
        let mut g = TableGenerator::new(&w, NoiseConfig::wiki(), TruthMask::full(), 13);
        let mut tables = Vec::new();
        for _ in 0..8 {
            tables.push(g.gen_table_for_relation(w.relations.directed, 10).table);
        }
        for _ in 0..6 {
            tables.push(g.gen_table_for_relation(w.relations.born_in, 10).table);
        }
        let engine = SearchEngine::from_tables(&annotator, tables, 2);
        (w, engine)
    })
}

/// The pre-PR-5 `columns_of_type`, reimplemented verbatim as the oracle:
/// scan every annotated type, test subtype-hood, merge, sort.
fn columns_of_type_reference(
    engine: &SearchEngine,
    catalog: &Catalog,
    query_type: TypeId,
) -> Vec<ColRef> {
    let mut out: Vec<ColRef> = Vec::new();
    for ti in 0..catalog.num_types() {
        let t = TypeId(ti as u32);
        if catalog.is_subtype(t, query_type) {
            // The precomputed posting for a *leaf* lookup of t itself is
            // exactly the raw annotated set when t has no subtypes; use
            // the corpus annotations directly to stay independent of the
            // index internals.
            for (table_i, ann) in engine.corpus().annotations.iter().enumerate() {
                for (&c, &ty) in &ann.column_types {
                    if ty == Some(t) {
                        out.push((table_i as u32, c as u16));
                    }
                }
            }
        }
    }
    out.sort_unstable();
    out
}

#[test]
fn precomputed_type_postings_match_subtype_scan() {
    let (w, engine) = fixture();
    let catalog = &w.catalog;
    let mut nonempty = 0usize;
    for ti in 0..catalog.num_types() {
        let t = TypeId(ti as u32);
        let want = columns_of_type_reference(engine, catalog, t);
        let got = engine.index().columns_of_type(t);
        assert_eq!(got, want.as_slice(), "type {ti}");
        nonempty += usize::from(!want.is_empty());
    }
    assert!(nonempty > 0, "the corpus must annotate some columns");
}
