//! Search-index equivalence: the precomputed `columns_of_type` postings
//! must equal the old on-the-fly subtype scan over the corpus annotations.
//! And every id-bearing query kind answers ids past the catalog with no
//! answers, never a panic.

use std::cell::Cell;
use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use webtable_catalog::{Catalog, EntityId, RelationId, TypeId, World};
use webtable_core::Annotator;
use webtable_search::wire::{decode_query, encode_query};
use webtable_search::{ColRef, EntityQuery, JoinQuery, Query, SearchEngine};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn ids_past_the_catalog_answer_nothing(
        kind in 0usize..6,
        raw in proptest::collection::vec(any::<u32>(), 7),
        wide in proptest::collection::vec(any::<bool>(), 7),
        use_relations in any::<bool>(),
        k in 1usize..20,
    ) {
        let (w, engine) = fixture();
        let cat = &w.catalog;
        let past = Cell::new(false);
        // Id `i` comes from the whole `u32` range or from below `n`.
        let id = |i: usize, n: usize| {
            let id = if wide[i] { raw[i] } else { raw[i] % n as u32 };
            past.set(past.get() || id as usize >= n);
            id
        };
        let e = |i| EntityId(id(i, cat.num_entities()));
        let t = |i| TypeId(id(i, cat.num_types()));
        let r = |i| RelationId(id(i, cat.num_relations()));
        let query = match kind {
            0 => Query::Baseline(EntityQuery { relation: r(0), t1: t(1), t2: t(2), e2: e(3) }),
            1 => {
                let query = EntityQuery { relation: r(0), t1: t(1), t2: t(2), e2: e(3) };
                Query::Typed { query, use_relations }
            }
            2 => Query::Join { query: JoinQuery { r1: r(0), r2: r(1), e3: e(3) }, mid_k: k },
            3 => Query::PopulateRows { seeds: (4..7).map(e).collect(), k },
            4 => Query::PopulateColumns { seeds: (4..7).map(e).collect(), k },
            _ => Query::Related { entity: e(3), relation: r(0), k },
        };
        let back = decode_query(&encode_query(&query)).expect("wire round trip");
        prop_assert_eq!(&back, &query);
        let answers = engine.search(&back);
        prop_assert!(!past.get() || answers.is_empty(), "{query:?} answered {answers:?}");
    }
}
