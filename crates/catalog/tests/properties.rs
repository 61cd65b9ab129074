//! Property tests for catalog closure invariants over random DAGs.

use proptest::prelude::*;
use webtable_catalog::{Cardinality, Catalog, CatalogBuilder, EntityId, TypeId};

/// Strategy: a random catalog with `n_types` in a random DAG (each type may
/// attach to earlier types), `n_entities` with 1–2 random direct types, and
/// one relation with random tuples.
fn arb_catalog() -> impl Strategy<Value = webtable_catalog::Catalog> {
    (2usize..10, 1usize..20, proptest::collection::vec(any::<u32>(), 64)).prop_map(
        |(n_types, n_entities, seeds)| {
            let mut b = CatalogBuilder::new();
            b.allow_schema_violations();
            let mut k = 0usize;
            let mut next = || {
                let v = seeds[k % seeds.len()];
                k += 1;
                v as usize
            };
            let types: Vec<TypeId> =
                (0..n_types).map(|i| b.add_type(format!("type{i}"), &[]).unwrap()).collect();
            for i in 1..n_types {
                // 1-2 parents among earlier types: guarantees a DAG.
                let p1 = types[next() % i];
                b.add_subtype(types[i], p1);
                if next() % 3 == 0 {
                    let p2 = types[next() % i];
                    b.add_subtype(types[i], p2);
                }
            }
            let ents: Vec<EntityId> = (0..n_entities)
                .map(|i| {
                    let t1 = types[next() % n_types];
                    b.add_entity(format!("ent{i}"), &[], &[t1]).unwrap()
                })
                .collect();
            for &e in &ents {
                if next() % 4 == 0 {
                    b.add_instance(e, types[next() % n_types]);
                }
            }
            let r = b.add_relation("rel", types[0], types[0], Cardinality::ManyToMany).unwrap();
            for _ in 0..(next() % 8) {
                b.add_tuple(r, ents[next() % n_entities], ents[next() % n_entities]);
            }
            b.finish().unwrap()
        },
    )
}

/// `missing_link_relatedness` recomputed pair by pair from the extents:
/// the min, over `e`'s direct types in order, of
/// `|E(tp) ∩ E(t)| / |E(tp)|`, skipping empty and over-cap extents.
fn reference_relatedness(cat: &Catalog, e: EntityId, t: TypeId) -> f64 {
    let mut best: Option<f64> = None;
    for &tp in &cat.entity(e).direct_types {
        let denom = cat.extent_size(tp);
        if denom == 0 || denom > Catalog::MISSING_LINK_EXTENT_CAP {
            continue;
        }
        let ratio = cat.extent_overlap(tp, t) as f64 / denom as f64;
        best = Some(best.map_or(ratio, |b| b.min(ratio)));
    }
    best.unwrap_or(0.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn ancestors_are_transitively_closed(cat in arb_catalog()) {
        for t in cat.type_ids() {
            for &a in cat.ancestors(t) {
                for &aa in cat.ancestors(a) {
                    prop_assert!(
                        cat.is_subtype(t, aa),
                        "{t:?} ⊆* {a:?} ⊆* {aa:?} must imply {t:?} ⊆* {aa:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn instance_iff_type_in_te(cat in arb_catalog()) {
        for e in cat.entity_ids() {
            for t in cat.type_ids() {
                let via_te = cat.types_of(e).binary_search(&t).is_ok();
                prop_assert_eq!(cat.is_instance(e, t), via_te);
                // E ∈+ T ⇔ E ∈ E(T).
                let via_extent = cat.extent(t).binary_search(&e).is_ok();
                prop_assert_eq!(via_te, via_extent);
            }
        }
    }

    #[test]
    fn extents_shrink_down_the_dag(cat in arb_catalog()) {
        for t in cat.type_ids() {
            for &p in cat.parents(t) {
                prop_assert!(
                    cat.extent_size(t) <= cat.extent_size(p),
                    "extent({t:?}) ⊆ extent({p:?})"
                );
                for &e in cat.extent(t) {
                    prop_assert!(cat.is_instance(e, p));
                }
            }
        }
    }

    #[test]
    fn dist_is_consistent(cat in arb_catalog()) {
        for e in cat.entity_ids() {
            for t in cat.type_ids() {
                match cat.dist(e, t) {
                    Some(d) => {
                        prop_assert!(d >= 1, "one ∈ edge minimum");
                        prop_assert!(cat.is_instance(e, t));
                        // Moving to a parent adds at most one edge.
                        for &p in cat.parents(t) {
                            let dp = cat.dist(e, p).expect("parent reachable");
                            prop_assert!(dp <= d + 1);
                        }
                    }
                    None => prop_assert!(!cat.is_instance(e, t)),
                }
            }
        }
    }

    #[test]
    fn most_specific_returns_an_antichain(cat in arb_catalog()) {
        let all: Vec<TypeId> = cat.type_ids().collect();
        let ms = cat.most_specific(&all);
        prop_assert!(!ms.is_empty());
        for &a in &ms {
            for &b in &ms {
                if a != b {
                    prop_assert!(!cat.is_subtype(a, b), "{a:?} and {b:?} must be incomparable");
                }
            }
        }
        // Every input type is an ancestor of some retained type.
        for &t in &all {
            prop_assert!(ms.iter().any(|&m| cat.is_subtype(m, t)));
        }
    }

    #[test]
    fn specificity_is_antimonotone_in_extent(cat in arb_catalog()) {
        for t in cat.type_ids() {
            for &p in cat.parents(t) {
                prop_assert!(cat.specificity(t) >= cat.specificity(p) - 1e-12);
            }
        }
    }

    #[test]
    fn missing_link_relatedness_is_bounded(cat in arb_catalog()) {
        for e in cat.entity_ids() {
            for t in cat.type_ids() {
                let r = cat.missing_link_relatedness(e, t);
                prop_assert!((0.0..=1.0).contains(&r));
            }
        }
    }

    #[test]
    fn missing_link_relatedness_matches_extent_overlap_bitwise(cat in arb_catalog()) {
        for e in cat.entity_ids() {
            for t in cat.type_ids() {
                prop_assert_eq!(
                    cat.missing_link_relatedness(e, t).to_bits(),
                    reference_relatedness(&cat, e, t).to_bits(),
                    "({:?}, {:?})", e, t
                );
            }
        }
    }

    #[test]
    fn tsv_round_trip_preserves_structure(cat in arb_catalog()) {
        let mut buf = Vec::new();
        webtable_catalog::io::write_catalog(&cat, &mut buf).unwrap();
        let back = webtable_catalog::io::read_catalog(&buf[..]).unwrap();
        prop_assert_eq!(back.num_types(), cat.num_types());
        prop_assert_eq!(back.num_entities(), cat.num_entities());
        for e in cat.entity_ids() {
            prop_assert_eq!(back.types_of(e), cat.types_of(e));
        }
        for t in cat.type_ids() {
            prop_assert_eq!(back.extent(t), cat.extent(t));
        }
    }
}
