//! The feature families `f3`, `f4`, `f5` (§4.2.3–§4.2.5).
//!
//! `f1`/`f2` are similarity profiles computed by `webtable-text`
//! ([`webtable_text::StringSim`]); this module computes the catalog-
//! structural features:
//!
//! * `f3(T, E)` — type↔entity compatibility: a distance/IDF-based
//!   specificity term plus the missing-link relatedness hint;
//! * `f4(B, T, T′)` — relation↔type-pair compatibility: schema match and
//!   participation fractions;
//! * `f5(B, E, E′)` — relation↔entity-pair evidence: tuple presence and
//!   cardinality-violation indicator.
//!
//! No feature fires when `na` is involved (§4.2): callers only invoke
//! these for non-`na` labels.

use webtable_catalog::{Catalog, EntityId, TypeId};

use crate::candidates::RelLabel;
use crate::config::{AnnotatorConfig, CompatMode};
use crate::weights::{F3_DIM, F4_DIM, F5_DIM};

/// Computes `f3(T, E)` — `[compat, missing_link]`.
///
/// When `E ∈+ T`, the compat element follows the configured
/// [`CompatMode`]; the missing-link element is 0. When `E ∉+ T`, compat is
/// 0 and (if enabled) the missing-link element is
/// `min_{T'∋E} |E(T')∩E(T)|/|E(T')| · 1/min_{E'∈E(T)} dist(E',T)` (§4.2.3).
///
/// A pure function of the catalog: every term is a lookup in a table
/// [`Catalog`] precomputed at construction, with no lock and no memo, so
/// callers evaluate it directly instead of caching it.
pub fn f3(catalog: &Catalog, cfg: &AnnotatorConfig, t: TypeId, e: EntityId) -> [f64; F3_DIM] {
    match catalog.dist(e, t) {
        Some(d) => {
            let d = d.max(1) as f64;
            let compat = match cfg.compat {
                CompatMode::InvSqrtDist => 1.0 / d.sqrt(),
                CompatMode::InvDist => 1.0 / d,
                CompatMode::Idf => idf_specificity(catalog, t),
            };
            [compat, 0.0]
        }
        None => {
            if !cfg.missing_link_feature {
                return [0.0, 0.0];
            }
            let relatedness = catalog.missing_link_relatedness(e, t);
            if relatedness <= 0.0 {
                return [0.0, 0.0];
            }
            let min_dist = catalog.min_entity_dist(t).unwrap_or(u32::MAX);
            if min_dist == u32::MAX {
                return [0.0, 0.0];
            }
            [0.0, relatedness / min_dist.max(1) as f64]
        }
    }
}

/// Log-normalized IDF specificity `ln(|E|/|E(T)|) / ln(|E|)`, in `[0, 1]`.
fn idf_specificity(catalog: &Catalog, t: TypeId) -> f64 {
    let n = catalog.num_entities().max(2) as f64;
    (catalog.specificity(t).ln() / n.ln()).clamp(0.0, 1.0)
}

/// Computes `f4(B, T1, T2)` — `[schema_match, participation]` (§4.2.4).
///
/// `schema_match` is 1 when the catalog schema of `b` (respecting the
/// label's orientation) matches `(t1, t2)` up to subtyping. `participation`
/// is the mean fraction of entities under the schema types that appear in
/// the relation.
pub fn f4(catalog: &Catalog, label: RelLabel, t1: TypeId, t2: TypeId) -> [f64; F4_DIM] {
    let rel = catalog.relation(label.rel);
    let (left_col_type, right_col_type) = if label.reversed { (t2, t1) } else { (t1, t2) };
    let schema_match = catalog.is_subtype(left_col_type, rel.left_type)
        && catalog.is_subtype(right_col_type, rel.right_type);
    if !schema_match {
        return [0.0, 0.0];
    }
    let (pl, pr) = catalog.participation(label.rel);
    [1.0, (pl + pr) / 2.0]
}

/// Computes `f5(B, E1, E2)` — `[tuple_exists, cardinality_violation]`
/// (§4.2.5).
///
/// `tuple_exists` is 1 when `b(e1, e2)` (respecting orientation) is in the
/// catalog. `cardinality_violation` is 1 when the relation is functional in
/// a direction that the pair contradicts: e.g. for one-to-one or
/// many-to-one relations, `b(e1, E')` exists for some `E' ≠ e2`.
pub fn f5(catalog: &Catalog, label: RelLabel, e1: EntityId, e2: EntityId) -> [f64; F5_DIM] {
    let rel = catalog.relation(label.rel);
    let (left, right) = if label.reversed { (e2, e1) } else { (e1, e2) };
    let exists = rel.has_tuple(left, right);
    if exists {
        return [1.0, 0.0];
    }
    let mut violation = 0.0;
    if rel.cardinality.functional_lr() && !rel.rights_of(left).is_empty() {
        violation = 1.0;
    }
    if rel.cardinality.functional_rl() && !rel.lefts_of(right).is_empty() {
        violation = 1.0;
    }
    [0.0, violation]
}

#[cfg(test)]
mod tests {
    use webtable_catalog::{Cardinality, CatalogBuilder};

    use super::*;

    /// person ⊇ physicist; book; writes(book, person) many-to-one.
    fn mini() -> (Catalog, TypeId, TypeId, TypeId, EntityId, EntityId, EntityId, RelLabel) {
        let mut b = CatalogBuilder::new();
        let person = b.add_type("person", &[]).unwrap();
        let physicist = b.add_type("physicist", &[]).unwrap();
        let book = b.add_type("book", &[]).unwrap();
        b.add_subtype(physicist, person);
        let einstein = b.add_entity("einstein", &[], &[physicist]).unwrap();
        let stannard = b.add_entity("stannard", &[], &[person]).unwrap();
        let relativity = b.add_entity("relativity", &[], &[book]).unwrap();
        let quest = b.add_entity("quest", &[], &[book]).unwrap();
        let writes = b.add_relation("writes", book, person, Cardinality::ManyToOne).unwrap();
        b.add_tuple(writes, relativity, einstein);
        b.add_tuple(writes, quest, stannard);
        let cat = b.finish().unwrap();
        let label = RelLabel { rel: cat.relation_named("writes").unwrap(), reversed: false };
        (cat, person, physicist, book, einstein, stannard, relativity, label)
    }

    #[test]
    fn f3_distance_modes() {
        let (cat, person, physicist, _book, einstein, ..) = mini();
        let cfg = AnnotatorConfig::default();
        // dist(einstein, physicist) = 1; dist(einstein, person) = 2.
        let f_direct = f3(&cat, &cfg, physicist, einstein);
        let f_parent = f3(&cat, &cfg, person, einstein);
        assert!((f_direct[0] - 1.0).abs() < 1e-12);
        assert!((f_parent[0] - 1.0 / 2.0f64.sqrt()).abs() < 1e-12);
        let cfg_inv = AnnotatorConfig { compat: CompatMode::InvDist, ..cfg.clone() };
        assert!((f3(&cat, &cfg_inv, person, einstein)[0] - 0.5).abs() < 1e-12);
        let cfg_idf = AnnotatorConfig { compat: CompatMode::Idf, ..cfg };
        // IDF mode ignores distance; physicist is more specific than person.
        let fi_phys = f3(&cat, &cfg_idf, physicist, einstein)[0];
        let fi_pers = f3(&cat, &cfg_idf, person, einstein)[0];
        assert!(fi_phys > fi_pers);
    }

    #[test]
    fn f3_fires_nothing_for_unrelated_types_without_overlap() {
        let (cat, _person, _physicist, book, einstein, ..) = mini();
        let cfg = AnnotatorConfig::default();
        // einstein ∉+ book, and physicist∩book extents are disjoint.
        assert_eq!(f3(&cat, &cfg, book, einstein), [0.0, 0.0]);
    }

    #[test]
    fn f3_missing_link_fires_on_extent_overlap() {
        // Entity at `1951 novels` missing its `series` link; most 1951
        // novels are in the series ⇒ second feature fires.
        let mut b = CatalogBuilder::new();
        let novel = b.add_type("novel", &[]).unwrap();
        let series = b.add_type("series", &[]).unwrap();
        let y1951 = b.add_type("1951 novels", &[]).unwrap();
        b.add_subtype(series, novel);
        b.add_subtype(y1951, novel);
        for i in 0..3 {
            b.add_entity(format!("n{i}"), &[], &[series, y1951]).unwrap();
        }
        let orphan = b.add_entity("orphan", &[], &[y1951]).unwrap();
        let cat = b.finish().unwrap();
        let series = cat.type_named("series").unwrap();
        let cfg = AnnotatorConfig::default();
        let f = f3(&cat, &cfg, series, orphan);
        assert_eq!(f[0], 0.0);
        assert!(f[1] > 0.5, "3/4 of 1951-novels are series books: {f:?}");
        // Disabled by config:
        let cfg_off = AnnotatorConfig { missing_link_feature: false, ..cfg };
        assert_eq!(f3(&cat, &cfg_off, series, orphan), [0.0, 0.0]);
    }

    #[test]
    fn f4_schema_match_respects_orientation_and_subtyping() {
        let (cat, person, physicist, book, ..) = mini();
        let label = RelLabel { rel: cat.relation_named("writes").unwrap(), reversed: false };
        // Forward: (book, person) matches.
        assert_eq!(f4(&cat, label, book, person)[0], 1.0);
        // Subtype on the right also matches (physicist ⊆ person).
        assert_eq!(f4(&cat, label, book, physicist)[0], 1.0);
        // Wrong orientation fails forward but succeeds reversed.
        assert_eq!(f4(&cat, label, person, book)[0], 0.0);
        let rev = RelLabel { reversed: true, ..label };
        assert_eq!(f4(&cat, rev, person, book)[0], 1.0);
        // Participation is 1.0 here (every book and person participates).
        assert!((f4(&cat, label, book, person)[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn f5_tuple_presence_and_violations() {
        let (cat, .., einstein, stannard, relativity, label) = mini();
        // writes(relativity, einstein) exists.
        assert_eq!(f5(&cat, label, relativity, einstein), [1.0, 0.0]);
        // writes is many-to-one (book → one author): relativity already has
        // a different author ⇒ violation for (relativity, stannard).
        assert_eq!(f5(&cat, label, relativity, stannard), [0.0, 1.0]);
        // Reversed orientation: (einstein, relativity) with reversed=true is
        // the same fact.
        let rev = RelLabel { reversed: true, ..label };
        assert_eq!(f5(&cat, rev, einstein, relativity), [1.0, 0.0]);
    }

    #[test]
    fn f5_no_violation_for_unseen_entities() {
        let (cat, _p, _ph, book, einstein, ..) = mini();
        let mut b2 = CatalogBuilder::new();
        let _ = (book, einstein, &cat, b2.num_types());
        // An entity that never participates on the functional side has no
        // violation: craft one by querying a book that has no tuples.
        // (Covered via a fresh catalog for clarity.)
        let t = b2.add_type("t", &[]).unwrap();
        let e1 = b2.add_entity("a", &[], &[t]).unwrap();
        let e2 = b2.add_entity("b", &[], &[t]).unwrap();
        let r = b2.add_relation("r", t, t, Cardinality::ManyToOne).unwrap();
        let cat2 = b2.finish().unwrap();
        let label = RelLabel { rel: r, reversed: false };
        assert_eq!(f5(&cat2, label, e1, e2), [0.0, 0.0]);
    }
}
