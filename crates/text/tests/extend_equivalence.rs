//! Incremental-growth equivalence: [`SegmentedIndex::append`] over an
//! append-only catalog change must answer every probe exactly like
//! `LemmaIndex::build` on the grown catalog, must build a bit-identical
//! delta segment at every thread count (so the grown index's digest is
//! deterministic), must survive a snapshot round-trip, and must reject
//! non-append changes with a typed [`ExtendError`] without touching the
//! base index.

use std::sync::Arc;

use proptest::prelude::*;
use webtable_catalog::{Catalog, CatalogBuilder};
use webtable_text::{
    ExtendError, IndexLayout, LemmaIndex, ProbeScratch, SegmentedIndex, DEFAULT_RESCORING_FACTOR,
};

/// Deterministic catalog family: `build_catalog(t, e)` is an exact
/// id-prefix of `build_catalog(t', e')` whenever `t ≤ t'` and `e ≤ e'`.
/// An explicit root type keeps the hierarchy single-rooted, so `finish`
/// never appends a synthetic root that would shift type ids between the
/// base and the grown catalog.
fn build_catalog(n_types: usize, n_entities: usize) -> Catalog {
    catalog_with(n_types, n_entities, |_, _| {})
}

/// [`build_catalog`] with `edit(j, lemmas)` applied to each entity's
/// lemma list (name first) — how a test makes a same-shape catalog that
/// is not an append-only change.
fn catalog_with(
    n_types: usize,
    n_entities: usize,
    edit: impl Fn(usize, &mut Vec<String>),
) -> Catalog {
    let mut b = CatalogBuilder::new();
    let root = b.add_type("thing", &[]).unwrap();
    let mut types = vec![root];
    for i in 0..n_types {
        let t = b.add_type(format!("kind{i} category"), &[&format!("k{i}")]).unwrap();
        b.add_subtype(t, root);
        types.push(t);
    }
    for j in 0..n_entities {
        // Shared tokens ("entity", "alpha") across old and new lemmas
        // stress the segment-local to global token remap; the per-entity
        // suffix keeps names unique.
        let t = if types.len() > 1 { types[1 + j % (types.len() - 1)] } else { root };
        let mut lemmas =
            vec![format!("entity alpha{j} item"), format!("e{j}"), "alpha shared".into()];
        if j % 3 == 0 {
            lemmas.push(format!("alpha alpha {j}"));
        }
        edit(j, &mut lemmas);
        let aliases: Vec<&str> = lemmas[1..].iter().map(String::as_str).collect();
        b.add_entity(lemmas[0].clone(), &aliases, &[t]).unwrap();
    }
    b.finish().unwrap()
}

/// The base index as `webtable-serve grow` starts from it: one monolithic
/// segment over the base catalog.
fn base_index(cat: &Catalog) -> SegmentedIndex {
    SegmentedIndex::from_single(Arc::new(LemmaIndex::build(cat)))
}

fn assert_layouts_bit_identical(got: &IndexLayout<'_>, want: &IndexLayout<'_>, ctx: &str) {
    assert_eq!(got.entity_posting_offsets, want.entity_posting_offsets, "{ctx}: entity offsets");
    assert_eq!(got.entity_posting_values, want.entity_posting_values, "{ctx}: entity postings");
    assert_eq!(got.type_posting_offsets, want.type_posting_offsets, "{ctx}: type offsets");
    assert_eq!(got.type_posting_values, want.type_posting_values, "{ctx}: type postings");
    assert_eq!(got.entity_lemma_offsets, want.entity_lemma_offsets, "{ctx}: entity lemma offsets");
    assert_eq!(got.entity_lemma_values, want.entity_lemma_values, "{ctx}: entity lemma values");
    assert_eq!(got.type_lemma_offsets, want.type_lemma_offsets, "{ctx}: type lemma offsets");
    assert_eq!(got.type_lemma_values, want.type_lemma_values, "{ctx}: type lemma values");
    assert_eq!(got.lemma_token_offsets, want.lemma_token_offsets, "{ctx}: lemma token offsets");
    assert_eq!(got.lemma_token_values, want.lemma_token_values, "{ctx}: lemma token values");
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    assert_eq!(bits(got.entity_token_ub), bits(want.entity_token_ub), "{ctx}: entity upper bounds");
    assert_eq!(bits(got.type_token_ub), bits(want.type_token_ub), "{ctx}: type upper bounds");
}

/// Asserts that every segment of `got` is bit-identical to the same
/// segment of `want` and that the combined digests agree.
fn assert_segments_bit_identical(got: &SegmentedIndex, want: &SegmentedIndex, ctx: &str) {
    assert_eq!(got.segment_count(), want.segment_count(), "{ctx}: segment count");
    assert_eq!(got.content_digest(), want.content_digest(), "{ctx}: content digest");
    for (i, (g, w)) in got.segments().iter().zip(want.segments()).enumerate() {
        assert_eq!(g.content_digest(), w.content_digest(), "{ctx}: segment {i} digest");
        assert_layouts_bit_identical(&g.layout(), &w.layout(), &format!("{ctx}: segment {i}"));
    }
}

/// Asserts that `grown` answers every query exactly like `rebuilt`.
fn assert_probes_match(grown: &SegmentedIndex, rebuilt: &LemmaIndex, queries: &[&str], ctx: &str) {
    let mut s1 = ProbeScratch::new();
    let mut s2 = ProbeScratch::new();
    for text in queries {
        let qg = grown.doc(text);
        let qr = rebuilt.doc(text);
        assert_eq!(qg.token_set, qr.token_set, "{ctx}: token set for {text:?}");
        assert_eq!(qg.vec.pairs(), qr.vec.pairs(), "{ctx}: tfidf vec for {text:?}");
        assert_eq!(
            grown.entity_candidates_with(&qg, 8, DEFAULT_RESCORING_FACTOR, &mut s1),
            rebuilt.entity_candidates_with(&qr, 8, DEFAULT_RESCORING_FACTOR, &mut s2),
            "{ctx}: entity candidates for {text:?}"
        );
        assert_eq!(
            grown.type_candidates_with(&qg, 4, DEFAULT_RESCORING_FACTOR, &mut s1),
            rebuilt.type_candidates_with(&qr, 4, DEFAULT_RESCORING_FACTOR, &mut s2),
            "{ctx}: type candidates for {text:?}"
        );
    }
}

fn assert_extend_matches_rebuild(base_cat: &Catalog, grown_cat: &Catalog, queries: &[&str]) {
    let base = base_index(base_cat);
    let rebuilt = LemmaIndex::build(grown_cat);
    let single_threaded = base.append(grown_cat, 1).expect("append-only growth");
    for threads in [1usize, 2, 4] {
        let grown = base.append(grown_cat, threads).expect("append-only growth");
        let ctx = format!("append threads={threads}");
        assert_eq!(grown.num_lemmas(), rebuilt.num_lemmas(), "{ctx}");
        assert_eq!(grown.num_indexed_entities(), grown_cat.num_entities(), "{ctx}");
        assert_eq!(grown.num_indexed_types(), grown_cat.num_types(), "{ctx}");
        grown.verify_catalog(grown_cat).expect("grown index covers the grown catalog");
        // The delta segment does not depend on the build's thread count.
        assert_segments_bit_identical(&grown, &single_threaded, &ctx);
        assert_probes_match(&grown, &rebuilt, queries, &ctx);
    }
}

#[test]
fn extend_with_new_entities_matches_rebuild() {
    let base = build_catalog(3, 10);
    let grown = build_catalog(3, 25);
    assert_extend_matches_rebuild(&base, &grown, &["entity alpha3", "e17", "alpha shared", "k2"]);
}

#[test]
fn extend_with_new_entities_and_types_matches_rebuild() {
    let base = build_catalog(2, 8);
    let grown = build_catalog(6, 20);
    assert_extend_matches_rebuild(&base, &grown, &["entity alpha1 item", "k5", "alpha alpha 18"]);
}

#[test]
fn extend_with_no_growth_matches_rebuild() {
    let cat = build_catalog(3, 10);
    assert_extend_matches_rebuild(&cat, &cat, &["entity alpha3", "k1"]);
    // Appending nothing adds no segment and leaves the digest alone.
    let base = base_index(&cat);
    let same = base.append(&cat, 1).expect("no-op append");
    assert_eq!(same.segment_count(), 1);
    assert_eq!(same.content_digest(), base.content_digest());
}

#[test]
fn chained_extends_match_single_rebuild() {
    let c1 = build_catalog(2, 6);
    let c2 = build_catalog(3, 14);
    let c3 = build_catalog(5, 30);
    let chained = base_index(&c1)
        .append(&c2, 1)
        .expect("first growth")
        .append(&c3, 1)
        .expect("second growth");
    assert_eq!(chained.segment_count(), 3, "one delta segment per growth step");
    chained.verify_catalog(&c3).expect("chained index covers the final catalog");
    let rebuilt = LemmaIndex::build(&c3);
    assert_eq!(chained.num_lemmas(), rebuilt.num_lemmas());
    assert_probes_match(
        &chained,
        &rebuilt,
        &["entity alpha5 item", "e20", "alpha shared", "k4", "alpha alpha 27", "zzz"],
        "chained",
    );
}

#[test]
fn shrunk_catalog_is_rejected() {
    let base = base_index(&build_catalog(3, 10));
    match base.append(&build_catalog(3, 4), 1) {
        Err(ExtendError::BaseShrunk { what, base, grown }) => {
            assert_eq!(what, "entities");
            assert!(grown < base, "{grown} < {base}");
        }
        other => panic!("expected BaseShrunk, got {other:?}"),
    }
    match base.append(&build_catalog(1, 10), 1) {
        Err(ExtendError::BaseShrunk { what, base, grown }) => {
            assert_eq!(what, "types");
            assert!(grown < base, "{grown} < {base}");
        }
        other => panic!("expected BaseShrunk, got {other:?}"),
    }
}

#[test]
fn reworded_base_lemma_is_rejected() {
    let base_cat = build_catalog(2, 5);
    let base = base_index(&base_cat);
    let digest = base.content_digest();
    // Same counts, but entity 0's name differs: not an append-only change.
    let changed = catalog_with(2, 5, |j, lemmas| {
        if j == 0 {
            lemmas[0] = "entity REWORDED item".into();
        }
    });
    match base.append(&changed, 1) {
        Err(ExtendError::BaseChanged { what, owner, .. }) => {
            assert_eq!(what, "entity");
            assert_eq!(owner, 0);
        }
        other => panic!("expected BaseChanged, got {other:?}"),
    }
    // The failed append must not have touched the base index.
    assert_eq!(base.segment_count(), 1);
    assert_eq!(base.content_digest(), digest);
    assert_eq!(digest, LemmaIndex::build(&base_cat).content_digest());
}

#[test]
fn added_lemma_on_base_entity_is_rejected() {
    let base = base_index(&build_catalog(2, 5));
    let changed = catalog_with(2, 5, |j, lemmas| {
        if j == 2 {
            lemmas.push("a brand new alias".into());
        }
    });
    assert!(matches!(
        base.append(&changed, 1),
        Err(ExtendError::BaseChanged { what: "entity", owner: 2, .. })
    ));
}

#[test]
fn extend_then_snapshot_roundtrips() {
    // Every segment of the grown index is a first-class index: a snapshot
    // round-trip of each one reassembles the same grown index.
    let base_cat = build_catalog(2, 6);
    let grown_cat = build_catalog(3, 15);
    let base = base_index(&base_cat);
    let grown = base.append(&grown_cat, 1).expect("growth");
    let roundtrip = |idx: &SegmentedIndex| -> SegmentedIndex {
        SegmentedIndex::from_segments(
            idx.segments()
                .iter()
                .map(|seg| {
                    let bytes = seg.to_snapshot_bytes().expect("serialize segment");
                    Arc::new(LemmaIndex::from_snapshot_bytes(&bytes).expect("deserialize segment"))
                })
                .collect(),
        )
    };
    assert_segments_bit_identical(&roundtrip(&grown), &grown, "append+snapshot");
    // And a snapshot-loaded base can itself be grown, to the same index.
    let grown_from_loaded =
        roundtrip(&base).append(&grown_cat, 1).expect("append to a loaded base");
    assert_segments_bit_identical(&grown_from_loaded, &grown, "snapshot+append");
    assert_probes_match(
        &grown_from_loaded,
        &LemmaIndex::build(&grown_cat),
        &["entity alpha9 item", "alpha shared", "k2"],
        "snapshot+append",
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn extend_matches_rebuild_on_random_growth(
        base_entities in 1usize..15,
        added_entities in 0usize..15,
        base_types in 0usize..3,
        added_types in 0usize..3,
    ) {
        let base = build_catalog(base_types, base_entities);
        let grown = build_catalog(base_types + added_types, base_entities + added_entities);
        let queries = ["entity alpha2 item", "alpha shared", "k1", "zzz"];
        assert_extend_matches_rebuild(&base, &grown, &queries);
    }
}
