//! Segmented-index equivalence: at segment count 1 the [`SegmentedIndex`]
//! must be **bit-identical** to the monolithic [`LemmaIndex`] (same layout,
//! same digest, same probes), and at 2/4/8 segments the cross-segment
//! top-k merge must reproduce the monolithic candidate lists bit for bit —
//! across probe modes, and after growing by [`SegmentedIndex::append`]
//! (chained, and over segments restored from snapshot bytes), which must
//! reject non-append changes with a typed [`ExtendError`].

use std::sync::Arc;

use proptest::prelude::*;
use webtable_catalog::{generate_world, Catalog, CatalogBuilder, EntityId, TypeId, WorldConfig};
use webtable_text::{
    ExtendError, LemmaIndex, ProbeMode, ProbeScratch, SegmentedIndex, DEFAULT_RESCORING_FACTOR,
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
        let t = if types.len() > 1 { types[1 + j % (types.len() - 1)] } else { root };
        // Shared tokens ("entity", "alpha") across old and new lemmas
        // stress the segment-local to global token remap.
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

/// Query texts exercising shared tokens, exact names, and OOV words.
fn queries_for(cat: &Catalog) -> Vec<String> {
    let mut qs: Vec<String> = cat
        .entity_ids()
        .take(6)
        .map(|e| cat.entity_name(e).to_string())
        .chain(cat.type_ids().take(3).map(|t| cat.type_name(t).to_string()))
        .collect();
    qs.push("alpha shared".into());
    qs.push("entity item".into());
    qs.push("zzz never-seen token".into());
    qs
}

/// Asserts that `seg` answers every query exactly like `mono`, across all
/// probe modes, for entities and types, including similarity profiles.
fn assert_probe_equivalence(
    mono: &LemmaIndex,
    seg: &SegmentedIndex,
    queries: &[String],
    ctx: &str,
) {
    let mut s1 = ProbeScratch::new();
    let mut s2 = ProbeScratch::new();
    for text in queries {
        let qm = mono.doc(text);
        let qs = seg.doc(text);
        assert_eq!(qm.token_set, qs.token_set, "{ctx}: token set for {text:?}");
        assert_eq!(qm.vec.pairs(), qs.vec.pairs(), "{ctx}: tfidf vec for {text:?}");
        for mode in [ProbeMode::Auto, ProbeMode::Exhaustive, ProbeMode::Wand] {
            for k in [1usize, 4, 8] {
                assert_eq!(
                    mono.entity_candidates_mode(&qm, k, DEFAULT_RESCORING_FACTOR, mode, &mut s1),
                    seg.entity_candidates_mode(&qs, k, DEFAULT_RESCORING_FACTOR, mode, &mut s2),
                    "{ctx}: entity candidates k={k} mode={mode:?} for {text:?}"
                );
                assert_eq!(
                    mono.type_candidates_mode(&qm, k, DEFAULT_RESCORING_FACTOR, mode, &mut s1),
                    seg.type_candidates_mode(&qs, k, DEFAULT_RESCORING_FACTOR, mode, &mut s2),
                    "{ctx}: type candidates k={k} mode={mode:?} for {text:?}"
                );
            }
        }
        for e in 0..mono.num_indexed_entities().min(8) as u32 {
            assert_eq!(
                mono.entity_profile(&qm, EntityId(e)),
                seg.entity_profile(&qs, EntityId(e)),
                "{ctx}: entity profile {e} for {text:?}"
            );
        }
        for t in 0..mono.num_indexed_types().min(6) as u32 {
            assert_eq!(
                mono.type_profile(&qm, TypeId(t)),
                seg.type_profile(&qs, TypeId(t)),
                "{ctx}: type profile {t} for {text:?}"
            );
        }
    }
}

fn assert_segmented_matches_monolithic(cat: &Catalog, queries: &[String]) {
    let mono = LemmaIndex::build(cat);
    for num_segments in [2usize, 4, 8] {
        let seg = SegmentedIndex::build_split(cat, num_segments, 1);
        assert_eq!(seg.num_indexed_entities(), cat.num_entities());
        assert_eq!(seg.num_indexed_types(), cat.num_types());
        seg.verify_catalog(cat).expect("segments cover the catalog");
        assert_probe_equivalence(&mono, &seg, queries, &format!("{num_segments} segments"));
    }
}

#[test]
fn single_segment_is_bit_identical_to_monolithic() {
    for seed in [5u64, 13] {
        let w = generate_world(&WorldConfig::tiny(seed)).unwrap();
        let mono = LemmaIndex::build(&w.catalog);
        let digest = mono.content_digest();
        let seg = SegmentedIndex::from_single(Arc::new(mono));
        // The single-segment digest is the monolithic digest itself, so
        // cache fingerprints carry over from the monolithic path.
        assert_eq!(seg.content_digest(), digest, "seed={seed}");
        assert_eq!(seg.segment_count(), 1);
        let split = SegmentedIndex::build_split(&w.catalog, 1, 1);
        assert_eq!(split.segment_count(), 1);
        assert_eq!(split.content_digest(), digest, "seed={seed}: build_split(1)");
        // Layouts of the lone segment are the monolithic layouts verbatim.
        let rebuilt = LemmaIndex::build(&w.catalog);
        assert_eq!(
            format!("{:?}", split.segments()[0].layout()),
            format!("{:?}", rebuilt.layout()),
            "seed={seed}: layout"
        );
        let queries = queries_for(&w.catalog);
        assert_probe_equivalence(&rebuilt, &seg, &queries, &format!("seed {seed} single"));
    }
}

#[test]
fn multi_segment_merge_matches_monolithic_on_generated_worlds() {
    for seed in [5u64, 13] {
        let w = generate_world(&WorldConfig::tiny(seed)).unwrap();
        let queries = queries_for(&w.catalog);
        assert_segmented_matches_monolithic(&w.catalog, &queries);
    }
}

#[test]
fn append_matches_monolithic_rebuild() {
    let base_cat = build_catalog(3, 24);
    let grown_cat = build_catalog(5, 40);
    let base = SegmentedIndex::build_split(&base_cat, 2, 1);
    let base_ptrs: Vec<*const LemmaIndex> = base.segments().iter().map(Arc::as_ptr).collect();
    let grown = base.append(&grown_cat, 1).expect("append-only growth");
    // The delta is one new segment; every base segment is shared untouched.
    assert_eq!(grown.segment_count(), 3);
    for (old, new) in base_ptrs.iter().zip(grown.segments()) {
        assert_eq!(*old, Arc::as_ptr(new), "base segments must be reused, not rebuilt");
    }
    let mono = LemmaIndex::build(&grown_cat);
    let queries = queries_for(&grown_cat);
    assert_probe_equivalence(&mono, &grown, &queries, "append 2+1 segments");
    // Appending nothing keeps coverage (and stays equivalent).
    let same = grown.append(&grown_cat, 1).expect("no-op append");
    assert_eq!(same.segment_count(), 3);
    assert_probe_equivalence(&mono, &same, &queries, "no-op append");

    // A second append chains onto the first.
    let third_cat = build_catalog(6, 55);
    let chained = grown.append(&third_cat, 1).expect("second append-only growth");
    assert_eq!(chained.segment_count(), 4);
    let mono3 = LemmaIndex::build(&third_cat);
    assert_probe_equivalence(&mono3, &chained, &queries_for(&third_cat), "chained appends");

    // Segments restored from snapshot bytes grow exactly like built ones.
    let restored: Vec<Arc<LemmaIndex>> = base
        .segments()
        .iter()
        .map(|seg| {
            let bytes = seg.to_snapshot_bytes().expect("serialize segment");
            Arc::new(LemmaIndex::from_snapshot_bytes(&bytes).expect("restore segment"))
        })
        .collect();
    let grown_restored = SegmentedIndex::from_segments(restored)
        .append(&grown_cat, 1)
        .expect("append over restored segments");
    assert_probe_equivalence(&mono, &grown_restored, &queries, "append over restored segments");
}

#[test]
fn append_rejects_non_append_changes() {
    let base_cat = build_catalog(3, 24);
    let shrunk = build_catalog(3, 10);
    let base = SegmentedIndex::build_split(&base_cat, 2, 1);
    match base.append(&shrunk, 1) {
        Err(ExtendError::BaseShrunk { what: "entities", base, grown }) => {
            assert!(grown < base, "{grown} < {base}");
        }
        other => panic!("shrunk catalog must be rejected with BaseShrunk, got {other:?}"),
    }

    // Same counts but a reworded base lemma: must be rejected, not merged.
    let reworded = catalog_with(3, 24, |j, lemmas| {
        if j == 7 {
            lemmas[0] = "reworded entity name".into();
        }
    });
    assert!(
        matches!(
            base.append(&reworded, 1),
            Err(ExtendError::BaseChanged { what: "entity", owner: 7, .. })
        ),
        "reworded base lemma must be rejected"
    );

    // A new lemma on a base entity changes it too.
    let added = catalog_with(3, 24, |j, lemmas| {
        if j == 2 {
            lemmas.push("a brand new alias".into());
        }
    });
    assert!(
        matches!(
            base.append(&added, 1),
            Err(ExtendError::BaseChanged { what: "entity", owner: 2, .. })
        ),
        "a lemma added to a base entity must be rejected"
    );
}

#[test]
fn segment_probe_counters_move() {
    let cat = build_catalog(4, 60);
    let seg = SegmentedIndex::build_split(&cat, 4, 1);
    let mut scratch = ProbeScratch::new();
    let q = seg.doc("entity alpha3 item");
    let _ = seg.entity_candidates_with(&q, 4, DEFAULT_RESCORING_FACTOR, &mut scratch);
    let (probed, skipped) = seg.probe_stats();
    assert!(probed >= 1, "at least one segment must be probed");
    assert!(probed + skipped <= 4, "counters bounded by the fan-out width");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn segmented_merge_is_exact_on_random_catalogs(
        n_types in 0usize..5,
        n_entities in 1usize..48,
        added_types in 0usize..3,
        added_entities in 0usize..15,
    ) {
        let cat = build_catalog(n_types, n_entities);
        let queries = queries_for(&cat);
        assert_segmented_matches_monolithic(&cat, &queries);

        let grown_cat = build_catalog(n_types + added_types, n_entities + added_entities);
        let grown = SegmentedIndex::build_split(&cat, 2, 1)
            .append(&grown_cat, 1)
            .expect("append-only growth");
        let mono = LemmaIndex::build(&grown_cat);
        assert_probe_equivalence(&mono, &grown, &queries_for(&grown_cat), "random append");
    }
}
