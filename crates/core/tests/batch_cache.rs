//! Cross-table candidate-cache equivalence: `Annotator::run` with the
//! shared LRU enabled — at any capacity, thread count, or reuse pattern —
//! must return annotations identical to the uncached path, and its hit/miss
//! counters must be exact on duplicate-heavy corpora.

use std::collections::HashSet;
use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use webtable_core::{AnnotateRequest, Annotator, AnnotatorConfig, TableAnnotation};
use webtable_tables::{NoiseConfig, Table, TableGenerator, TruthMask};

fn world_and_annotator() -> &'static (webtable_catalog::World, Annotator) {
    static FIXTURE: OnceLock<(webtable_catalog::World, Annotator)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let w = webtable_catalog::generate_world(&webtable_catalog::WorldConfig::tiny(11)).unwrap();
        let a = Annotator::new(Arc::clone(&w.catalog));
        (w, a)
    })
}

fn corpus(seed: u64, n: usize, rows: usize) -> Vec<Table> {
    let (w, _) = world_and_annotator();
    let mut g = TableGenerator::new(w, NoiseConfig::wiki(), TruthMask::full(), seed);
    g.gen_corpus(n, rows).into_iter().map(|lt| lt.table).collect()
}

fn assert_same_annotations(got: &[TableAnnotation], want: &[TableAnnotation], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.cell_entities, w.cell_entities, "{ctx}: table {i} entities");
        assert_eq!(g.column_types, w.column_types, "{ctx}: table {i} types");
        assert_eq!(g.relations, w.relations, "{ctx}: table {i} relations");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn cached_batch_matches_uncached_at_any_capacity_and_thread_count(
        seed in 0u64..500,
        rows in 2usize..8,
        capacity_sel in 0usize..5,
        threads in 1usize..5,
    ) {
        let capacity = [0usize, 1, 3, 64, 1 << 16][capacity_sel];
        let (_, a) = world_and_annotator();
        let tables = corpus(seed, 4, rows);
        // Reference: the plain single-table path, no cache anywhere.
        let baseline =
            a.run(&AnnotateRequest::new(&tables).without_cache()).annotations;
        let cache = a.new_cell_cache(capacity);
        let cached = a
            .run(&AnnotateRequest::new(&tables).workers(threads).shared_cache(&cache))
            .annotations;
        assert_same_annotations(
            &cached,
            &baseline,
            &format!("capacity={capacity} threads={threads}"),
        );
        prop_assert!(cache.len() <= capacity, "LRU exceeded its bound");
    }
}

#[test]
fn worker_count_does_not_change_results() {
    let (_, a) = world_and_annotator();
    let tables = corpus(77, 6, 6);
    let reference = a.run(&AnnotateRequest::new(&tables)).annotations;
    for threads in [2usize, 3, 4, 8] {
        let par = a.run(&AnnotateRequest::new(&tables).workers(threads)).annotations;
        assert_same_annotations(&par, &reference, &format!("{threads} workers"));
    }
}

#[test]
fn hit_miss_counters_are_exact_on_duplicated_tables() {
    let (_, a) = world_and_annotator();
    let base = corpus(123, 1, 8);
    // The same table twice: the second pass must hit for every distinct
    // normalized cell text the first pass inserted.
    let tables = vec![base[0].clone(), base[0].clone()];
    // The per-table memo keys on *raw* text while the cache keys on
    // *normalized* (trim+lowercase) text, so the exact counts are: the
    // cache sees one lookup per raw-distinct text per table (`r` each),
    // missing only the first occurrence of each normalized key (`d`).
    let t0 = &base[0];
    let raw: HashSet<&str> =
        (0..t0.num_rows()).flat_map(|r| (0..t0.num_cols()).map(move |c| t0.cell(r, c))).collect();
    let normalized: HashSet<String> = raw.iter().map(|t| webtable_text::normalize(t)).collect();
    let (r, d) = (raw.len() as u64, normalized.len() as u64);
    assert!(d > 0);
    // Single worker: per-key counter behaviour is deterministic.
    let response = a.run(&AnnotateRequest::new(&tables));
    let stats = response.stats;
    assert_eq!(response.annotations.len(), 2);
    assert_eq!(stats.tables, 2);
    assert_eq!(stats.cache_misses, d, "one miss per distinct normalized cell text");
    assert_eq!(stats.cache_hits, 2 * r - d, "every other lookup hits");
    assert!(stats.cache_hit_rate() >= 0.5);
}

#[test]
fn cache_reuse_across_batches_accumulates_hits() {
    let (_, a) = world_and_annotator();
    let tables = corpus(321, 3, 5);
    let cache = a.new_cell_cache(1 << 16);
    let first = a.run(&AnnotateRequest::new(&tables).shared_cache(&cache)).annotations;
    let misses_after_first = cache.misses();
    assert!(misses_after_first > 0);
    // Re-annotating the same corpus against the warm cache: no new misses,
    // identical output.
    let second = a.run(&AnnotateRequest::new(&tables).shared_cache(&cache)).annotations;
    assert_eq!(cache.misses(), misses_after_first, "warm cache misses nothing");
    assert!(cache.hits() >= misses_after_first, "every probe now hits");
    assert_same_annotations(&second, &first, "warm-cache batch");
}

#[test]
fn fingerprint_detects_content_changes_with_equal_shapes() {
    // Two catalogs with identical lemma counts and vocabulary sizes but
    // different lemma *text* must fingerprint differently — a routine
    // catalog edit (rewording one lemma with same-shaped tokens) would
    // collide under a count-only fingerprint and serve stale candidates.
    let build = |second_word: &str| {
        let mut b = webtable_catalog::CatalogBuilder::new();
        let t = b.add_type("thing", &[]).unwrap();
        b.add_entity("aa bb", &[], &[t]).unwrap();
        b.add_entity(format!("cc {second_word}"), &[], &[t]).unwrap();
        webtable_text::SegmentedIndex::build_split(&b.finish().unwrap(), 1, 0)
    };
    let (ia, ib) = (build("dd"), build("ee"));
    assert_eq!(ia.num_lemmas(), ib.num_lemmas());
    assert_eq!(ia.engine().vocab().len(), ib.engine().vocab().len());
    assert_ne!(ia.content_digest(), ib.content_digest());
    let cfg = AnnotatorConfig::default();
    assert_ne!(
        webtable_core::fingerprint_for(&cfg, &ia),
        webtable_core::fingerprint_for(&cfg, &ib),
        "content-differing indexes must not share a cache"
    );
}

#[test]
fn mismatched_fingerprint_bypasses_the_cache() {
    let (w, a) = world_and_annotator();
    let tables = corpus(9, 2, 5);
    // A cache built for a *different* config fingerprint must be ignored:
    // results still correct, counters untouched.
    let other = Annotator::new(Arc::clone(&w.catalog))
        .with_config(AnnotatorConfig { entity_k: 3, ..Default::default() });
    let stale = other.new_cell_cache(1 << 12);
    assert_ne!(stale.fingerprint(), a.cache_fingerprint());
    let baseline = a.run(&AnnotateRequest::new(&tables).without_cache()).annotations;
    let got = a.run(&AnnotateRequest::new(&tables).workers(2).shared_cache(&stale)).annotations;
    assert_same_annotations(&got, &baseline, "stale cache bypassed");
    assert_eq!((stale.hits(), stale.misses()), (0, 0), "bypassed cache never consulted");
    assert!(stale.is_empty(), "bypassed cache never filled");
}
