//! Pipeline-level segmented-index equivalence: an [`Annotator`] holding a
//! 2/4-segment index must produce annotations identical to the monolithic
//! annotator on generated corpora, and a single-segment annotator must
//! share the monolithic cache fingerprint (warm caches survive the
//! segmentation change uninvalidated).

use std::sync::Arc;

use webtable_core::{AnnotateRequest, Annotator, TableAnnotation};
use webtable_tables::{NoiseConfig, Table, TableGenerator, TruthMask};
use webtable_text::{LemmaIndex, SegmentedIndex};

fn corpus(w: &webtable_catalog::World, seed: u64, n: usize, rows: usize) -> Vec<Table> {
    let mut g = TableGenerator::new(w, NoiseConfig::web(), TruthMask::full(), seed);
    g.gen_corpus(n, rows).into_iter().map(|lt| lt.table).collect()
}

/// An annotator over the catalog's index pre-split into `num_segments`.
fn split_annotator(w: &webtable_catalog::World, num_segments: usize) -> Annotator {
    let idx = SegmentedIndex::build_split(&w.catalog, num_segments, 1);
    Annotator::from_lemma_segments(Arc::clone(&w.catalog), idx.segments().to_vec())
        .expect("segments cover the catalog")
}

/// An annotator restored from per-segment snapshot bytes.
fn restore(
    w: &webtable_catalog::World,
    parts: &[Vec<u8>],
) -> Result<Annotator, webtable_core::Error> {
    let segments = parts
        .iter()
        .map(|b| Arc::new(LemmaIndex::from_snapshot_bytes(b).expect("segment snapshot")))
        .collect();
    Annotator::from_lemma_segments(Arc::clone(&w.catalog), segments)
}

fn assert_same_annotations(got: &[TableAnnotation], want: &[TableAnnotation], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.cell_entities, w.cell_entities, "{ctx}: table {i} entities");
        assert_eq!(g.column_types, w.column_types, "{ctx}: table {i} types");
        assert_eq!(g.relations, w.relations, "{ctx}: table {i} relations");
    }
}

#[test]
fn segmented_annotator_matches_monolithic() {
    for seed in [3u64, 11] {
        let w =
            webtable_catalog::generate_world(&webtable_catalog::WorldConfig::tiny(seed)).unwrap();
        let mono = Annotator::new(Arc::clone(&w.catalog));
        let tables = corpus(&w, seed, 4, 6);
        let baseline = mono.run(&AnnotateRequest::new(&tables)).annotations;
        for num_segments in [2usize, 4] {
            let seg = split_annotator(&w, num_segments);
            let got = seg.run(&AnnotateRequest::new(&tables)).annotations;
            assert_same_annotations(
                &got,
                &baseline,
                &format!("seed={seed} segments={num_segments}"),
            );
            // The shared candidate cache must not change segmented output
            // either (cache keys are normalized cell text; values must be
            // identical across the segment boundary).
            let cache = seg.new_cell_cache(1 << 12);
            let cached = seg.run(&AnnotateRequest::new(&tables).shared_cache(&cache)).annotations;
            assert_same_annotations(
                &cached,
                &baseline,
                &format!("seed={seed} segments={num_segments} cached"),
            );
        }
    }
}

#[test]
fn single_segment_fingerprint_carries_over() {
    let w = webtable_catalog::generate_world(&webtable_catalog::WorldConfig::tiny(7)).unwrap();
    let mono = Annotator::new(Arc::clone(&w.catalog));
    let single = split_annotator(&w, 1);
    assert_eq!(
        mono.cache_fingerprint(),
        single.cache_fingerprint(),
        "a 1-segment index must keep the monolithic cache fingerprint"
    );
    // Multi-segment digests hash the segment list and must differ, so a
    // cache warmed on one layout is bypassed on the other.
    let four = split_annotator(&w, 4);
    assert_ne!(mono.cache_fingerprint(), four.cache_fingerprint());
}

#[test]
fn save_snapshot_is_single_segment_only() {
    let w = webtable_catalog::generate_world(&webtable_catalog::WorldConfig::tiny(7)).unwrap();
    let seg = split_annotator(&w, 2);
    let path = std::env::temp_dir().join(format!("webtable-seg-save-{}.idx", std::process::id()));
    let err = seg.save_snapshot(&path).expect_err("multi-segment save must fail");
    assert_eq!(err.code(), "snapshot");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn segment_snapshots_round_trip_through_annotator() {
    let w = webtable_catalog::generate_world(&webtable_catalog::WorldConfig::tiny(9)).unwrap();
    let idx = SegmentedIndex::build_split(&w.catalog, 3, 1);
    let parts: Vec<Vec<u8>> =
        idx.segments().iter().map(|s| s.to_snapshot_bytes().expect("serialize segment")).collect();
    let restored = restore(&w, &parts).expect("segment snapshots restore");
    assert_eq!(restored.index.segment_count(), 3);
    let mono = Annotator::new(Arc::clone(&w.catalog));
    let tables = corpus(&w, 9, 3, 5);
    assert_same_annotations(
        &restored.run(&AnnotateRequest::new(&tables)).annotations,
        &mono.run(&AnnotateRequest::new(&tables)).annotations,
        "restored 3-segment annotator",
    );
    // Wrong segment set: dropping one must fail the catalog cover check.
    let err = restore(&w, &parts[..2]).expect_err("partial segment set must be rejected");
    assert_eq!(err.code(), "catalog_mismatch");
    let err = restore(&w, &[]).expect_err("empty segment set must be rejected");
    assert_eq!(err.code(), "catalog_mismatch");
}
