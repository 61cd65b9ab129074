//! Streaming equivalence: `annotate_stream` must be byte-identical to the
//! batch `Annotator::run` path on a corpus larger than its buffer bound
//! while never holding more than `StreamOptions::buffer_bound` tables in
//! flight, and its cache counters must match the batch run's.

use std::sync::{Arc, OnceLock};

use webtable_core::{AnnotateRequest, Annotator, StreamOptions, TableAnnotation};
use webtable_tables::{NoiseConfig, Table, TableGenerator, TruthMask};

fn world_and_annotator() -> &'static (webtable_catalog::World, Annotator) {
    static FIXTURE: OnceLock<(webtable_catalog::World, Annotator)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let w = webtable_catalog::generate_world(&webtable_catalog::WorldConfig::tiny(19)).unwrap();
        let a = Annotator::new(Arc::clone(&w.catalog));
        (w, a)
    })
}

fn corpus(seed: u64, n: usize, rows: usize) -> Vec<Table> {
    let (w, _) = world_and_annotator();
    let mut g = TableGenerator::new(w, NoiseConfig::wiki(), TruthMask::full(), seed);
    g.gen_corpus(n, rows).into_iter().map(|lt| lt.table).collect()
}

fn assert_same(got: &TableAnnotation, want: &TableAnnotation, ctx: &str) {
    assert_eq!(got.cell_entities, want.cell_entities, "{ctx}: entities");
    assert_eq!(got.cell_confidence, want.cell_confidence, "{ctx}: confidence");
    assert_eq!(got.column_types, want.column_types, "{ctx}: types");
    assert_eq!(got.relations, want.relations, "{ctx}: relations");
    assert_eq!(got.bp_iterations, want.bp_iterations, "{ctx}: bp sweeps");
    assert_eq!(got.converged, want.converged, "{ctx}: convergence");
}

#[test]
fn stream_is_byte_identical_to_batch_beyond_the_buffer_bound() {
    let (_, a) = world_and_annotator();
    // 14 tables through a 4-table window: the stream must spill its bound
    // several times over.
    let tables = corpus(8, 14, 5);
    let bound = 4usize;
    assert!(tables.len() > bound, "corpus must exceed the stream buffer bound");
    let batch = a.run(&AnnotateRequest::new(&tables).workers(2)).annotations;
    for workers in [1usize, 2, 4] {
        let mut stream = a.annotate_stream(
            tables.clone(),
            StreamOptions::default().workers(workers).buffer_bound(bound),
        );
        let streamed: Vec<TableAnnotation> = stream.by_ref().map(|(ann, _)| ann).collect();
        assert_eq!(streamed.len(), batch.len(), "workers={workers}");
        for (i, (b, s)) in batch.iter().zip(&streamed).enumerate() {
            assert_same(b, s, &format!("stream[{i}] workers={workers}"));
        }
        assert!(
            stream.max_in_flight() <= bound,
            "workers={workers}: {} tables in flight breached bound {bound}",
            stream.max_in_flight()
        );
        assert_eq!(stream.stats().tables, tables.len());
    }
}

#[test]
fn stream_counters_match_batch_stats_single_worker() {
    let (_, a) = world_and_annotator();
    let mut tables = corpus(9, 4, 6);
    tables.extend(tables.clone()); // duplicates → hits
    let batch_stats = a.run(&AnnotateRequest::new(&tables)).stats;
    let mut stream =
        a.annotate_stream(tables.clone(), StreamOptions::default().workers(1).buffer_bound(3));
    let n = stream.by_ref().count();
    assert_eq!(n, tables.len());
    let stream_stats = stream.stats();
    assert_eq!(stream_stats.tables, batch_stats.tables);
    assert_eq!(stream_stats.cache_hits, batch_stats.cache_hits, "hit counters");
    assert_eq!(stream_stats.cache_misses, batch_stats.cache_misses, "miss counters");
    assert!(stream_stats.cache_hits > 0, "duplicated corpus must hit");
}
