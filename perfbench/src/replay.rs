//! The traced run's in-process replay: the same requests, through the
//! public functions each layer exposes, one timed call at a time.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use webtable_core::wire::{encode_response, WireAnnotateRequest};
use webtable_core::{
    AnnotateRequest, AnnotateResponse, AnnotateStats, Annotator, CandidateScratch,
    CellCandidateCache, PhaseTimings, TableAnnotation, TableCandidates, TableModel,
};
use webtable_search::wire::{decode_query, encode_answers};
use webtable_search::{AnnotatedCorpus, SearchEngine};
use webtable_server::state::tables_from_wire;
use webtable_server::Manifest;
use webtable_tables::Table;
use webtable_text::{LemmaIndex, SectionSource};

use crate::inputs::SERVER_CACHE_CAPACITY;

/// Annotation workers the server uses at load (its `serve` default).
const LOAD_WORKERS: usize = 2;

/// One timed call.
pub type Call = (&'static str, Duration);

fn timed<T>(calls: &mut Vec<Call>, name: &'static str, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    calls.push((name, t0.elapsed()));
    out
}

/// A generation loaded step by step, as the server's loader does it.
pub struct Loaded {
    /// The annotator over the generation's segments.
    pub annotator: Annotator,
    /// The search engine over the annotated corpus.
    pub engine: SearchEngine,
    /// A candidate cache of the server's capacity.
    pub cache: CellCandidateCache,
    /// Corpus annotation statistics.
    pub corpus_stats: AnnotateStats,
    /// Per-step times: `catalog.load`, `text.snapshot_map` (summed over
    /// segments), `server.corpus_parse`, `core.corpus_annotate`,
    /// `search.build`.
    pub calls: Vec<Call>,
}

fn load_err(e: &dyn std::fmt::Display) -> String {
    format!("replay load: {e}")
}

/// Loads the generation `manifest` names from `dir`, timing each step.
pub fn timed_load(dir: &Path, manifest: &Manifest) -> Result<Loaded, String> {
    let mut calls = Vec::new();
    let catalog = timed(&mut calls, "catalog.load", || {
        webtable_catalog::io::load_catalog(dir.join(&manifest.catalog))
    })
    .map_err(|e| load_err(&e))?;
    let catalog = Arc::new(catalog);
    let t0 = Instant::now();
    let mut segments = Vec::new();
    for seg in &manifest.segments {
        let src = SectionSource::map_path(dir.join(seg)).map_err(|e| load_err(&e))?;
        segments.push(Arc::new(LemmaIndex::from_snapshot_source(src).map_err(|e| load_err(&e))?));
    }
    calls.push(("text.snapshot_map", t0.elapsed()));
    let annotator =
        Annotator::from_lemma_segments(Arc::clone(&catalog), segments).map_err(|e| load_err(&e))?;
    let text = std::fs::read_to_string(dir.join(&manifest.tables)).map_err(|e| load_err(&e))?;
    let tables: Vec<Table> = timed(&mut calls, "server.corpus_parse", || tables_from_wire(&text))
        .map_err(|e| load_err(&e))?;
    let response = timed(&mut calls, "core.corpus_annotate", || {
        annotator.run(&AnnotateRequest::new(&tables).workers(LOAD_WORKERS))
    });
    let corpus_stats = response.stats;
    let engine = timed(&mut calls, "search.build", || {
        SearchEngine::build(
            Arc::clone(&annotator.catalog),
            AnnotatedCorpus::from_parts(tables, response.annotations),
        )
    });
    let cache = annotator.new_cell_cache(SERVER_CACHE_CAPACITY);
    Ok(Loaded { annotator, engine, cache, corpus_stats, calls })
}

/// Per-table core costs of replayed tables.
#[derive(Debug, Default)]
pub struct CoreStats {
    /// `TableCandidates::build_cached`, µs per table.
    pub candidates_us: Vec<f64>,
    /// `TableModel::build`, µs per table.
    pub potentials_us: Vec<f64>,
    /// `TableModel::decode`, µs per table.
    pub inference_us: Vec<f64>,
    /// Mean entity candidates per cell, per table.
    pub entity_candidates: Vec<f64>,
    /// BP sweeps per table.
    pub bp_iters: Vec<f64>,
    /// Tables whose BP converged.
    pub converged: usize,
}

/// Annotates one table through the three core phases, timing each.
pub fn annotate_table(
    annotator: &Annotator,
    table: &Table,
    scratch: &mut CandidateScratch,
    cache: &CellCandidateCache,
    calls: &mut Vec<Call>,
    stats: &mut CoreStats,
) -> TableAnnotation {
    let cfg = &annotator.config;
    let cands = timed(calls, "core.candidates", || {
        TableCandidates::build_cached(
            &annotator.catalog,
            annotator.index.as_ref(),
            table,
            cfg,
            scratch,
            Some(cache),
        )
    });
    stats.entity_candidates.push(cands.mean_entity_candidates());
    let model = timed(calls, "core.potentials", || {
        TableModel::build(&annotator.catalog, cfg, &annotator.weights, table, cands)
    });
    let ann = timed(calls, "core.inference", || model.decode());
    let n = calls.len();
    stats.candidates_us.push(calls[n - 3].1.as_secs_f64() * 1e6);
    stats.potentials_us.push(calls[n - 2].1.as_secs_f64() * 1e6);
    stats.inference_us.push(calls[n - 1].1.as_secs_f64() * 1e6);
    stats.bp_iters.push(ann.bp_iterations as f64);
    stats.converged += usize::from(ann.converged);
    ann
}

/// Replays one `/v1/annotate` body: decode, the three phases per table,
/// encode. Returns the calls in order.
pub fn replay_annotate(
    loaded: &Loaded,
    body: &str,
    scratch: &mut CandidateScratch,
    stats: &mut CoreStats,
) -> Result<Vec<Call>, String> {
    let mut calls = Vec::new();
    let request = timed(&mut calls, "core.decode", || WireAnnotateRequest::decode(body))
        .map_err(|e| format!("replay decode: {e}"))?;
    let mut annotations = Vec::with_capacity(request.tables.len());
    for table in &request.tables {
        annotations.push(annotate_table(
            &loaded.annotator,
            table,
            scratch,
            &loaded.cache,
            &mut calls,
            stats,
        ));
    }
    let timings = vec![PhaseTimings::default(); annotations.len()];
    let response = AnnotateResponse { annotations, timings, stats: AnnotateStats::default() };
    timed(&mut calls, "core.encode", || encode_response(&response));
    Ok(calls)
}

/// Replays one `/v1/search` body: decode, engine, encode. Returns the
/// calls in order and the number of answers.
pub fn replay_search(engine: &SearchEngine, body: &str) -> Result<(Vec<Call>, usize), String> {
    let mut calls = Vec::new();
    let query = timed(&mut calls, "search.decode", || decode_query(body))
        .map_err(|e| format!("replay decode: {e}"))?;
    let answers = timed(&mut calls, "search.engine", || engine.search(&query));
    timed(&mut calls, "search.encode", || encode_answers(&answers));
    Ok((calls, answers.len()))
}
