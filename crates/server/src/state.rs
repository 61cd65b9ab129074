//! Serving state: one immutable [`Generation`] behind a [`SwapCell`],
//! plus the process-wide [`Metrics`] and the failure-containment
//! bookkeeping ([`HealthState`], [`RetryPolicy`]).
//!
//! A generation is everything derived from one manifest: the annotator
//! restored from the index snapshot, the search engine over that
//! generation's corpus, and a shared candidate cache. Generations are
//! immutable once built — a swap builds a complete new one off the
//! request path and publishes it atomically; requests that already
//! loaded the old `Arc` finish on it untouched.
//!
//! Failure containment (PR 7): every byte read during a generation
//! load passes through a fault point; a failing swap retries with
//! capped exponential backoff and, if it stays broken, marks the
//! server *degraded* while the old generation keeps serving
//! byte-identically; successful loads record `MANIFEST.last-good` so a
//! later startup can survive a corrupt `MANIFEST`.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use webtable_core::wire::{decode_corpus, Json};
use webtable_core::{Annotator, CellCandidateCache};
use webtable_search::SearchEngine;
use webtable_tables::Table;
use webtable_text::{LemmaIndex, SectionSource};

use crate::error::ServeError;
use crate::fault::{self, FaultPoint};
use crate::manifest::{self, Manifest};
use crate::metrics::Metrics;
use crate::swap::SwapCell;

/// Cross-request candidate-cache capacity per generation.
const CACHE_CAPACITY: usize = 4096;

/// One immutable serving generation.
#[derive(Debug)]
pub struct Generation {
    /// The manifest generation number this was built from.
    pub generation: u64,
    /// Annotator restored from the generation's index snapshot.
    pub annotator: Annotator,
    /// Search engine over the generation's annotated corpus.
    pub engine: SearchEngine,
    /// Shared cell-candidate cache (hit/miss counters feed
    /// `/admin/stats`).
    pub cache: CellCandidateCache,
}

/// Parses a corpus file: `{"tables":[...]}` in the core wire format,
/// one table at a time ([`decode_corpus`]), so the file never exists as a
/// whole JSON document in memory. Malformed content is a
/// [`ServeError::Corpus`] — the data dir is broken, not the client.
pub fn tables_from_wire(text: &str) -> Result<Vec<Table>, ServeError> {
    decode_corpus(text).map_err(|e| ServeError::Corpus(e.to_string()))
}

/// Renders a corpus file (inverse of [`tables_from_wire`]).
pub fn tables_to_wire(tables: &[Table]) -> String {
    let arr = tables.iter().map(webtable_core::wire::table_to_json).collect();
    Json::Obj(vec![("tables".into(), Json::Arr(arr))]).encode()
}

/// One structured warning line to stderr (sorted keys, stable shape) —
/// the operational events (`recovered_last_good`, `swap_failed`, …)
/// the chaos CI job greps for.
pub fn warn_event(event: &str, detail: &str) {
    eprintln!(
        "{}",
        Json::Obj(vec![
            ("detail".into(), Json::str(detail)),
            ("event".into(), Json::str(event)),
            ("level".into(), Json::str("warn")),
        ])
        .encode()
    );
}

/// Loads the generation the data directory's manifest currently names:
/// catalog TSV → index snapshot (with the catalog-mismatch guard) →
/// corpus tables → search engine. Annotation parallelism only affects
/// wall-clock, never output.
pub fn load_generation(dir: &Path, workers: usize) -> Result<Generation, ServeError> {
    let manifest = Manifest::load_dir(dir)?;
    load_manifest(dir, &manifest, workers)
}

/// [`load_generation`] for an already-parsed manifest. Every file read
/// passes through a fault point (`snapshot_read`, `corpus_read`) and
/// every typed failure surfaces as a [`ServeError`] — a corrupt input
/// can never panic the loader.
pub fn load_manifest(
    dir: &Path,
    manifest: &Manifest,
    workers: usize,
) -> Result<Generation, ServeError> {
    let catalog = Arc::new(webtable_catalog::io::load_catalog(dir.join(&manifest.catalog))?);
    // One snapshot per segment (a v1 manifest has exactly one), each
    // memory-mapped in place: the numeric index tables stay in the page
    // cache and are shared physically across every process serving the
    // same snapshot. The `snapshot_read` fault point still intercepts
    // each segment — an armed plan consumes its budget and delivers the
    // corrupted bytes through the heap decoder, so chaos coverage is
    // unchanged by the mmap path; corrupting any single segment fails
    // this load — and only this load; the serving generation is
    // untouched.
    let mut segments = Vec::with_capacity(manifest.segments.len());
    for seg in &manifest.segments {
        let snap_path = dir.join(seg);
        let io_err =
            |source| ServeError::Io { context: format!("reading {}", snap_path.display()), source };
        let index =
            match fault::read_intercept(FaultPoint::SnapshotRead, &snap_path).map_err(io_err)? {
                Some(bytes) => LemmaIndex::from_snapshot_bytes(&bytes),
                None => match SectionSource::map_path(&snap_path) {
                    Ok(src) => LemmaIndex::from_snapshot_source(src),
                    Err(e) => {
                        warn_event(
                            "mmap_fallback",
                            &format!("heap-loading {}: {e}", snap_path.display()),
                        );
                        LemmaIndex::load(&snap_path)
                    }
                },
            }
            .map_err(webtable_core::Error::from)?;
        segments.push(Arc::new(index));
    }
    let annotator = Annotator::from_lemma_segments(Arc::clone(&catalog), segments)?;
    let tables_path = dir.join(&manifest.tables);
    let table_bytes = fault::read(FaultPoint::CorpusRead, &tables_path).map_err(|source| {
        ServeError::Io { context: format!("reading {}", tables_path.display()), source }
    })?;
    let text = String::from_utf8(table_bytes)
        .map_err(|_| ServeError::Corpus(format!("{} is not UTF-8", tables_path.display())))?;
    let tables = tables_from_wire(&text)?;
    // The file text is not needed past the decode; freeing it here keeps
    // it out of the load's peak, which the annotation pass sets.
    drop(text);
    let engine = SearchEngine::from_tables(&annotator, tables, workers);
    fault::hit(FaultPoint::GenerationBuild).map_err(|source| ServeError::Io {
        context: "finalizing generation build".into(),
        source,
    })?;
    let cache = annotator.new_cell_cache(CACHE_CAPACITY);
    Ok(Generation { generation: manifest.generation, annotator, engine, cache })
}

/// What startup recovery did (see [`load_generation_recovering`]).
#[derive(Debug)]
pub struct RecoveryReport {
    /// True when `MANIFEST` failed and `MANIFEST.last-good` served.
    pub recovered: bool,
    /// Stable code of the primary failure, when one happened.
    pub error_code: Option<&'static str>,
    /// Stale temp files removed before loading.
    pub removed_tmp: Vec<PathBuf>,
}

/// Startup loader with crash recovery: cleans up stale `*.tmp` files,
/// tries `MANIFEST`, and on *any* failure (unreadable manifest, corrupt
/// snapshot, torn corpus, …) falls back to the generation named by
/// `MANIFEST.last-good` — refusing to start only when no valid
/// generation exists anywhere. A successful load records its manifest
/// as the new last-good.
pub fn load_generation_recovering(
    dir: &Path,
    workers: usize,
) -> Result<(Generation, RecoveryReport), ServeError> {
    let removed_tmp = manifest::cleanup_stale_tmp(dir);
    for tmp in &removed_tmp {
        warn_event("stale_tmp_removed", &tmp.display().to_string());
    }
    let primary = Manifest::load_dir(dir).and_then(|m| {
        let generation = load_manifest(dir, &m, workers)?;
        Ok((m, generation))
    });
    match primary {
        Ok((m, generation)) => {
            if let Err(e) = m.save_as(dir, manifest::LAST_GOOD_FILE) {
                warn_event("last_good_write_failed", &e.to_string());
            }
            Ok((generation, RecoveryReport { recovered: false, error_code: None, removed_tmp }))
        }
        Err(primary) => {
            warn_event("manifest_load_failed", &primary.to_string());
            let fallback = Manifest::load_file(dir, manifest::LAST_GOOD_FILE)
                .and_then(|m| load_manifest(dir, &m, workers));
            match fallback {
                Ok(generation) => {
                    warn_event(
                        "recovered_last_good",
                        &format!("serving generation {}", generation.generation),
                    );
                    Ok((
                        generation,
                        RecoveryReport {
                            recovered: true,
                            error_code: Some(primary.code()),
                            removed_tmp,
                        },
                    ))
                }
                Err(fallback) => {
                    warn_event("last_good_load_failed", &fallback.to_string());
                    Err(primary)
                }
            }
        }
    }
}

/// Degraded-mode bookkeeping behind `/admin/health`. A failed swap
/// (after its retries) marks the server degraded; the old generation
/// keeps serving byte-identically; any later successful swap clears it.
#[derive(Debug, Default)]
pub struct HealthState {
    degraded: AtomicBool,
    consecutive_failures: AtomicU64,
    last_good_generation: AtomicU64,
    last_error: Mutex<Option<&'static str>>,
}

impl HealthState {
    /// Records a swap (or startup) failure with its stable error code.
    pub fn note_failure(&self, code: &'static str) {
        self.consecutive_failures.fetch_add(1, Ordering::Relaxed);
        *self.last_error.lock().unwrap_or_else(|e| e.into_inner()) = Some(code);
        self.degraded.store(true, Ordering::Release);
    }

    /// Records a successful load of `generation`: clears degraded mode
    /// and the failure streak, remembers the generation as last-good.
    pub fn note_success(&self, generation: u64) {
        self.last_good_generation.store(generation, Ordering::Relaxed);
        self.consecutive_failures.store(0, Ordering::Relaxed);
        *self.last_error.lock().unwrap_or_else(|e| e.into_inner()) = None;
        self.degraded.store(false, Ordering::Release);
    }

    /// True while the server is serving an old generation because the
    /// manifest's generation will not load.
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Acquire)
    }

    /// Point-in-time view: `(degraded, consecutive_failures,
    /// last_good_generation, last_error_code)`.
    pub fn snapshot(&self) -> (bool, u64, u64, Option<&'static str>) {
        (
            self.degraded.load(Ordering::Acquire),
            self.consecutive_failures.load(Ordering::Relaxed),
            self.last_good_generation.load(Ordering::Relaxed),
            *self.last_error.lock().unwrap_or_else(|e| e.into_inner()),
        )
    }
}

/// Capped exponential backoff for swap retries. Delays are
/// deterministic (`base_delay · 2ⁿ`, capped at `max_delay`); the
/// `sleep` hook is the injectable clock — tests point it at a no-op
/// and assert the schedule instead of waiting it out.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts per swap call, including the first (min 1).
    pub attempts: u32,
    /// Delay before the first retry.
    pub base_delay: Duration,
    /// Upper bound on any single delay.
    pub max_delay: Duration,
    /// The clock: called with each backoff delay.
    pub sleep: fn(Duration),
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            attempts: 3,
            base_delay: Duration::from_millis(25),
            max_delay: Duration::from_millis(250),
            sleep: std::thread::sleep,
        }
    }
}

impl RetryPolicy {
    /// A policy whose delays are all zero — instant retries for tests.
    pub fn immediate(attempts: u32) -> RetryPolicy {
        RetryPolicy {
            attempts,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
            ..RetryPolicy::default()
        }
    }

    /// The deterministic delay before retry number `retry` (0-based).
    pub fn delay(&self, retry: u32) -> Duration {
        self.base_delay.saturating_mul(1u32 << retry.min(16)).min(self.max_delay)
    }
}

/// Everything request handlers see: the swappable generation, the
/// counters, and the swap bookkeeping.
#[derive(Debug)]
pub struct AppState {
    /// The data directory the server was pointed at.
    pub data_dir: PathBuf,
    /// The current generation; handlers `load()` once per request.
    pub current: SwapCell<Generation>,
    /// Process counters.
    pub metrics: Metrics,
    /// Degraded-mode bookkeeping behind `/admin/health`.
    pub health: HealthState,
    /// Backoff schedule for transient swap failures.
    pub swap_retry: RetryPolicy,
    /// Set while a swap is rebuilding, so concurrent `/admin/swap`
    /// calls get 409 instead of racing.
    pub swapping: AtomicBool,
    /// Set by `POST /admin/shutdown`; the accept loop drains and exits.
    pub shutdown: AtomicBool,
    /// Server start time, for the uptime gauge.
    pub started: Instant,
    /// Deadline budget applied to annotate requests that don't carry
    /// their own `timeout_ms`.
    pub default_timeout: Duration,
    /// Annotation worker threads per request.
    pub annotate_workers: usize,
}

impl AppState {
    /// Builds the state around an initial generation.
    pub fn new(data_dir: PathBuf, initial: Generation, default_timeout: Duration) -> AppState {
        let metrics = Metrics::default();
        metrics.swap_generation.store(initial.generation, Ordering::Relaxed);
        let health = HealthState::default();
        health.last_good_generation.store(initial.generation, Ordering::Relaxed);
        AppState {
            data_dir,
            current: SwapCell::new(Arc::new(initial)),
            metrics,
            health,
            swap_retry: RetryPolicy::default(),
            swapping: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
            default_timeout,
            annotate_workers: 2,
        }
    }

    /// Executes one manifest-driven swap: re-reads the manifest and, if
    /// it names a different generation, rebuilds and publishes it.
    /// Returns `(serving_generation, swapped)`. Concurrent calls fail
    /// with [`ServeError::SwapInProgress`] — the rebuild happens on the
    /// caller's thread, never on other requests' paths.
    ///
    /// Self-healing: failures retry on the [`RetryPolicy`] schedule; a
    /// swap that stays broken marks the server degraded (the old
    /// generation keeps serving) and any later success clears it.
    pub fn swap(&self) -> Result<(u64, bool), ServeError> {
        if self.swapping.swap(true, Ordering::AcqRel) {
            return Err(ServeError::SwapInProgress);
        }
        let result = self.swap_with_retries();
        self.swapping.store(false, Ordering::Release);
        result
    }

    fn swap_with_retries(&self) -> Result<(u64, bool), ServeError> {
        let policy = self.swap_retry;
        let attempts = policy.attempts.max(1);
        let mut retry = 0u32;
        loop {
            match self.try_swap_once() {
                Ok(outcome) => return Ok(outcome),
                Err(e) if retry + 1 < attempts => {
                    self.metrics.swap_retries.fetch_add(1, Ordering::Relaxed);
                    warn_event("swap_retry", &format!("attempt {}: {e}", retry + 1));
                    (policy.sleep)(policy.delay(retry));
                    retry += 1;
                }
                Err(e) => {
                    self.metrics.swap_failures.fetch_add(1, Ordering::Relaxed);
                    self.health.note_failure(e.code());
                    warn_event("swap_failed", &format!("degraded: {e}"));
                    return Err(e);
                }
            }
        }
    }

    fn try_swap_once(&self) -> Result<(u64, bool), ServeError> {
        let manifest = Manifest::load_dir(&self.data_dir)?;
        let serving = self.current.load().generation;
        if manifest.generation == serving {
            // The manifest is readable and already being served — that
            // is a healthy state, so a degraded flag from an earlier
            // failure clears here too.
            self.health.note_success(serving);
            return Ok((serving, false));
        }
        // The expensive part: build the complete new generation while
        // every other thread keeps serving the old one.
        let next = load_manifest(&self.data_dir, &manifest, self.annotate_workers)?;
        let gen = next.generation;
        self.current.store(Arc::new(next));
        self.metrics.swap_generation.store(gen, Ordering::Relaxed);
        self.metrics.swaps_completed.fetch_add(1, Ordering::Relaxed);
        // The new generation demonstrably builds and serves: record it
        // so a later startup can recover from a torn MANIFEST. Failing
        // to record is a warning, not a failed swap.
        if let Err(e) = manifest.save_as(&self.data_dir, manifest::LAST_GOOD_FILE) {
            warn_event("last_good_write_failed", &e.to_string());
        }
        self.health.note_success(gen);
        Ok((gen, true))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_delays_are_deterministic_and_capped() {
        let p = RetryPolicy::default();
        let delays: Vec<u64> = (0..6).map(|i| p.delay(i).as_millis() as u64).collect();
        assert_eq!(delays, [25, 50, 100, 200, 250, 250], "base·2ⁿ capped at max_delay");
        let again: Vec<u64> = (0..6).map(|i| p.delay(i).as_millis() as u64).collect();
        assert_eq!(delays, again);
        assert_eq!(RetryPolicy::immediate(5).delay(3), Duration::ZERO);
    }

    #[test]
    fn health_state_transitions() {
        let h = HealthState::default();
        assert!(!h.is_degraded());
        h.note_failure("snapshot");
        h.note_failure("io");
        let (degraded, failures, _, code) = h.snapshot();
        assert!(degraded);
        assert_eq!(failures, 2);
        assert_eq!(code, Some("io"), "last error wins");
        h.note_success(7);
        let (degraded, failures, last_good, code) = h.snapshot();
        assert!(!degraded);
        assert_eq!((failures, last_good, code), (0, 7, None));
    }

    #[test]
    fn corrupt_corpus_text_is_a_typed_corpus_error() {
        for text in ["{", "{\"notables\":1}", "{\"tables\":3}"] {
            let err = tables_from_wire(text).unwrap_err();
            assert_eq!(err.code(), "corpus", "{text}");
            assert_eq!(err.http_status(), 503);
        }
    }
}
