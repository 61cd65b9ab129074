//! The annotator: construction, persistence, and the execution engine
//! behind the request/response front door (the 25M-table corpus run of
//! §6.1.2, in miniature).
//!
//! ## One front door
//!
//! [`Annotator::run`](crate::session) executes an
//! [`AnnotateRequest`](crate::AnnotateRequest) and is the only batch
//! entry point; [`Annotator::annotate_stream`](crate::stream) is its
//! bounded-memory streaming twin. Three constructors cover every way an
//! index reaches memory — [`Annotator::new`] builds it,
//! [`Annotator::from_snapshot`] loads one snapshot file, and
//! [`Annotator::from_lemma_segments`] takes segments the caller loaded —
//! and [`Annotator::with_config`] / [`Annotator::with_weights`] replace
//! the defaults. Catalog growth is one delta segment
//! ([`Annotator::append_segment`]).
//!
//! ## Restart-free serving
//!
//! Index construction front-loads the pipeline's cost; the snapshot hooks
//! ([`Annotator::save_snapshot`] / [`Annotator::from_snapshot`]) move it
//! out of the process lifetime entirely. A loaded index is bit-identical
//! to the one saved — including [`LemmaIndex::content_digest`], which
//! [`Annotator::cache_fingerprint`] is derived from — so a warmed
//! [`CellCandidateCache`] remains valid across a save/load restart
//! boundary without invalidation or rescanning.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use webtable_catalog::Catalog;
use webtable_tables::Table;
use webtable_text::{LemmaIndex, SegmentedIndex};

use crate::cache::{fingerprint_for, CellCandidateCache};
use crate::candidates::{CandidateScratch, TableCandidates};
use crate::config::AnnotatorConfig;
use crate::error::Error;
use crate::model::TableModel;
use crate::result::{PhaseTimings, TableAnnotation};
use crate::weights::Weights;

/// A ready-to-use annotator: catalog + lemma index + weights + config.
/// Cheap to share across threads.
#[derive(Debug, Clone)]
pub struct Annotator {
    /// The (possibly incomplete) catalog being annotated against.
    pub catalog: Arc<Catalog>,
    /// The (possibly segmented) lemma index over that catalog. A
    /// single-segment index delegates every probe to its lone
    /// [`LemmaIndex`] and is bit-identical to the pre-segmentation
    /// monolithic path, digest included.
    pub index: Arc<SegmentedIndex>,
    /// Model weights.
    pub weights: Weights,
    /// Pipeline knobs.
    pub config: AnnotatorConfig,
}

impl Annotator {
    /// Builds an annotator (and its lemma index, on all cores — the index
    /// is byte-identical at every thread count) over a catalog with
    /// default weights and configuration.
    pub fn new(catalog: Arc<Catalog>) -> Annotator {
        let index = Arc::new(SegmentedIndex::from_single(Arc::new(LemmaIndex::build(&catalog))));
        Annotator {
            catalog,
            index,
            weights: Weights::default(),
            config: AnnotatorConfig::default(),
        }
    }

    /// Builds an annotator from a lemma-index snapshot file instead of
    /// re-indexing the catalog (default weights/config). The loaded index
    /// is bit-identical to the one [`save_snapshot`] wrote — same content
    /// digest, hence the same [`cache_fingerprint`] — so candidate caches
    /// warmed before the restart keep hitting after it. Fails with
    /// [`Error::CatalogMismatch`] if the snapshot does not index exactly
    /// the given catalog — the one compatibility property the snapshot
    /// cannot validate alone.
    ///
    /// [`save_snapshot`]: Annotator::save_snapshot
    /// [`cache_fingerprint`]: Annotator::cache_fingerprint
    pub fn from_snapshot(
        catalog: Arc<Catalog>,
        path: impl AsRef<Path>,
    ) -> Result<Annotator, Error> {
        Annotator::from_lemma_segments(catalog, vec![Arc::new(LemmaIndex::load(path)?)])
    }

    /// Builds an annotator from already-loaded per-segment indexes, in
    /// manifest order (default weights/config). This is how a server
    /// assembles an annotator from memory-mapped segments
    /// ([`LemmaIndex::load_mmap`]) — the loader chooses how each segment's
    /// bytes reach memory, this constructor only verifies catalog
    /// coverage. One segment is the monolithic path, digest included;
    /// with several, probes fan out across segments and merge. Fails with
    /// [`Error::CatalogMismatch`] if the union of segments does not cover
    /// the catalog (or if no segments are given).
    pub fn from_lemma_segments(
        catalog: Arc<Catalog>,
        segments: Vec<Arc<LemmaIndex>>,
    ) -> Result<Annotator, Error> {
        if segments.is_empty() {
            return Err(Error::CatalogMismatch {
                snapshot: (0, 0),
                catalog: (catalog.num_entities(), catalog.num_types()),
                detail: "manifest lists no segments".to_string(),
            });
        }
        let index = SegmentedIndex::from_segments(segments);
        if let Err(detail) = index.verify_catalog(&catalog) {
            return Err(Error::CatalogMismatch {
                snapshot: (index.num_indexed_entities(), index.num_indexed_types()),
                catalog: (catalog.num_entities(), catalog.num_types()),
                detail,
            });
        }
        Ok(Annotator {
            catalog,
            index: Arc::new(index),
            weights: Weights::default(),
            config: AnnotatorConfig::default(),
        })
    }

    /// Persists this annotator's lemma index as a snapshot file (see
    /// [`LemmaIndex::save`]); a later [`from_snapshot`] restores it without
    /// paying the index build. Weights and config are cheap to reconstruct
    /// and are not part of the snapshot.
    ///
    /// [`from_snapshot`]: Annotator::from_snapshot
    ///
    /// Only a single-segment annotator can be saved as one file; a
    /// segmented index is persisted one snapshot per segment (save each
    /// [`SegmentedIndex::segments`] entry and list them in a MANIFEST v2).
    pub fn save_snapshot(&self, path: impl AsRef<Path>) -> Result<(), Error> {
        if self.index.segment_count() != 1 {
            return Err(Error::Snapshot(webtable_text::SnapshotError::Io(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                format!(
                    "cannot save a {}-segment index as one snapshot; \
                     save each segment and list them in a MANIFEST v2",
                    self.index.segment_count()
                ),
            ))));
        }
        self.index.segments()[0].save(path).map_err(Error::from)
    }

    /// Re-targets this annotator at an append-only grown catalog by
    /// building **one new segment** over the appended id range (existing
    /// segments are shared untouched — no rewrite of their snapshots).
    /// Probe results are bit-identical to a from-scratch rebuild of the
    /// grown catalog; the content digest differs (it now hashes the
    /// segment list), so candidate caches start cold.
    pub fn append_segment(&self, grown: Arc<Catalog>) -> Result<Annotator, Error> {
        let index = Arc::new(self.index.append(&grown, 0)?);
        Ok(Annotator {
            catalog: grown,
            index,
            weights: self.weights.clone(),
            config: self.config.clone(),
        })
    }

    /// Replaces the weights (e.g. after training).
    pub fn with_weights(mut self, weights: Weights) -> Annotator {
        self.weights = weights;
        self
    }

    /// Replaces the configuration.
    pub fn with_config(mut self, config: AnnotatorConfig) -> Annotator {
        self.config = config;
        self
    }

    /// The cache-compatibility fingerprint of this annotator's config and
    /// index (see [`fingerprint_for`]).
    pub fn cache_fingerprint(&self) -> u64 {
        fingerprint_for(&self.config, self.index.as_ref())
    }

    /// Creates a cross-table cell-candidate cache compatible with this
    /// annotator, bounded to `capacity` entries (`0` disables it). Reuse
    /// one across [`run`](Annotator::run) calls (via
    /// [`AnnotateRequest::shared_cache`](crate::AnnotateRequest::shared_cache))
    /// to carry warm candidates from batch to batch.
    pub fn new_cell_cache(&self, capacity: usize) -> CellCandidateCache {
        CellCandidateCache::with_fingerprint(capacity, self.cache_fingerprint())
    }

    // ------------------------------------------------------------------
    // Execution engine (shared by `run` and `annotate_stream`)
    // ------------------------------------------------------------------

    /// The full single-table path: candidates → potentials → inference,
    /// with optional cross-table caching and unique-column enforcement.
    /// Output is a pure function of (catalog, index, weights, config,
    /// table) — scratch and cache only skip work.
    pub(crate) fn annotate_one(
        &self,
        table: &Table,
        scratch: &mut CandidateScratch,
        cache: Option<&CellCandidateCache>,
        unique_columns: Option<&[usize]>,
    ) -> (TableAnnotation, PhaseTimings) {
        let cfg = &self.config;
        let t0 = Instant::now();
        let cands = TableCandidates::build_cached(
            &self.catalog,
            self.index.as_ref(),
            table,
            cfg,
            scratch,
            cache,
        );
        let t1 = Instant::now();
        let model = TableModel::build(&self.catalog, cfg, &self.weights, table, cands);
        let t2 = Instant::now();
        let mut ann = model.decode();
        if let Some(columns) = unique_columns {
            crate::unique::enforce_unique_columns(
                &self.catalog,
                cfg,
                &self.weights,
                &model.cands,
                &mut ann,
                columns,
            );
        }
        let t3 = Instant::now();
        let timings = PhaseTimings {
            candidates_us: (t1 - t0).as_micros() as u64,
            potentials_us: (t2 - t1).as_micros() as u64,
            inference_us: (t3 - t2).as_micros() as u64,
            total_us: (t3 - t0).as_micros() as u64,
        };
        (ann, timings)
    }

    /// Runs the worker pool over a table slice (std scoped threads pulling
    /// from a shared counter; results keep input order). One
    /// [`CandidateScratch`] per worker.
    ///
    /// With a `deadline`, every worker re-checks the clock before claiming
    /// the next table and stops claiming once it has passed — the same
    /// stop-feeding-then-join teardown the streaming path's `Drop` uses.
    /// The in-progress table of each worker is finished (annotation is not
    /// interruptible mid-table), the scope joins, and `Err(completed)`
    /// reports how many tables were fully annotated before the cut.
    pub(crate) fn execute(
        &self,
        tables: &[Table],
        workers: usize,
        cache: Option<&CellCandidateCache>,
        unique_columns: Option<&[usize]>,
        deadline: Option<Instant>,
    ) -> Result<Vec<(TableAnnotation, PhaseTimings)>, usize> {
        let expired = |done: usize| {
            // The last claim never needs a clock check: there is no next
            // table left to cut.
            done < tables.len() && deadline.is_some_and(|d| Instant::now() >= d)
        };
        let workers = workers.max(1);
        if workers == 1 || tables.len() < 2 {
            let mut scratch = CandidateScratch::new();
            let mut out = Vec::with_capacity(tables.len());
            for t in tables {
                if expired(out.len()) {
                    return Err(out.len());
                }
                out.push(self.annotate_one(t, &mut scratch, cache, unique_columns));
            }
            return Ok(out);
        }
        let next = AtomicUsize::new(0);
        let cut = std::sync::atomic::AtomicBool::new(false);
        let slots: Vec<Mutex<Option<(TableAnnotation, PhaseTimings)>>> =
            (0..tables.len()).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers.min(tables.len()) {
                scope.spawn(|| {
                    // One scratch per worker: probes and dedup buffers reach
                    // steady state after the first few tables.
                    let mut scratch = CandidateScratch::new();
                    loop {
                        if cut.load(Ordering::Relaxed) {
                            break;
                        }
                        if deadline.is_some_and(|d| Instant::now() >= d) {
                            cut.store(true, Ordering::Relaxed);
                            break;
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= tables.len() {
                            break;
                        }
                        let out =
                            self.annotate_one(&tables[i], &mut scratch, cache, unique_columns);
                        *slots[i].lock().expect("slot lock poisoned") = Some(out);
                    }
                });
            }
        });
        let mut out = Vec::with_capacity(tables.len());
        for slot in slots {
            match slot.into_inner().expect("slot lock poisoned") {
                Some(pair) => out.push(pair),
                // A hole means a worker observed the deadline before
                // claiming this index; everything after it is unclaimed
                // too (indices are claimed in order).
                None => return Err(out.len()),
            }
        }
        // All slots filled: the run beat the deadline even if the flag
        // tripped after the last claim.
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use webtable_catalog::{generate_world, WorldConfig};
    use webtable_tables::{NoiseConfig, TableGenerator, TruthMask};

    use super::*;
    use crate::session::AnnotateRequest;

    fn annotator() -> (webtable_catalog::World, Annotator) {
        let w = generate_world(&WorldConfig::tiny(5)).unwrap();
        let a = Annotator::new(Arc::clone(&w.catalog));
        (w, a)
    }

    #[test]
    fn timings_are_recorded_and_phases_fit_in_total() {
        let (w, a) = annotator();
        let mut g = TableGenerator::new(&w, NoiseConfig::wiki(), TruthMask::full(), 41);
        let lt = g.gen_table(20);
        let (_, t) = a.run(&AnnotateRequest::one(&lt.table).without_cache()).into_single();
        assert!(t.total_us > 0);
        assert!(t.candidates_us + t.potentials_us + t.inference_us <= t.total_us + 1000);
    }

    #[test]
    fn batch_matches_sequential() {
        let (w, a) = annotator();
        let mut g = TableGenerator::new(&w, NoiseConfig::wiki(), TruthMask::full(), 42);
        let tables: Vec<Table> = g.gen_corpus(6, 6).into_iter().map(|lt| lt.table).collect();
        let seq = a.run(&AnnotateRequest::new(&tables).without_cache());
        let par = a.run(&AnnotateRequest::new(&tables).workers(4));
        assert_eq!(seq.annotations.len(), par.annotations.len());
        for (s, p) in seq.annotations.iter().zip(&par.annotations) {
            assert_eq!(s.cell_entities, p.cell_entities);
            assert_eq!(s.column_types, p.column_types);
            assert_eq!(s.relations, p.relations);
        }
    }

    #[test]
    fn annotator_is_shareable() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Annotator>();
    }
}
