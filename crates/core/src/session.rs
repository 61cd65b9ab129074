//! The request/response front door of the annotator.
//!
//! Every combination of timing, statistics, caching and parallelism goes
//! through a single request/response pair:
//!
//! * [`AnnotateRequest`] — a builder describing *what* to annotate (a table
//!   slice) and *how* (worker count, cache plan, unique-column enforcement,
//!   deadline);
//! * [`Annotator::run`] — the one execution entry point, returning an
//!   [`AnnotateResponse`] carrying annotations, per-table phase timings,
//!   and aggregate [`AnnotateStats`].
//!
//! For unbounded inputs see the streaming sibling
//! [`Annotator::annotate_stream`](crate::stream).
//!
//! ```no_run
//! use std::sync::Arc;
//! use webtable_catalog::{generate_world, WorldConfig};
//! use webtable_core::{AnnotateRequest, Annotator};
//!
//! let world = generate_world(&WorldConfig::tiny(1)).unwrap();
//! let annotator = Annotator::new(Arc::clone(&world.catalog));
//! let tables: Vec<webtable_tables::Table> = Vec::new(); // your corpus
//! let response = annotator.run(&AnnotateRequest::new(&tables).workers(4));
//! assert_eq!(response.annotations.len(), tables.len());
//! println!("cache hit rate: {:.2}", response.stats.cache_hit_rate());
//! ```

use std::time::{Duration, Instant};

use webtable_tables::Table;

use crate::cache::CellCandidateCache;
use crate::error::Error;
use crate::pipeline::Annotator;
use crate::result::{AnnotateStats, PhaseTimings, TableAnnotation};

/// How a [`run`](Annotator::run) obtains its cross-table candidate cache.
#[derive(Debug, Clone, Copy, Default)]
enum CachePlan<'a> {
    /// A fresh cache sized by `config.batch_cache_capacity`, private to
    /// this run (the batch default since PR 3).
    #[default]
    Fresh,
    /// No cross-table cache at all (the legacy single-table behavior).
    Disabled,
    /// A caller-owned cache shared across runs; hit/miss counters
    /// accumulate on it. Bypassed — never consulted or filled — if its
    /// fingerprint does not match the annotator's.
    Shared(&'a CellCandidateCache),
}

/// A description of one annotation run: the tables plus every execution
/// knob the seven legacy entry points used to hard-wire. Build with
/// [`new`](AnnotateRequest::new) (or [`one`](AnnotateRequest::one) for a
/// single table) and chain the setters; execute with
/// [`Annotator::run`].
#[derive(Debug, Clone, Default)]
pub struct AnnotateRequest<'a> {
    tables: &'a [Table],
    workers: usize,
    cache: CachePlan<'a>,
    unique_columns: Option<&'a [usize]>,
    deadline: Option<Instant>,
}

impl<'a> AnnotateRequest<'a> {
    /// A request over a table slice with the defaults: one worker, a fresh
    /// run-private candidate cache, no uniqueness enforcement, no
    /// deadline.
    pub fn new(tables: &'a [Table]) -> AnnotateRequest<'a> {
        AnnotateRequest { tables, workers: 1, ..AnnotateRequest::default() }
    }

    /// A request over a single table.
    pub fn one(table: &'a Table) -> AnnotateRequest<'a> {
        AnnotateRequest::new(std::slice::from_ref(table))
    }

    /// Sets the worker-thread count (`0` is treated as `1`). Annotations
    /// are identical at every worker count; only wall-clock changes.
    pub fn workers(mut self, workers: usize) -> AnnotateRequest<'a> {
        self.workers = workers;
        self
    }

    /// Shares a caller-owned cross-table candidate cache (see
    /// [`Annotator::new_cell_cache`]); warm entries carry across runs and
    /// hit/miss counters accumulate on the cache. An incompatible cache
    /// (fingerprint mismatch) is bypassed, never corrupting output.
    pub fn shared_cache(mut self, cache: &'a CellCandidateCache) -> AnnotateRequest<'a> {
        self.cache = CachePlan::Shared(cache);
        self
    }

    /// Disables the cross-table candidate cache for this run (the only
    /// effect is more index probes; output never changes).
    pub fn without_cache(mut self) -> AnnotateRequest<'a> {
        self.cache = CachePlan::Disabled;
        self
    }

    /// Enforces a uniqueness (primary-key) constraint on the given columns
    /// of every table via optimal assignment after collective inference
    /// (§4.4.1 of the paper).
    pub fn unique_columns(mut self, columns: &'a [usize]) -> AnnotateRequest<'a> {
        self.unique_columns = Some(columns);
        self
    }

    /// Sets a hard wall-clock deadline. A deadline-bearing request must be
    /// executed with [`Annotator::try_run`]: once the deadline passes,
    /// workers stop claiming tables, the pool joins, and the run fails
    /// with [`Error::DeadlineExceeded`] instead of returning partial
    /// output. Annotation of the in-flight table is not interrupted
    /// mid-table, so expiry overshoots by at most one table per worker.
    pub fn deadline(mut self, deadline: Instant) -> AnnotateRequest<'a> {
        self.deadline = Some(deadline);
        self
    }

    /// [`deadline`](AnnotateRequest::deadline) as a budget relative to
    /// *now* (the moment this setter is called, not `try_run`).
    pub fn timeout(self, budget: Duration) -> AnnotateRequest<'a> {
        self.deadline(Instant::now() + budget)
    }

    /// The tables this request covers.
    pub fn tables(&self) -> &'a [Table] {
        self.tables
    }
}

/// The outcome of one [`Annotator::run`]: per-table annotations and phase
/// timings (index-aligned with the request's tables) plus aggregate run
/// statistics.
#[derive(Debug, Clone)]
pub struct AnnotateResponse {
    /// One annotation per requested table, in request order.
    pub annotations: Vec<TableAnnotation>,
    /// Per-table phase timings, parallel to `annotations`.
    pub timings: Vec<PhaseTimings>,
    /// Aggregate statistics: table count, cache hits/misses attributable
    /// to this run, summed phase timings. The cache deltas are computed
    /// from the cache's global counters, so they are exact for fresh
    /// (run-private) caches and for shared caches used by one run at a
    /// time; runs executing *concurrently* against the same shared cache
    /// see each other's lookups in their windows (the counters on the
    /// cache itself stay exact — only the per-run attribution blurs).
    pub stats: AnnotateStats,
}

impl AnnotateResponse {
    /// Consumes the response into its single annotation; panics unless the
    /// request held exactly one table.
    pub fn into_single(mut self) -> (TableAnnotation, PhaseTimings) {
        assert_eq!(
            self.annotations.len(),
            1,
            "into_single on a {}-table response",
            self.annotations.len()
        );
        (self.annotations.remove(0), self.timings.remove(0))
    }
}

impl Annotator {
    /// Executes an annotation request — the single front-door entry
    /// point. Annotations are a
    /// pure function of (catalog, index, weights, config, tables):
    /// worker count and caching never change output, only
    /// wall-clock and the work skipped.
    ///
    /// # Panics
    ///
    /// Panics if the request carries a [`deadline`] and it expires
    /// mid-run; deadline-bearing requests belong on the fallible twin
    /// [`try_run`](Annotator::try_run).
    ///
    /// [`deadline`]: AnnotateRequest::deadline
    pub fn run(&self, request: &AnnotateRequest<'_>) -> AnnotateResponse {
        self.try_run(request).unwrap_or_else(|e| {
            panic!("Annotator::run on a deadline-bearing request that expired ({e}); use try_run")
        })
    }

    /// The fallible twin of [`run`](Annotator::run): identical output on
    /// success, but a request whose [`deadline`](AnnotateRequest::deadline)
    /// expires mid-run returns [`Error::DeadlineExceeded`] after the
    /// worker pool has fully torn down (workers stop claiming tables and
    /// join — the same stop-feeding teardown the streaming path's `Drop`
    /// uses — so no annotation work outlives the error).
    pub fn try_run(&self, request: &AnnotateRequest<'_>) -> Result<AnnotateResponse, Error> {
        let fresh;
        let cache: Option<&CellCandidateCache> = match request.cache {
            CachePlan::Disabled => None,
            CachePlan::Fresh => {
                fresh = self.new_cell_cache(self.config.batch_cache_capacity);
                Some(&fresh)
            }
            CachePlan::Shared(shared) => Some(shared),
        };
        // A stale or disabled cache is bypassed, exactly as the legacy
        // batch path did: it can slow a run down but never corrupt it.
        let cache = cache.filter(|c| c.fingerprint() == self.cache_fingerprint() && c.is_enabled());
        let (hits_before, misses_before) =
            cache.map(|c| (c.hits(), c.misses())).unwrap_or_default();

        let results = self
            .execute(
                request.tables,
                request.workers,
                cache,
                request.unique_columns,
                request.deadline,
            )
            .map_err(|completed| Error::DeadlineExceeded {
                completed,
                total: request.tables.len(),
            })?;

        let (hits_after, misses_after) = cache.map(|c| (c.hits(), c.misses())).unwrap_or_default();
        let mut annotations = Vec::with_capacity(results.len());
        let mut timings = Vec::with_capacity(results.len());
        let mut summed = PhaseTimings::default();
        for (ann, t) in results {
            summed.add(&t);
            annotations.push(ann);
            timings.push(t);
        }
        Ok(AnnotateResponse {
            annotations,
            timings,
            stats: AnnotateStats {
                tables: request.tables.len(),
                cache_hits: hits_after - hits_before,
                cache_misses: misses_after - misses_before,
                timings: summed,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use webtable_catalog::{generate_world, WorldConfig};
    use webtable_tables::{NoiseConfig, TableGenerator, TruthMask};

    use super::*;

    fn world_tables(seed: u64, n: usize) -> (webtable_catalog::World, Vec<Table>) {
        let w = generate_world(&WorldConfig::tiny(seed)).unwrap();
        let mut g = TableGenerator::new(&w, NoiseConfig::wiki(), TruthMask::full(), 9);
        let tables = g.gen_corpus(n, 6).into_iter().map(|lt| lt.table).collect();
        (w, tables)
    }

    #[test]
    fn run_is_deterministic_across_workers_and_cache_plans() {
        let (w, tables) = world_tables(23, 5);
        let a = Annotator::new(Arc::clone(&w.catalog));
        let base = a.run(&AnnotateRequest::new(&tables).without_cache());
        for workers in [1usize, 2, 4] {
            let got = a.run(&AnnotateRequest::new(&tables).workers(workers));
            assert_eq!(base.annotations, got.annotations, "workers={workers}");
        }
        let shared = a.new_cell_cache(1 << 10);
        let got = a.run(&AnnotateRequest::new(&tables).shared_cache(&shared));
        assert_eq!(base.annotations, got.annotations);
        assert_eq!(shared.hits() + shared.misses(), got.stats.cache_hits + got.stats.cache_misses);
    }

    #[test]
    fn run_reports_run_local_cache_deltas_on_shared_caches() {
        let (w, tables) = world_tables(29, 4);
        let a = Annotator::new(Arc::clone(&w.catalog));
        let shared = a.new_cell_cache(1 << 10);
        let first = a.run(&AnnotateRequest::new(&tables).shared_cache(&shared));
        let second = a.run(&AnnotateRequest::new(&tables).shared_cache(&shared));
        // The second pass re-reads the same cells: all lookups hit, and the
        // response reports only this run's share of the counters.
        assert_eq!(second.stats.cache_misses, 0, "warm cache must not miss");
        assert!(second.stats.cache_hits >= first.stats.cache_hits);
        assert_eq!(
            shared.hits() + shared.misses(),
            first.stats.cache_hits
                + first.stats.cache_misses
                + second.stats.cache_hits
                + second.stats.cache_misses
        );
    }

    #[test]
    fn unique_columns_yield_distinct_entities() {
        let (w, tables) = world_tables(37, 1);
        let a = Annotator::new(Arc::clone(&w.catalog));
        let cols = [0usize];
        let resp = a.run(&AnnotateRequest::new(&tables).unique_columns(&cols).without_cache());
        let ann = &resp.annotations[0];
        let mut seen = Vec::new();
        for r in 0..tables[0].num_rows() {
            if let Some(Some(e)) = ann.cell_entities.get(&(r, 0)) {
                assert!(!seen.contains(e), "column 0 must hold distinct entities");
                seen.push(*e);
            }
        }
    }

    #[test]
    fn expired_deadline_fails_fast_and_releases_the_pool() {
        let (w, tables) = world_tables(43, 6);
        let a = Annotator::new(Arc::clone(&w.catalog));
        for workers in [1usize, 4] {
            let req = AnnotateRequest::new(&tables)
                .workers(workers)
                .deadline(std::time::Instant::now() - std::time::Duration::from_millis(1));
            match a.try_run(&req) {
                Err(crate::Error::DeadlineExceeded { completed, total }) => {
                    assert_eq!(total, tables.len());
                    assert!(completed < total, "an expired deadline must cut the run");
                }
                other => panic!("expected DeadlineExceeded, got {other:?}"),
            }
        }
        // The pool tore down cleanly: the annotator keeps serving.
        let ok = a.run(&AnnotateRequest::new(&tables).workers(2));
        assert_eq!(ok.annotations.len(), tables.len());
    }

    #[test]
    fn generous_deadline_output_is_bit_identical_to_no_deadline() {
        let (w, tables) = world_tables(47, 4);
        let a = Annotator::new(Arc::clone(&w.catalog));
        let base = a.run(&AnnotateRequest::new(&tables).workers(2));
        let timed = a
            .try_run(
                &AnnotateRequest::new(&tables)
                    .workers(2)
                    .timeout(std::time::Duration::from_secs(600)),
            )
            .expect("10-minute budget cannot expire on 4 tiny tables");
        assert_eq!(base.annotations, timed.annotations);
        assert_eq!(base.stats.tables, timed.stats.tables);
    }

    #[test]
    fn empty_request_produces_empty_response() {
        let (w, _) = world_tables(41, 1);
        let a = Annotator::new(Arc::clone(&w.catalog));
        let resp = a.run(&AnnotateRequest::new(&[]));
        assert!(resp.annotations.is_empty());
        assert_eq!(resp.stats.tables, 0);
        assert_eq!(resp.stats.cache_hits + resp.stats.cache_misses, 0);
    }
}
