//! Streaming batch annotation: bounded memory over an unbounded table
//! stream (the ROADMAP's service frontier).
//!
//! [`Annotator::run`](crate::Annotator::run) materializes the whole
//! corpus and its results in memory — fine for a benchmark, fatal for a
//! service draining a crawl. [`Annotator::annotate_stream`] instead drives
//! a **fixed worker pool** fed through **per-shard bounded channels** and a
//! global in-flight gate:
//!
//! ```text
//!            (bounded, cap/worker)         (bounded)
//! iterator ─► feeder ─┬► worker 0 ─┬► results ─► reorder ─► caller
//!     ▲               ├► worker 1 ─┤               (BTreeMap)
//!     └── in-flight gate: at most `buffer_bound` tables between
//!         "pulled from the iterator" and "yielded to the caller"
//! ```
//!
//! The feeder only pulls the next table after acquiring an in-flight
//! permit, so at most [`StreamOptions::buffer_bound`] tables exist inside
//! the pipeline at any instant — backpressure propagates all the way to
//! the source iterator. Results are re-ordered to input order before being
//! yielded, and annotations are **byte-identical** to a batch `run` on
//! the same input at any worker count (pinned by
//! `crates/core/tests/api_equivalence.rs`).

use std::collections::BTreeMap;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use webtable_tables::Table;

use crate::cache::CellCandidateCache;
use crate::candidates::CandidateScratch;
use crate::pipeline::Annotator;
use crate::result::{AnnotateStats, PhaseTimings, TableAnnotation};

/// Knobs of [`Annotator::annotate_stream`].
#[derive(Debug, Clone)]
pub struct StreamOptions {
    /// Fixed worker-pool size (`0` = one worker per available core).
    /// Annotations are identical at every worker count.
    pub workers: usize,
    /// Maximum number of tables in flight — pulled from the source
    /// iterator but not yet yielded to the caller. This is the stream's
    /// memory bound; clamped to at least 1.
    pub buffer_bound: usize,
    /// Capacity of the stream-private cross-table candidate cache
    /// (`None` = the annotator's `config.batch_cache_capacity`, matching
    /// a batch `run`; `Some(0)` disables caching).
    pub cache_capacity: Option<usize>,
}

impl Default for StreamOptions {
    fn default() -> StreamOptions {
        StreamOptions { workers: 1, buffer_bound: 32, cache_capacity: None }
    }
}

impl StreamOptions {
    /// Sets the worker count.
    pub fn workers(mut self, workers: usize) -> StreamOptions {
        self.workers = workers;
        self
    }

    /// Sets the in-flight bound.
    pub fn buffer_bound(mut self, bound: usize) -> StreamOptions {
        self.buffer_bound = bound;
        self
    }

    /// Sets the stream-private cache capacity.
    pub fn cache_capacity(mut self, capacity: usize) -> StreamOptions {
        self.cache_capacity = Some(capacity);
        self
    }
}

/// Counting gate bounding how many tables are in flight, with a high-water
/// mark so tests can prove the bound held.
#[derive(Debug)]
struct Gate {
    state: Mutex<GateState>,
    cv: Condvar,
    bound: usize,
}

#[derive(Debug, Default)]
struct GateState {
    in_flight: usize,
    high_water: usize,
    closed: bool,
}

impl Gate {
    fn new(bound: usize) -> Gate {
        Gate { state: Mutex::new(GateState::default()), cv: Condvar::new(), bound }
    }

    /// Blocks until a permit is free; returns `false` if the stream was
    /// dropped (no permit taken).
    fn acquire(&self) -> bool {
        let mut s = self.state.lock().expect("gate poisoned");
        while s.in_flight >= self.bound && !s.closed {
            s = self.cv.wait(s).expect("gate poisoned");
        }
        if s.closed {
            return false;
        }
        s.in_flight += 1;
        s.high_water = s.high_water.max(s.in_flight);
        true
    }

    fn release(&self) {
        let mut s = self.state.lock().expect("gate poisoned");
        s.in_flight = s.in_flight.saturating_sub(1);
        self.cv.notify_all();
    }

    fn close(&self) {
        self.state.lock().expect("gate poisoned").closed = true;
        self.cv.notify_all();
    }

    fn high_water(&self) -> usize {
        self.state.lock().expect("gate poisoned").high_water
    }
}

type Outcome = (TableAnnotation, PhaseTimings);
/// What a worker sends back: the annotated table, or the panic payload of
/// a worker that died on it. Forwarding the payload (instead of letting
/// the index silently vanish) keeps the consumer's reorder sequence gap
/// free, so a worker panic re-raises on the caller promptly rather than
/// deadlocking feeder/consumer on the permit the dead table still holds.
type WorkerResult = (usize, std::thread::Result<Outcome>);

/// A bounded-memory iterator of `(annotation, timings)` pairs in input
/// order, produced by [`Annotator::annotate_stream`]. Dropping the stream
/// early shuts the pool down cleanly; exhausting it leaves aggregate
/// statistics in [`stats`](AnnotateStream::stats).
#[derive(Debug)]
pub struct AnnotateStream {
    results: Option<mpsc::Receiver<WorkerResult>>,
    reorder: BTreeMap<usize, Outcome>,
    next_index: usize,
    gate: Arc<Gate>,
    cache: Arc<CellCandidateCache>,
    handles: Vec<JoinHandle<()>>,
    yielded: usize,
    timings: PhaseTimings,
}

impl AnnotateStream {
    /// Aggregate statistics over everything yielded so far (complete once
    /// the stream is exhausted): table count, the stream cache's hit/miss
    /// counters, summed phase timings.
    pub fn stats(&self) -> AnnotateStats {
        AnnotateStats {
            tables: self.yielded,
            cache_hits: self.cache.hits(),
            cache_misses: self.cache.misses(),
            timings: self.timings,
        }
    }

    /// The most tables ever simultaneously in flight — always
    /// `<= StreamOptions::buffer_bound`.
    pub fn max_in_flight(&self) -> usize {
        self.gate.high_water()
    }
}

impl Iterator for AnnotateStream {
    type Item = Outcome;

    fn next(&mut self) -> Option<Outcome> {
        loop {
            if let Some(out) = self.reorder.remove(&self.next_index) {
                self.next_index += 1;
                self.yielded += 1;
                self.timings.add(&out.1);
                // The table leaves the pipeline only when the caller gets
                // it — this is what makes the bound end-to-end.
                self.gate.release();
                return Some(out);
            }
            let rx = self.results.as_ref()?;
            match rx.recv() {
                Ok((i, Ok(out))) => {
                    self.reorder.insert(i, out);
                }
                Ok((_, Err(panic))) => {
                    // A worker panicked on a table: re-raise on the caller
                    // immediately (the permit it held is reclaimed by the
                    // stream's Drop, which runs while unwinding).
                    self.results = None;
                    std::panic::resume_unwind(panic);
                }
                Err(_) => {
                    // All workers exited; every dispatched index was either
                    // delivered or re-raised above, so nothing is lost.
                    self.results = None;
                    self.join_workers();
                    return None;
                }
            }
        }
    }
}

impl AnnotateStream {
    fn join_workers(&mut self) {
        for h in self.handles.drain(..) {
            if let Err(panic) = h.join() {
                std::panic::resume_unwind(panic);
            }
        }
    }
}

impl Drop for AnnotateStream {
    fn drop(&mut self) {
        // Unblock the feeder (gate) and the workers (dropping the result
        // receiver fails their sends), then reap the threads.
        self.gate.close();
        self.results.take();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Annotator {
    /// Annotates an unbounded table stream with a fixed worker pool under
    /// a hard in-flight bound — the streaming twin of the batch request
    /// path ([`Annotator::run`](crate::Annotator::run)). Yields
    /// `(annotation, timings)` pairs in input order; annotations are
    /// byte-identical to a batch `run` on the same tables at any
    /// worker count. Memory holds at most
    /// [`StreamOptions::buffer_bound`] tables (plus their results)
    /// regardless of stream length: the feeder pulls the next table from
    /// the iterator only after a permit frees up, so backpressure reaches
    /// the source.
    pub fn annotate_stream<I>(&self, tables: I, options: StreamOptions) -> AnnotateStream
    where
        I: IntoIterator<Item = Table>,
        I::IntoIter: Send + 'static,
    {
        let bound = options.buffer_bound.max(1);
        let workers = match options.workers {
            0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            n => n,
        }
        .min(bound);
        let capacity = options.cache_capacity.unwrap_or(self.config.batch_cache_capacity);
        let cache = Arc::new(self.new_cell_cache(capacity));
        let gate = Arc::new(Gate::new(bound));
        let annotator = Arc::new(self.clone());

        // Result channel: bounded too, so a stalled caller stops the pool
        // (its capacity counts within `bound` — a worker holding a filled
        // slot has already consumed an in-flight permit).
        let (result_tx, result_rx) = mpsc::sync_channel::<WorkerResult>(bound);
        let mut handles = Vec::with_capacity(workers + 1);
        let mut shard_txs = Vec::with_capacity(workers);
        // Per-shard backpressure: each worker owns a bounded input channel.
        let shard_capacity = (bound / workers).max(1);
        for _ in 0..workers {
            let (tx, rx) = mpsc::sync_channel::<(usize, Table)>(shard_capacity);
            shard_txs.push(tx);
            let annotator = Arc::clone(&annotator);
            let cache = Arc::clone(&cache);
            let result_tx = result_tx.clone();
            handles.push(std::thread::spawn(move || {
                // One scratch per worker, exactly like the batch pool.
                let mut scratch = CandidateScratch::new();
                while let Ok((i, table)) = rx.recv() {
                    // catch_unwind so a panicking table forwards its payload
                    // (keeping the result sequence gap free) instead of
                    // wedging the pipeline on an unreleased permit.
                    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        let cache = cache.is_enabled().then_some(&*cache);
                        annotator.annotate_one(&table, &mut scratch, cache, None)
                    }));
                    let died = out.is_err();
                    if result_tx.send((i, out)).is_err() || died {
                        break; // stream dropped, or this worker is poisoned
                    }
                }
            }));
        }
        drop(result_tx);

        // Feeder: acquire a permit, *then* pull the next table — the
        // source iterator is never run ahead of the in-flight budget.
        let feeder_gate = Arc::clone(&gate);
        let iter = tables.into_iter();
        handles.push(std::thread::spawn(move || {
            let mut iter = iter;
            let mut index = 0usize;
            loop {
                if !feeder_gate.acquire() {
                    break; // stream dropped
                }
                let Some(table) = iter.next() else {
                    feeder_gate.release(); // unused permit
                    break;
                };
                if shard_txs[index % shard_txs.len()].send((index, table)).is_err() {
                    feeder_gate.release();
                    break; // worker pool shut down
                }
                index += 1;
            }
        }));

        AnnotateStream {
            results: Some(result_rx),
            reorder: BTreeMap::new(),
            next_index: 0,
            gate,
            cache,
            handles,
            yielded: 0,
            timings: PhaseTimings::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use webtable_catalog::{generate_world, WorldConfig};
    use webtable_tables::{NoiseConfig, TableGenerator, TruthMask};

    use super::*;
    use crate::session::AnnotateRequest;

    fn world_tables(seed: u64, n: usize) -> (webtable_catalog::World, Vec<Table>) {
        let w = generate_world(&WorldConfig::tiny(seed)).unwrap();
        let mut g = TableGenerator::new(&w, NoiseConfig::wiki(), TruthMask::full(), 3);
        let tables = g.gen_corpus(n, 5).into_iter().map(|lt| lt.table).collect();
        (w, tables)
    }

    #[test]
    fn stream_matches_request_path_in_order() {
        let (w, tables) = world_tables(51, 8);
        let a = Annotator::new(Arc::clone(&w.catalog));
        let want = a.run(&AnnotateRequest::new(&tables).workers(2));
        for workers in [1usize, 3] {
            let got: Vec<TableAnnotation> = a
                .annotate_stream(
                    tables.clone(),
                    StreamOptions::default().workers(workers).buffer_bound(3),
                )
                .map(|(ann, _)| ann)
                .collect();
            assert_eq!(want.annotations, got, "workers={workers}");
        }
    }

    #[test]
    fn in_flight_never_exceeds_the_bound() {
        let (w, tables) = world_tables(53, 10);
        let a = Annotator::new(Arc::clone(&w.catalog));
        let mut stream =
            a.annotate_stream(tables, StreamOptions::default().workers(4).buffer_bound(3));
        let n = stream.by_ref().count();
        assert_eq!(n, 10);
        assert!(
            stream.max_in_flight() <= 3,
            "high water {} breached the bound",
            stream.max_in_flight()
        );
        assert_eq!(stream.stats().tables, 10);
    }

    #[test]
    fn dropping_a_stream_midway_shuts_the_pool_down() {
        let (w, tables) = world_tables(55, 12);
        let a = Annotator::new(Arc::clone(&w.catalog));
        let mut stream =
            a.annotate_stream(tables, StreamOptions::default().workers(2).buffer_bound(2));
        let _first = stream.next().expect("at least one result");
        drop(stream); // must not hang or leak threads
    }

    #[test]
    fn worker_panic_propagates_instead_of_hanging() {
        let (w, mut tables) = world_tables(59, 6);
        let a = Annotator::new(Arc::clone(&w.catalog));
        // A ragged table (bypassing `Table::new`'s grid check) makes
        // `annotate_one` panic mid-stream; the payload must reach the
        // caller as a panic rather than wedging feeder + workers on the
        // dead table's in-flight permit.
        let poison = Table {
            id: webtable_tables::TableId(999),
            context: "poison".into(),
            headers: vec![None, None],
            rows: vec![vec!["only one cell".into()]],
        };
        tables.insert(3, poison);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let stream =
                a.annotate_stream(tables, StreamOptions::default().workers(2).buffer_bound(2));
            stream.count()
        }));
        assert!(result.is_err(), "the worker panic must reach the caller");
    }

    #[test]
    fn empty_stream_yields_nothing() {
        let (w, _) = world_tables(57, 1);
        let a = Annotator::new(Arc::clone(&w.catalog));
        let mut stream = a.annotate_stream(Vec::<Table>::new(), StreamOptions::default());
        assert!(stream.next().is_none());
        assert_eq!(stream.stats().tables, 0);
    }
}
