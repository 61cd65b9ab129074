//! The serving loop: bounded accept queue, fixed worker pool,
//! structured request logs, clean shutdown.
//!
//! One acceptor thread blocks in `accept()` and pushes each connection,
//! stamped with the instant it was accepted, onto a bounded queue;
//! `workers` threads block on the queue's condvar, then pop, parse,
//! route, respond. Nothing polls. When the queue is full the acceptor
//! answers 503 `queue_full` inline and drops the connection — load
//! sheds at the front door instead of queueing unboundedly. Shutdown
//! (via `POST /admin/shutdown` or [`ServerHandle::stop`]) sets the flag
//! and wakes the acceptor with one connect to its own address; the
//! acceptor stops accepting and wakes the workers, which drain the queue
//! and exit — the same stop-feeding-then-join discipline the annotator's
//! deadline cancellation uses.

use std::collections::VecDeque;
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use webtable_core::wire::Json;

use crate::error::error_body;
use crate::http::{read_request, write_response, Response};
use crate::metrics::Endpoint;
use crate::router::{endpoint_of, handle, Routed};
use crate::state::AppState;

/// Serving knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads handling requests.
    pub workers: usize,
    /// Accepted-but-unserviced connection bound; beyond it new
    /// connections get an immediate 503.
    pub queue_depth: usize,
    /// Whether to emit one JSON log line per request to stderr.
    pub log_requests: bool,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig { workers: 4, queue_depth: 64, log_requests: true }
    }
}

/// Accepted connections, each with the instant `accept()` returned it.
#[derive(Debug, Default)]
struct Queue {
    conns: Mutex<VecDeque<(TcpStream, Instant)>>,
    ready: Condvar,
}

/// A running server; dropping the handle does *not* stop it — call
/// [`stop`](ServerHandle::stop) (or POST `/admin/shutdown`).
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<AppState>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state (tests inspect metrics and swap directly).
    pub fn state(&self) -> &Arc<AppState> {
        &self.state
    }

    /// Requests shutdown, wakes the acceptor and joins every thread.
    /// Idempotent with an `/admin/shutdown` that already set the flag.
    pub fn stop(self) {
        self.state.shutdown.store(true, Ordering::Release);
        wake_acceptor(self.addr);
        self.wait();
    }

    /// Joins every thread: returns once shutdown has been requested and
    /// the workers have drained the queue. The worker that answers
    /// `POST /admin/shutdown` wakes the acceptor itself, so this needs no
    /// [`stop`](ServerHandle::stop).
    pub fn wait(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }
}

/// Binds `addr` and starts the accept + worker threads.
pub fn serve(
    addr: &str,
    state: Arc<AppState>,
    config: ServerConfig,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let queue = Arc::new(Queue::default());
    let mut threads = Vec::with_capacity(config.workers + 1);

    {
        let state = Arc::clone(&state);
        let queue = Arc::clone(&queue);
        let depth = config.queue_depth.max(1);
        threads.push(std::thread::spawn(move || accept_loop(listener, state, queue, depth)));
    }
    for _ in 0..config.workers.max(1) {
        let state = Arc::clone(&state);
        let queue = Arc::clone(&queue);
        let log = config.log_requests;
        threads.push(std::thread::spawn(move || worker_loop(state, queue, local, log)));
    }
    Ok(ServerHandle { addr: local, state, threads })
}

fn accept_loop(listener: TcpListener, state: Arc<AppState>, queue: Arc<Queue>, depth: usize) {
    loop {
        let next = listener.accept();
        let accepted = Instant::now();
        // Shutdown's wake-up connect lands here; it, and any connection
        // racing it, is dropped unserved.
        if state.shutdown.load(Ordering::Acquire) {
            break;
        }
        match next {
            Ok((mut conn, _)) => {
                let mut q = queue.conns.lock().unwrap_or_else(|e| e.into_inner());
                if q.len() >= depth {
                    drop(q);
                    state.metrics.queue_rejections.fetch_add(1, Ordering::Relaxed);
                    write_response(
                        &mut conn,
                        &Response {
                            status: 503,
                            body: error_body("queue_full", "accept queue is full; retry"),
                        },
                    );
                } else {
                    q.push_back((conn, accepted));
                    drop(q);
                    queue.ready.notify_one();
                }
            }
            // Out of file descriptors and the like: back off, then retry.
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    // Notify under the lock: a worker that checked the flag before it
    // was set still holds the lock until its `wait` releases it, so it
    // is either waiting now or will see the flag on its next check.
    let _q = queue.conns.lock().unwrap_or_else(|e| e.into_inner());
    queue.ready.notify_all();
}

/// Wakes an acceptor blocked in `accept()` with one connect to its bound
/// address (`0.0.0.0` and `[::]` via loopback). Errors are ignored: a
/// refused connect means the acceptor has already closed its listener,
/// and a timed-out one that its backlog is full, so `accept()` is about
/// to return anyway.
fn wake_acceptor(mut addr: SocketAddr) {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
}

fn worker_loop(state: Arc<AppState>, queue: Arc<Queue>, addr: SocketAddr, log: bool) {
    loop {
        let next = {
            let mut q = queue.conns.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(next) = q.pop_front() {
                    break Some(next);
                }
                if state.shutdown.load(Ordering::Acquire) {
                    break None;
                }
                q = queue.ready.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        let Some((conn, accepted)) = next else { return };
        let running = !state.shutdown.load(Ordering::Acquire);
        serve_connection(&state, conn, accepted, log);
        // The request that set the flag (`POST /admin/shutdown`) wakes
        // the acceptor, which is blocked in `accept()`.
        if running && state.shutdown.load(Ordering::Acquire) {
            wake_acceptor(addr);
        }
    }
}

/// Runs the router under `catch_unwind` so a panicking handler costs
/// one 500 response, not a worker thread. The pool never shrinks: the
/// worker that caught the panic loops straight back to the queue.
fn route_isolated(state: &AppState, req: &crate::http::Request, ingress: Instant) -> Routed {
    match catch_unwind(AssertUnwindSafe(|| handle(state, req, ingress))) {
        Ok(routed) => routed,
        Err(_) => {
            state.metrics.panics.fetch_add(1, Ordering::Relaxed);
            Response { status: 500, body: error_body("internal", "request handler panicked") }
                .into()
        }
    }
}

/// Reads, routes, responds, records, logs — one connection, one
/// request (`Connection: close`). `accepted` is when `accept()` returned
/// the connection: annotate deadlines count from there, so time spent
/// queued counts against the budget.
fn serve_connection(state: &AppState, mut conn: TcpStream, accepted: Instant, log: bool) {
    // A stalled peer must not pin a worker: bound both directions.
    let _ = conn.set_read_timeout(Some(Duration::from_secs(10)));
    let _ = conn.set_write_timeout(Some(Duration::from_secs(10)));
    let started = Instant::now();
    let (endpoint, method, path, routed) = match read_request(&mut conn) {
        Ok(Some(req)) => {
            let routed = route_isolated(state, &req, accepted);
            (endpoint_of(&req.path), req.method, req.path, routed)
        }
        Ok(None) => return, // peer connected and left; nothing to answer
        Err(e) => (
            Endpoint::Other,
            String::from("-"),
            String::from("-"),
            Response { status: e.status, body: error_body(e.code, &e.message) }.into(),
        ),
    };
    let Routed { response, query_kind } = routed;
    let duration_us = micros(started.elapsed());
    state.metrics.record(endpoint, response.status, duration_us);
    if let Some(kind) = query_kind {
        state.metrics.record_query_kind(kind);
    }
    write_response(&mut conn, &response);
    // Send the FIN now, so the client's read-to-end completes before
    // this worker formats and writes its log line.
    let _ = conn.shutdown(Shutdown::Write);
    if log {
        let queue_us = micros(started.saturating_duration_since(accepted));
        eprintln!(
            "{}",
            log_line(state, &method, &path, query_kind, response.status, duration_us, queue_us)
        );
    }
}

fn micros(d: Duration) -> u64 {
    d.as_micros().min(u128::from(u64::MAX)) as u64
}

/// One structured request-log line (sorted keys, stable shape).
/// `query_kind` is present for decoded search requests, `null` elsewhere.
/// `dur_us` runs from dequeue to just before the response is written;
/// `queue_us` from accept to dequeue.
fn log_line(
    state: &AppState,
    method: &str,
    path: &str,
    query_kind: Option<&'static str>,
    status: u16,
    duration_us: u64,
    queue_us: u64,
) -> String {
    let ts_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis().min(u128::from(u64::MAX)) as u64)
        .unwrap_or(0);
    Json::Obj(vec![
        ("dur_us".into(), Json::u64(duration_us)),
        ("gen".into(), Json::u64(state.metrics.swap_generation.load(Ordering::Relaxed))),
        ("method".into(), Json::str(method)),
        ("path".into(), Json::str(path)),
        ("query_kind".into(), query_kind.map(Json::str).unwrap_or(Json::Null)),
        ("queue_us".into(), Json::u64(queue_us)),
        ("status".into(), Json::u64(u64::from(status))),
        ("ts_ms".into(), Json::u64(ts_ms)),
    ])
    .encode()
}
