//! The two load shapes.
//!
//! * Open loop: independent users, one request per scheduled due time,
//!   each on its own connection. At most `threads` requests are in
//!   flight; a request whose due time passes while every thread is busy
//!   is sent late, and its latency still counts from its due time, so a
//!   stall shows in every request that waited behind it.
//! * Closed loop: `clients` callers that each send their next request
//!   as soon as the previous reply arrives. A request is due when its
//!   caller's previous reply arrived.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::client::exchange;

/// One request of a workload's sequence.
#[derive(Debug, Clone)]
pub struct Request {
    /// HTTP method.
    pub method: &'static str,
    /// Request path.
    pub path: &'static str,
    /// Request body.
    pub body: String,
    /// Metrics label (the query kind for searches).
    pub kind: &'static str,
}

/// One request as the client saw it. Times are offsets from the start
/// of the window.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Index into the request sequence.
    pub id: usize,
    /// When it was due.
    pub due: Duration,
    /// When the client began connecting.
    pub sent: Duration,
    /// When the first reply byte arrived, if a reply came.
    pub first_byte: Option<Duration>,
    /// When the reply (or the failure) was complete.
    pub done: Duration,
    /// `(status, body)`, or the I/O error.
    pub outcome: Result<(u16, String), String>,
}

impl Sample {
    /// Client latency: done minus due.
    pub fn latency(&self) -> Duration {
        self.done.saturating_sub(self.due)
    }

    /// How late the generator sent it.
    pub fn late(&self) -> Duration {
        self.sent.saturating_sub(self.due)
    }

    /// The body of a 2xx reply.
    pub fn ok_body(&self) -> Option<&str> {
        match &self.outcome {
            Ok((status, body)) if (200..300).contains(status) => Some(body),
            _ => None,
        }
    }
}

/// A finished window: samples in request order. A traced run builds its
/// client spans from these afterwards, so tracing adds no work here.
#[derive(Debug, Default)]
pub struct Window {
    /// Every request sent, sorted by id.
    pub samples: Vec<Sample>,
    /// Wall time from window start to the last reply.
    pub elapsed: Duration,
}

struct Shared<'a> {
    addr: SocketAddr,
    requests: &'a [Request],
    t0: Instant,
    samples: Mutex<Vec<Sample>>,
}

impl Shared<'_> {
    fn send(&self, id: usize, due: Duration) -> Duration {
        let r = &self.requests[id];
        let sent = self.t0.elapsed();
        let result = exchange(self.addr, r.method, r.path, &r.body);
        let done = self.t0.elapsed();
        let first_byte = result.as_ref().ok().map(|r| r.first_byte.duration_since(self.t0));
        let outcome = result.map(|r| (r.status, r.body)).map_err(|e| e.to_string());
        let sample = Sample { id, due, sent, first_byte, done, outcome };
        self.samples.lock().expect("sample list lock").push(sample);
        done
    }

    fn finish(self) -> Window {
        let elapsed = self.t0.elapsed();
        let mut samples = self.samples.into_inner().expect("sample list lock");
        samples.sort_by_key(|s| s.id);
        Window { samples, elapsed }
    }
}

/// Sends `requests[i]` at `t0 + schedule[i]` from `threads` threads.
pub fn open_loop(
    addr: SocketAddr,
    requests: &[Request],
    schedule: &[Duration],
    threads: usize,
    t0: Instant,
) -> Window {
    assert_eq!(requests.len(), schedule.len(), "one due time per request");
    let shared =
        Shared { addr, requests, t0, samples: Mutex::new(Vec::with_capacity(requests.len())) };
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads.max(1) {
            s.spawn(|| loop {
                let id = next.fetch_add(1, Ordering::Relaxed);
                let Some(&due) = schedule.get(id) else { return };
                let now = shared.t0.elapsed();
                if due > now {
                    std::thread::sleep(due - now);
                }
                shared.send(id, due);
            });
        }
    });
    shared.finish()
}

/// Runs `clients` closed-loop callers over `requests[range]` in order
/// until the range is used up or `limit` has passed since the start.
pub fn closed_loop(
    addr: SocketAddr,
    requests: &[Request],
    range: std::ops::Range<usize>,
    clients: usize,
    limit: Option<Duration>,
) -> Window {
    let shared = Shared { addr, requests, t0: Instant::now(), samples: Mutex::new(Vec::new()) };
    let next = AtomicUsize::new(range.start);
    std::thread::scope(|s| {
        for _ in 0..clients.max(1) {
            s.spawn(|| {
                let mut due = Duration::ZERO;
                while limit.is_none_or(|l| shared.t0.elapsed() < l) {
                    let id = next.fetch_add(1, Ordering::Relaxed);
                    if id >= range.end {
                        return;
                    }
                    due = shared.send(id, due);
                }
            });
        }
    });
    shared.finish()
}
