//! Spans for the traced run, the self-time arithmetic over them, and
//! the server's request log.
//!
//! One request's spans share the request id. The root `client` span runs
//! from due time to the last reply byte. Its children are the load
//! generator's lateness (`loadgen`) and the server's handler time
//! (`server.handler`, from the request log's `dur_us`). The log carries
//! durations, not start times, so the handler span is placed to end
//! with the reply. The in-process replay's calls (`search.engine`,
//! `core.candidates`, …) are laid end to end from the handler's start
//! and clipped to it. A span's self time is its duration minus the part
//! of it that its children cover; the root's self time is the latency
//! no layer accounts for.

use std::collections::BTreeMap;
use std::time::Duration;

use webtable_core::wire::Json;

/// The client's view of one request, taken from its load-generator sample.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientSpan {
    /// Request id.
    pub id: usize,
    /// Query kind or endpoint label.
    pub kind: &'static str,
    /// Due time.
    pub due: Duration,
    /// Send time.
    pub sent: Duration,
    /// First reply byte, when a reply came.
    pub first_byte: Option<Duration>,
    /// Last reply byte (or the failure).
    pub done: Duration,
}

/// One timed interval, in nanoseconds from the window start.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique span id.
    pub id: u64,
    /// The request this span belongs to.
    pub request: usize,
    /// The span that caused it; `None` for the request's root.
    pub parent: Option<u64>,
    /// Layer-qualified name (`server.handler`, `search.engine`, …).
    pub name: &'static str,
    /// The request's query kind or endpoint label.
    pub kind: &'static str,
    /// Start offset.
    pub start: u64,
    /// End offset (≥ start).
    pub end: u64,
    /// Root spans: when the first reply byte arrived.
    pub first_byte: Option<u64>,
}

impl Span {
    fn len(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
pub fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0u64, lo);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Self time per span name, summed over every span: duration minus the
/// union of its children's intervals.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for s in spans {
        let kids = children.get_mut(&s.id).map(|v| covered(s.start, s.end, v)).unwrap_or(0);
        *out.entry(s.name).or_default() += s.len() - kids.min(s.len());
    }
    out
}

/// The layer a span name belongs to: its prefix before the first dot.
/// The root `client` span's self time is unattributed latency.
pub fn layer_of(name: &str) -> &str {
    match name {
        "client" => "unattributed",
        _ => name.split('.').next().unwrap_or(name),
    }
}

fn ns(d: Duration) -> u64 {
    d.as_nanos().min(u128::from(u64::MAX)) as u64
}

/// Builds one request's span tree: root, load-generator lateness, the
/// server handler (`handler` from the request log, if matched), and the
/// replayed calls as `(name, duration)` in call order.
pub fn request_spans(
    client: &ClientSpan,
    handler: Option<Duration>,
    replay: &[(&'static str, Duration)],
) -> Vec<Span> {
    let base = client.id as u64 * 1024;
    let (due, sent, done) = (ns(client.due), ns(client.sent), ns(client.done));
    let span = |id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64| Span {
        id: base + id,
        request: client.id,
        parent: parent.map(|p| base + p),
        name,
        kind: client.kind,
        start,
        end,
        first_byte: None,
    };
    let root = Span { first_byte: client.first_byte.map(ns), ..span(0, None, "client", due, done) };
    let mut out = vec![root, span(1, Some(0), "loadgen", due, sent)];
    if let Some(h) = handler {
        let start = done.saturating_sub(ns(h)).max(sent);
        out.push(span(2, Some(0), "server.handler", start, done));
        let mut t = start;
        for (k, &(name, d)) in replay.iter().enumerate() {
            let end = (t + ns(d)).min(done);
            out.push(span(3 + k as u64, Some(2), name, t, end));
            t = end;
        }
    }
    out
}

/// Spans as JSON lines, one span per line.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let doc = Json::Obj(vec![
            ("end_ns".into(), Json::u64(s.end)),
            ("first_byte_ns".into(), s.first_byte.map(Json::u64).unwrap_or(Json::Null)),
            ("id".into(), Json::u64(s.id)),
            ("kind".into(), Json::str(s.kind)),
            ("name".into(), Json::str(s.name)),
            ("parent".into(), s.parent.map(Json::u64).unwrap_or(Json::Null)),
            ("request".into(), Json::usize(s.request)),
            ("start_ns".into(), Json::u64(s.start)),
        ]);
        out.push_str(&doc.encode());
        out.push('\n');
    }
    out
}

/// One line of the server's request log.
#[derive(Debug, Clone, PartialEq)]
pub struct LogLine {
    /// Request path.
    pub path: String,
    /// Decoded query kind, for searches.
    pub kind: Option<String>,
    /// Server-clock duration.
    pub dur_us: u64,
}

/// The request-log lines of a server's standard error, in file order.
/// Other lines (warnings, events) are skipped.
pub fn parse_request_log(text: &str) -> Vec<LogLine> {
    text.lines()
        .filter_map(|l| Json::parse(l).ok())
        .filter_map(|j| {
            Some(LogLine {
                path: j.get("path")?.as_str()?.to_string(),
                kind: j.get("query_kind").and_then(Json::as_str).map(str::to_string),
                dur_us: j.get("dur_us")?.as_u64()?,
            })
        })
        .collect()
}
