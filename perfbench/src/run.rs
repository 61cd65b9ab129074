//! One benchmark run: generate inputs, start the server, drive the
//! workload, check every answer, compute the metrics, and (traced) replay
//! the requests in process to split their latency by layer.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use webtable_core::wire::{annotation_from_json, annotation_to_json, Json};
use webtable_core::{AnnotateRequest, CandidateScratch};
use webtable_search::wire::{decode_answers, encode_answers};
use webtable_search::{query_ap, Query};
use webtable_server::state::{load_generation, load_manifest};
use webtable_server::Manifest;

use crate::inputs::{self, Inputs, Workload};
use crate::loadgen::{closed_loop, open_loop, Sample, Window};
use crate::proc::{run_tool, Server};
use crate::replay::{self, Call, CoreStats, Loaded};
use crate::sched::Rng;
use crate::stats::{mean, median, nearest_rank, supported_percentile};
use crate::trace::{self, parse_request_log, request_spans, ClientSpan, LogLine, Span};

/// End-to-end metrics of the JSON result line, as in `BENCHMARK.json`.
pub const END_TO_END: [&str; 3] = ["setup_s", "p50_ms", "rss_mb"];

/// Per-layer metrics of a traced run's JSON result line, as in
/// `BENCHMARK.json`: the ones every workload measures.
pub const PER_LAYER: [&str; 21] = [
    "server.wait_us",
    "server.handler_us",
    "server.overhead_us",
    "server.queue_rejections",
    "server.deadlines_exceeded",
    "server.swap_retries",
    "server.corpus_parse_ms",
    "search.build_ms",
    "core.corpus_annotate_ms",
    "core.candidates_us",
    "core.potentials_us",
    "core.inference_us",
    "core.cache_hit_rate",
    "core.entity_candidates",
    "core.bp_iters",
    "core.bp_converged_frac",
    "catalog.load_ms",
    "text.snapshot_map_ms",
    "text.segment_skip_frac",
    "loadgen.late_ms",
    "trace.unattributed_frac",
];

/// Server starts per run; `setup_s` is their median. Seven where a start
/// takes at most about 1.3 s; five on `search`, whose start takes about
/// 2.5 s, to keep the run short.
fn setup_repeats(workload: Workload) -> usize {
    match workload {
        Workload::Search => 5,
        Workload::Annotate | Workload::Churn => 7,
    }
}
/// Longest a single server start may take.
const START_LIMIT: Duration = Duration::from_secs(60);
/// Threads (and so connections) driving the load: two, the cores of the
/// machine the workloads were sized on. Fixed, so that the load shape is
/// the same on every commit.
const DRIVERS: usize = 2;
/// A run whose p99 send lateness exceeds this lagged: it fails.
const LAG_LIMIT_MS: f64 = 250.0;
/// Window parts over which `p50_ms` takes its median.
const PARTS: usize = 5;
/// Annotate replies checked table by table against in-process output.
const ANNOTATE_SAMPLE: usize = 48;
/// Corpus tables replayed through the core phases on search workloads.
const CORE_SAMPLE_TABLES: usize = 256;

/// What to run.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measurement window.
    pub window: Duration,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// The `webtable-serve` binary.
    pub server_bin: PathBuf,
    /// Fresh directory for this run's data and logs.
    pub run_dir: PathBuf,
    /// Where a traced run writes its spans.
    pub trace_path: PathBuf,
    /// Pinned input digests: `workload seed seconds digest` lines.
    pub pins: String,
}

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Sample count or other context for the report.
    pub note: String,
}

/// A finished run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: usize,
    /// Operations failed: non-2xx, I/O error, timeout or wrong output.
    pub failed: usize,
    /// Every metric, end-to-end and per-layer.
    pub metrics: Vec<Metric>,
    /// Named reasons the run is not correct.
    pub failures: Vec<String>,
}

impl Outcome {
    fn put(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.metrics.push(Metric { name: name.into(), value, unit, note: note.into() });
    }

    fn fail(&mut self, reason: String) {
        if self.failures.len() < 8 {
            self.failures.push(reason);
        }
    }
}

/// Checks `digest` against the pinned one for this run's inputs.
/// Returns whether a pin exists.
fn check_pin(cfg: &Config, digest: &str) -> Result<bool, String> {
    let key =
        [cfg.workload.name().to_string(), cfg.seed.to_string(), cfg.window.as_secs().to_string()];
    for line in cfg.pins.lines() {
        let words: Vec<&str> = line.split_whitespace().collect();
        if words.len() == 4 && words[..3] == key {
            return if words[3] == digest {
                Ok(true)
            } else {
                Err(format!(
                    "input digest {digest} differs from the pinned {} for {} seed {} seconds {}: \
                     a generator changed the workload",
                    words[3], key[0], key[1], key[2]
                ))
            };
        }
    }
    Ok(false)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Runs one workload end to end.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let data = cfg.run_dir.join("data");
    let logs = cfg.run_dir.join("logs");
    std::fs::create_dir_all(&logs).map_err(|e| format!("creating {}: {e}", logs.display()))?;
    let inputs = inputs::generate(cfg.workload, cfg.seed, cfg.window, &data)?;
    let pinned = check_pin(cfg, &inputs.digest)?;
    println!(
        "inputs digest {} {} {} {} ({})",
        cfg.workload.name(),
        cfg.seed,
        cfg.window.as_secs(),
        inputs.digest,
        if pinned { "pinned" } else { "not pinned" }
    );

    let repeats = setup_repeats(cfg.workload);
    let mut setups = Vec::new();
    let mut server = None;
    for k in 0..repeats {
        let s = Server::start(&cfg.server_bin, &data, &logs, &format!("serve-{k}"), START_LIMIT)?;
        setups.push(s.setup.as_secs_f64());
        if k + 1 < repeats {
            s.shutdown()?;
        } else {
            server = Some(s);
        }
    }
    let server = server.expect("at least one start");
    let mut out = Outcome::default();
    let starts: Vec<String> = setups.iter().map(|t| format!("{t:.3}")).collect();
    out.put("setup_s", median(&setups), "s", format!("median of starts {}", starts.join(" ")));

    let ctx = Ctx { cfg, data: &data, logs: &logs, inputs: &inputs };
    match cfg.workload {
        Workload::Search => ctx.search(server, &mut out)?,
        Workload::Annotate => ctx.annotate(server, &mut out)?,
        Workload::Churn => ctx.churn(server, &mut out)?,
    }
    Ok(out)
}

struct Ctx<'a> {
    cfg: &'a Config,
    data: &'a Path,
    logs: &'a Path,
    inputs: &'a Inputs,
}

/// What the server window left behind for checks and the trace.
struct Served {
    window: Window,
    stats_before: Option<Json>,
    stats_after: Option<Json>,
    log: Vec<LogLine>,
}

fn stats_doc(server: &Server) -> Result<Json, String> {
    Json::parse(&server.ok("GET", "/admin/stats", "")?).map_err(|e| format!("stats: {e}"))
}

fn stat(doc: &Option<Json>, path: &[&str]) -> f64 {
    let mut j = match doc {
        Some(j) => j,
        None => return 0.0,
    };
    for key in path {
        match j.get(key) {
            Some(next) => j = next,
            None => return 0.0,
        }
    }
    j.as_f64().unwrap_or(0.0)
}

/// Latencies in ms, failed requests included: a request that timed out
/// counts with the time it took to fail.
fn latencies(samples: &[&Sample]) -> Vec<f64> {
    let mut by_due: Vec<&&Sample> = samples.iter().collect();
    by_due.sort_by_key(|s| s.due);
    by_due.iter().map(|s| ms(s.latency())).collect()
}

/// `p50_ms` is the median over [`PARTS`] consecutive parts of the
/// window (equal request counts, in due-time order) of each part's
/// median, so that a host stall in one part moves it less. `p99_ms` is
/// over the whole window.
fn put_latency(out: &mut Outcome, lat: &[f64]) -> Result<(), String> {
    let n = lat.len();
    let part = n / PARTS;
    let parts: Result<Vec<f64>, String> =
        lat.chunks(part.max(1)).take(PARTS).map(|c| supported_percentile(c, 50.0)).collect();
    out.put(
        "p50_ms",
        median(&parts?),
        "ms",
        format!("median over {PARTS} parts of {part} requests"),
    );
    let p99 = supported_percentile(lat, 99.0)?;
    out.put("p99_ms", p99, "ms", format!("n={n}, {} beyond", crate::stats::beyond(n, 99.0)));
    Ok(())
}

fn put_lateness(out: &mut Outcome, samples: &[&Sample]) {
    let mut late: Vec<f64> = samples.iter().map(|s| ms(s.late())).collect();
    late.sort_by(f64::total_cmp);
    let p99 = nearest_rank(&late, 99.0).unwrap_or(0.0);
    out.put("loadgen.late_ms", p99, "ms", format!("p99 of send minus due, n={}", late.len()));
    if p99 > LAG_LIMIT_MS {
        out.fail(format!("load generator lagged: p99 lateness {p99:.1} ms > {LAG_LIMIT_MS} ms"));
    }
}

fn finish_server(
    server: Server,
    out: &mut Outcome,
    trace: bool,
) -> Result<(Option<Json>, Vec<LogLine>), String> {
    server.check_alive()?;
    let stats_after = if trace { Some(stats_doc(&server)?) } else { None };
    let rss = server.peak_rss_mb()?;
    out.put("rss_mb", rss, "MiB", "server VmHWM at end of run");
    let stderr = server.stderr.clone();
    server.shutdown()?;
    let log = parse_request_log(&std::fs::read_to_string(&stderr).unwrap_or_default());
    Ok((stats_after, log))
}

impl Ctx<'_> {
    fn serve_open_loop(
        &self,
        server: Server,
        out: &mut Outcome,
        threads: usize,
    ) -> Result<Served, String> {
        let stats_before = if self.cfg.trace { Some(stats_doc(&server)?) } else { None };
        let (requests, schedule) = (&self.inputs.requests, &self.inputs.schedule);
        let window = open_loop(server.addr, requests, schedule, threads, Instant::now());
        let (stats_after, log) = finish_server(server, out, self.cfg.trace)?;
        Ok(Served { window, stats_before, stats_after, log })
    }

    fn search(&self, server: Server, out: &mut Outcome) -> Result<(), String> {
        // Expected bodies, from a generation loaded in process, before the
        // window starts.
        let gen = load_generation(self.data, 2).map_err(|e| format!("in-process load: {e}"))?;
        let mut expected: HashMap<&str, String> = HashMap::new();
        for (r, q) in self.inputs.requests.iter().zip(&self.inputs.queries) {
            expected.entry(&r.body).or_insert_with(|| encode_answers(&gen.engine.search(q)));
        }
        drop(gen);
        let served = self.serve_open_loop(server, out, DRIVERS)?;
        let samples: Vec<&Sample> = served.window.samples.iter().collect();
        let requests = &self.inputs.requests;
        let failed = self
            .check_search(&samples, out, |s| vec![expected[requests[s.id].body.as_str()].as_str()]);
        put_latency(out, &latencies(&samples))?;
        put_lateness(out, &samples);
        self.put_map(&samples, &failed, out);
        if self.cfg.trace {
            let loaded = replay::timed_load(
                self.data,
                &Manifest::load_dir(self.data).map_err(|e| e.to_string())?,
            )?;
            put_load_metrics(out, &[&loaded]);
            self.trace_search(&served, &samples, &loaded, out)?;
            self.trace_corpus_core(&loaded, out);
            put_common_stats(out, &served);
        }
        Ok(())
    }

    /// Counts every search sample and checks its body against the
    /// expected bodies `expected` gives for it (one per generation the
    /// request may have been served by). A body passes when it is
    /// byte-identical to one of them, or answers the same up to the last
    /// bits of its scores ([`same_up_to_rounding`]); the report counts the
    /// latter per query kind as `check.score_bits_only`.
    fn check_search<'e>(
        &self,
        samples: &[&Sample],
        out: &mut Outcome,
        mut expected: impl FnMut(&Sample) -> Vec<&'e str>,
    ) -> Vec<bool> {
        let mut failed = vec![false; self.inputs.requests.len()];
        let mut bits_only: BTreeMap<&str, usize> = BTreeMap::new();
        out.attempted += samples.len();
        for s in samples {
            let kind = self.inputs.requests[s.id].kind;
            let verdict = match (&s.outcome, s.ok_body()) {
                (_, Some(body)) => {
                    let want = expected(s);
                    if want.contains(&body) {
                        Ok(())
                    } else if want.iter().any(|w| same_up_to_rounding(body, w)) {
                        *bits_only.entry(kind).or_default() += 1;
                        Ok(())
                    } else {
                        Err("answers differ from the in-process answers".into())
                    }
                }
                (Ok((status, body)), None) => Err(format!("HTTP {status} {body}")),
                (Err(e), None) => Err(e.clone()),
            };
            if let Err(reason) = verdict {
                out.fail(format!("request {} ({kind}): {reason}", s.id));
                failed[s.id] = true;
                out.failed += 1;
            }
        }
        let by_kind: Vec<String> = bits_only.iter().map(|(k, n)| format!("{k} {n}")).collect();
        out.put(
            "check.score_bits_only",
            bits_only.values().sum::<usize>() as f64,
            "count",
            format!(
                "passed, not byte-identical: scores differ in last bits [{}]",
                by_kind.join(", ")
            ),
        );
        failed
    }

    /// MAP of the typed and baseline answers against the oracle.
    fn put_map(&self, samples: &[&Sample], failed: &[bool], out: &mut Outcome) {
        let mut aps = Vec::new();
        for s in samples {
            let q = match &self.inputs.queries[s.id] {
                Query::Typed { query, .. } | Query::Baseline(query) => query,
                _ => continue,
            };
            let answers = s
                .ok_body()
                .filter(|_| !failed[s.id])
                .and_then(|b| decode_answers(b).ok())
                .unwrap_or_default();
            aps.push(query_ap(&self.inputs.world.oracle, q, &answers));
        }
        out.put("map", mean(&aps), "ratio", format!("{} typed+baseline queries", aps.len()));
    }

    fn trace_search(
        &self,
        served: &Served,
        samples: &[&Sample],
        loaded: &Loaded,
        out: &mut Outcome,
    ) -> Result<(), String> {
        let mut replays: HashMap<usize, Vec<Call>> = HashMap::new();
        let mut answers = Vec::new();
        for s in samples {
            let (calls, n) =
                replay::replay_search(&loaded.engine, &self.inputs.requests[s.id].body)?;
            answers.push(n as f64);
            replays.insert(s.id, calls);
        }
        out.put("search.answers", mean(&answers), "count", "mean answers per query");
        let mut by_kind: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        let mut engine_all = Vec::new();
        for (id, calls) in &replays {
            for &(name, d) in calls {
                match name {
                    "search.engine" => {
                        by_kind.entry(self.inputs.requests[*id].kind).or_default().push(us(d));
                        engine_all.push(us(d));
                    }
                    _ => by_kind.entry(name).or_default().push(us(d)),
                }
            }
        }
        for (key, v) in &by_kind {
            let name = if key.starts_with("search.") {
                format!("{key}_us")
            } else {
                format!("search.engine_us.{key}")
            };
            out.put(&name, mean(v), "us", format!("mean, n={}", v.len()));
        }
        engine_all.sort_by(f64::total_cmp);
        out.put("search.engine_us.p99", nearest_rank(&engine_all, 99.0).unwrap_or(0.0), "us", "");
        let handlers =
            match_log(&served.log, "/v1/search", 0, samples, |id| self.inputs.requests[id].kind);
        self.attribute(samples, &handlers, &replays, out)
    }

    /// Core per-table costs on the corpus tables a search workload's
    /// server annotates, replayed with a fresh cache of the server's size.
    fn trace_corpus_core(&self, loaded: &Loaded, out: &mut Outcome) {
        let corpus = &loaded.engine.corpus().tables;
        let cache = loaded.annotator.new_cell_cache(inputs::SERVER_CACHE_CAPACITY);
        let mut stats = CoreStats::default();
        let mut scratch = CandidateScratch::new();
        let mut calls = Vec::new();
        for table in corpus.iter().take(CORE_SAMPLE_TABLES) {
            replay::annotate_table(
                &loaded.annotator,
                table,
                &mut scratch,
                &cache,
                &mut calls,
                &mut stats,
            );
        }
        put_core(out, &stats, loaded.corpus_stats.cache_hit_rate(), "corpus tables at load");
    }

    /// Splits latency by layer from spans and writes the spans out.
    fn attribute(
        &self,
        samples: &[&Sample],
        handlers: &HashMap<usize, Duration>,
        replays: &HashMap<usize, Vec<Call>>,
        out: &mut Outcome,
    ) -> Result<(), String> {
        let mut spans: Vec<Span> = Vec::new();
        let (mut exch, mut hand, mut over) = (Vec::new(), Vec::new(), Vec::new());
        let mut by_kind: BTreeMap<&str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
        let mut client_total = 0u64;
        for s in samples {
            let kind = self.inputs.requests[s.id].kind;
            let client = ClientSpan {
                id: s.id,
                kind,
                due: s.due,
                sent: s.sent,
                first_byte: s.first_byte,
                done: s.done,
            };
            client_total += s.latency().as_nanos() as u64;
            let handler = handlers.get(&s.id).copied();
            let calls = replays.get(&s.id).map(Vec::as_slice).unwrap_or(&[]);
            spans.extend(request_spans(&client, handler, calls));
            if let Some(h) = handler {
                let e = us(s.done.saturating_sub(s.sent));
                exch.push(e);
                hand.push(us(h));
                over.push(us(h) - calls.iter().map(|c| us(c.1)).sum::<f64>());
                let k = by_kind.entry(kind).or_default();
                k.0.push(e);
                k.1.push(us(h));
            }
        }
        out.put(
            "server.handler_us",
            mean(&hand),
            "us",
            format!("mean log dur_us, n={}", hand.len()),
        );
        out.put(
            "server.wait_us",
            mean(&exch) - mean(&hand),
            "us",
            "mean exchange minus mean handler",
        );
        out.put("server.overhead_us", mean(&over), "us", "handler minus replayed calls");
        for (kind, (e, h)) in &by_kind {
            out.put(
                &format!("server.wait_us.{kind}"),
                mean(e) - mean(h),
                "us",
                format!("n={}", e.len()),
            );
        }
        let selfs = trace::self_times(&spans);
        let mut layers: BTreeMap<&str, u64> = BTreeMap::new();
        for (name, t) in &selfs {
            *layers.entry(trace::layer_of(name)).or_default() += t;
        }
        for (layer, t) in &layers {
            let share = *t as f64 / client_total.max(1) as f64;
            out.put(&format!("self.{layer}_frac"), share, "ratio", "self time over client latency");
        }
        out.put(
            "trace.unattributed_frac",
            layers.get("unattributed").copied().unwrap_or(0) as f64 / client_total.max(1) as f64,
            "ratio",
            "client latency no layer span covers",
        );
        // The traced window runs the untraced code; spans come from its
        // samples afterwards, so tracing cannot slow the requests.
        out.put(
            "trace.overhead_frac",
            0.0,
            "ratio",
            "zero by construction: spans built after the window",
        );
        std::fs::write(&self.cfg.trace_path, trace::to_jsonl(&spans))
            .map_err(|e| format!("writing {}: {e}", self.cfg.trace_path.display()))?;
        println!("trace: {} spans written to {}", spans.len(), self.cfg.trace_path.display());
        Ok(())
    }

    fn annotate(&self, server: Server, out: &mut Outcome) -> Result<(), String> {
        let requests = &self.inputs.requests;
        let warmup = self.inputs.warmup;
        let warm = closed_loop(server.addr, requests, 0..warmup, DRIVERS, None);
        let misses = stat(&Some(stats_doc(&server)?), &["cache", "misses"]);
        if misses < inputs::SERVER_CACHE_CAPACITY as f64 {
            return Err(format!("warm-up left {misses} cache misses, under the cache capacity"));
        }
        let stats_before = if self.cfg.trace { Some(stats_doc(&server)?) } else { None };
        let window = closed_loop(
            server.addr,
            requests,
            warmup..requests.len(),
            DRIVERS,
            Some(self.cfg.window),
        );
        if window.samples.last().is_some_and(|s| s.id + 1 == requests.len()) {
            out.fail("the annotate request sequence ran out before the window ended".into());
        }
        let (stats_after, log) = finish_server(server, out, self.cfg.trace)?;
        let served = Served { window, stats_before, stats_after, log };

        // Every reply must be a 2xx with one annotation per table; a seeded
        // sample must match in-process annotation byte for byte.
        let all: Vec<&Sample> = warm.samples.iter().chain(&served.window.samples).collect();
        let mut rng = Rng::new(self.cfg.seed, 5);
        let mut sample_ids: Vec<usize> =
            (0..ANNOTATE_SAMPLE / 2).map(|_| rng.below(warmup)).collect();
        let sent = served.window.samples.len();
        sample_ids.extend(
            (0..ANNOTATE_SAMPLE / 2)
                .filter(|_| sent > 0)
                .map(|_| served.window.samples[rng.below(sent)].id),
        );
        sample_ids.sort_unstable();
        sample_ids.dedup();
        let gen = load_generation(self.data, 2).map_err(|e| format!("in-process load: {e}"))?;
        let mut expected: HashMap<usize, String> = HashMap::new();
        for &id in &sample_ids {
            let tables: Vec<_> = self.inputs.tables[id].iter().map(|lt| lt.table.clone()).collect();
            let resp = gen.annotator.run(&AnnotateRequest::new(&tables));
            let parts: Vec<String> =
                resp.annotations.iter().map(|a| annotation_to_json(a).encode()).collect();
            expected.insert(id, format!("{{\"annotations\":[{}],\"timings\":", parts.join(",")));
        }
        drop(gen);
        let mut failed = vec![false; requests.len()];
        let mut acc = webtable_eval::Accuracy::default();
        out.attempted += all.len();
        for s in &all {
            let verdict = match (s.ok_body(), &s.outcome) {
                (Some(body), _) => {
                    self.check_annotation(s.id, body, expected.get(&s.id), &mut acc, warmup)
                }
                (None, Ok((status, body))) => Err(format!("HTTP {status} {body}")),
                (None, Err(e)) => Err(e.clone()),
            };
            if let Err(reason) = verdict {
                out.fail(format!("annotate request {}: {reason}", s.id));
                failed[s.id] = true;
                out.failed += 1;
            }
        }
        let win: Vec<&Sample> = served.window.samples.iter().collect();
        put_latency(out, &latencies(&win))?;
        let tables: usize =
            win.iter().filter(|s| !failed[s.id]).map(|s| self.inputs.tables[s.id].len()).sum();
        out.put(
            "tables_per_s",
            tables as f64 / served.window.elapsed.as_secs_f64(),
            "1/s",
            format!("{tables} tables in {:.2} s", served.window.elapsed.as_secs_f64()),
        );
        out.put("entity_acc", acc.fraction(), "ratio", format!("{} warm-up cells", acc.total));
        put_lateness(out, &win);
        if self.cfg.trace {
            self.trace_annotate(&served, &win, out)?;
        }
        Ok(())
    }

    /// One annotate reply: table count, byte identity when sampled, and
    /// entity accuracy for warm-up requests.
    fn check_annotation(
        &self,
        id: usize,
        body: &str,
        expected_prefix: Option<&String>,
        acc: &mut webtable_eval::Accuracy,
        warmup: usize,
    ) -> Result<(), String> {
        if let Some(prefix) = expected_prefix {
            if !body.starts_with(prefix.as_str()) {
                return Err("annotations differ from in-process output".into());
            }
        }
        let doc = Json::parse(body).map_err(|e| format!("reply is not JSON: {e}"))?;
        let anns =
            doc.get("annotations").and_then(Json::as_arr).ok_or("reply has no annotations")?;
        let tables = &self.inputs.tables[id];
        if anns.len() != tables.len() {
            return Err(format!("{} annotations for {} tables", anns.len(), tables.len()));
        }
        if id < warmup {
            for (a, lt) in anns.iter().zip(tables) {
                let a = annotation_from_json(a).map_err(|e| format!("bad annotation: {e}"))?;
                acc.add(webtable_eval::entity_accuracy(&a.cell_entities, &lt.truth.cell_entities));
            }
        }
        Ok(())
    }

    fn trace_annotate(
        &self,
        served: &Served,
        win: &[&Sample],
        out: &mut Outcome,
    ) -> Result<(), String> {
        let manifest = Manifest::load_dir(self.data).map_err(|e| e.to_string())?;
        let loaded = replay::timed_load(self.data, &manifest)?;
        put_load_metrics(out, &[&loaded]);
        let mut scratch = CandidateScratch::new();
        let mut warm_stats = CoreStats::default();
        for r in &self.inputs.requests[..self.inputs.warmup] {
            replay::replay_annotate(&loaded, &r.body, &mut scratch, &mut warm_stats)?;
        }
        let (h0, m0) = (loaded.cache.hits(), loaded.cache.misses());
        let mut stats = CoreStats::default();
        let mut replays: HashMap<usize, Vec<Call>> = HashMap::new();
        for s in win {
            let calls = replay::replay_annotate(
                &loaded,
                &self.inputs.requests[s.id].body,
                &mut scratch,
                &mut stats,
            )?;
            replays.insert(s.id, calls);
        }
        let (hits, misses) = (loaded.cache.hits() - h0, loaded.cache.misses() - m0);
        put_core(out, &stats, hits as f64 / (hits + misses).max(1) as f64, "window request tables");
        for name in ["core.decode", "core.encode"] {
            let v: Vec<f64> =
                replays.values().flatten().filter(|c| c.0 == name).map(|c| us(c.1)).collect();
            out.put(
                &format!("{name}_us"),
                mean(&v),
                "us",
                format!("mean per request, n={}", v.len()),
            );
        }
        let handlers =
            match_log(&served.log, "/v1/annotate", self.inputs.warmup, win, |_| "/v1/annotate");
        self.attribute(win, &handlers, &replays, out)?;
        put_common_stats(out, served);
        Ok(())
    }

    fn churn(&self, server: Server, out: &mut Outcome) -> Result<(), String> {
        let mut manifests = vec![Manifest::load_dir(self.data).map_err(|e| e.to_string())?];
        let stats_before = if self.cfg.trace { Some(stats_doc(&server)?) } else { None };
        let data_arg = self.data.to_str().ok_or("data dir path is not UTF-8")?;
        let mut publishes: Vec<Publish> = Vec::new();
        let mut publish_errors = Vec::new();
        // Reads and publishes share one clock, so that a read can be
        // placed exactly before, during or after each swap.
        let t0 = Instant::now();
        let window = std::thread::scope(|s| {
            let reader = s.spawn(|| {
                open_loop(server.addr, &self.inputs.requests, &self.inputs.schedule, 1, t0)
            });
            for (k, &at) in self.inputs.publishes.iter().enumerate() {
                if let Some(wait) = at.checked_sub(t0.elapsed()) {
                    std::thread::sleep(wait);
                }
                let serving = server.generation + publishes.len() as u64;
                match self.publish(&server, t0, k, data_arg, serving) {
                    Ok(p) => {
                        manifests.push(p.manifest.clone());
                        publishes.push(p);
                    }
                    Err(e) => publish_errors.push(format!("publish {k}: {e}")),
                }
            }
            reader.join().expect("reader thread panicked")
        });
        let (stats_after, log) = finish_server(server, out, self.cfg.trace)?;
        let served = Served { window, stats_before, stats_after, log };
        out.attempted += self.inputs.publishes.len();
        out.failed += publish_errors.len();
        for e in publish_errors {
            out.fail(e);
        }

        // A read overlapping a swap may see either generation.
        let samples: Vec<&Sample> = served.window.samples.iter().collect();
        let gen_range = |s: &Sample| {
            let lo = 1 + publishes.iter().filter(|p| p.swap_done <= s.sent).count();
            let hi = 1 + publishes.iter().filter(|p| p.swap_sent <= s.done).count();
            (lo, hi)
        };
        let mut expected: HashMap<(usize, &str), String> = HashMap::new();
        for (g, manifest) in manifests.iter().enumerate() {
            let generation = g + 1;
            let needed: Vec<&Sample> = samples
                .iter()
                .copied()
                .filter(|s| {
                    let (lo, hi) = gen_range(s);
                    (lo..=hi).contains(&generation)
                })
                .collect();
            if needed.is_empty() {
                continue;
            }
            let gen = load_manifest(self.data, manifest, 2)
                .map_err(|e| format!("in-process load of generation {generation}: {e}"))?;
            for s in needed {
                let body = self.inputs.requests[s.id].body.as_str();
                expected.entry((generation, body)).or_insert_with(|| {
                    encode_answers(&gen.engine.search(&self.inputs.queries[s.id]))
                });
            }
        }
        let requests = &self.inputs.requests;
        self.check_search(&samples, out, |s| {
            let (lo, hi) = gen_range(s);
            let key = requests[s.id].body.as_str();
            (lo..=hi).filter_map(|g| expected.get(&(g, key)).map(String::as_str)).collect()
        });
        put_latency(out, &latencies(&samples))?;
        put_lateness(out, &samples);
        let publish_s: Vec<f64> = publishes.iter().map(|p| p.total.as_secs_f64()).collect();
        out.put(
            "publish_s",
            median(&publish_s),
            "s",
            format!("median of {} publishes", publish_s.len()),
        );
        if self.cfg.trace {
            let grow: Vec<f64> = publishes.iter().map(|p| ms(p.grow)).collect();
            let swap: Vec<f64> = publishes.iter().map(|p| ms(p.swap_done - p.swap_sent)).collect();
            out.put("server.grow_ms", median(&grow), "ms", "median `webtable-serve grow`");
            out.put("server.swap_ms", median(&swap), "ms", "median /admin/swap round trip");
            let mut loads = Vec::new();
            for m in &manifests {
                loads.push(replay::timed_load(self.data, m)?);
            }
            let refs: Vec<&Loaded> = loads.iter().collect();
            put_load_metrics(out, &refs);
            let last = loads.last().expect("at least the initial generation");
            self.trace_search(&served, &samples, last, out)?;
            self.trace_corpus_core(last, out);
            put_common_stats(out, &served);
        }
        Ok(())
    }

    fn publish(
        &self,
        server: &Server,
        t0: Instant,
        k: usize,
        data_arg: &str,
        serving: u64,
    ) -> Result<Publish, String> {
        let start = t0.elapsed();
        let grow = run_tool(
            &self.cfg.server_bin,
            &["grow", "--data", data_arg],
            self.logs,
            &format!("grow-{k}"),
            Duration::from_secs(60),
        )?;
        let manifest = Manifest::load_dir(self.data).map_err(|e| e.to_string())?;
        let swap_sent = t0.elapsed();
        let reply = server.ok("POST", "/admin/swap", "")?;
        let swap_done = t0.elapsed();
        let doc = Json::parse(&reply).map_err(|e| format!("swap reply: {e}"))?;
        let generation = doc.get("generation").and_then(Json::as_u64);
        if doc.get("swapped").and_then(Json::as_bool) != Some(true)
            || generation != Some(serving + 1)
        {
            return Err(format!("swap did not publish generation {}: {reply}", serving + 1));
        }
        let health =
            Json::parse(&server.ok("GET", "/health", "")?).map_err(|e| format!("health: {e}"))?;
        if health.get("generation").and_then(Json::as_u64) != Some(serving + 1) {
            return Err(format!("/health did not advance to generation {}", serving + 1));
        }
        Ok(Publish { grow, swap_sent, swap_done, total: swap_done - start, manifest })
    }
}

struct Publish {
    grow: Duration,
    swap_sent: Duration,
    swap_done: Duration,
    total: Duration,
    manifest: Manifest,
}

/// Relative score difference that float summation order can explain.
const SCORE_RTOL: f64 = 1e-12;

/// True when `body` gives the same answers as `expected` up to the last
/// bits of the scores: as many answers, the score at each rank within
/// [`SCORE_RTOL`] of the expected one, and the same keys at every run of
/// ranks whose expected scores agree that closely (a tie, whose order
/// the last bits decide). The `tables` and `baseline` processors sum
/// scores in hash-map order, so their last bits differ between two
/// builds of one data dir, and `baseline`'s even between two calls.
pub fn same_up_to_rounding(body: &str, expected: &str) -> bool {
    let (Ok(got), Ok(want)) = (decode_answers(body), decode_answers(expected)) else {
        return false;
    };
    let close = |x: f64, y: f64| (x - y).abs() <= SCORE_RTOL * x.abs().max(y.abs());
    if got.len() != want.len() || got.iter().zip(&want).any(|(g, w)| !close(g.score, w.score)) {
        return false;
    }
    let mut start = 0;
    for end in 1..=want.len() {
        if end == want.len() || !close(want[end].score, want[end - 1].score) {
            let mut g: Vec<_> = got[start..end].iter().map(|a| &a.key).collect();
            let mut w: Vec<_> = want[start..end].iter().map(|a| &a.key).collect();
            g.sort();
            w.sort();
            if g != w {
                return false;
            }
            start = end;
        }
    }
    true
}

/// Server durations for `samples`, matched to request-log lines of
/// `path` by completion order within each query kind, after skipping the
/// first `skip` lines of that path. Lines without a query kind (and
/// samples of endpoints without one) are the `path` group.
pub fn match_log(
    log: &[LogLine],
    path: &str,
    skip: usize,
    samples: &[&Sample],
    kind_of: impl Fn(usize) -> &'static str,
) -> HashMap<usize, Duration> {
    let mut lines: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    for l in log.iter().filter(|l| l.path == path).skip(skip) {
        lines.entry(l.kind.as_deref().unwrap_or(path)).or_default().push(l.dur_us);
    }
    let mut by_kind: BTreeMap<&str, Vec<&Sample>> = BTreeMap::new();
    for s in samples {
        by_kind.entry(kind_of(s.id)).or_default().push(s);
    }
    let mut out = HashMap::new();
    for (kind, mut group) in by_kind {
        group.sort_by_key(|s| s.done);
        if let Some(durs) = lines.get(kind) {
            for (s, &d) in group.iter().zip(durs) {
                out.insert(s.id, Duration::from_micros(d));
            }
        }
    }
    out
}

/// Generation-load step times, medians over `loads`.
fn put_load_metrics(out: &mut Outcome, loads: &[&Loaded]) {
    let step = |name: &str| -> f64 {
        let v: Vec<f64> = loads
            .iter()
            .flat_map(|l| l.calls.iter().filter(|c| c.0 == name).map(|c| ms(c.1)))
            .collect();
        median(&v)
    };
    let n = format!("median of {} generation loads", loads.len());
    out.put("catalog.load_ms", step("catalog.load"), "ms", n.clone());
    out.put("text.snapshot_map_ms", step("text.snapshot_map"), "ms", n.clone());
    out.put("server.corpus_parse_ms", step("server.corpus_parse"), "ms", n.clone());
    out.put("core.corpus_annotate_ms", step("core.corpus_annotate"), "ms", n.clone());
    out.put("search.build_ms", step("search.build"), "ms", n);
}

fn put_core(out: &mut Outcome, stats: &CoreStats, hit_rate: f64, over: &str) {
    let n = stats.candidates_us.len();
    let note = format!("mean over {n} {over}");
    out.put("core.candidates_us", mean(&stats.candidates_us), "us", note.clone());
    out.put("core.potentials_us", mean(&stats.potentials_us), "us", note.clone());
    out.put("core.inference_us", mean(&stats.inference_us), "us", note.clone());
    out.put("core.entity_candidates", mean(&stats.entity_candidates), "count", note.clone());
    out.put("core.bp_iters", mean(&stats.bp_iters), "count", note.clone());
    out.put("core.bp_converged_frac", stats.converged as f64 / n.max(1) as f64, "ratio", note);
    out.put("core.cache_hit_rate", hit_rate, "ratio", "");
}

/// Counters from `/admin/stats`, as deltas over the window where they
/// are cumulative.
fn put_common_stats(out: &mut Outcome, served: &Served) {
    let delta = |path: &[&str]| stat(&served.stats_after, path) - stat(&served.stats_before, path);
    out.put("server.queue_rejections", delta(&["queue_rejections"]), "count", "over the window");
    out.put(
        "server.deadlines_exceeded",
        delta(&["deadlines_exceeded"]),
        "count",
        "over the window",
    );
    out.put("server.swap_retries", delta(&["swap_retries"]), "count", "over the window");
    let probed = stat(&served.stats_after, &["segments", "probed"]);
    let skipped = stat(&served.stats_after, &["segments", "skipped"]);
    out.put(
        "text.segment_skip_frac",
        skipped / (probed + skipped).max(1.0),
        "ratio",
        format!(
            "serving generation, {} segments",
            stat(&served.stats_after, &["segments", "count"])
        ),
    );
}
