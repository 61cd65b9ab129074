//! Chaos suite: drives every fault point of the deterministic
//! fault-injection harness ([`webtable_server::fault`]) against a real
//! server and asserts the failure-containment invariants:
//!
//! - every response is byte-identical to a healthy-generation response
//!   or a well-formed `{"error":{code,message}}` body;
//! - a failing swap leaves the old generation serving and marks the
//!   server degraded; a later healthy swap clears it;
//! - injected handler panics cost one 500 each, never a worker;
//! - an annotate deadline counts the time its request sat queued;
//! - a failed promote leaves the data directory exactly as it was.
//!
//! The fault registry is process-global, so every test here serializes
//! on [`CHAOS`].

mod common;

use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use webtable_core::wire::{Json, WireAnnotateRequest};
use webtable_server::fault::{self, FaultAction, FaultPlan, FaultPoint};
use webtable_server::state::{tables_from_wire, RetryPolicy};
use webtable_server::{client, demo, manifest};

use common::TestServer;

/// Serializes chaos tests: armed fault plans are process-global.
static CHAOS: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    CHAOS.lock().unwrap_or_else(|e| e.into_inner())
}

/// Asserts `body` is the uniform error shape and returns its code.
fn error_code(body: &str) -> String {
    let doc = Json::parse(body).unwrap_or_else(|e| panic!("malformed error body `{body}`: {e}"));
    let err = doc.get("error").expect("error object");
    assert!(err.get("message").and_then(Json::as_str).is_some(), "{body}");
    err.get("code").and_then(Json::as_str).expect("code").to_string()
}

fn health(srv: &TestServer) -> Json {
    let (status, body) = srv.request("GET", "/admin/health", "");
    assert_eq!(status, 200, "{body}");
    Json::parse(&body).expect("health JSON")
}

fn health_status(srv: &TestServer) -> String {
    health(srv).get("status").and_then(Json::as_str).unwrap().to_string()
}

#[test]
fn handler_io_error_fault_answers_well_formed_500() {
    let _chaos = lock();
    let srv = TestServer::start("chaos-handler-io");
    let plan = Arc::new(FaultPlan::new(3).fail(FaultPoint::Handler, FaultAction::IoError, 2));
    let _g = fault::arm(Arc::clone(&plan));
    for _ in 0..2 {
        let (status, body) = srv.request_raw("GET", "/health", "");
        assert_eq!(status, 500, "{body}");
        assert_eq!(error_code(&body), "internal");
    }
    // Budget spent: the very next request is healthy.
    let (status, body) = srv.request_raw("GET", "/health", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"status\":\"ok\""), "{body}");
    assert_eq!(plan.remaining(FaultPoint::Handler), 0);
}

#[test]
fn handler_latency_fault_delays_but_serves() {
    let _chaos = lock();
    let srv = TestServer::start("chaos-handler-latency");
    let _g = fault::arm(Arc::new(FaultPlan::new(0).fail(
        FaultPoint::Handler,
        FaultAction::LatencyMs(80),
        1,
    )));
    let t0 = std::time::Instant::now();
    let (status, body) = srv.request_raw("GET", "/health", "");
    assert_eq!(status, 200, "{body}");
    assert!(t0.elapsed() >= Duration::from_millis(80), "latency was injected");
}

#[test]
fn annotate_deadline_counts_time_spent_queued() {
    let _chaos = lock();
    let srv = TestServer::start("chaos-queued-deadline");
    let corpus = std::fs::read_to_string(srv.dir.join("tables-g1.json")).unwrap();
    let mut tables = tables_from_wire(&corpus).unwrap();
    tables.truncate(1);
    let mut wire_req = WireAnnotateRequest::new(tables);
    wire_req.timeout_ms = Some(100);

    // Hold all four workers in a 1 s handler latency. A worker consumes
    // one fault on entering the handler and sleeps there, so an empty
    // budget means four distinct workers are asleep.
    let plan =
        Arc::new(FaultPlan::new(0).fail(FaultPoint::Handler, FaultAction::LatencyMs(1000), 4));
    let _g = fault::arm(Arc::clone(&plan));
    let held: Vec<_> = (0..4)
        .map(|_| {
            let addr = srv.addr.clone();
            std::thread::spawn(move || client::request(&addr, "GET", "/health", ""))
        })
        .collect();
    let t0 = std::time::Instant::now();
    while plan.remaining(FaultPoint::Handler) > 0 {
        assert!(t0.elapsed() < Duration::from_secs(30), "workers never reached the handler");
        std::thread::sleep(Duration::from_millis(1));
    }

    // The annotate waits in the queue for most of a second, far past its
    // 100 ms budget, which runs from accept.
    let (status, body) = srv.request_raw("POST", "/v1/annotate", &wire_req.encode());
    assert_eq!(status, 504, "{body}");
    assert_eq!(error_code(&body), "deadline_exceeded");
    assert_eq!(srv.state().metrics.deadlines_exceeded.load(Ordering::Relaxed), 1);
    for t in held {
        let (status, body) = t.join().unwrap().expect("held request");
        assert_eq!(status, 200, "{body}");
    }
}

#[test]
fn worker_pool_survives_repeated_handler_panics() {
    let _chaos = lock();
    let srv = TestServer::start("chaos-panics");
    const PANICS: u64 = 8; // every worker panics twice
    {
        let _g = fault::arm(Arc::new(FaultPlan::new(0).fail(
            FaultPoint::Handler,
            FaultAction::Panic,
            PANICS,
        )));
        for _ in 0..PANICS {
            let (status, body) = srv.request_raw("GET", "/health", "");
            assert_eq!(status, 500, "{body}");
            assert_eq!(error_code(&body), "internal");
        }
    }
    assert_eq!(srv.state().metrics.panics.load(Ordering::Relaxed), PANICS);

    // The pool still serves full concurrency: more simultaneous
    // requests than workers, all of which must succeed.
    let results: Vec<(u16, String)> = std::thread::scope(|scope| {
        (0..8)
            .map(|_| {
                let addr = srv.addr.clone();
                scope.spawn(move || {
                    webtable_server::client::request_with_retry(&addr, "GET", "/health", "", 5)
                        .expect("post-panic request")
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|t| t.join().unwrap())
            .collect()
    });
    for (status, body) in results {
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"status\":\"ok\""), "{body}");
    }
}

#[test]
fn transient_swap_fault_heals_on_retry() {
    let _chaos = lock();
    let srv = TestServer::start_with_retry("chaos-swap-retry", RetryPolicy::immediate(3));
    demo::promote(&srv.dir).unwrap();
    // One injected failure, three attempts: the retry succeeds.
    let _g = fault::arm(Arc::new(FaultPlan::new(0).fail(
        FaultPoint::SnapshotRead,
        FaultAction::IoError,
        1,
    )));
    let (status, body) = srv.request("POST", "/admin/swap", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"swapped\":true"), "{body}");
    assert!(srv.state().metrics.swap_retries.load(Ordering::Relaxed) >= 1);
    assert_eq!(srv.state().metrics.swap_failures.load(Ordering::Relaxed), 0);
    assert_eq!(health_status(&srv), "ok");
}

#[test]
fn persistent_swap_fault_degrades_then_recovers() {
    let _chaos = lock();
    let srv = TestServer::start_with_retry("chaos-swap-degrade", RetryPolicy::immediate(3));
    let (_, g1_baseline) = srv.request("GET", "/health", "");
    let (_, g1_search) = srv.request("POST", "/v1/search", &srv.sample_query());
    demo::promote(&srv.dir).unwrap();

    {
        // More faults than attempts: the swap stays broken.
        let _g = fault::arm(Arc::new(FaultPlan::new(0).fail(
            FaultPoint::SnapshotRead,
            FaultAction::IoError,
            100,
        )));
        let (status, body) = srv.request("POST", "/admin/swap", "");
        assert_eq!(status, 503, "{body}");
        assert_eq!(error_code(&body), "io");

        // Degraded, but the old generation serves byte-identically.
        let h = health(&srv);
        assert_eq!(h.get("status").and_then(Json::as_str), Some("degraded"));
        assert_eq!(h.get("last_error").and_then(Json::as_str), Some("io"));
        assert_eq!(h.get("consecutive_failures").and_then(Json::as_u64), Some(1));
        assert_eq!(h.get("generation").and_then(Json::as_u64), Some(1));
        assert_eq!(h.get("last_good_generation").and_then(Json::as_u64), Some(1));
        let (status, body) = srv.request("GET", "/health", "");
        assert_eq!(status, 200);
        assert_eq!(body, g1_baseline, "old generation must serve byte-identically");
        let (_, search) = srv.request("POST", "/v1/search", &srv.sample_query());
        assert_eq!(search, g1_search, "old generation must serve byte-identically");

        // A second failing swap grows the streak.
        let (status, _) = srv.request("POST", "/admin/swap", "");
        assert_eq!(status, 503);
        let h = health(&srv);
        assert_eq!(h.get("consecutive_failures").and_then(Json::as_u64), Some(2));
    }

    // Faults cleared (guard dropped): the next swap succeeds and the
    // degraded flag clears.
    let (status, body) = srv.request("POST", "/admin/swap", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"swapped\":true"), "{body}");
    let h = health(&srv);
    assert_eq!(h.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(h.get("generation").and_then(Json::as_u64), Some(2));
    assert_eq!(h.get("last_good_generation").and_then(Json::as_u64), Some(2));
    assert_eq!(h.get("consecutive_failures").and_then(Json::as_u64), Some(0));
    assert_eq!(h.get("last_error"), Some(&Json::Null));
}

#[test]
fn mmap_load_path_is_zero_copy_and_still_intercepted() {
    let _chaos = lock();
    fault::disarm();
    let dir = std::env::temp_dir().join(format!("webtable-chaos-mmap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    demo::prepare_data_dir(&dir, common::SEED).unwrap();
    // A healthy load memory-maps each segment: the index views the
    // snapshot pages instead of owning a decoded copy.
    let generation = webtable_server::state::load_generation(&dir, 2).expect("healthy load");
    if cfg!(target_endian = "little") {
        for seg in generation.annotator.index.segments() {
            assert!(seg.is_zero_copy(), "segment must view its mapped snapshot");
        }
    }
    // The snapshot_read fault point still intercepts the mmap path: an
    // armed plan routes the read through the corrupting heap loader,
    // which surfaces a typed snapshot error — never UB, never a panic.
    {
        let _g = fault::arm(Arc::new(FaultPlan::new(9).fail(
            FaultPoint::SnapshotRead,
            FaultAction::BitFlip,
            1,
        )));
        let err =
            webtable_server::state::load_generation(&dir, 2).expect_err("bit flip must fail load");
        assert_eq!(err.code(), "snapshot");
    }
    // Budget spent and disarmed: the next load is healthy and mmapped.
    assert!(webtable_server::state::load_generation(&dir, 2).is_ok());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corpus_and_manifest_and_build_faults_are_typed() {
    let _chaos = lock();
    let srv = TestServer::start_with_retry("chaos-typed", RetryPolicy::immediate(1));
    demo::promote(&srv.dir).unwrap();
    let cases = [
        (FaultPoint::CorpusRead, FaultAction::Truncate(40), "corpus"),
        (FaultPoint::ManifestRead, FaultAction::IoError, "io"),
        (FaultPoint::GenerationBuild, FaultAction::IoError, "io"),
        (FaultPoint::SnapshotRead, FaultAction::BitFlip, "snapshot"),
    ];
    for (point, action, want_code) in cases {
        let _g = fault::arm(Arc::new(FaultPlan::new(9).fail(point, action, 100)));
        let (status, body) = srv.request("POST", "/admin/swap", "");
        assert_eq!(status, 503, "{point:?}: {body}");
        assert_eq!(error_code(&body), want_code, "{point:?}: {body}");
        assert_eq!(health_status(&srv), "degraded", "{point:?}");
    }
    // All faults disarmed: recovery.
    let (status, body) = srv.request("POST", "/admin/swap", "");
    assert_eq!(status, 200, "{body}");
    assert_eq!(health_status(&srv), "ok");
}

#[test]
fn failed_promote_leaves_no_stale_tmp_and_old_manifest_intact() {
    let _chaos = lock();
    let dir = std::env::temp_dir().join(format!("webtable-chaos-promote-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    demo::prepare_data_dir(&dir, common::SEED).unwrap();
    {
        let _g = fault::arm(Arc::new(FaultPlan::new(0).fail(
            FaultPoint::ManifestRename,
            FaultAction::IoError,
            1,
        )));
        let err = demo::promote(&dir).unwrap_err();
        assert_eq!(err.code(), "io");
    }
    // The failed promote cleaned its temp file and left MANIFEST as it
    // was; the next promote succeeds.
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.contains(".tmp"))
        .collect();
    assert!(leftovers.is_empty(), "stale temp files: {leftovers:?}");
    assert_eq!(manifest::Manifest::load_dir(&dir).unwrap().generation, 1);
    assert_eq!(demo::promote(&dir).unwrap(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn startup_recovers_from_corrupt_manifest_via_last_good() {
    let _chaos = lock();
    let dir = std::env::temp_dir().join(format!("webtable-chaos-recover-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    demo::prepare_data_dir(&dir, common::SEED).unwrap();

    // First healthy load records MANIFEST.last-good.
    let (generation, report) =
        webtable_server::load_generation_recovering(&dir, 2).expect("healthy load");
    assert_eq!(generation.generation, 1);
    assert!(!report.recovered);
    assert!(dir.join(manifest::LAST_GOOD_FILE).exists());

    // Crash aftermath: torn MANIFEST plus a stale temp file.
    std::fs::write(dir.join("MANIFEST"), "garbage, not a manifest").unwrap();
    std::fs::write(dir.join("MANIFEST.tmp.12345"), "half-written").unwrap();

    let (generation, report) =
        webtable_server::load_generation_recovering(&dir, 2).expect("recovery");
    assert_eq!(generation.generation, 1, "last-good generation serves");
    assert!(report.recovered);
    assert_eq!(report.error_code, Some("manifest"));
    assert_eq!(report.removed_tmp.len(), 1, "{:?}", report.removed_tmp);
    assert!(!dir.join("MANIFEST.tmp.12345").exists());

    // No last-good either: startup must refuse with the primary error.
    std::fs::remove_file(dir.join(manifest::LAST_GOOD_FILE)).unwrap();
    let err = webtable_server::load_generation_recovering(&dir, 2).unwrap_err();
    assert_eq!(err.code(), "manifest");
    let _ = std::fs::remove_dir_all(&dir);
}
