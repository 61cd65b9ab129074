//! End-to-end: HTTP responses carry exactly what the in-process front
//! door produces — annotations bit-identical to [`Annotator::run`],
//! search bodies byte-identical to [`SearchEngine::search`] run through
//! the wire encoder.

mod common;

use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

use webtable_catalog::{generate_world, WorldConfig};
use webtable_core::wire::{annotation_to_json, decode_response, Json, WireAnnotateRequest};
use webtable_search::wire::{encode_answers, encode_query};
use webtable_search::Query;
use webtable_server::state::{load_generation, tables_from_wire};

use common::{TestServer, SEED};

/// A typed query with answers in the demo corpus, built from the same
/// deterministic world `prepare_data_dir` used.
fn demo_query() -> Query {
    let world = generate_world(&WorldConfig::tiny(SEED)).unwrap();
    let rel = world.oracle.relation(world.relations.directed);
    let (_, director) = rel.tuples[0];
    Query::Typed {
        query: webtable_search::EntityQuery {
            relation: world.relations.directed,
            t1: world.types.movie,
            t2: world.types.director,
            e2: director,
        },
        use_relations: false,
    }
}

#[test]
fn http_annotate_matches_in_process_run_bit_for_bit() {
    let srv = TestServer::start("roundtrip-annotate");
    let corpus = std::fs::read_to_string(srv.dir.join("tables-g1.json")).unwrap();
    let tables = tables_from_wire(&corpus).unwrap();
    let wire_req = WireAnnotateRequest::new(tables);

    // The same request through the in-process front door (the server
    // holds the same snapshot-restored annotator).
    let generation = load_generation(&srv.dir, 2).unwrap();
    let in_process = generation.annotator.run(&wire_req.as_request());

    // The plain body, and the same tables under a retired key (the probe
    // mode override), which the decoder ignores like any unknown key.
    let plain = wire_req.encode();
    let retired_key = format!("{},\"probe_mode\":\"wand\"}}", &plain[..plain.len() - 1]);
    for body in [&plain, &retired_key] {
        let (status, resp) = srv.request("POST", "/v1/annotate", body);
        assert_eq!(status, 200, "{resp}");
        let over_http = decode_response(&resp).expect("wire response");
        assert_eq!(over_http.annotations.len(), in_process.annotations.len());
        for (http, local) in over_http.annotations.iter().zip(&in_process.annotations) {
            // Canonical sorted-key encoding makes this a bit-for-bit
            // comparison of every cell/column/relation label.
            assert_eq!(annotation_to_json(http).encode(), annotation_to_json(local).encode());
        }
        assert_eq!(over_http.stats.tables, in_process.stats.tables);
    }
}

#[test]
fn http_search_body_is_byte_identical_to_in_process_search() {
    let srv = TestServer::start("roundtrip-search");
    let query = demo_query();

    let (status, body) = srv.request("POST", "/v1/search", &encode_query(&query));
    assert_eq!(status, 200, "{body}");

    let generation = load_generation(&srv.dir, 2).unwrap();
    let expected = encode_answers(&generation.engine.search(&query));
    assert!(!body.is_empty());
    assert_eq!(body, expected, "HTTP search body must be byte-identical");
}

/// All four retrieval/augmentation kinds answer over HTTP byte-identical
/// to the in-process engine, with ranked (non-empty) answers for the
/// generator-derived sample bodies.
#[test]
fn http_retrieval_and_augmentation_are_byte_identical() {
    let srv = TestServer::start("roundtrip-retrieval");
    let generation = load_generation(&srv.dir, 2).unwrap();

    // The prepared sample bodies (tables / populate_rows / related) plus
    // a populate_columns variant sharing the populate body's seeds.
    let mut bodies: Vec<String> =
        ["sample-tables-query.json", "sample-populate-query.json", "sample-related-query.json"]
            .iter()
            .map(|name| std::fs::read_to_string(srv.dir.join(name)).unwrap())
            .collect();
    let Query::PopulateRows { seeds, k } = webtable_search::wire::decode_query(&bodies[1]).unwrap()
    else {
        panic!("sample-populate-query.json must be a populate_rows body");
    };
    bodies.push(encode_query(&Query::PopulateColumns { seeds, k }));

    for body in &bodies {
        let query = webtable_search::wire::decode_query(body).unwrap();
        let (status, http_body) = srv.request("POST", "/v1/search", body);
        assert_eq!(status, 200, "{query:?}: {http_body}");
        let expected = encode_answers(&generation.engine.search(&query));
        assert_eq!(http_body, expected, "byte mismatch for {query:?}");
        if !matches!(query, Query::Related { .. }) {
            assert_ne!(http_body, r#"{"answers":[]}"#, "no ranked answers for {query:?}");
        }
    }

    // Per-kind counters observed the traffic.
    let (s, body) = srv.request("GET", "/admin/stats", "");
    assert_eq!(s, 200);
    let stats = Json::parse(&body).unwrap();
    let kinds = stats.get("query_kinds").unwrap();
    for kind in ["tables", "populate_rows", "populate_columns", "related"] {
        assert_eq!(kinds.get(kind).and_then(Json::as_u64), Some(1), "{kind} counter");
    }
    assert_eq!(kinds.get("typed").and_then(Json::as_u64), Some(0));
}

/// Malformed retrieval/augmentation bodies answer 400 `bad_request` and
/// never count toward the per-kind counters.
#[test]
fn malformed_retrieval_requests_answer_400() {
    let srv = TestServer::start("roundtrip-badreq");
    for body in [
        r#"{"kind":"tables"}"#,                           // missing q
        r#"{"kind":"tables","q":"x","k":0}"#,             // k out of range
        r#"{"kind":"populate_rows"}"#,                    // missing seeds
        r#"{"kind":"populate_rows","seeds":[]}"#,         // empty seeds
        r#"{"kind":"populate_columns","seeds":["x"]}"#,   // non-numeric seed
        r#"{"kind":"related","entity":1}"#,               // missing relation
        r#"{"kind":"related","entity":-1,"relation":1}"#, // negative id
    ] {
        let (status, resp) = srv.request("POST", "/v1/search", body);
        assert_eq!(status, 400, "{body} -> {resp}");
        let err = Json::parse(&resp).unwrap();
        assert_eq!(
            err.get("error").unwrap().get("code").and_then(Json::as_str),
            Some("bad_request"),
            "{body}"
        );
    }
    let (s, body) = srv.request("GET", "/admin/stats", "");
    assert_eq!(s, 200);
    let stats = Json::parse(&body).unwrap();
    let kinds = stats.get("query_kinds").unwrap();
    for kind in ["tables", "populate_rows", "populate_columns", "related"] {
        assert_eq!(kinds.get(kind).and_then(Json::as_u64), Some(0), "{kind} counted a 400");
    }
}

/// Ids past the catalog answer no answers, like every other unknown id,
/// rather than panicking the handler into a 500.
#[test]
fn search_ids_past_the_catalog_answer_no_answers() {
    let srv = TestServer::start("roundtrip-past-catalog");
    for body in [
        r#"{"kind":"baseline","relation":4000000000,"t1":0,"t2":0,"e2":0}"#,
        r#"{"kind":"join","r1":4000000000,"r2":0,"e3":0}"#,
    ] {
        let (status, resp) = srv.request("POST", "/v1/search", body);
        assert_eq!((status, resp.as_str()), (200, r#"{"answers":[]}"#), "{body}");
    }
    let (s, body) = srv.request("GET", "/admin/stats", "");
    assert_eq!(s, 200);
    let stats = Json::parse(&body).unwrap();
    assert_eq!(stats.get("panics").and_then(Json::as_u64), Some(0));
}

#[test]
fn health_stats_and_error_mapping() {
    let srv = TestServer::start("roundtrip-admin");
    let (status, body) = srv.request("GET", "/health", "");
    assert_eq!(status, 200);
    let health = Json::parse(&body).unwrap();
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(health.get("generation").and_then(Json::as_u64), Some(1));

    // Drive one of each endpoint, then read the counters.
    let (s, _) = srv.request("POST", "/v1/search", &encode_query(&demo_query()));
    assert_eq!(s, 200);
    let (s, body) = srv.request("POST", "/v1/search", "{\"kind\":\"nope\"}");
    assert_eq!(s, 400);
    let err = Json::parse(&body).unwrap();
    assert_eq!(err.get("error").unwrap().get("code").and_then(Json::as_str), Some("bad_request"));

    let (s, body) = srv.request("GET", "/nowhere", "");
    assert_eq!(s, 404);
    assert!(body.contains("not_found"));
    let (s, body) = srv.request("GET", "/v1/search", "");
    assert_eq!(s, 405, "{body}");

    let (s, body) = srv.request("GET", "/admin/stats", "");
    assert_eq!(s, 200);
    let stats = Json::parse(&body).unwrap();
    assert!(stats.get("requests_total").and_then(Json::as_u64).unwrap() >= 5);
    assert_eq!(stats.get("swap_generation").and_then(Json::as_u64), Some(1));
    let rows = stats.get("endpoints").and_then(Json::as_arr).unwrap();
    let search_row =
        rows.iter().find(|r| r.get("name").and_then(Json::as_str) == Some("search")).unwrap();
    assert_eq!(search_row.get("2xx").and_then(Json::as_u64), Some(1));
    // The 400 bad-query and the 405 method mismatch both land on the
    // search endpoint's 4xx bucket.
    assert_eq!(search_row.get("4xx").and_then(Json::as_u64), Some(2));
}

#[test]
fn shutdown_route_stops_the_server_cleanly() {
    let mut srv = TestServer::start("roundtrip-shutdown");
    let (status, body) = srv.request("POST", "/admin/shutdown", "");
    assert_eq!(status, 200);
    assert!(body.contains("shutting down"));
    // stop() joins every thread; a hang here is a failed drain.
    srv.handle.take().unwrap().stop();
}

/// Runs `f` on a helper thread and fails if it has not returned within
/// 30 s: a shutdown that hangs fails the test instead of stalling the
/// suite, and no duration is asserted beyond that.
fn returns_within_30s(what: &str, f: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel();
    let helper = std::thread::spawn(move || {
        f();
        let _ = tx.send(());
    });
    match rx.recv_timeout(Duration::from_secs(30)) {
        Ok(()) => helper.join().unwrap(),
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(helper.join().unwrap_err())
        }
        Err(RecvTimeoutError::Timeout) => panic!("{what} did not return within 30 s"),
    }
}

#[test]
fn wait_returns_after_the_shutdown_route_alone() {
    let mut srv = TestServer::start("roundtrip-wait");
    let handle = srv.handle.take().unwrap();
    let (status, body) = srv.request("POST", "/admin/shutdown", "");
    assert_eq!(status, 200, "{body}");
    // `webtable-serve serve` blocks in wait() with nothing calling
    // stop(): the worker that answered the route must wake the acceptor.
    returns_within_30s("wait() after POST /admin/shutdown", move || handle.wait());
}

#[test]
fn stop_returns_on_a_wildcard_bound_server() {
    let mut srv = TestServer::start_on("roundtrip-wildcard", "0.0.0.0:0");
    let handle = srv.handle.take().unwrap();
    assert!(handle.addr().ip().is_unspecified(), "{}", handle.addr());
    returns_within_30s("stop() on 0.0.0.0", move || handle.stop());
}

#[test]
fn stop_returns_on_a_server_that_never_saw_a_connection() {
    let mut srv = TestServer::start("roundtrip-idle");
    let handle = srv.handle.take().unwrap();
    returns_within_30s("stop() on an idle server", move || handle.stop());
}
