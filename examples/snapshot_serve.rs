//! Build-once / serve-many, end to end on the real serving stack.
//!
//! The annotator front-loads its cost into catalog index construction
//! (§6 of the paper); this example proves the restart-free serving
//! story with the actual `webtable-server` crate rather than a sketch:
//!
//! 1. build the quickstart (Figure 1) catalog and its lemma index,
//! 2. `save` the index as a versioned binary snapshot,
//! 3. `load` it back — zero re-tokenization — and *prove* the loaded
//!    index is bit-identical (content digest + full CSR layout),
//! 4. assemble a serving data directory (manifest + catalog TSV +
//!    snapshot + wire-format corpus), start `webtable-server` on a
//!    loopback port, and annotate + search over HTTP,
//! 5. prove the HTTP annotations are bit-identical to an in-process
//!    [`Annotator::run`], scrape `/admin/stats`, and shut down cleanly.
//!
//! Run with: `cargo run --release --example snapshot_serve [-- SNAPSHOT_PATH]`
//!
//! CI runs this as the `snapshot-roundtrip` job and uploads the snapshot
//! file as a build artifact, so restart-free serving is proven on every PR.

use std::sync::Arc;
use std::time::{Duration, Instant};

use webtable::catalog::{Cardinality, CatalogBuilder};
use webtable::core::wire::{annotation_to_json, decode_response, WireAnnotateRequest};
use webtable::core::{AnnotateRequest, Annotator};
use webtable::search::wire::encode_query;
use webtable::search::{EntityQuery, Query};
use webtable::server::server::{serve, ServerConfig};
use webtable::server::state::{load_generation, tables_to_wire, AppState};
use webtable::server::{client, Manifest};
use webtable::tables::{Table, TableId};
use webtable::text::LemmaIndex;

fn main() {
    let path = std::env::args().nth(1).unwrap_or_else(|| "snapshot.bin".to_string());

    // --- The catalog of Figure 1 (same as examples/quickstart.rs) -------
    let mut b = CatalogBuilder::new();
    let entity = b.add_type("entity", &[]).unwrap();
    let person = b.add_type("person", &["people"]).unwrap();
    let physicist = b.add_type("physicist", &[]).unwrap();
    let writer = b.add_type("writer", &["author"]).unwrap();
    let book = b.add_type("book", &["title", "novel"]).unwrap();
    let movie = b.add_type("movie", &["film", "title"]).unwrap();
    for (sub, sup) in
        [(person, entity), (physicist, person), (writer, person), (book, entity), (movie, entity)]
    {
        b.add_subtype(sub, sup);
    }
    let einstein = b
        .add_entity("Albert Einstein", &["A. Einstein", "Einstein"], &[physicist, writer])
        .unwrap();
    let stannard = b.add_entity("Russell Stannard", &["Stannard"], &[writer]).unwrap();
    b.add_entity("Apostolos Doxiadis", &["A. Doxiadis"], &[writer]).unwrap();
    let b94 = b.add_entity("The Time and Space of Uncle Albert", &[], &[book]).unwrap();
    let b95 = b.add_entity("Uncle Albert and the Quantum Quest", &[], &[book]).unwrap();
    let b41 = b
        .add_entity("Relativity: The Special and the General Theory", &["Relativity"], &[book])
        .unwrap();
    b.add_entity("Uncle Albert (film)", &["Uncle Albert"], &[movie]).unwrap();
    let writes = b.add_relation("writes", book, writer, Cardinality::ManyToOne).unwrap();
    b.add_tuple(writes, b94, stannard);
    b.add_tuple(writes, b95, stannard);
    b.add_tuple(writes, b41, einstein);
    let catalog = Arc::new(b.finish().unwrap());

    // --- Build once ------------------------------------------------------
    let t0 = Instant::now();
    let built = LemmaIndex::build(&catalog);
    let build_time = t0.elapsed();
    println!(
        "built index: {} lemmas, digest {:#018x}, in {build_time:?}",
        built.num_lemmas(),
        built.content_digest()
    );

    // --- Save ------------------------------------------------------------
    built.save(&path).expect("snapshot save");
    let file_len = std::fs::metadata(&path).expect("snapshot stat").len();
    println!("saved snapshot: {path} ({file_len} bytes)");

    // --- Load (the restart) ----------------------------------------------
    let t1 = Instant::now();
    let loaded = LemmaIndex::load(&path).expect("snapshot load");
    let load_time = t1.elapsed();
    println!("loaded snapshot in {load_time:?}");

    // --- Prove bit-identity ----------------------------------------------
    assert_eq!(loaded.content_digest(), built.content_digest(), "content digest must survive");
    assert_eq!(loaded.layout(), built.layout(), "CSR layout must be bit-identical");
    assert_eq!(loaded.num_lemmas(), built.num_lemmas());
    println!("verified: loaded index is bit-identical (digest + full layout)");

    // --- Assemble a serving data directory --------------------------------
    let table = Table::new(
        TableId(1),
        "books and who wrote them",
        vec![Some("Title".into()), Some("written by".into())],
        vec![
            vec!["Uncle Albert and the Quantum Quest".into(), "Russell Stannard".into()],
            vec!["Relativity: The Special and the General Theory".into(), "A. Einstein".into()],
            vec!["Uncle Petros and the Goldbach conjecture".into(), "A. Doxiadis".into()],
        ],
    );
    let dir = std::env::temp_dir().join(format!("webtable-serve-example-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("data dir");
    webtable::catalog::io::save_catalog(&catalog, dir.join("catalog.tsv")).expect("catalog tsv");
    std::fs::copy(&path, dir.join("index.snap")).expect("snapshot into data dir");
    std::fs::write(dir.join("tables-g1.json"), tables_to_wire(std::slice::from_ref(&table)))
        .expect("corpus file");
    Manifest {
        generation: 1,
        catalog: "catalog.tsv".into(),
        segments: vec!["index.snap".into()],
        tables: "tables-g1.json".into(),
    }
    .save_dir(&dir)
    .expect("manifest");

    // --- Serve: the real server, loopback port, restart-free -------------
    let generation = load_generation(&dir, 1).expect("load generation");
    let state = Arc::new(AppState::new(dir.clone(), generation, Duration::from_secs(30)));
    let handle = serve(
        "127.0.0.1:0",
        state,
        ServerConfig { workers: 2, queue_depth: 16, log_requests: false },
    )
    .expect("bind");
    let addr = handle.addr().to_string();
    println!("serving on {addr} (generation 1, from the loaded snapshot)");

    // Annotate over HTTP.
    let wire_req = WireAnnotateRequest::new(vec![table.clone()]);
    let (status, body) =
        client::request_with_retry(&addr, "POST", "/v1/annotate", &wire_req.encode(), 10)
            .expect("annotate request");
    assert_eq!(status, 200, "{body}");
    let over_http = decode_response(&body).expect("wire response");

    // The same request through the in-process front door.
    let fresh = Annotator::from_lemma_segments(Arc::clone(&catalog), vec![Arc::new(built)])
        .expect("the built index covers the catalog");
    let in_process = fresh.run(&AnnotateRequest::one(&table));
    assert_eq!(
        annotation_to_json(&over_http.annotations[0]).encode(),
        annotation_to_json(&in_process.annotations[0]).encode(),
        "HTTP annotations must be bit-identical to Annotator::run"
    );
    println!("verified: HTTP annotations are bit-identical to the in-process front door");

    // Search over HTTP: books written by Stannard.
    let query = Query::Typed {
        query: EntityQuery { relation: writes, t1: book, t2: writer, e2: stannard },
        use_relations: false,
    };
    let (status, answers) =
        client::request_with_retry(&addr, "POST", "/v1/search", &encode_query(&query), 10)
            .expect("search request");
    assert_eq!(status, 200, "{answers}");
    println!("search answers: {answers}");

    // Observability, then clean shutdown.
    let (status, stats) =
        client::request_with_retry(&addr, "GET", "/admin/stats", "", 10).expect("stats request");
    assert_eq!(status, 200);
    assert!(stats.contains("\"swap_generation\":1"));
    let (status, _) = client::request_with_retry(&addr, "POST", "/admin/shutdown", "", 10)
        .expect("shutdown request");
    assert_eq!(status, 200);
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
    println!("server shut down cleanly");

    let speedup = build_time.as_secs_f64() / load_time.as_secs_f64().max(1e-9);
    println!("\nload vs rebuild: {load_time:?} vs {build_time:?} ({speedup:.1}x)");
    println!(
        "(cell {:?} → {})",
        table.cell(0, 0),
        in_process.annotations[0].cell_entities[&(0, 0)]
            .map(|e| catalog.entity_name(e).to_string())
            .unwrap_or_else(|| "na".into())
    );
}
