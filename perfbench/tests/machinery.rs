//! Self-tests of the benchmark's own machinery: percentiles, seeded
//! schedules and draws, due-time accounting, span arithmetic, and the
//! agreement between `BENCHMARK.json` and the metrics the binary prints.

use std::io::{Read, Write};
use std::net::TcpListener;
use std::time::Duration;

use webtable_core::wire::Json;
use webtable_perfbench::inputs::{generate, Workload, KINDS};
use webtable_perfbench::loadgen::{open_loop, Request};
use webtable_perfbench::run::{same_up_to_rounding, END_TO_END, PER_LAYER};
use webtable_perfbench::sched::{poisson_schedule, Rng, Zipf};
use webtable_perfbench::stats::{beyond, median, nearest_rank, supported_percentile};
use webtable_perfbench::trace::{covered, request_spans, self_times, ClientSpan};
use webtable_search::wire::encode_answers;
use webtable_search::{AnswerKey, RankedAnswer};

#[test]
fn nearest_rank_percentiles_and_the_ten_beyond_rule() {
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(nearest_rank(&v, 50.0), Some(50.0));
    assert_eq!(nearest_rank(&v, 99.0), Some(99.0));
    assert_eq!(nearest_rank(&v, 100.0), Some(100.0));
    assert_eq!(nearest_rank(&v, 0.5), Some(1.0));
    assert_eq!(nearest_rank(&[], 50.0), None);
    assert_eq!(nearest_rank(&[7.0], 99.0), Some(7.0));

    assert_eq!(beyond(1000, 99.0), 10);
    assert_eq!(beyond(999, 99.0), 9);
    assert_eq!(beyond(0, 99.0), 0);
    let thousand: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
    assert_eq!(supported_percentile(&thousand, 99.0), Ok(990.0), "unsorted input is sorted");
    let err = supported_percentile(&thousand[1..], 99.0).unwrap_err();
    assert!(err.contains("9"), "{err}");

    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
}

#[test]
fn poisson_schedule_is_deterministic_per_seed() {
    let window = Duration::from_secs(10);
    let a = poisson_schedule(&mut Rng::new(7, 1), 100.0, window);
    let b = poisson_schedule(&mut Rng::new(7, 1), 100.0, window);
    let c = poisson_schedule(&mut Rng::new(8, 1), 100.0, window);
    assert_eq!(a, b, "same seed, same schedule");
    assert_ne!(a, c, "another seed, another schedule");
    assert!(a.windows(2).all(|w| w[0] <= w[1]), "due times ascend");
    assert!(a.iter().all(|&d| d < window));
    assert!((850..1150).contains(&a.len()), "about rate × window arrivals: {}", a.len());

    let z = Zipf::new(50, 1.0);
    let mut rng = Rng::new(1, 9);
    let mut counts = [0usize; 50];
    for _ in 0..5000 {
        counts[z.sample(&mut rng)] += 1;
    }
    assert!(counts[0] > counts[10] && counts[10] > 0, "zipf favours low ranks: {counts:?}");
}

#[test]
fn inputs_and_query_draw_are_deterministic_per_seed() {
    let root = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("machinery-inputs");
    let _ = std::fs::remove_dir_all(&root);
    let window = Duration::from_secs(2);
    let a = generate(Workload::Search, 5, window, &root.join("a")).unwrap();
    let b = generate(Workload::Search, 5, window, &root.join("b")).unwrap();
    let c = generate(Workload::Search, 6, window, &root.join("c")).unwrap();
    assert_eq!(a.digest, b.digest);
    assert_ne!(a.digest, c.digest);
    assert_eq!(a.schedule, b.schedule);
    let bodies = |i: &webtable_perfbench::inputs::Inputs| {
        i.requests.iter().map(|r| r.body.clone()).collect::<Vec<_>>()
    };
    assert_eq!(bodies(&a), bodies(&b));
    assert_ne!(bodies(&a), bodies(&c));
    for kind in KINDS {
        assert!(a.requests.iter().any(|r| r.kind == kind), "the draw covers `{kind}`");
    }
    let mut distinct = bodies(&a);
    distinct.sort();
    distinct.dedup();
    assert!(distinct.len() < a.requests.len(), "zipf-popular queries repeat");
    let _ = std::fs::remove_dir_all(&root);
}

/// A stub HTTP server answering `200 {}`, except that it stalls `stall`
/// before answering connection number `stall_at`.
fn stub_server(connections: usize, stall_at: usize, stall: Duration) -> std::net::SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for k in 0..connections {
            let (mut conn, _) = listener.accept().unwrap();
            let mut head = Vec::new();
            let mut byte = [0u8; 1];
            while !head.ends_with(b"\r\n\r\n") && conn.read(&mut byte).unwrap() == 1 {
                head.push(byte[0]);
            }
            if k == stall_at {
                std::thread::sleep(stall);
            }
            conn.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\n{}")
                .unwrap();
        }
    });
    addr
}

#[test]
fn due_time_accounting_counts_a_stall_in_later_requests() {
    let stall = Duration::from_millis(300);
    let n = 20;
    let addr = stub_server(n, 2, stall);
    let requests: Vec<Request> = (0..n)
        .map(|_| Request { method: "GET", path: "/x", body: String::new(), kind: "stub" })
        .collect();
    let schedule: Vec<Duration> = (0..n as u64).map(|i| Duration::from_millis(10 * i)).collect();
    let window = open_loop(addr, &requests, &schedule, 1, std::time::Instant::now());
    let s = &window.samples;
    assert_eq!(s.len(), n);
    assert!(s.iter().all(|x| x.ok_body() == Some("{}")));
    assert!(s[0].latency() < Duration::from_millis(100), "before the stall: {:?}", s[0].latency());
    assert!(s[2].latency() >= stall, "the stalled request itself");
    // Request 3 was due 10 ms after the stalled one but could only be
    // sent once it finished: the wait counts in its latency.
    assert!(s[3].late() >= Duration::from_millis(250), "lateness is reported: {:?}", s[3].late());
    assert!(s[3].latency() >= Duration::from_millis(250), "{:?}", s[3].latency());
    assert!(s[19].latency() >= Duration::from_millis(100), "the backlog reaches the last request");
    let mut late: Vec<f64> = s.iter().map(|x| x.late().as_secs_f64() * 1e3).collect();
    late.sort_by(f64::total_cmp);
    assert!(nearest_rank(&late, 99.0).unwrap() >= 250.0);
}

#[test]
fn span_self_time_arithmetic() {
    let mut iv = vec![(10, 30), (20, 50), (90, 120)];
    assert_eq!(covered(0, 100, &mut iv), 50, "overlaps merge, overhang is clipped");
    assert_eq!(covered(0, 100, &mut []), 0);

    let ms = Duration::from_millis;
    let client =
        ClientSpan { id: 3, kind: "k", due: ms(0), sent: ms(5), first_byte: None, done: ms(100) };
    let spans = request_spans(&client, Some(ms(60)), &[("search.a", ms(10)), ("search.b", ms(20))]);
    let selfs = self_times(&spans);
    let ns = |m: u64| m * 1_000_000;
    assert_eq!(selfs["client"], ns(35), "100 − 5 late − 60 handler");
    assert_eq!(selfs["loadgen"], ns(5));
    assert_eq!(selfs["server.handler"], ns(30), "60 − 10 − 20");
    assert_eq!(selfs["search.a"], ns(10));
    assert_eq!(selfs["search.b"], ns(20));
    assert_eq!(selfs.values().sum::<u64>(), ns(100), "self times add up to the latency");

    // Replayed calls longer than the handler are clipped to it.
    let spans = request_spans(&client, Some(ms(20)), &[("search.a", ms(15)), ("search.b", ms(15))]);
    let selfs = self_times(&spans);
    assert_eq!(selfs["server.handler"], 0);
    assert_eq!(selfs["search.a"] + selfs["search.b"], ns(20));
    assert_eq!(selfs["client"], ns(75));

    // Without a matched log line the whole exchange is unattributed.
    let selfs = self_times(&request_spans(&client, None, &[]));
    assert_eq!(selfs["client"], ns(95));
}

#[test]
fn search_bodies_match_up_to_the_last_bits_of_their_scores() {
    let body = |answers: &[(u64, f64)]| {
        let ranked: Vec<RankedAnswer> = answers
            .iter()
            .map(|&(t, score)| RankedAnswer { key: AnswerKey::Table(t), score })
            .collect();
        encode_answers(&ranked)
    };
    let want = body(&[(1, 0.9441186955177673), (2, 0.5), (3, 0.5), (4, 0.25)]);
    assert!(same_up_to_rounding(&want, &want));
    let last_bits = body(&[(1, 0.9441186955177675), (2, 0.5), (3, 0.5), (4, 0.25)]);
    assert_ne!(last_bits, want);
    assert!(same_up_to_rounding(&last_bits, &want), "scores two ulps apart");
    let tie_flipped =
        body(&[(1, 0.9441186955177673), (3, 0.5000000000000001), (2, 0.5), (4, 0.25)]);
    assert!(same_up_to_rounding(&tie_flipped, &want), "a tie reordered by its last bits");

    let reordered = body(&[(2, 0.9441186955177673), (1, 0.5), (3, 0.5), (4, 0.25)]);
    assert!(!same_up_to_rounding(&reordered, &want), "keys swapped across ranks");
    let other_key = body(&[(1, 0.9441186955177673), (2, 0.5), (5, 0.5), (4, 0.25)]);
    assert!(!same_up_to_rounding(&other_key, &want));
    let off = body(&[(1, 0.9441186955), (2, 0.5), (3, 0.5), (4, 0.25)]);
    assert!(!same_up_to_rounding(&off, &want), "a score off in its 11th digit");
    let short = body(&[(1, 0.9441186955177673), (2, 0.5), (3, 0.5)]);
    assert!(!same_up_to_rounding(&short, &want));
    assert!(!same_up_to_rounding("not json", &want));
}

#[test]
fn benchmark_json_lists_the_metrics_the_binary_prints() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let names = |key: &str| -> Vec<String> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect()
    };
    assert_eq!(names("end_to_end"), END_TO_END);
    assert_eq!(names("per_layer"), PER_LAYER);
    assert_eq!(names("workloads"), ["search", "annotate"]);
}
