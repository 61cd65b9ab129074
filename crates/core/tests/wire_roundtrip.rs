//! Property tests pinning the wire format: every front-door type
//! round-trips `encode → parse → decode` exactly, and equal values
//! produce byte-equal encodings (the server's bit-identity proof rests
//! on this). The request decoders are total: arbitrary and mutated
//! bodies end in `Ok` or a [`WireError`], never a panic, and nesting is
//! bounded so a hostile body cannot overflow the stack.

use proptest::prelude::*;
use webtable_catalog::{EntityId, RelationId, TypeId};
use webtable_core::wire::{
    annotation_from_json, annotation_to_json, decode_response, encode_response, table_from_json,
    table_to_json,
};
use webtable_core::{
    AnnotateResponse, AnnotateStats, Json, PhaseTimings, TableAnnotation, WireAnnotateRequest,
    WireError,
};
use webtable_tables::{Table, TableId};

fn arb_table() -> impl Strategy<Value = Table> {
    (
        any::<u32>(),
        "\\PC{0,20}",
        proptest::collection::vec(any::<u32>(), 64),
        proptest::collection::vec("\\PC{0,10}", 16),
        1usize..5,
        0usize..5,
    )
        .prop_map(|(id, context, seeds, words, cols, rows)| {
            let mut k = 0usize;
            let mut next = || {
                let v = seeds[k % seeds.len()];
                k += 1;
                v as usize
            };
            let headers: Vec<Option<String>> =
                (0..cols)
                    .map(|_| {
                        if next() % 3 == 0 {
                            None
                        } else {
                            Some(words[next() % words.len()].clone())
                        }
                    })
                    .collect();
            let grid: Vec<Vec<String>> = (0..rows)
                .map(|_| (0..cols).map(|_| words[next() % words.len()].clone()).collect())
                .collect();
            Table::new(TableId(id as u64), context, headers, grid)
        })
}

fn arb_annotation() -> impl Strategy<Value = TableAnnotation> {
    (
        proptest::collection::vec(any::<u32>(), 96),
        proptest::collection::vec(any::<f64>(), 16),
        0usize..12,
        0usize..5,
        0usize..6,
    )
        .prop_map(|(seeds, confs, cells, cols, rels)| {
            let mut k = 0usize;
            let mut next = || {
                let v = seeds[k % seeds.len()];
                k += 1;
                v as usize
            };
            let mut a = TableAnnotation::default();
            for _ in 0..cells {
                // The pipeline emits entity + confidence for the same key
                // set; the wire format carries them as one record.
                let key = (next() % 40, next() % 8);
                let entity =
                    if next() % 4 == 0 { None } else { Some(EntityId((next() % 500) as u32)) };
                a.cell_entities.insert(key, entity);
                a.cell_confidence.insert(key, confs[next() % confs.len()].abs());
            }
            for _ in 0..cols {
                let ty = if next() % 4 == 0 { None } else { Some(TypeId((next() % 90) as u32)) };
                a.column_types.insert(next() % 8, ty);
            }
            for _ in 0..rels {
                let rel =
                    if next() % 3 == 0 { None } else { Some(RelationId((next() % 30) as u32)) };
                a.relations.insert((next() % 8, next() % 8), rel);
            }
            a.bp_iterations = next() % 12;
            a.converged = next() % 2 == 0;
            a
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn tables_roundtrip(t in arb_table()) {
        let back = table_from_json(&table_to_json(&t)).expect("decode");
        prop_assert_eq!(&t, &back);
        // Byte-determinism: equal values encode equal.
        prop_assert_eq!(table_to_json(&t).encode(), table_to_json(&back).encode());
    }

    #[test]
    fn annotate_requests_roundtrip(
        tables in proptest::collection::vec(arb_table(), 0..4),
        workers in 0usize..9,
        unique in any::<bool>(),
        timeout in any::<u32>(),
    ) {
        let req = WireAnnotateRequest {
            tables,
            workers,
            unique_columns: if unique { Some(vec![0, 2]) } else { None },
            timeout_ms: if timeout % 2 == 0 { Some(timeout as u64) } else { None },
        };
        let text = req.encode();
        let back = WireAnnotateRequest::decode(&text).expect("decode");
        prop_assert_eq!(&req, &back);
        prop_assert_eq!(text, back.encode());
    }

    #[test]
    fn annotations_roundtrip(a in arb_annotation()) {
        let j = annotation_to_json(&a);
        let back = annotation_from_json(&j).expect("decode");
        prop_assert_eq!(&a, &back);
        prop_assert_eq!(j.encode(), annotation_to_json(&back).encode());
    }

    #[test]
    fn responses_roundtrip(
        anns in proptest::collection::vec(arb_annotation(), 0..3),
        times in proptest::collection::vec(any::<u32>(), 12),
        hits in any::<u32>(),
        misses in any::<u32>(),
    ) {
        let timings: Vec<PhaseTimings> = anns
            .iter()
            .enumerate()
            .map(|(i, _)| PhaseTimings {
                candidates_us: times[(4 * i) % times.len()] as u64,
                potentials_us: times[(4 * i + 1) % times.len()] as u64,
                inference_us: times[(4 * i + 2) % times.len()] as u64,
                total_us: times[(4 * i + 3) % times.len()] as u64,
            })
            .collect();
        let mut summed = PhaseTimings::default();
        for t in &timings {
            summed.add(t);
        }
        let r = AnnotateResponse {
            stats: AnnotateStats {
                tables: anns.len(),
                cache_hits: hits as u64,
                cache_misses: misses as u64,
                timings: summed,
            },
            annotations: anns,
            timings,
        };
        let text = encode_response(&r);
        let back = decode_response(&text).expect("decode");
        prop_assert_eq!(&r.annotations, &back.annotations);
        prop_assert_eq!(&r.timings, &back.timings);
        prop_assert_eq!(r.stats, back.stats);
        prop_assert_eq!(text, encode_response(&back));
    }

    #[test]
    fn json_numbers_roundtrip_bitwise(v in any::<f64>()) {
        let text = Json::Num(v).encode();
        let back = Json::parse(&text).expect("parse").as_f64().expect("number");
        prop_assert_eq!(v.to_bits(), back.to_bits());
    }

    #[test]
    fn json_strings_roundtrip(s in "\\PC{0,40}") {
        let text = Json::Str(s.clone()).encode();
        let back = Json::parse(&text).expect("parse");
        prop_assert_eq!(back.as_str(), Some(s.as_str()));
    }
}

/// A valid annotate body, the seed of every mutation below.
const VALID: &[u8] = br#"{"tables":[{"id":7,"context":"films","headers":["Title",null],
    "rows":[["Heat","1995"],["Ran","1985"]]}],"workers":2,"unique_columns":[0],"timeout_ms":500}"#;

/// Both request decoders end in `Ok` or a [`WireError`]; a panic fails
/// the calling test.
fn decode_both(bytes: &[u8]) -> [Option<WireError>; 2] {
    // `read_request` hands the router only UTF-8 bodies.
    let text = String::from_utf8_lossy(bytes);
    [Json::parse(&text).err(), WireAnnotateRequest::decode(&text).err()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_decode_or_fail_typed(
        bytes in proptest::collection::vec(any::<u8>(), 0..1024),
    ) {
        decode_both(&bytes);
    }

    #[test]
    fn mutated_bodies_decode_or_fail_typed(
        inserts in proptest::collection::vec((any::<usize>(), 0usize..4), 0..4),
        flips in proptest::collection::vec((any::<usize>(), 1u8..=255), 0..4),
        keep in any::<usize>(),
    ) {
        prop_assert_eq!(decode_both(VALID), [None, None]);
        let mut bytes = VALID.to_vec();
        for (at, which) in inserts {
            bytes.insert(at % (bytes.len() + 1), b"[{\":"[which]);
        }
        for (at, mask) in flips {
            let i = at % bytes.len();
            bytes[i] ^= mask;
        }
        bytes.truncate(keep % (bytes.len() + 1));
        decode_both(&bytes);
    }
}

#[test]
fn nesting_is_bounded_at_max_depth() {
    // Depth counts from 0 at the outermost value, and 96 is the deepest
    // the parser accepts: 97 nested arrays parse, 98 do not.
    let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
    assert!(Json::parse(&nested(97)).is_ok());
    assert_eq!(Json::parse(&nested(98)).unwrap_err().msg, "nesting too deep");
    // One MiB of openers fails at that depth instead of overflowing the
    // stack, through both decoders.
    for body in ["[".repeat(1 << 20), "{\"a\":".repeat((1 << 20) / 5)] {
        for err in decode_both(body.as_bytes()) {
            assert_eq!(err.unwrap().msg, "nesting too deep");
        }
    }
}
