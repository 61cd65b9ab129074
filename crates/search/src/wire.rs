//! Wire format for the search front door: [`Query`] in,
//! [`RankedAnswer`]s out, on the same dependency-free JSON
//! ([`webtable_core::wire`]) the annotate path uses.
//!
//! ```json
//! // Query — `kind` selects the processor
//! {"kind": "baseline", "relation": 1, "t1": 2, "t2": 3, "e2": 4}
//! {"kind": "typed", "relation": 1, "t1": 2, "t2": 3, "e2": 4,
//!  "use_relations": true}
//! {"kind": "join", "r1": 1, "r2": 2, "e3": 9, "mid_k": 5}
//! {"kind": "tables", "q": "films directed by", "k": 10}
//! {"kind": "populate_rows", "seeds": [4, 9], "k": 10}
//! {"kind": "populate_columns", "seeds": [4, 9], "k": 10}
//! {"kind": "related", "entity": 4, "relation": 1, "k": 10}
//!
//! // Search results
//! {"answers": [{"entity": 17, "score": 3.5},
//!              {"text": "uncle albert", "score": 1.0},
//!              {"table": 12, "score": 0.8},
//!              {"column": "director", "type": 3, "score": 1.0}]}
//! ```
//!
//! Unknown `kind`s are a schema error — the enum is `#[non_exhaustive]`,
//! so new query kinds appear here (and only here) as new names.

use webtable_catalog::{EntityId, RelationId, TypeId};
use webtable_core::wire::{Json, WireError};

use crate::engine::Query;
use crate::join::JoinQuery;
use crate::query::{AnswerKey, EntityQuery, RankedAnswer};

fn schema_err(msg: impl Into<String>) -> WireError {
    WireError { msg: msg.into(), offset: 0 }
}

fn id_field(j: &Json, key: &str) -> Result<u32, WireError> {
    j.get(key)
        .and_then(Json::as_u64)
        .filter(|v| *v <= u32::MAX as u64)
        .ok_or_else(|| schema_err(format!("field `{key}` must be a u32 id")))
        .map(|v| v as u32)
}

fn entity_query_to_pairs(q: &EntityQuery) -> Vec<(String, Json)> {
    vec![
        ("relation".into(), Json::u64(q.relation.0 as u64)),
        ("t1".into(), Json::u64(q.t1.0 as u64)),
        ("t2".into(), Json::u64(q.t2.0 as u64)),
        ("e2".into(), Json::u64(q.e2.0 as u64)),
    ]
}

fn entity_query_from_json(j: &Json) -> Result<EntityQuery, WireError> {
    Ok(EntityQuery {
        relation: RelationId(id_field(j, "relation")?),
        t1: TypeId(id_field(j, "t1")?),
        t2: TypeId(id_field(j, "t2")?),
        e2: EntityId(id_field(j, "e2")?),
    })
}

/// Encodes a [`Query`].
pub fn query_to_json(q: &Query) -> Json {
    match *q {
        Query::Baseline(ref eq) => {
            let mut pairs = vec![("kind".to_string(), Json::str("baseline"))];
            pairs.extend(entity_query_to_pairs(eq));
            Json::Obj(pairs)
        }
        Query::Typed { ref query, use_relations } => {
            let mut pairs = vec![("kind".to_string(), Json::str("typed"))];
            pairs.extend(entity_query_to_pairs(query));
            pairs.push(("use_relations".into(), Json::Bool(use_relations)));
            Json::Obj(pairs)
        }
        Query::Join { ref query, mid_k } => Json::Obj(vec![
            ("kind".into(), Json::str("join")),
            ("r1".into(), Json::u64(query.r1.0 as u64)),
            ("r2".into(), Json::u64(query.r2.0 as u64)),
            ("e3".into(), Json::u64(query.e3.0 as u64)),
            ("mid_k".into(), Json::usize(mid_k)),
        ]),
        Query::Tables { ref keywords, k } => Json::Obj(vec![
            ("kind".into(), Json::str("tables")),
            ("q".into(), Json::str(keywords)),
            ("k".into(), Json::usize(k)),
        ]),
        Query::PopulateRows { ref seeds, k } => Json::Obj(vec![
            ("kind".into(), Json::str("populate_rows")),
            ("seeds".into(), seeds_to_json(seeds)),
            ("k".into(), Json::usize(k)),
        ]),
        Query::PopulateColumns { ref seeds, k } => Json::Obj(vec![
            ("kind".into(), Json::str("populate_columns")),
            ("seeds".into(), seeds_to_json(seeds)),
            ("k".into(), Json::usize(k)),
        ]),
        Query::Related { entity, relation, k } => Json::Obj(vec![
            ("kind".into(), Json::str("related")),
            ("entity".into(), Json::u64(entity.0 as u64)),
            ("relation".into(), Json::u64(relation.0 as u64)),
            ("k".into(), Json::usize(k)),
        ]),
    }
}

fn seeds_to_json(seeds: &[EntityId]) -> Json {
    Json::Arr(seeds.iter().map(|e| Json::u64(e.0 as u64)).collect())
}

/// Decodes the shared result-bound field: optional, default 10, bounded
/// like `mid_k`.
fn k_field(j: &Json) -> Result<usize, WireError> {
    match j.get("k") {
        None => Ok(10),
        Some(v) => v
            .as_usize()
            .filter(|&k| (1..=10_000).contains(&k))
            .ok_or_else(|| schema_err("`k` must be an integer in 1..=10000")),
    }
}

/// Decodes a `seeds` array: required, non-empty, at most 10 000 u32 ids.
fn seeds_field(j: &Json) -> Result<Vec<EntityId>, WireError> {
    let arr = j
        .get("seeds")
        .and_then(Json::as_arr)
        .ok_or_else(|| schema_err("`seeds` must be an array of u32 entity ids"))?;
    if arr.is_empty() || arr.len() > 10_000 {
        return Err(schema_err("`seeds` must hold 1..=10000 entity ids"));
    }
    arr.iter()
        .map(|v| {
            v.as_u64()
                .filter(|v| *v <= u32::MAX as u64)
                .map(|v| EntityId(v as u32))
                .ok_or_else(|| schema_err("`seeds` must be an array of u32 entity ids"))
        })
        .collect()
}

/// Decodes a [`Query`].
pub fn query_from_json(j: &Json) -> Result<Query, WireError> {
    let kind = j
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| schema_err("query needs a string `kind`"))?;
    match kind {
        "baseline" => Ok(Query::Baseline(entity_query_from_json(j)?)),
        "typed" => {
            let use_relations = match j.get("use_relations") {
                None => true,
                Some(v) => {
                    v.as_bool().ok_or_else(|| schema_err("`use_relations` must be a bool"))?
                }
            };
            Ok(Query::Typed { query: entity_query_from_json(j)?, use_relations })
        }
        "join" => {
            let mid_k = match j.get("mid_k") {
                None => 5,
                Some(v) => v
                    .as_usize()
                    .filter(|&k| (1..=10_000).contains(&k))
                    .ok_or_else(|| schema_err("`mid_k` must be an integer in 1..=10000"))?,
            };
            Ok(Query::Join {
                query: JoinQuery {
                    r1: RelationId(id_field(j, "r1")?),
                    r2: RelationId(id_field(j, "r2")?),
                    e3: EntityId(id_field(j, "e3")?),
                },
                mid_k,
            })
        }
        "tables" => {
            let keywords = j
                .get("q")
                .and_then(Json::as_str)
                .ok_or_else(|| schema_err("`q` must be a keyword string"))?
                .to_string();
            Ok(Query::Tables { keywords, k: k_field(j)? })
        }
        "populate_rows" => Ok(Query::PopulateRows { seeds: seeds_field(j)?, k: k_field(j)? }),
        "populate_columns" => {
            Ok(Query::PopulateColumns { seeds: seeds_field(j)?, k: k_field(j)? })
        }
        "related" => Ok(Query::Related {
            entity: EntityId(id_field(j, "entity")?),
            relation: RelationId(id_field(j, "relation")?),
            k: k_field(j)?,
        }),
        other => Err(schema_err(format!(
            "unknown query kind `{other}` (expected baseline|typed|join|tables|populate_rows|populate_columns|related)"
        ))),
    }
}

/// Decodes a [`Query`] from JSON text.
pub fn decode_query(text: &str) -> Result<Query, WireError> {
    query_from_json(&Json::parse(text)?)
}

/// Encodes a [`Query`] to JSON text.
pub fn encode_query(q: &Query) -> String {
    query_to_json(q).encode()
}

/// Encodes ranked answers — the search endpoint's response body.
pub fn answers_to_json(answers: &[RankedAnswer]) -> Json {
    Json::Obj(vec![(
        "answers".into(),
        Json::Arr(
            answers
                .iter()
                .map(|a| {
                    let mut pairs = match &a.key {
                        AnswerKey::Entity(e) => {
                            vec![("entity".to_string(), Json::u64(e.0 as u64))]
                        }
                        AnswerKey::Text(t) => vec![("text".to_string(), Json::str(t))],
                        AnswerKey::Table(id) => vec![("table".to_string(), Json::u64(*id))],
                        AnswerKey::Column { label, ty } => vec![
                            ("column".to_string(), Json::str(label)),
                            (
                                "type".to_string(),
                                match ty {
                                    Some(t) => Json::u64(t.0 as u64),
                                    None => Json::Null,
                                },
                            ),
                        ],
                    };
                    pairs.push(("score".into(), Json::Num(a.score)));
                    Json::Obj(pairs)
                })
                .collect(),
        ),
    )])
}

/// Decodes ranked answers.
pub fn answers_from_json(j: &Json) -> Result<Vec<RankedAnswer>, WireError> {
    let items = j
        .get("answers")
        .and_then(Json::as_arr)
        .ok_or_else(|| schema_err("missing `answers` array"))?;
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        let key =
            match (item.get("entity"), item.get("text"), item.get("table"), item.get("column")) {
                (Some(e), None, None, None) => AnswerKey::Entity(EntityId(
                    e.as_u64()
                        .filter(|v| *v <= u32::MAX as u64)
                        .ok_or_else(|| schema_err("`entity` must be a u32 id"))?
                        as u32,
                )),
                (None, Some(t), None, None) => AnswerKey::Text(
                    t.as_str().ok_or_else(|| schema_err("`text` must be a string"))?.to_string(),
                ),
                (None, None, Some(t), None) => AnswerKey::Table(
                    t.as_u64().ok_or_else(|| schema_err("`table` must be a u64 id"))?,
                ),
                (None, None, None, Some(c)) => {
                    let label = c
                        .as_str()
                        .ok_or_else(|| schema_err("`column` must be a string label"))?
                        .to_string();
                    let ty = match item.get("type") {
                        None | Some(Json::Null) => None,
                        Some(v) => Some(TypeId(
                            v.as_u64()
                                .filter(|v| *v <= u32::MAX as u64)
                                .ok_or_else(|| schema_err("`type` must be a u32 id or null"))?
                                as u32,
                        )),
                    };
                    AnswerKey::Column { label, ty }
                }
                _ => {
                    return Err(schema_err(
                        "each answer needs exactly one of `entity`/`text`/`table`/`column`",
                    ))
                }
            };
        let score = item
            .get("score")
            .and_then(Json::as_f64)
            .ok_or_else(|| schema_err("`score` must be a number"))?;
        out.push(RankedAnswer { key, score });
    }
    Ok(out)
}

/// Encodes ranked answers to JSON text.
pub fn encode_answers(answers: &[RankedAnswer]) -> String {
    answers_to_json(answers).encode()
}

/// Decodes ranked answers from JSON text.
pub fn decode_answers(text: &str) -> Result<Vec<RankedAnswer>, WireError> {
    answers_from_json(&Json::parse(text)?)
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// One valid body per query kind, as in the module docs.
    const KIND_BODIES: [&str; 7] = [
        r#"{"kind":"baseline","relation":1,"t1":2,"t2":3,"e2":4}"#,
        r#"{"kind":"typed","relation":1,"t1":2,"t2":3,"e2":4,"use_relations":true}"#,
        r#"{"kind":"join","r1":1,"r2":2,"e3":9,"mid_k":5}"#,
        r#"{"kind":"tables","q":"films directed by","k":10}"#,
        r#"{"kind":"populate_rows","seeds":[4,9],"k":10}"#,
        r#"{"kind":"populate_columns","seeds":[4,9],"k":10}"#,
        r#"{"kind":"related","entity":4,"relation":1,"k":10}"#,
    ];

    /// `decode_query` ends in `Ok` or a [`WireError`]; a panic fails the
    /// calling test. `read_request` hands the router only UTF-8 bodies.
    fn decode_lossy(bytes: &[u8]) -> Result<Query, WireError> {
        decode_query(&String::from_utf8_lossy(bytes))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn arbitrary_bytes_decode_or_fail_typed(
            bytes in proptest::collection::vec(any::<u8>(), 0..1024),
        ) {
            let _ = decode_lossy(&bytes);
        }

        #[test]
        fn mutated_queries_decode_or_fail_typed(
            kind in 0usize..7,
            inserts in proptest::collection::vec((any::<usize>(), 0usize..4), 0..4),
            flips in proptest::collection::vec((any::<usize>(), 1u8..=255), 0..4),
            keep in any::<usize>(),
        ) {
            let mut bytes = KIND_BODIES[kind].as_bytes().to_vec();
            prop_assert!(decode_lossy(&bytes).is_ok());
            for (at, which) in inserts {
                bytes.insert(at % (bytes.len() + 1), b"[{\":"[which]);
            }
            for (at, mask) in flips {
                let i = at % bytes.len();
                bytes[i] ^= mask;
            }
            bytes.truncate(keep % (bytes.len() + 1));
            let _ = decode_lossy(&bytes);
        }
    }

    #[test]
    fn queries_roundtrip_through_the_wire() {
        let eq =
            EntityQuery { relation: RelationId(3), t1: TypeId(1), t2: TypeId(2), e2: EntityId(40) };
        let cases = [
            Query::Baseline(eq),
            Query::Typed { query: eq, use_relations: false },
            Query::Typed { query: eq, use_relations: true },
            Query::Join {
                query: JoinQuery { r1: RelationId(1), r2: RelationId(2), e3: EntityId(7) },
                mid_k: 9,
            },
            Query::Tables { keywords: "films directed by".into(), k: 10 },
            Query::Tables { keywords: String::new(), k: 1 },
            Query::PopulateRows { seeds: vec![EntityId(4), EntityId(9)], k: 10 },
            Query::PopulateColumns { seeds: vec![EntityId(4)], k: 3 },
            Query::Related { entity: EntityId(4), relation: RelationId(1), k: 10 },
        ];
        for q in cases {
            let text = encode_query(&q);
            let back = decode_query(&text).expect("decode");
            assert_eq!(q, back, "{text}");
            assert_eq!(text, encode_query(&back), "encoding must be deterministic");
        }
    }

    #[test]
    fn query_defaults_and_errors() {
        let q = decode_query(r#"{"kind":"typed","relation":1,"t1":2,"t2":3,"e2":4}"#).unwrap();
        assert_eq!(
            q,
            Query::Typed {
                query: EntityQuery {
                    relation: RelationId(1),
                    t1: TypeId(2),
                    t2: TypeId(3),
                    e2: EntityId(4),
                },
                use_relations: true,
            }
        );
        assert!(decode_query(r#"{"kind":"population"}"#).is_err(), "unknown kinds are errors");
        assert!(decode_query(r#"{"relation":1}"#).is_err(), "kind is required");
        assert!(
            decode_query(r#"{"kind":"join","r1":1,"r2":2,"e3":3,"mid_k":0}"#).is_err(),
            "mid_k 0 would search nothing"
        );
    }

    #[test]
    fn retrieval_query_defaults_and_errors() {
        assert_eq!(
            decode_query(r#"{"kind":"tables","q":"films"}"#).unwrap(),
            Query::Tables { keywords: "films".into(), k: 10 },
            "k defaults to 10"
        );
        assert_eq!(
            decode_query(r#"{"kind":"populate_rows","seeds":[7]}"#).unwrap(),
            Query::PopulateRows { seeds: vec![EntityId(7)], k: 10 },
        );
        assert_eq!(
            decode_query(r#"{"kind":"related","entity":4,"relation":1}"#).unwrap(),
            Query::Related { entity: EntityId(4), relation: RelationId(1), k: 10 },
        );
        assert!(decode_query(r#"{"kind":"tables"}"#).is_err(), "q is required");
        assert!(decode_query(r#"{"kind":"tables","q":"x","k":0}"#).is_err(), "k 0 is rejected");
        assert!(
            decode_query(r#"{"kind":"tables","q":"x","k":10001}"#).is_err(),
            "k above the cap is rejected"
        );
        assert!(decode_query(r#"{"kind":"populate_rows"}"#).is_err(), "seeds are required");
        assert!(
            decode_query(r#"{"kind":"populate_rows","seeds":[]}"#).is_err(),
            "empty seeds are rejected"
        );
        assert!(
            decode_query(r#"{"kind":"populate_columns","seeds":["x"]}"#).is_err(),
            "non-numeric seeds are rejected"
        );
        assert!(decode_query(r#"{"kind":"related","entity":4}"#).is_err(), "relation is required");
    }

    #[test]
    fn answers_roundtrip_bitwise() {
        let answers = vec![
            RankedAnswer { key: AnswerKey::Entity(EntityId(17)), score: 3.5 },
            RankedAnswer { key: AnswerKey::Text("uncle albert".into()), score: 1.0 + 2e-13 },
            RankedAnswer { key: AnswerKey::Text(String::new()), score: 0.0 },
            RankedAnswer { key: AnswerKey::Table(12), score: 0.875 },
            RankedAnswer {
                key: AnswerKey::Column { label: "director".into(), ty: Some(TypeId(3)) },
                score: 1.0,
            },
            RankedAnswer { key: AnswerKey::Column { label: "year".into(), ty: None }, score: 0.5 },
        ];
        let text = encode_answers(&answers);
        let back = decode_answers(&text).expect("decode");
        assert_eq!(answers.len(), back.len());
        for (a, b) in answers.iter().zip(&back) {
            assert_eq!(a.key, b.key);
            assert_eq!(a.score.to_bits(), b.score.to_bits(), "scores must round-trip bitwise");
        }
        assert_eq!(text, encode_answers(&back));
        assert!(decode_answers(r#"{"answers":[{"score":1}]}"#).is_err());
        assert!(
            decode_answers(r#"{"answers":[{"entity":1,"text":"x","score":1}]}"#).is_err(),
            "entity and text are mutually exclusive"
        );
        assert!(
            decode_answers(r#"{"answers":[{"table":1,"column":"x","score":1}]}"#).is_err(),
            "table and column are mutually exclusive"
        );
        assert!(
            decode_answers(r#"{"answers":[{"column":"x","type":"y","score":1}]}"#).is_err(),
            "column type must be numeric or null"
        );
    }
}
