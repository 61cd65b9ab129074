//! Equivalence and property pins for the retrieval & augmentation
//! subsystem: annotation worker count never changes any answer, results
//! are deterministic across engine rebuilds down to the score bits, and
//! the wire codecs round-trip every representable query and answer.

use std::sync::Arc;

use proptest::prelude::*;
use webtable_catalog::{generate_world, EntityId, RelationId, TypeId, WorldConfig};
use webtable_core::{Annotator, TableAnnotation};
use webtable_search::wire::{decode_answers, decode_query, encode_answers, encode_query};
use webtable_search::{
    build_workload, AnnotatedCorpus, AnswerKey, Query, RankedAnswer, SearchEngine, TableIndex,
};
use webtable_tables::{NoiseConfig, Table, TableGenerator, TruthMask};

fn build_engine(seed: u64, workers: usize) -> (webtable_catalog::World, SearchEngine) {
    let w = generate_world(&WorldConfig::tiny(seed)).unwrap();
    let annotator = Annotator::new(Arc::clone(&w.catalog));
    let mut g = TableGenerator::new(&w, NoiseConfig::wiki(), TruthMask::full(), seed ^ 0x5eed);
    let mut tables = Vec::new();
    for _ in 0..5 {
        tables.push(g.gen_table_for_relation(w.relations.directed, 9).table);
    }
    for _ in 0..3 {
        tables.push(g.gen_table_for_relation(w.relations.born_in, 7).table);
    }
    let engine = SearchEngine::from_tables(&annotator, tables, workers);
    (w, engine)
}

/// The retrieval/augmentation workload over a built engine: one query of
/// each new kind, seeded from entities that actually occur.
fn workload(w: &webtable_catalog::World, engine: &SearchEngine) -> Vec<Query> {
    let rel = w.oracle.relation(w.relations.directed);
    let mut seeds: Vec<EntityId> = rel
        .tuples
        .iter()
        .map(|&(m, _)| m)
        .filter(|&m| !engine.index().cells_of_entity(m).is_empty())
        .collect();
    seeds.sort_unstable();
    seeds.dedup();
    seeds.truncate(2);
    assert!(!seeds.is_empty(), "no annotated seed entities");
    vec![
        Query::Tables { keywords: "movie director born".into(), k: 8 },
        Query::PopulateRows { seeds: seeds.clone(), k: 8 },
        Query::PopulateColumns { seeds: seeds.clone(), k: 8 },
        Query::Related { entity: seeds[0], relation: w.relations.directed, k: 8 },
    ]
}

/// Worker count parallelizes annotation, never results: every new query
/// kind answers byte-identically over engines annotated with 1 vs 3
/// workers.
#[test]
fn answers_are_worker_count_invariant() {
    let (w1, e1) = build_engine(7, 1);
    let (_, e3) = build_engine(7, 3);
    for q in workload(&w1, &e1) {
        let a = encode_answers(&e1.search(&q));
        let b = encode_answers(&e3.search(&q));
        assert_eq!(a, b, "worker count changed answers for {q:?}");
        assert_ne!(a, r#"{"answers":[]}"#, "workload query must have answers: {q:?}");
    }
}

/// Rebuilding the engine from the same inputs reproduces every answer
/// byte-for-byte (the determinism the snapshot swap story rests on).
#[test]
fn rebuilds_are_byte_identical() {
    let (w, e_a) = build_engine(13, 2);
    let (_, e_b) = build_engine(13, 2);
    for q in workload(&w, &e_a) {
        assert_eq!(
            encode_answers(&e_a.search(&q)),
            encode_answers(&e_b.search(&q)),
            "rebuild changed answers for {q:?}"
        );
    }

    // A default-scale world under web noise leaves enough annotation labels
    // out of the cell text that hash-map iteration order, if it reached
    // the table index, would move token ids and norms — and score bits.
    let w = generate_world(&WorldConfig { seed: 42, ..Default::default() }).unwrap();
    let annotator = Annotator::new(Arc::clone(&w.catalog));
    let mut g = TableGenerator::new(&w, NoiseConfig::web(), TruthMask::full(), 42);
    let tables = g.gen_corpus(40, 10).into_iter().map(|lt| lt.table).collect();
    let engine = SearchEngine::from_tables(&annotator, tables, 2);
    let corpus = engine.corpus();
    let mut linked: Vec<EntityId> = corpus
        .annotations
        .iter()
        .flat_map(|a| a.cell_entities.values().flatten().copied())
        .collect();
    linked.sort_unstable();
    linked.dedup();
    linked.truncate(300);
    let table_bits = |index: &TableIndex| -> Vec<Vec<(AnswerKey, u64)>> {
        linked.iter().map(|&e| score_bits(index.search(w.catalog.entity_name(e), 10))).collect()
    };
    let want = table_bits(&TableIndex::build(corpus, &w.catalog));
    for round in 0..20 {
        // Collecting into fresh maps gives every copy its own hash seed.
        let annotations = corpus
            .annotations
            .iter()
            .map(|a| TableAnnotation {
                cell_entities: a.cell_entities.iter().map(|(&k, &v)| (k, v)).collect(),
                cell_confidence: a.cell_confidence.iter().map(|(&k, &v)| (k, v)).collect(),
                column_types: a.column_types.iter().map(|(&k, &v)| (k, v)).collect(),
                relations: a.relations.iter().map(|(&k, &v)| (k, v)).collect(),
                bp_iterations: a.bp_iterations,
                converged: a.converged,
            })
            .collect();
        let copy = AnnotatedCorpus::from_parts(corpus.tables.clone(), annotations);
        let got = table_bits(&TableIndex::build(&copy, &w.catalog));
        assert!(got == want, "table index rebuild {round} changed score bits");
    }

    // Baseline evidence sums: a tiny world repeats each fact across many
    // tables, and dropped tokens make the partial-overlap terms that sum
    // differently in a different order. Baseline reads no annotations.
    let w = generate_world(&WorldConfig::tiny(42)).unwrap();
    let noise = NoiseConfig {
        token_drop_rate: 0.5,
        synonym_rate: 0.0,
        header_drop_rate: 0.0,
        header_synonym_rate: 0.0,
        context_hint_rate: 0.5,
        ..NoiseConfig::wiki()
    };
    let mut g = TableGenerator::new(&w, noise, TruthMask::full(), 42);
    let relations: Vec<RelationId> = w.catalog.relation_ids().collect();
    let tables: Vec<Table> = relations
        .iter()
        .flat_map(|&r| (0..30).map(|_| g.gen_table_for_relation(r, 10).table).collect::<Vec<_>>())
        .collect();
    let annotations = vec![TableAnnotation::default(); tables.len()];
    let engine = SearchEngine::build(
        Arc::clone(&w.catalog),
        AnnotatedCorpus::from_parts(tables, annotations),
    );
    for (_, queries) in &build_workload(&w, &relations, 10, 42).per_relation {
        for &q in queries {
            let first = score_bits(engine.search(&Query::Baseline(q)));
            for _ in 0..10 {
                let again = score_bits(engine.search(&Query::Baseline(q)));
                assert!(again == first, "baseline {q:?} changed score bits between calls");
            }
        }
    }
}

fn score_bits(answers: Vec<RankedAnswer>) -> Vec<(AnswerKey, u64)> {
    answers.into_iter().map(|a| (a.key, a.score.to_bits())).collect()
}

/// `k` truncates a stable ranking: the top-k answers are always a prefix
/// of the top-(k+n) answers.
#[test]
fn k_is_a_prefix_bound() {
    let (w, engine) = build_engine(7, 2);
    for q in workload(&w, &engine) {
        let wide = engine.search(&with_k(&q, 50));
        for k in [1usize, 3, 8] {
            let narrow = engine.search(&with_k(&q, k));
            assert_eq!(
                narrow,
                wide[..k.min(wide.len())].to_vec(),
                "top-{k} must be a prefix for {q:?}"
            );
        }
    }
}

fn with_k(q: &Query, k: usize) -> Query {
    match q.clone() {
        Query::Tables { keywords, .. } => Query::Tables { keywords, k },
        Query::PopulateRows { seeds, .. } => Query::PopulateRows { seeds, k },
        Query::PopulateColumns { seeds, .. } => Query::PopulateColumns { seeds, k },
        Query::Related { entity, relation, .. } => Query::Related { entity, relation, k },
        other => other,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn tables_queries_roundtrip(kw in "\\PC{0,40}", k in 1usize..=10_000) {
        let q = Query::Tables { keywords: kw, k };
        let text = encode_query(&q);
        let back = decode_query(&text).unwrap();
        prop_assert_eq!(&q, &back);
        prop_assert_eq!(text, encode_query(&back));
    }

    #[test]
    fn populate_queries_roundtrip(
        raw in proptest::collection::vec(any::<u32>(), 1..20),
        k in 1usize..=10_000,
        columns in any::<bool>(),
    ) {
        let seeds: Vec<EntityId> = raw.into_iter().map(EntityId).collect();
        let q = if columns {
            Query::PopulateColumns { seeds, k }
        } else {
            Query::PopulateRows { seeds, k }
        };
        let text = encode_query(&q);
        prop_assert_eq!(&q, &decode_query(&text).unwrap());
    }

    #[test]
    fn related_queries_roundtrip(e in any::<u32>(), r in any::<u32>(), k in 1usize..=10_000) {
        let q = Query::Related { entity: EntityId(e), relation: RelationId(r), k };
        let text = encode_query(&q);
        prop_assert_eq!(&q, &decode_query(&text).unwrap());
    }

    #[test]
    fn answer_keys_roundtrip_bitwise(
        table in any::<u32>(),
        label in "[a-z ]{0,24}",
        has_ty in any::<bool>(),
        ty_raw in any::<u32>(),
        score in any::<f64>(),
    ) {
        prop_assume!(score.is_finite());
        let answers = vec![
            RankedAnswer { key: AnswerKey::Table(table as u64), score },
            RankedAnswer {
                key: AnswerKey::Column { label, ty: has_ty.then_some(TypeId(ty_raw)) },
                score: score / 2.0,
            },
        ];
        let text = encode_answers(&answers);
        let back = decode_answers(&text).unwrap();
        prop_assert_eq!(answers.len(), back.len());
        for (a, b) in answers.iter().zip(&back) {
            prop_assert_eq!(&a.key, &b.key);
            prop_assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
        prop_assert_eq!(text, encode_answers(&back));
    }
}
