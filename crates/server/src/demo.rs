//! Demo data directories: a deterministic two-generation corpus used
//! by `webtable-serve prepare` / `promote`, the integration tests, and
//! the CI smoke job.
//!
//! Generation 1 is a small corpus of `directed(movie, director)`
//! tables; generation 2 keeps the same catalog and index snapshot but
//! grows the corpus (more tables, plus `bornIn` coverage), so a swap
//! observably changes search results while annotate stays
//! catalog-compatible.

use std::io::Write;
use std::path::Path;
use std::sync::Arc;

use webtable_catalog::{generate_world, CatalogBuilder, EntityId, RelationId, WorldConfig};
use webtable_core::Annotator;
use webtable_search::wire::encode_query;
use webtable_search::{EntityQuery, Query, SearchEngine};
use webtable_tables::{NoiseConfig, ReusePolicy, Table, TableGenerator, TruthMask};
use webtable_text::LemmaIndex;

use crate::error::ServeError;
use crate::manifest::Manifest;
use crate::state::tables_to_wire;

/// Number of generation-1 tables.
pub const GEN1_TABLES: usize = 4;
/// Number of generation-2 tables (a strict superset of generation 1).
pub const GEN2_TABLES: usize = 8;

fn io_err(context: &str, source: std::io::Error) -> ServeError {
    ServeError::Io { context: context.to_string(), source }
}

/// Builds both generations' table files, the catalog TSV, the index
/// snapshot, and a manifest pointing at generation 1.
pub fn prepare_data_dir(dir: &Path, seed: u64) -> Result<(), ServeError> {
    std::fs::create_dir_all(dir).map_err(|e| io_err("creating data dir", e))?;
    let world = generate_world(&WorldConfig::tiny(seed))
        .map_err(|e| ServeError::Manifest(format!("world generation: {e}")))?;
    webtable_catalog::io::save_catalog(&world.catalog, dir.join("catalog.tsv"))?;

    let annotator = Annotator::new(Arc::clone(&world.catalog));
    annotator.save_snapshot(dir.join("index.snap"))?;

    let mut generator = TableGenerator::new(&world, NoiseConfig::wiki(), TruthMask::full(), seed);
    let mut tables: Vec<Table> = Vec::with_capacity(GEN2_TABLES);
    for _ in 0..GEN1_TABLES {
        tables.push(generator.gen_table_for_relation(world.relations.directed, 8).table);
    }
    std::fs::write(dir.join("tables-g1.json"), tables_to_wire(&tables))
        .map_err(|e| io_err("writing tables-g1.json", e))?;
    // Growth: generation 2 = generation 1 plus new tables.
    for i in GEN1_TABLES..GEN2_TABLES {
        let relation = if i % 2 == 0 { world.relations.directed } else { world.relations.born_in };
        tables.push(generator.gen_table_for_relation(relation, 10).table);
    }
    std::fs::write(dir.join("tables-g2.json"), tables_to_wire(&tables))
        .map_err(|e| io_err("writing tables-g2.json", e))?;

    // A ready-made search body for shell-driven smoke tests (the CI
    // job cats this straight into `webtable-serve client`).
    let (_, director) = world.oracle.relation(world.relations.directed).tuples[0];
    let sample = Query::Typed {
        query: EntityQuery {
            relation: world.relations.directed,
            t1: world.types.movie,
            t2: world.types.director,
            e2: director,
        },
        use_relations: false,
    };
    std::fs::write(dir.join("sample-query.json"), encode_query(&sample))
        .map_err(|e| io_err("writing sample-query.json", e))?;
    write_sample_retrieval_queries(
        dir,
        &annotator,
        &tables[..GEN1_TABLES],
        world.relations.directed,
    )?;

    Manifest {
        generation: 1,
        catalog: "catalog.tsv".into(),
        segments: vec!["index.snap".into()],
        tables: "tables-g1.json".into(),
    }
    .save_dir(dir)
}

/// Writes ready-made bodies for the retrieval/augmentation workloads —
/// `sample-tables-query.json`, `sample-populate-query.json`,
/// `sample-related-query.json` — derived from the generation-1 corpus so
/// each is guaranteed a non-empty ranked answer (the CI smoke job greps
/// for one). Generation 2 is a superset of generation 1, so the bodies
/// stay answerable after a promote.
fn write_sample_retrieval_queries(
    dir: &Path,
    annotator: &Annotator,
    g1_tables: &[Table],
    directed: RelationId,
) -> Result<(), ServeError> {
    let engine = SearchEngine::from_tables(annotator, g1_tables.to_vec(), 2);
    let corpus = engine.corpus();

    // Table retrieval: the first table's own context + first-row cells
    // are all indexed, so they retrieve at least that table.
    let t0 = &corpus.tables[0];
    let mut keywords = t0.context.clone();
    for cell in &t0.rows[0] {
        keywords.push(' ');
        keywords.push_str(cell);
    }
    let tables_q = Query::Tables { keywords, k: 10 };
    std::fs::write(dir.join("sample-tables-query.json"), encode_query(&tables_q))
        .map_err(|e| io_err("writing sample-tables-query.json", e))?;

    // Row population: two seeds from the first column holding ≥ 3
    // distinct machine-annotated entities — the remaining entities in
    // that column are guaranteed suggestions.
    let mut seeds: Vec<EntityId> = Vec::new();
    'outer: for (ti, table) in corpus.tables.iter().enumerate() {
        for c in 0..table.num_cols() {
            let mut ents: Vec<EntityId> = corpus.column_entities(ti, c).collect();
            ents.sort_unstable();
            ents.dedup();
            if ents.len() >= 3 {
                seeds = ents[..2].to_vec();
                break 'outer;
            }
        }
    }
    if seeds.is_empty() {
        return Err(ServeError::Manifest(
            "demo corpus has no column with 3 annotated entities".into(),
        ));
    }
    let populate_q = Query::PopulateRows { seeds: seeds.clone(), k: 10 };
    std::fs::write(dir.join("sample-populate-query.json"), encode_query(&populate_q))
        .map_err(|e| io_err("writing sample-populate-query.json", e))?;

    // Related: an entity actually annotated inside a `directed`-annotated
    // column pair, when one exists (the demo corpus reliably has them);
    // otherwise fall back to a seed, still a well-formed body.
    let mut entity = seeds[0];
    'pairs: for &(t, c_left, c_right) in engine.index().pairs_of_relation(directed) {
        for r in 0..corpus.tables[t as usize].num_rows() {
            for c in [c_left, c_right] {
                if let Some(e) = corpus.entity(t as usize, r, c as usize) {
                    entity = e;
                    break 'pairs;
                }
            }
        }
    }
    let related_q = Query::Related { entity, relation: directed, k: 10 };
    std::fs::write(dir.join("sample-related-query.json"), encode_query(&related_q))
        .map_err(|e| io_err("writing sample-related-query.json", e))
}

/// Builds a scale data directory: the usual catalog + snapshot, plus a
/// synthetic corpus of `num_tables` tables streamed straight to disk
/// (the corpus is never held in memory, so 10⁵–10⁶ tables is fine).
/// The generator uses web-shaped zipfian reuse — a few relations
/// dominate, and entity spellings repeat verbatim — so the serving
/// layer's caches see realistic hit rates instead of an adversarial
/// all-distinct corpus.
pub fn prepare_scale_data_dir(dir: &Path, seed: u64, num_tables: usize) -> Result<(), ServeError> {
    std::fs::create_dir_all(dir).map_err(|e| io_err("creating data dir", e))?;
    let world = generate_world(&WorldConfig::tiny(seed))
        .map_err(|e| ServeError::Manifest(format!("world generation: {e}")))?;
    webtable_catalog::io::save_catalog(&world.catalog, dir.join("catalog.tsv"))?;

    let annotator = Annotator::new(Arc::clone(&world.catalog));
    annotator.save_snapshot(dir.join("index.snap"))?;

    let policy = ReusePolicy::web();
    let mut generator =
        TableGenerator::new(&world, NoiseConfig::web(), TruthMask::full(), seed).with_reuse(policy);
    let corpus_path = dir.join("tables-scale.json");
    let file =
        std::fs::File::create(&corpus_path).map_err(|e| io_err("creating tables-scale.json", e))?;
    let mut out = std::io::BufWriter::new(file);
    let write_err = |e| io_err("writing tables-scale.json", e);
    out.write_all(b"{\"tables\":[").map_err(write_err)?;
    for (i, lt) in generator.gen_corpus_iter(num_tables, 8, policy.relation_skew).enumerate() {
        if i > 0 {
            out.write_all(b",").map_err(write_err)?;
        }
        out.write_all(webtable_core::wire::table_to_json(&lt.table).encode().as_bytes())
            .map_err(write_err)?;
    }
    out.write_all(b"]}").map_err(write_err)?;
    out.flush().map_err(write_err)?;

    let (_, director) = world.oracle.relation(world.relations.directed).tuples[0];
    let sample = Query::Typed {
        query: EntityQuery {
            relation: world.relations.directed,
            t1: world.types.movie,
            t2: world.types.director,
            e2: director,
        },
        use_relations: false,
    };
    std::fs::write(dir.join("sample-query.json"), encode_query(&sample))
        .map_err(|e| io_err("writing sample-query.json", e))?;

    Manifest {
        generation: 1,
        catalog: "catalog.tsv".into(),
        segments: vec!["index.snap".into()],
        tables: "tables-scale.json".into(),
    }
    .save_dir(dir)
}

/// Replays a loaded catalog into a builder, reproducing ids, names,
/// lemma lists, hierarchy, and relation extensions exactly (the builder
/// assigns ids in insertion order, and the canonical name is always the
/// first lemma). Growth appends to the returned builder before
/// `finish()`, so the result is an append-only superset the segmented
/// index accepts as a delta.
fn replay_catalog(cat: &webtable_catalog::Catalog) -> Result<CatalogBuilder, ServeError> {
    let replay_err =
        |e: &dyn std::fmt::Display| ServeError::Manifest(format!("catalog replay: {e}"));
    let mut b = CatalogBuilder::new();
    // Demo worlds model *incomplete* catalogs: some ∈ edges are
    // deliberately dropped while the relation tuple survives, so strict
    // schema validation would reject a faithful replay.
    b.allow_schema_violations();
    for t in cat.type_ids() {
        let lemmas: Vec<&str> = cat.type_lemmas(t)[1..].iter().map(String::as_str).collect();
        b.add_type(cat.type_name(t), &lemmas).map_err(|e| replay_err(&e))?;
    }
    for t in cat.type_ids() {
        for &p in cat.parents(t) {
            b.add_subtype(t, p);
        }
    }
    for e in cat.entity_ids() {
        let ent = cat.entity(e);
        let lemmas: Vec<&str> = ent.lemmas[1..].iter().map(String::as_str).collect();
        b.add_entity(ent.name.clone(), &lemmas, &ent.direct_types).map_err(|e| replay_err(&e))?;
    }
    for r in cat.relation_ids() {
        let rel = cat.relation(r);
        let id = b
            .add_relation(rel.name.clone(), rel.left_type, rel.right_type, rel.cardinality)
            .map_err(|e| replay_err(&e))?;
        for &(e1, e2) in &rel.tuples {
            b.add_tuple(id, e1, e2);
        }
    }
    Ok(b)
}

/// Number of entities `grow` appends per call.
pub const GROW_ENTITIES: usize = 6;

/// Grows the data directory by one **segment**: appends
/// [`GROW_ENTITIES`] new entities to the catalog, builds a delta
/// segment over just the appended id range (existing segment snapshots
/// are reused byte-for-byte, never rewritten), and writes a MANIFEST v2
/// naming the old segments plus the new one at `generation + 1`. The
/// serving process publishes it on the next `/admin/swap`. Returns the
/// new generation number.
pub fn grow(dir: &Path) -> Result<u64, ServeError> {
    let manifest = Manifest::load_dir(dir)?;
    let gen = manifest.generation + 1;
    let base_catalog = Arc::new(webtable_catalog::io::load_catalog(dir.join(&manifest.catalog))?);

    // Grown catalog = exact replay of the old one + appended entities.
    let mut b = replay_catalog(&base_catalog)?;
    let root = base_catalog.root();
    for i in 0..GROW_ENTITIES {
        b.add_entity(
            format!("grown entity g{gen} n{i}"),
            &[&format!("grown g{gen} alias {i}")],
            &[root],
        )
        .map_err(|e| ServeError::Manifest(format!("growing catalog: {e}")))?;
    }
    let grown =
        Arc::new(b.finish().map_err(|e| ServeError::Manifest(format!("growing catalog: {e}")))?);

    // Restore the current segments, append the delta, and persist only
    // the new segment's snapshot.
    let mut segments = Vec::with_capacity(manifest.segments.len());
    for seg in &manifest.segments {
        let path = dir.join(seg);
        let bytes =
            std::fs::read(&path).map_err(|e| io_err(&format!("reading {}", path.display()), e))?;
        let index = LemmaIndex::from_snapshot_bytes(&bytes).map_err(webtable_core::Error::from)?;
        segments.push(Arc::new(index));
    }
    let annotator = Annotator::from_lemma_segments(Arc::clone(&base_catalog), segments)?;
    let grown_annotator = annotator.append_segment(Arc::clone(&grown))?;
    let segments = grown_annotator.index.segments();
    let delta = segments.last().expect("append produced a segment");
    let delta_name = format!("segment-g{gen}.snap");
    delta
        .save(dir.join(&delta_name))
        .map_err(|e| ServeError::Core(webtable_core::Error::from(e)))?;

    let catalog_name = format!("catalog-g{gen}.tsv");
    webtable_catalog::io::save_catalog(&grown, dir.join(&catalog_name))?;

    let mut next_segments = manifest.segments.clone();
    next_segments.push(delta_name.into());
    Manifest {
        generation: gen,
        catalog: catalog_name.into(),
        segments: next_segments,
        tables: manifest.tables.clone(),
    }
    .save_dir(dir)?;
    Ok(gen)
}

/// Promotes the data directory to generation 2 (rewrites the manifest
/// atomically; the serving process picks it up on the next
/// `/admin/swap`). Returns the new generation number.
pub fn promote(dir: &Path) -> Result<u64, ServeError> {
    let mut manifest = Manifest::load_dir(dir)?;
    manifest.generation += 1;
    manifest.tables = "tables-g2.json".into();
    manifest.save_dir(dir)?;
    Ok(manifest.generation)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::load_generation;

    #[test]
    fn prepare_promote_load_both_generations() {
        let dir = std::env::temp_dir().join(format!("webtable-demo-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        prepare_data_dir(&dir, 11).unwrap();

        let g1 = load_generation(&dir, 2).unwrap();
        assert_eq!(g1.generation, 1);
        assert_eq!(g1.engine.corpus().len(), GEN1_TABLES);

        assert_eq!(promote(&dir).unwrap(), 2);
        let g2 = load_generation(&dir, 2).unwrap();
        assert_eq!(g2.generation, 2);
        assert_eq!(g2.engine.corpus().len(), GEN2_TABLES);
        // Same catalog + snapshot: the annotators agree bit-for-bit.
        assert_eq!(g1.annotator.cache_fingerprint(), g2.annotator.cache_fingerprint());

        // The retrieval sample bodies answer non-empty on BOTH
        // generations (the CI smoke job greps for ranked answers, and a
        // promote must not invalidate them).
        for name in ["sample-tables-query.json", "sample-populate-query.json"] {
            let body = std::fs::read_to_string(dir.join(name)).unwrap();
            let q = webtable_search::wire::decode_query(&body).unwrap();
            assert!(!g1.engine.search(&q).is_empty(), "{name} empty on gen 1");
            assert!(!g2.engine.search(&q).is_empty(), "{name} empty on gen 2");
        }
        let related = std::fs::read_to_string(dir.join("sample-related-query.json")).unwrap();
        let q = webtable_search::wire::decode_query(&related).unwrap();
        assert!(matches!(q, Query::Related { .. }));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scale_data_dir_streams_a_loadable_corpus() {
        let dir = std::env::temp_dir().join(format!("webtable-scale-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        prepare_scale_data_dir(&dir, 11, 200).unwrap();
        let g = load_generation(&dir, 2).unwrap();
        assert_eq!(g.generation, 1);
        assert_eq!(g.engine.corpus().len(), 200);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
