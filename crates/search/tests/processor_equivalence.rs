//! Processor equivalence: every query kind [`SearchEngine::search`] runs
//! answers, key for key and score bit for bit, as the processors did
//! before they started from the query's entity cells. Those processors
//! are kept below as `reference`, verbatim; the table index's build is
//! copied with its search, because its postings are private.
//!
//! The corpus is shaped like the serving benchmark's `search` workload —
//! a tiny world, web noise with web spelling reuse, a few hundred tables —
//! and the queries are drawn the way the benchmark draws them, with
//! zipf-popular entities, tables and seed sets. On top of the benchmark's
//! mix: both `use_relations` values for every typed query, `t1 == t2`,
//! entities with no annotated cell, and population with 1, 2 and 4 seeds,
//! whose supports (n/1, n/2, n/4) sum exactly in any order — the
//! reference summed them in hash order. With 3 seeds the reference is not
//! reproducible, so those answers are pinned to themselves instead:
//! across repeated calls and across two engines over one corpus.

use std::sync::{Arc, OnceLock};

use webtable_catalog::{generate_world, EntityId, RelationId, World, WorldConfig};
use webtable_core::{Annotator, TableAnnotation};
use webtable_search::{AnnotatedCorpus, AnswerKey, EntityQuery, JoinQuery, Query, SearchEngine};
use webtable_tables::{LabeledTable, NoiseConfig, ReusePolicy, TableGenerator, TruthMask};

/// The seven processors before this plan, verbatim.
mod reference {
    use std::collections::{BTreeSet, HashMap, HashSet};

    use webtable_catalog::{Catalog, EntityId, RelationId, TypeId};
    use webtable_search::{
        AnnotatedCorpus, AnswerKey, ColRef, EntityQuery, JoinQuery, Query, RankedAnswer,
        SearchIndex,
    };
    use webtable_text::{normalize, to_sorted_set, tokenize, Vocab};

    /// `SearchEngine::search`'s dispatch and join projection, over the
    /// processors below.
    pub fn search(
        catalog: &Catalog,
        index: &SearchIndex,
        corpus: &AnnotatedCorpus,
        tables: &TableIndex,
        query: &Query,
    ) -> Vec<RankedAnswer> {
        match *query {
            Query::Baseline(ref q) => baseline_search_impl(catalog, index, corpus, q),
            Query::Typed { ref query, use_relations } => {
                typed_search_impl(index, corpus, query, use_relations)
            }
            Query::Join { ref query, mid_k } => {
                let mut out: Vec<RankedAnswer> = Vec::new();
                let mut seen: HashSet<AnswerKey> = HashSet::new();
                for a in join_search_impl(catalog, index, corpus, query, mid_k) {
                    if seen.insert(a.e1.clone()) {
                        out.push(RankedAnswer { key: a.e1, score: a.score });
                    }
                }
                out
            }
            Query::Tables { ref keywords, k } => tables.search(keywords, k),
            Query::PopulateRows { ref seeds, k } => populate_rows(catalog, index, corpus, seeds, k),
            Query::PopulateColumns { ref seeds, k } => {
                populate_columns(catalog, index, corpus, seeds, k)
            }
            Query::Related { entity, relation, k } => {
                related_search(index, corpus, entity, relation, k)
            }
            _ => unreachable!("no other query kind"),
        }
    }

    /// Ranks an evidence map deterministically (score desc, key asc).
    fn rank(evidence: HashMap<AnswerKey, f64>) -> Vec<RankedAnswer> {
        rank_bounded(evidence, usize::MAX)
    }

    /// Ranks scored keys deterministically (score desc, key asc) and keeps the
    /// top `k`. Shared by the retrieval and augmentation processors, which all
    /// carry an explicit result bound.
    pub fn rank_bounded(
        evidence: impl IntoIterator<Item = (AnswerKey, f64)>,
        k: usize,
    ) -> Vec<RankedAnswer> {
        let mut out: Vec<RankedAnswer> =
            evidence.into_iter().map(|(key, score)| RankedAnswer { key, score }).collect();
        out.sort_unstable_by(|a, b| b.score.total_cmp(&a.score).then(a.key.cmp(&b.key)));
        out.truncate(k);
        out
    }

    /// Figure 3: the annotation-free baseline. All query parts become strings
    /// (catalog names); tables qualify when *both* type strings match some
    /// column header; `E2`'s string is sought in the `T2` column by token
    /// overlap; the co-row `T1` cells are collected, clustered by normalized
    /// text, and ranked by (context-boosted) frequency.
    pub fn baseline_search_impl(
        catalog: &Catalog,
        index: &SearchIndex,
        corpus: &AnnotatedCorpus,
        q: &EntityQuery,
    ) -> Vec<RankedAnswer> {
        let t1_str = catalog.type_name(q.t1);
        let t2_str = catalog.type_name(q.t2);
        let r_str = catalog.relation_name(q.relation);
        let e2_tokens = to_sorted_set(
            tokenize(catalog.entity_name(q.e2)).into_iter().map(|t| hash_token(&t)).collect(),
        );

        // Column sets whose headers match the type strings, in key order so
        // every answer's evidence below is summed in one fixed order.
        let header_cols = |text: &str| -> BTreeSet<ColRef> {
            tokenize(text)
                .iter()
                .flat_map(|tok| index.header_cols_with_token(tok))
                .copied()
                .collect()
        };
        let t1_cols = header_cols(t1_str);
        let t2_cols = header_cols(t2_str);
        // Context matches for the relation string (a soft boost).
        let mut ctx_tables: HashMap<u32, usize> = HashMap::new();
        for tok in tokenize(r_str) {
            for &t in index.tables_with_context_token(&tok) {
                *ctx_tables.entry(t).or_insert(0) += 1;
            }
        }

        let mut evidence: HashMap<AnswerKey, f64> = HashMap::new();
        for &(t, c1) in &t1_cols {
            for &(t2, c2) in &t2_cols {
                if t != t2 || c1 == c2 {
                    continue;
                }
                let table = &corpus.tables[t as usize];
                let boost = 1.0 + 0.5 * *ctx_tables.get(&t).unwrap_or(&0) as f64;
                for row in &table.rows {
                    let cell2 = &row[c2 as usize];
                    let cell2_tokens = to_sorted_set(
                        tokenize(cell2).into_iter().map(|s| hash_token(&s)).collect(),
                    );
                    let overlap = webtable_text::sim::containment(&e2_tokens, &cell2_tokens);
                    if overlap < 0.6 {
                        continue;
                    }
                    let answer_text = row[c1 as usize].trim().to_lowercase();
                    if answer_text.is_empty() {
                        continue;
                    }
                    *evidence.entry(AnswerKey::Text(answer_text)).or_insert(0.0) += boost * overlap;
                }
            }
        }
        rank(evidence)
    }

    /// Figure 4: the annotation-aware processor. With `use_relations = false`,
    /// tables qualify through column-type annotations alone (`T1`, `T2`
    /// columns in the same table); with `use_relations = true`, the pair must
    /// additionally be annotated with `R` in the correct orientation. Shared
    /// by the join processor. (The catalog is not needed here: the subtype
    /// expansion lives in `SearchIndex::build`.)
    pub fn typed_search_impl(
        index: &SearchIndex,
        corpus: &AnnotatedCorpus,
        q: &EntityQuery,
        use_relations: bool,
    ) -> Vec<RankedAnswer> {
        // Qualifying (table, c1, c2) triples, c1 = answer column.
        let mut triples: Vec<(u32, u16, u16)> = Vec::new();
        if use_relations {
            for &(t, c_left, c_right) in index.pairs_of_relation(q.relation) {
                triples.push((t, c_left, c_right));
            }
        } else {
            let t1_cols = index.columns_of_type(q.t1);
            let t2_cols = index.columns_of_type(q.t2);
            let mut by_table: HashMap<u32, (Vec<u16>, Vec<u16>)> = HashMap::new();
            for &(t, c) in t1_cols {
                by_table.entry(t).or_default().0.push(c);
            }
            for &(t, c) in t2_cols {
                by_table.entry(t).or_default().1.push(c);
            }
            for (t, (cs1, cs2)) in by_table {
                for &c1 in &cs1 {
                    for &c2 in &cs2 {
                        if c1 != c2 {
                            triples.push((t, c1, c2));
                        }
                    }
                }
            }
            triples.sort_unstable();
        }

        // Rows where the c2 cell is annotated with E2.
        let e2_cells: HashMap<(u32, u16), Vec<u32>> = {
            let mut m: HashMap<(u32, u16), Vec<u32>> = HashMap::new();
            for &(t, r, c) in index.cells_of_entity(q.e2) {
                m.entry((t, c)).or_default().push(r);
            }
            m
        };

        let mut evidence: HashMap<AnswerKey, f64> = HashMap::new();
        for (t, c1, c2) in triples {
            let Some(rows) = e2_cells.get(&(t, c2)) else { continue };
            let table = &corpus.tables[t as usize];
            let ann = &corpus.annotations[t as usize];
            for &r in rows {
                let key = (r as usize, c1 as usize);
                let answer = match ann.cell_entities.get(&key).copied().flatten() {
                    Some(e1) => AnswerKey::Entity(e1),
                    None => {
                        let text = table.cell(r as usize, c1 as usize).trim().to_lowercase();
                        if text.is_empty() {
                            continue;
                        }
                        AnswerKey::Text(text)
                    }
                };
                // Evidence: one vote per supporting row, weighted by the
                // annotator's confidence in the answer cell (§5: "aggregate
                // evidence in favor of known entities").
                let conf = ann.cell_confidence.get(&key).copied().unwrap_or(0.0);
                *evidence.entry(answer).or_insert(0.0) += 1.0 + conf.min(2.0);
            }
        }
        rank(evidence)
    }

    /// Stable 32-bit FNV-1a hash for token-set overlap computations.
    fn hash_token(s: &str) -> u32 {
        let mut h: u32 = 0x811c9dc5;
        for b in s.bytes() {
            h ^= b as u32;
            h = h.wrapping_mul(0x01000193);
        }
        h
    }

    /// One join answer: the pair and the multiplied evidence.
    #[derive(Debug, Clone, PartialEq)]
    pub struct JoinAnswer {
        /// The outer answer `e1` (entity or text, as in single-hop search).
        pub e1: AnswerKey,
        /// The join entity `e2` (must be resolved — text can't join).
        pub e2: EntityId,
        /// Combined evidence: `score(e2 | R2, E3) · score(e1 | R1, e2)`.
        pub score: f64,
    }

    /// Executes a join query over the annotated corpus using the Type+Rel
    /// processor for both hops. `mid_k` bounds the number of join-variable
    /// candidates explored (best-first). [`SearchEngine::search`] projects the
    /// result onto `e1`.
    ///
    /// [`SearchEngine::search`]: webtable_search::SearchEngine::search
    pub fn join_search_impl(
        catalog: &Catalog,
        index: &SearchIndex,
        corpus: &AnnotatedCorpus,
        q: &JoinQuery,
        mid_k: usize,
    ) -> Vec<JoinAnswer> {
        let rel1 = catalog.relation(q.r1);
        let rel2 = catalog.relation(q.r2);
        // Stage 1: e2 candidates with R2(e2, E3).
        let stage1 =
            EntityQuery { relation: q.r2, t1: rel2.left_type, t2: rel2.right_type, e2: q.e3 };
        let mids: Vec<(EntityId, f64)> = typed_search_impl(index, corpus, &stage1, true)
            .into_iter()
            .filter_map(|a| match a.key {
                // Only resolved entities can act as join keys — exactly the
                // paper's point about precise joins.
                AnswerKey::Entity(e) => Some((e, a.score)),
                _ => None,
            })
            .take(mid_k)
            .collect();

        // Stage 2: for each e2, find e1 with R1(e1, e2).
        let mut out: Vec<JoinAnswer> = Vec::new();
        for (e2, mid_score) in mids {
            let stage2 =
                EntityQuery { relation: q.r1, t1: rel1.left_type, t2: rel1.right_type, e2 };
            for RankedAnswer { key, score } in typed_search_impl(index, corpus, &stage2, true) {
                out.push(JoinAnswer { e1: key, e2, score: mid_score * score });
            }
        }
        out.sort_unstable_by(|a, b| {
            b.score.total_cmp(&a.score).then(a.e1.cmp(&b.e1)).then(a.e2.cmp(&b.e2))
        });
        out
    }

    /// The table-level inverted index. Immutable after construction; rebuilt
    /// with its owning [`webtable_search::SearchEngine`] on every generation load, so
    /// it participates in snapshot swaps and `grow` deltas for free.
    #[derive(Debug)]
    pub struct TableIndex {
        vocab: Vocab,
        /// token id → row bounds into `tables`/`weights` (CSR offsets).
        offsets: Vec<u32>,
        /// Flat posting array: corpus table positions, ascending per row.
        tables: Vec<u32>,
        /// Parallel normalized `tf·idf` weights.
        weights: Vec<f64>,
        /// token id → max weight of its row (the WAND-style admission bound).
        ub: Vec<f64>,
        /// corpus position → external [`webtable_tables::TableId`] value.
        keys: Vec<u64>,
    }

    impl TableIndex {
        /// Builds the index over an annotated corpus. The catalog resolves
        /// annotation ids to their label strings; annotations whose ids fall
        /// outside the catalog (foreign annotations) contribute no label
        /// tokens but never fail the build.
        pub fn build(corpus: &AnnotatedCorpus, catalog: &Catalog) -> TableIndex {
            let mut vocab = Vocab::new();
            let n_tables = corpus.tables.len();
            // Per-table term frequencies, then (token, tf) rows sorted by
            // token id — the deterministic document order everything below
            // derives from.
            let mut docs: Vec<Vec<(u32, u32)>> = Vec::with_capacity(n_tables);
            let mut keys = Vec::with_capacity(n_tables);
            for (ti, table) in corpus.tables.iter().enumerate() {
                let mut tf: HashMap<u32, u32> = HashMap::new();
                let mut add = |vocab: &mut Vocab, text: &str| {
                    for tok in tokenize(text) {
                        *tf.entry(vocab.intern(&tok)).or_insert(0) += 1;
                    }
                };
                add(&mut vocab, &table.context);
                for header in table.headers.iter().flatten() {
                    add(&mut vocab, header);
                }
                for row in &table.rows {
                    for cell in row {
                        add(&mut vocab, cell);
                    }
                }
                let ann = &corpus.annotations[ti];
                for ty in in_key_order(&ann.column_types) {
                    if ty.index() < catalog.num_types() {
                        add(&mut vocab, catalog.type_name(ty));
                    }
                }
                for rel in in_key_order(&ann.relations) {
                    if rel.index() < catalog.num_relations() {
                        add(&mut vocab, catalog.relation_name(rel));
                    }
                }
                for e in in_key_order(&ann.cell_entities) {
                    if e.index() < catalog.num_entities() {
                        add(&mut vocab, catalog.entity_name(e));
                    }
                }
                let mut row: Vec<(u32, u32)> = tf.into_iter().collect();
                row.sort_unstable();
                docs.push(row);
                keys.push(table.id.0);
            }

            // Document frequencies → smoothed IDF (the `crates/text` formula).
            let mut df = vec![0u32; vocab.len()];
            for doc in &docs {
                for &(tok, _) in doc {
                    df[tok as usize] += 1;
                }
            }
            let idf: Vec<f64> =
                df.iter().map(|&d| (1.0 + n_tables as f64 / (1.0 + d as f64)).ln()).collect();

            // L2 norm per table over its tf·idf weights.
            let norms: Vec<f64> = docs
                .iter()
                .map(|doc| {
                    let sq: f64 = doc
                        .iter()
                        .map(|&(tok, tf)| {
                            let w = (1.0 + (tf as f64).ln()) * idf[tok as usize];
                            w * w
                        })
                        .sum();
                    sq.sqrt().max(f64::MIN_POSITIVE)
                })
                .collect();

            // Two-pass CSR fill: tables ascend within each token row because
            // the fill walks documents in corpus order.
            let mut counts = vec![0u32; vocab.len()];
            for doc in &docs {
                for &(tok, _) in doc {
                    counts[tok as usize] += 1;
                }
            }
            let mut offsets = Vec::with_capacity(vocab.len() + 1);
            offsets.push(0u32);
            let mut total = 0u32;
            for &c in &counts {
                total += c;
                offsets.push(total);
            }
            let mut cursor: Vec<u32> = offsets[..vocab.len()].to_vec();
            let mut tables = vec![0u32; total as usize];
            let mut weights = vec![0.0f64; total as usize];
            for (ti, doc) in docs.iter().enumerate() {
                for &(tok, tf) in doc {
                    let slot = &mut cursor[tok as usize];
                    let w = (1.0 + (tf as f64).ln()) * idf[tok as usize] / norms[ti];
                    tables[*slot as usize] = ti as u32;
                    weights[*slot as usize] = w;
                    *slot += 1;
                }
            }
            let ub: Vec<f64> = (0..vocab.len())
                .map(|tok| {
                    let (s, e) = (offsets[tok] as usize, offsets[tok + 1] as usize);
                    weights[s..e].iter().fold(0.0f64, |m, &w| m.max(w))
                })
                .collect();

            TableIndex { vocab, offsets, tables, weights, ub, keys }
        }

        /// Ranks tables for a keyword query: top-`k` [`AnswerKey::Table`]
        /// answers, score descending, external table id ascending on ties.
        ///
        /// Query tokens are deduplicated; tokens outside the vocabulary are
        /// dropped (they match no table). Terms are processed in descending
        /// upper-bound order, and once the accumulated candidate set already
        /// holds `k` tables whose partial scores all exceed the remaining
        /// upper-bound mass, tables not yet seen are no longer admitted —
        /// they provably cannot reach the top-k (partial scores only grow).
        pub fn search(&self, keywords: &str, k: usize) -> Vec<RankedAnswer> {
            if k == 0 {
                return Vec::new();
            }
            let mut toks: Vec<u32> =
                tokenize(keywords).iter().filter_map(|t| self.vocab.get(t)).collect();
            toks.sort_unstable();
            toks.dedup();
            // (upper bound, token): descending bound, ascending token on ties.
            let mut terms: Vec<(f64, u32)> =
                toks.into_iter().map(|t| (self.ub[t as usize], t)).collect();
            terms.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));

            let mut remaining: f64 = terms.iter().map(|t| t.0).sum();
            let mut scores: HashMap<u32, f64> = HashMap::new();
            let mut admit_new = true;
            for &(bound, tok) in &terms {
                if admit_new && scores.len() >= k {
                    // k-th largest partial score; a fresh table can gain at
                    // most `remaining` (this term included).
                    let mut partial: Vec<f64> = scores.values().copied().collect();
                    let idx = partial.len() - k;
                    partial.select_nth_unstable_by(idx, f64::total_cmp);
                    if partial[idx] > remaining {
                        admit_new = false;
                    }
                }
                remaining -= bound;
                let (s, e) =
                    (self.offsets[tok as usize] as usize, self.offsets[tok as usize + 1] as usize);
                for i in s..e {
                    let ti = self.tables[i];
                    if let Some(acc) = scores.get_mut(&ti) {
                        *acc += self.weights[i];
                    } else if admit_new {
                        scores.insert(ti, self.weights[i]);
                    }
                }
            }
            rank_bounded(
                scores.into_iter().map(|(ti, s)| (AnswerKey::Table(self.keys[ti as usize]), s)),
                k,
            )
        }
    }

    /// The non-`na` decisions of an annotation map, in key order: label
    /// interning order decides token ids and with them the order each table's
    /// norm is summed in, so hash order must not reach it.
    fn in_key_order<K: Ord + Copy, V: Copy>(map: &HashMap<K, Option<V>>) -> Vec<V> {
        let mut decisions: Vec<(K, V)> = map.iter().filter_map(|(&k, &v)| Some((k, v?))).collect();
        decisions.sort_unstable_by_key(|&(k, _)| k);
        decisions.into_iter().map(|(_, v)| v).collect()
    }

    /// Multiplier applied to a row-population candidate's co-occurrence score
    /// when the candidate is an instance of the seed columns' dominant type.
    const TYPE_COMPAT_BOOST: f64 = 1.5;

    /// Row population: rank candidate entities to extend a key column seeded
    /// with `seeds`. Candidates are entities co-occurring with seeds in corpus
    /// columns, scored by the fraction of seeds each supporting column holds,
    /// then boosted by [`TYPE_COMPAT_BOOST`] when the candidate is an instance
    /// of the dominant column-type annotation across the seed columns.
    ///
    /// Returns the top `k` as [`AnswerKey::Entity`] answers (score desc,
    /// entity id asc). Seeds never appear among the answers.
    pub fn populate_rows(
        catalog: &Catalog,
        index: &SearchIndex,
        corpus: &AnnotatedCorpus,
        seeds: &[EntityId],
        k: usize,
    ) -> Vec<RankedAnswer> {
        if k == 0 || seeds.is_empty() {
            return Vec::new();
        }
        let seed_set: HashSet<EntityId> = seeds.iter().copied().collect();

        // Columns holding at least one seed, with the number of *distinct*
        // seeds each holds (the column's support).
        let mut seed_cols: HashMap<(u32, u16), HashSet<EntityId>> = HashMap::new();
        for &seed in &seed_set {
            for &(t, _r, c) in index.cells_of_entity(seed) {
                seed_cols.entry((t, c)).or_default().insert(seed);
            }
        }
        if seed_cols.is_empty() {
            return Vec::new();
        }

        // Dominant annotated type over the seed columns (most supporting
        // columns; smaller TypeId on ties, for determinism).
        let mut type_votes: HashMap<TypeId, u32> = HashMap::new();
        for (t, c) in seed_cols.keys() {
            let ann = &corpus.annotations[*t as usize];
            if let Some(Some(ty)) = ann.column_types.get(&(*c as usize)) {
                *type_votes.entry(*ty).or_insert(0) += 1;
            }
        }
        let dominant: Option<TypeId> = type_votes
            .into_iter()
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
            .map(|(ty, _)| ty);

        // Vote: every non-seed entity in a seed column earns that column's
        // support fraction.
        let n_seeds = seed_set.len() as f64;
        let mut evidence: HashMap<EntityId, f64> = HashMap::new();
        for ((t, c), hits) in &seed_cols {
            let support = hits.len() as f64 / n_seeds;
            let table = &corpus.tables[*t as usize];
            let ann = &corpus.annotations[*t as usize];
            for r in 0..table.num_rows() {
                let Some(Some(e)) = ann.cell_entities.get(&(r, *c as usize)) else { continue };
                if !seed_set.contains(e) {
                    *evidence.entry(*e).or_insert(0.0) += support;
                }
            }
        }

        rank_bounded(
            evidence.into_iter().map(|(e, mut score)| {
                if let Some(ty) = dominant {
                    if ty.index() < catalog.num_types()
                        && e.index() < catalog.num_entities()
                        && catalog.is_instance(e, ty)
                    {
                        score *= TYPE_COMPAT_BOOST;
                    }
                }
                (AnswerKey::Entity(e), score)
            }),
            k,
        )
    }

    /// Column population: rank candidate new columns for a table whose key
    /// column holds `seeds`. Tables containing seeds vote for their *other*
    /// columns; each suggestion is keyed by normalized header label (falling
    /// back to the annotated type's name when the column is headerless) plus
    /// the column-type annotation.
    ///
    /// Returns the top `k` as [`AnswerKey::Column`] answers.
    pub fn populate_columns(
        catalog: &Catalog,
        index: &SearchIndex,
        corpus: &AnnotatedCorpus,
        seeds: &[EntityId],
        k: usize,
    ) -> Vec<RankedAnswer> {
        if k == 0 || seeds.is_empty() {
            return Vec::new();
        }
        let seed_set: HashSet<EntityId> = seeds.iter().copied().collect();

        // Distinct seeds per (table, column).
        let mut seed_cols: HashMap<(u32, u16), HashSet<EntityId>> = HashMap::new();
        for &seed in &seed_set {
            for &(t, _r, c) in index.cells_of_entity(seed) {
                seed_cols.entry((t, c)).or_default().insert(seed);
            }
        }

        let n_seeds = seed_set.len() as f64;
        let mut evidence: HashMap<AnswerKey, f64> = HashMap::new();
        for ((t, c), hits) in &seed_cols {
            let support = hits.len() as f64 / n_seeds;
            let table = &corpus.tables[*t as usize];
            let ann = &corpus.annotations[*t as usize];
            for c2 in 0..table.num_cols() {
                if c2 == *c as usize {
                    continue;
                }
                let ty = ann.column_types.get(&c2).copied().flatten().filter(|ty| {
                    // Foreign annotations (ids outside this catalog) are kept
                    // out of suggestions — their names can't be resolved.
                    ty.index() < catalog.num_types()
                });
                let label = match table.header(c2) {
                    Some(h) => normalize(h),
                    None => match ty {
                        Some(ty) => normalize(catalog.type_name(ty)),
                        None => continue, // headerless and untyped: nothing to suggest
                    },
                };
                if label.is_empty() {
                    continue;
                }
                *evidence.entry(AnswerKey::Column { label, ty }).or_insert(0.0) += support;
            }
        }
        rank_bounded(evidence, k)
    }

    /// Entity-relationship query: "what is related to `entity` via
    /// `relation`?" answered over relation-annotated column pairs, in both
    /// orientations. Evidence mirrors the typed processor: one vote per
    /// supporting row, weighted by the answer cell's annotation confidence.
    ///
    /// Returns the top `k` answers — [`AnswerKey::Entity`] when the answer
    /// cell carries an entity annotation, [`AnswerKey::Text`] otherwise.
    pub fn related_search(
        index: &SearchIndex,
        corpus: &AnnotatedCorpus,
        entity: EntityId,
        relation: RelationId,
        k: usize,
    ) -> Vec<RankedAnswer> {
        if k == 0 {
            return Vec::new();
        }
        // Rows where some cell is annotated with the query entity, per
        // (table, column).
        let e_cells: HashMap<(u32, u16), Vec<u32>> = {
            let mut m: HashMap<(u32, u16), Vec<u32>> = HashMap::new();
            for &(t, r, c) in index.cells_of_entity(entity) {
                m.entry((t, c)).or_default().push(r);
            }
            m
        };

        let mut evidence: HashMap<AnswerKey, f64> = HashMap::new();
        let mut collect = |given: (u32, u16), answer_col: u16| {
            let Some(rows) = e_cells.get(&given) else { return };
            let t = given.0;
            let table = &corpus.tables[t as usize];
            let ann = &corpus.annotations[t as usize];
            for &r in rows {
                let key = (r as usize, answer_col as usize);
                let answer = match ann.cell_entities.get(&key).copied().flatten() {
                    Some(e) => AnswerKey::Entity(e),
                    None => {
                        let text =
                            table.cell(r as usize, answer_col as usize).trim().to_lowercase();
                        if text.is_empty() {
                            continue;
                        }
                        AnswerKey::Text(text)
                    }
                };
                let conf = ann.cell_confidence.get(&key).copied().unwrap_or(0.0);
                *evidence.entry(answer).or_insert(0.0) += 1.0 + conf.min(2.0);
            }
        };
        for &(t, c_left, c_right) in index.pairs_of_relation(relation) {
            // entity on the left → answers from the right column, and vice
            // versa ("related to" is asked in either direction).
            collect((t, c_left), c_right);
            collect((t, c_right), c_left);
        }
        rank_bounded(evidence, k)
    }
}

/// The world, its generated corpus, and an engine over the annotated
/// corpus — the benchmark's `search` shape at a few hundred tables.
struct Fixture {
    world: World,
    corpus: Vec<LabeledTable>,
    engine: SearchEngine,
    tables: reference::TableIndex,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let world = generate_world(&WorldConfig::tiny(42)).unwrap();
        let skew = ReusePolicy::web().relation_skew;
        let corpus: Vec<LabeledTable> =
            TableGenerator::new(&world, NoiseConfig::web(), TruthMask::full(), 4)
                .with_reuse(ReusePolicy::web())
                .gen_corpus_iter(300, 8, skew)
                .collect();
        let annotator = Annotator::new(Arc::clone(&world.catalog));
        let tables = corpus.iter().map(|lt| lt.table.clone()).collect();
        let engine = SearchEngine::from_tables(&annotator, tables, 2);
        let tables = reference::TableIndex::build(engine.corpus(), engine.catalog());
        Fixture { world, corpus, engine, tables }
    })
}

/// SplitMix64: a fixed, seedable stream for the query draw.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A zipf draw (exponent 1) over a shuffled list, so a few items are
/// popular and their queries repeat.
struct Popular<T> {
    items: Vec<T>,
    cdf: Vec<f64>,
}

impl<T: Copy> Popular<T> {
    fn new(mut items: Vec<T>, rng: &mut Rng) -> Popular<T> {
        for i in (1..items.len()).rev() {
            items.swap(i, rng.below(i + 1));
        }
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..items.len())
            .map(|r| {
                acc += 1.0 / (r + 1) as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Popular { items, cdf }
    }

    fn sample(&self, rng: &mut Rng) -> T {
        let u = (rng.next() >> 11) as f64 / (1u64 << 53) as f64;
        self.items[self.cdf.partition_point(|&c| c < u).min(self.items.len() - 1)]
    }
}

/// One relation's popular right entities and tuples.
struct RelationPool {
    id: RelationId,
    rights: Popular<EntityId>,
    tuples: Popular<(EntityId, EntityId)>,
}

/// The first `n` distinct true entities of the first column holding `n`.
fn seed_set(lt: &LabeledTable, n: usize) -> Option<Vec<EntityId>> {
    (0..lt.table.num_cols()).find_map(|c| {
        let mut ents: Vec<EntityId> = (0..lt.table.num_rows())
            .filter_map(|r| lt.truth.cell_entities.get(&(r, c)).copied().flatten())
            .collect();
        ents.sort_unstable();
        ents.dedup();
        (ents.len() >= n).then(|| ents[..n].to_vec())
    })
}

/// The benchmark's query draw, widened as the module docs say.
struct Draw<'a> {
    fx: &'a Fixture,
    relations: Vec<RelationPool>,
    joins: Vec<(usize, usize)>,
    tables: Popular<usize>,
    /// Popular seed sets of 1–4 seeds, by size − 1.
    seeds: Vec<(Vec<Vec<EntityId>>, Popular<usize>)>,
    /// Catalog entities no corpus cell is annotated with.
    unseen: Vec<EntityId>,
}

impl<'a> Draw<'a> {
    fn new(fx: &'a Fixture, rng: &mut Rng) -> Draw<'a> {
        let oracle = &fx.world.oracle;
        let mut relations = Vec::new();
        for b in oracle.relation_ids() {
            let rel = oracle.relation(b);
            if rel.tuples.is_empty() {
                continue;
            }
            let mut rights: Vec<EntityId> = rel.by_right.keys().copied().collect();
            rights.sort_unstable();
            let rights = Popular::new(rights, rng);
            let tuples = Popular::new(rel.tuples.clone(), rng);
            relations.push(RelationPool { id: b, rights, tuples });
        }
        let mut joins = Vec::new();
        for (i, p1) in relations.iter().enumerate() {
            for (j, p2) in relations.iter().enumerate() {
                let (a, b) = (oracle.relation(p1.id), oracle.relation(p2.id));
                if oracle.is_subtype(a.right_type, b.left_type) {
                    joins.push((i, j));
                }
            }
        }
        let tables = Popular::new((0..fx.corpus.len()).collect(), rng);
        let seeds = (1..=4)
            .map(|n| {
                let sets: Vec<Vec<EntityId>> =
                    fx.corpus.iter().filter_map(|lt| seed_set(lt, n)).collect();
                let popular = Popular::new((0..sets.len()).collect(), rng);
                (sets, popular)
            })
            .collect();
        let index = fx.engine.index();
        let unseen = (0..fx.world.catalog.num_entities() as u32)
            .map(EntityId)
            .filter(|&e| index.cells_of_entity(e).is_empty())
            .collect();
        Draw { fx, relations, joins, tables, seeds, unseen }
    }

    /// A popular entity, or one in 8 times an entity with no cell.
    fn entity(&self, popular: EntityId, rng: &mut Rng) -> EntityId {
        if rng.below(8) == 0 {
            self.unseen[rng.below(self.unseen.len())]
        } else {
            popular
        }
    }

    fn entity_query(&self, rng: &mut Rng) -> EntityQuery {
        let pool = &self.relations[rng.below(self.relations.len())];
        let rel = self.fx.world.oracle.relation(pool.id);
        let e2 = self.entity(pool.rights.sample(rng), rng);
        EntityQuery { relation: pool.id, t1: rel.left_type, t2: rel.right_type, e2 }
    }

    fn seeds(&self, n: usize, rng: &mut Rng) -> Vec<EntityId> {
        let (sets, popular) = &self.seeds[n - 1];
        sets[popular.sample(rng)].clone()
    }

    /// Draws one query and its variants.
    fn sample(&self, rng: &mut Rng) -> Vec<Query> {
        match rng.below(7) {
            0 => vec![Query::Baseline(self.entity_query(rng))],
            1 => {
                let query = self.entity_query(rng);
                // `t1 == t2`: the given entity is of the answer type, so
                // its own column is both; only other columns may answer.
                let pool = &self.relations[rng.below(self.relations.len())];
                let rel = self.fx.world.oracle.relation(pool.id);
                let e1 = self.entity(pool.tuples.sample(rng).0, rng);
                let same =
                    EntityQuery { relation: pool.id, t1: rel.left_type, t2: rel.left_type, e2: e1 };
                [query, same]
                    .into_iter()
                    .flat_map(|query| {
                        [false, true].map(|use_relations| Query::Typed { query, use_relations })
                    })
                    .collect()
            }
            2 => {
                let (i, j) = self.joins[rng.below(self.joins.len())];
                let (r1, r2) = (self.relations[i].id, self.relations[j].id);
                let e3 = self.entity(self.relations[j].rights.sample(rng), rng);
                vec![Query::Join { query: JoinQuery { r1, r2, e3 }, mid_k: 10 }]
            }
            3 => {
                let t = &self.fx.corpus[self.tables.sample(rng)].table;
                let mut keywords = t.context.clone();
                for cell in &t.rows[rng.below(t.num_rows())] {
                    keywords.push(' ');
                    keywords.push_str(cell);
                }
                vec![
                    Query::Tables { keywords: keywords.clone(), k: 10 },
                    Query::Tables { keywords, k: 3 },
                ]
            }
            4 | 5 => {
                let n = [1, 2, 2, 4][rng.below(4)];
                let mut seeds = self.seeds(n, rng);
                if rng.below(8) == 0 {
                    seeds[0] = self.unseen[rng.below(self.unseen.len())];
                }
                let k = [10, 1000][rng.below(2)];
                if rng.below(2) == 0 {
                    vec![Query::PopulateRows { seeds, k }]
                } else {
                    vec![Query::PopulateColumns { seeds, k }]
                }
            }
            _ => {
                let pool = &self.relations[rng.below(self.relations.len())];
                let (e1, e2) = pool.tuples.sample(rng);
                let entity = self.entity(if rng.below(2) == 0 { e1 } else { e2 }, rng);
                vec![Query::Related { entity, relation: pool.id, k: 10 }]
            }
        }
    }
}

/// Answers as keys with score bits.
fn bits(answers: Vec<webtable_search::RankedAnswer>) -> Vec<(AnswerKey, u64)> {
    answers.into_iter().map(|a| (a.key, a.score.to_bits())).collect()
}

/// Every kind, thousands of queries: the entity-first processors answer
/// what the reference answers, down to the score bits.
#[test]
fn processors_match_the_reference_bit_for_bit() {
    let fx = fixture();
    let mut rng = Rng(4);
    let draw = Draw::new(fx, &mut rng);
    let (engine, tables) = (&fx.engine, &fx.tables);
    let mut answered: std::collections::BTreeMap<&str, (usize, usize)> = Default::default();
    for _ in 0..3000 {
        for q in draw.sample(&mut rng) {
            let want = bits(reference::search(
                engine.catalog(),
                engine.index(),
                engine.corpus(),
                tables,
                &q,
            ));
            let got = bits(engine.search(&q));
            assert!(got == want, "{q:?}: got {got:?}, want {want:?}");
            let seen = answered.entry(q.kind()).or_default();
            seen.0 += 1;
            seen.1 += usize::from(!want.is_empty());
        }
    }
    // The gate means something only if every kind has answers to compare.
    for (kind, (queries, with_answers)) in answered {
        assert!(with_answers * 5 > queries, "{kind}: {with_answers} of {queries} answered");
    }
}

/// Three seeds give supports of 1/3 and 2/3, whose sums depend on their
/// order: the answers must still be the same bits on every call and on a
/// second engine over the same corpus, whose annotation maps hash in
/// another order.
#[test]
fn three_seed_population_is_reproducible() {
    let fx = fixture();
    let corpus = fx.engine.corpus();
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
    let other = SearchEngine::build(
        Arc::clone(fx.engine.catalog()),
        AnnotatedCorpus::from_parts(corpus.tables.clone(), annotations),
    );
    let mut rng = Rng(7);
    let draw = Draw::new(fx, &mut rng);
    let mut with_answers = 0;
    for _ in 0..150 {
        let seeds = draw.seeds(3, &mut rng);
        for q in [
            Query::PopulateRows { seeds: seeds.clone(), k: 1000 },
            Query::PopulateColumns { seeds, k: 1000 },
        ] {
            let first = bits(fx.engine.search(&q));
            with_answers += usize::from(!first.is_empty());
            for call in 0..5 {
                assert!(bits(fx.engine.search(&q)) == first, "{q:?}: call {call} differs");
            }
            assert!(bits(other.search(&q)) == first, "{q:?}: second engine differs");
        }
    }
    assert!(with_answers > 200, "only {with_answers} of 300 answered");
}
