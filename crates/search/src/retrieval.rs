//! Keyword table retrieval: rank whole annotated tables for a keyword
//! query (the table-retrieval task of the Zhang & Balog survey, built on
//! the annotations of §4).
//!
//! [`TableIndex`] is a table-level inverted index beside the cell-level
//! [`crate::SearchIndex`]: one document per corpus table, whose token
//! stream is the table's context, headers, cell text, **and annotation
//! labels** (type names of column annotations, relation names of pair
//! annotations, canonical entity names of cell annotations — the signal
//! the annotator added to the raw strings). Postings are stored in the
//! same CSR shape as `crates/text` (one offset table, flat value/weight
//! arrays) with a per-token upper bound beside each row, so the query
//! loop can stop admitting new candidate tables WAND-style once the
//! remaining upper-bound mass cannot lift an unseen table into the
//! top-k.
//!
//! Scoring is IDF-weighted cosine with a binary query vector: a stored
//! posting weight is `(1 + ln tf) · idf(token) / ‖table‖`, and a table's
//! score for a query is the sum of its weights over the distinct query
//! tokens. Ranking is deterministic: score descending, external table id
//! ascending on ties.
//!
//! A query keeps its partial scores in a list reached through one dense
//! slot per corpus table. The admission check reads that list, and each
//! table's weights are added in term order, so a score's bits depend on
//! the query alone.

use std::collections::HashMap;

use webtable_catalog::Catalog;
use webtable_text::{tokenize, Vocab};

use crate::corpus::AnnotatedCorpus;
use crate::query::{rank_bounded, AnswerKey, RankedAnswer};

/// The table-level inverted index. Immutable after construction; rebuilt
/// with its owning [`crate::SearchEngine`] on every generation load, so
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

    /// Number of indexed tables.
    pub fn num_tables(&self) -> usize {
        self.keys.len()
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
        // Partial scores, dense by corpus position: `slot[ti]` is one past
        // table `ti`'s index in `scores`, 0 while it has none.
        let mut slot = vec![0u32; self.keys.len()];
        let mut scores: Vec<(u32, f64)> = Vec::new();
        let mut admit_new = true;
        for &(bound, tok) in &terms {
            if admit_new && scores.len() >= k {
                // k-th largest partial score; a fresh table can gain at
                // most `remaining` (this term included).
                let mut partial: Vec<f64> = scores.iter().map(|s| s.1).collect();
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
                match slot[ti as usize] {
                    0 if admit_new => {
                        scores.push((ti, self.weights[i]));
                        slot[ti as usize] = scores.len() as u32;
                    }
                    0 => {}
                    n => scores[n as usize - 1].1 += self.weights[i],
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

#[cfg(test)]
mod tests {
    use webtable_catalog::CatalogBuilder;
    use webtable_core::TableAnnotation;
    use webtable_tables::{Table, TableId};

    use super::*;

    fn corpus() -> (AnnotatedCorpus, Catalog) {
        let mut b = CatalogBuilder::new();
        let movie = b.add_type("movie", &[]).unwrap();
        let director = b.add_type("director", &[]).unwrap();
        let heat = b.add_entity("Heat", &[], &[movie]).unwrap();
        let mann = b.add_entity("Michael Mann", &[], &[director]).unwrap();
        let cat = b.finish().unwrap();

        let t0 = Table::new(
            TableId(10),
            "films and their directors",
            vec![Some("Film".into()), Some("Director".into())],
            vec![vec!["Heat".into(), "Mann".into()]],
        );
        let mut a0 = TableAnnotation::default();
        a0.column_types.insert(0, Some(movie));
        a0.column_types.insert(1, Some(director));
        a0.cell_entities.insert((0, 0), Some(heat));
        a0.cell_entities.insert((0, 1), Some(mann));
        let t1 = Table::new(
            TableId(11),
            "european capital cities",
            vec![Some("Country".into()), Some("Capital".into())],
            vec![vec!["France".into(), "Paris".into()]],
        );
        let a1 = TableAnnotation::default();
        (AnnotatedCorpus::from_parts(vec![t0, t1], vec![a0, a1]), cat)
    }

    #[test]
    fn keyword_query_ranks_the_matching_table_first() {
        let (corpus, cat) = corpus();
        let idx = TableIndex::build(&corpus, &cat);
        assert_eq!(idx.num_tables(), 2);
        let res = idx.search("director film", 5);
        assert!(!res.is_empty());
        assert_eq!(res[0].key, AnswerKey::Table(10));
        // The capitals table never mentions those tokens.
        assert!(res.iter().all(|a| a.key != AnswerKey::Table(11)));
    }

    #[test]
    fn annotation_labels_are_searchable() {
        let (corpus, cat) = corpus();
        let idx = TableIndex::build(&corpus, &cat);
        // "michael" only appears via the entity annotation's canonical
        // name (the cell says just "Mann").
        let res = idx.search("michael", 5);
        assert_eq!(res.len(), 1);
        assert_eq!(res[0].key, AnswerKey::Table(10));
    }

    #[test]
    fn search_is_deterministic_and_bounded() {
        let (corpus, cat) = corpus();
        let idx = TableIndex::build(&corpus, &cat);
        let a = idx.search("paris film capital director", 1);
        let b = idx.search("paris film capital director", 1);
        assert_eq!(a, b);
        assert_eq!(a.len(), 1);
        assert!(idx.search("film", 0).is_empty());
        assert!(idx.search("zzz-unknown-token", 5).is_empty());
    }
}
