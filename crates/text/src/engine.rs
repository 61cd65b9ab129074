//! A frozen similarity engine: vocabulary + IDF + multi-measure profiles.
//!
//! The annotator's `f1`/`f2` features are *vectors* of similarity measures
//! between a mention string and a lemma (§4.2.1–§4.2.2). [`SimEngine`]
//! packages the frozen [`Vocab`]/[`IdfTable`] pair built from the catalog's
//! lemma collection and computes [`StringSim`] profiles between prepared
//! [`TextDoc`]s.

use crate::mmap::SharedStr;
use crate::sim;
use crate::tfidf::{cosine, soft_tfidf_with_oov, IdfTable, WeightedVec};
use crate::tokenize::{to_sorted_set, Vocab};

/// Jaro-Winkler threshold used by the soft-TFIDF matcher.
pub const SOFT_TFIDF_THRESHOLD: f64 = 0.9;

/// A prepared text: normalized string, token set, TFIDF vector.
#[derive(Debug, Clone)]
pub struct TextDoc {
    /// Lowercased, whitespace-trimmed original. A [`SharedStr`], so
    /// snapshot-loaded lemmas serve their text straight from the mapped
    /// file while build-path documents own theirs.
    pub norm: SharedStr,
    /// Sorted, deduplicated token ids.
    pub token_set: Vec<u32>,
    /// L2-normalized TFIDF vector.
    pub vec: WeightedVec,
    /// Strings of out-of-vocabulary tokens (id → text), so soft matching
    /// can still see typo'd tokens that were never in the lemma collection.
    pub oov_terms: Vec<(u32, String)>,
}

/// A profile of similarity measures between two texts. Each field lies in
/// `[0, 1]`; these are the elements of the `f1`/`f2` feature vectors.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StringSim {
    /// Standard TFIDF cosine (the paper's primary measure).
    pub tfidf_cosine: f64,
    /// Jaccard over token sets.
    pub jaccard: f64,
    /// Dice over token sets.
    pub dice: f64,
    /// Character-level Jaro-Winkler on the whole strings.
    pub jaro_winkler: f64,
    /// Soft-TFIDF (Jaro-Winkler-relaxed token matching).
    pub soft_tfidf: f64,
    /// Normalized Levenshtein similarity on the whole strings.
    pub edit_sim: f64,
}

impl StringSim {
    /// Number of measures in the profile.
    pub const DIM: usize = 6;

    /// The profile as a fixed-size array (feature-vector form).
    pub fn as_array(&self) -> [f64; Self::DIM] {
        [
            self.tfidf_cosine,
            self.jaccard,
            self.dice,
            self.jaro_winkler,
            self.soft_tfidf,
            self.edit_sim,
        ]
    }

    /// Element-wise maximum (the paper takes `max` over a label's lemmas).
    pub fn max_with(&mut self, other: &StringSim) {
        self.tfidf_cosine = self.tfidf_cosine.max(other.tfidf_cosine);
        self.jaccard = self.jaccard.max(other.jaccard);
        self.dice = self.dice.max(other.dice);
        self.jaro_winkler = self.jaro_winkler.max(other.jaro_winkler);
        self.soft_tfidf = self.soft_tfidf.max(other.soft_tfidf);
        self.edit_sim = self.edit_sim.max(other.edit_sim);
    }
}

/// Builder that accumulates the lemma collection, then freezes.
#[derive(Debug, Default)]
pub struct SimEngineBuilder {
    vocab: Vocab,
    docs: Vec<Vec<u32>>,
}

impl SimEngineBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        SimEngineBuilder::default()
    }

    /// Adds one lemma/document to the collection; returns its raw tokens.
    pub fn add_document(&mut self, text: &str) -> Vec<u32> {
        let toks = self.vocab.tokenize_intern(text);
        self.docs.push(to_sorted_set(toks.clone()));
        toks
    }

    /// Adds one pre-tokenized document. `words` must be exactly
    /// `tokenize(text)` for the corresponding text; interning then produces
    /// the same vocabulary and document frequencies as
    /// [`add_document`](SimEngineBuilder::add_document). This lets callers
    /// tokenize in parallel while keeping the order-dependent interning
    /// pass serial (parallel `LemmaIndex` construction relies on it).
    pub fn add_tokens(&mut self, words: &[String]) {
        let toks: Vec<u32> = words.iter().map(|w| self.vocab.intern(w)).collect();
        self.docs.push(to_sorted_set(toks));
    }

    /// Freezes the vocabulary and document frequencies.
    pub fn freeze(self) -> SimEngine {
        let mut idf = IdfTable::new(self.vocab.len());
        for set in &self.docs {
            idf.add_document(set);
        }
        SimEngine { vocab: self.vocab, idf }
    }
}

/// Frozen similarity engine. Cheap to share (`Send + Sync`, no mutation).
#[derive(Debug, Clone)]
pub struct SimEngine {
    vocab: Vocab,
    idf: IdfTable,
}

impl SimEngine {
    /// Rebuilds an engine from a persisted vocabulary and IDF table (the
    /// snapshot-load path; see `crate::snapshot`). The result is
    /// indistinguishable from the [`SimEngineBuilder`] that originally
    /// produced those parts.
    pub(crate) fn from_parts(vocab: Vocab, idf: IdfTable) -> SimEngine {
        SimEngine { vocab, idf }
    }

    /// The frozen vocabulary.
    pub fn vocab(&self) -> &Vocab {
        &self.vocab
    }

    /// The document-frequency table.
    pub fn idf(&self) -> &IdfTable {
        &self.idf
    }

    /// Prepares a text for repeated similarity computation. Every field of
    /// the result is a function of [`crate::tokenize::normalize`]`(text)`.
    /// This is the query hot path: the token sequence is consumed in place
    /// (no clone — see
    /// [`doc_with_token_ids_from_norm`](SimEngine::doc_with_token_ids_from_norm)
    /// for the build-time variant that keeps it).
    pub fn doc(&self, text: &str) -> TextDoc {
        let norm = crate::tokenize::normalize(text);
        let (tokens, oov_terms) = self.prepare_norm(&norm);
        let vec = WeightedVec::from_tokens(&tokens, &self.idf);
        TextDoc { norm: norm.into(), token_set: to_sorted_set(tokens), vec, oov_terms }
    }

    /// [`doc`](SimEngine::doc) over text the caller has **already
    /// normalized** (`normalize` is idempotent, so the result equals
    /// `doc(&norm)` — without re-walking the string), also returning the
    /// in-order token-id sequence (duplicates preserved — the term
    /// frequencies behind the TFIDF vector). The index build normalizes
    /// every lemma once up front and stores the sequence beside the
    /// document, so snapshots and segment replay can rebuild documents
    /// without re-tokenizing any string. Pays one extra `Vec` clone over
    /// [`doc`](SimEngine::doc); only build-time paths should call it.
    pub(crate) fn doc_with_token_ids_from_norm(&self, norm: String) -> (TextDoc, Vec<u32>) {
        debug_assert_eq!(norm, crate::tokenize::normalize(&norm));
        let (tokens, oov_terms) = self.prepare_norm(&norm);
        let vec = WeightedVec::from_tokens(&tokens, &self.idf);
        let doc =
            TextDoc { norm: norm.into(), token_set: to_sorted_set(tokens.clone()), vec, oov_terms };
        (doc, tokens)
    }

    /// Shared back half of document preparation over normalized text:
    /// in-order token ids and the deduplicated out-of-vocabulary terms.
    fn prepare_norm(&self, norm: &str) -> (Vec<u32>, Vec<(u32, String)>) {
        let words = crate::tokenize::tokenize(norm);
        let tokens = self.vocab.tokenize_frozen(norm);
        debug_assert_eq!(words.len(), tokens.len());
        let mut oov_terms: Vec<(u32, String)> = tokens
            .iter()
            .zip(&words)
            .filter(|(id, _)| Vocab::is_oov(**id))
            .map(|(&id, w)| (id, w.clone()))
            .collect();
        oov_terms.sort_unstable_by_key(|t| t.0);
        oov_terms.dedup_by(|a, b| a.0 == b.0);
        (tokens, oov_terms)
    }

    /// Reconstructs the [`TextDoc`] that [`doc`](SimEngine::doc) would
    /// produce for a text whose normalized form is `norm` and whose in-order
    /// token ids are `tokens`, without touching any string machinery. Only
    /// valid when every token is in-vocabulary (true for every indexed
    /// lemma: the vocabulary is built from exactly these token streams), so
    /// `oov_terms` is empty by construction.
    pub(crate) fn doc_from_token_ids(&self, norm: impl Into<SharedStr>, tokens: &[u32]) -> TextDoc {
        debug_assert!(tokens.iter().all(|&t| !Vocab::is_oov(t)));
        let vec = WeightedVec::from_tokens(tokens, &self.idf);
        TextDoc {
            norm: norm.into(),
            token_set: to_sorted_set(tokens.to_vec()),
            vec,
            oov_terms: Vec::new(),
        }
    }

    /// Computes the full similarity profile between two prepared texts.
    pub fn profile(&self, a: &TextDoc, b: &TextDoc) -> StringSim {
        StringSim {
            tfidf_cosine: cosine(&a.vec, &b.vec),
            jaccard: sim::jaccard(&a.token_set, &b.token_set),
            dice: sim::dice(&a.token_set, &b.token_set),
            jaro_winkler: sim::jaro_winkler(&a.norm, &b.norm),
            soft_tfidf: soft_tfidf_with_oov(
                &a.vec,
                &b.vec,
                &self.vocab,
                &a.oov_terms,
                &b.oov_terms,
                SOFT_TFIDF_THRESHOLD,
            ),
            edit_sim: sim::levenshtein_sim(&a.norm, &b.norm),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> SimEngine {
        let mut b = SimEngineBuilder::new();
        for text in [
            "Albert Einstein",
            "Einstein",
            "Russell Stannard",
            "Uncle Albert and the Quantum Quest",
            "Relativity: The Special and the General Theory",
        ] {
            b.add_document(text);
        }
        b.freeze()
    }

    #[test]
    fn identical_texts_profile_to_ones() {
        let e = engine();
        let d = e.doc("Albert Einstein");
        let p = e.profile(&d, &d);
        for (i, v) in p.as_array().iter().enumerate() {
            assert!((v - 1.0).abs() < 1e-6, "measure {i} = {v}");
        }
    }

    #[test]
    fn profiles_are_bounded() {
        let e = engine();
        let a = e.doc("A. Einstein");
        let b = e.doc("Albert Einstein");
        let p = e.profile(&a, &b);
        for v in p.as_array() {
            assert!((0.0..=1.0).contains(&v), "{v}");
        }
        assert!(p.tfidf_cosine > 0.3, "shared surname token should score");
        assert!(p.jaro_winkler > 0.5);
    }

    #[test]
    fn case_is_normalized() {
        let e = engine();
        let a = e.doc("ALBERT EINSTEIN");
        let b = e.doc("albert einstein");
        let p = e.profile(&a, &b);
        assert!((p.edit_sim - 1.0).abs() < 1e-9);
        assert!((p.tfidf_cosine - 1.0).abs() < 1e-6);
    }

    #[test]
    fn max_with_takes_elementwise_max() {
        let mut a = StringSim { tfidf_cosine: 0.2, jaccard: 0.9, ..Default::default() };
        let b = StringSim { tfidf_cosine: 0.7, jaccard: 0.1, ..Default::default() };
        a.max_with(&b);
        assert_eq!(a.tfidf_cosine, 0.7);
        assert_eq!(a.jaccard, 0.9);
    }

    #[test]
    fn noisy_book_title_scores_below_exact() {
        // The paper's Figure 1 pitfall: a book title containing "Albert" is
        // only weak evidence for the person Albert Einstein.
        let e = engine();
        let person = e.doc("Albert Einstein");
        let cell_exact = e.doc("Albert Einstein");
        let cell_book = e.doc("The Time and Space of Uncle Albert");
        let exact = e.profile(&cell_exact, &person);
        let noisy = e.profile(&cell_book, &person);
        assert!(exact.tfidf_cosine > noisy.tfidf_cosine + 0.3);
    }
}
