//! Property tests for the similarity kernels and the lemma index.

use proptest::prelude::*;
use webtable_catalog::CatalogBuilder;
use webtable_text::{
    sim, to_sorted_set, tokenize, LemmaIndex, ProbeMode, ProbeScratch, SimEngineBuilder,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn levenshtein_is_a_metric(a in "[a-z]{0,12}", b in "[a-z]{0,12}", c in "[a-z]{0,12}") {
        let ab = sim::levenshtein(&a, &b);
        let ba = sim::levenshtein(&b, &a);
        prop_assert_eq!(ab, ba, "symmetry");
        prop_assert_eq!(sim::levenshtein(&a, &a), 0, "identity");
        let ac = sim::levenshtein(&a, &c);
        let cb = sim::levenshtein(&c, &b);
        prop_assert!(ab <= ac + cb, "triangle inequality");
        // Length difference is a lower bound; max length an upper bound.
        prop_assert!(ab >= a.chars().count().abs_diff(b.chars().count()));
        prop_assert!(ab <= a.chars().count().max(b.chars().count()));
    }

    #[test]
    fn jaro_winkler_bounds_and_symmetry(a in "[a-z]{0,12}", b in "[a-z]{0,12}") {
        let jw = sim::jaro_winkler(&a, &b);
        prop_assert!((0.0..=1.0).contains(&jw));
        prop_assert!((sim::jaro_winkler(&b, &a) - jw).abs() < 1e-12);
        let self_jw = sim::jaro_winkler(&a, &a);
        prop_assert!(self_jw >= 1.0 - 1e-12);
        // Winkler prefix boost never lowers Jaro.
        prop_assert!(jw >= sim::jaro(&a, &b) - 1e-12);
    }

    #[test]
    fn levenshtein_fast_paths_match_reference(a in "\\PC{0,16}", b in "\\PC{0,16}") {
        prop_assert_eq!(sim::levenshtein(&a, &b), reference_levenshtein(&a, &b));
    }

    #[test]
    fn jaro_fast_paths_match_reference(a in "\\PC{0,16}", b in "\\PC{0,16}") {
        prop_assert!((sim::jaro(&a, &b) - reference_jaro(&a, &b)).abs() < 1e-12);
    }

    #[test]
    fn jaro_winkler_upper_bound_is_sound(a in "\\PC{0,20}", b in "\\PC{0,20}") {
        let bound = sim::jaro_winkler_upper_bound(a.chars().count(), b.chars().count());
        prop_assert!(sim::jaro_winkler(&a, &b) <= bound + 1e-12,
            "bound {} below actual for {a:?} vs {b:?}", bound);
    }

    #[test]
    fn set_measures_bounds(xs in proptest::collection::vec(0u32..50, 0..12),
                           ys in proptest::collection::vec(0u32..50, 0..12)) {
        let a = to_sorted_set(xs);
        let b = to_sorted_set(ys);
        for m in [sim::jaccard(&a, &b), sim::dice(&a, &b), sim::overlap(&a, &b), sim::containment(&a, &b)] {
            prop_assert!((0.0..=1.0).contains(&m), "{m}");
        }
        prop_assert!(sim::jaccard(&a, &b) <= sim::dice(&a, &b) + 1e-12, "jaccard ≤ dice");
        if !a.is_empty() {
            prop_assert!((sim::jaccard(&a, &a) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn tokenize_output_is_lowercase_alnum(s in "\\PC{0,40}") {
        for tok in tokenize(&s) {
            prop_assert!(!tok.is_empty());
            prop_assert!(tok.chars().all(|c| c.is_alphanumeric()));
            // Lowercasing is idempotent on tokens (some characters, e.g.
            // 𝔻, have no lowercase mapping and pass through unchanged).
            prop_assert_eq!(tok.to_lowercase(), tok.clone(), "token {} not case-normalized", tok);
            // Tokenizing a token yields the token itself.
            prop_assert_eq!(tokenize(&tok), vec![tok.clone()]);
        }
    }

    #[test]
    fn profiles_are_bounded_for_arbitrary_text(a in "\\PC{0,30}", b in "\\PC{0,30}") {
        let mut builder = SimEngineBuilder::new();
        builder.add_document(&a);
        builder.add_document(&b);
        builder.add_document("background document text");
        let engine = builder.freeze();
        let da = engine.doc(&a);
        let db = engine.doc(&b);
        let p = engine.profile(&da, &db);
        for v in p.as_array() {
            prop_assert!((0.0..=1.0).contains(&v), "{v} out of bounds for {a:?} vs {b:?}");
            prop_assert!(v.is_finite());
        }
    }

    #[test]
    fn self_similarity_is_maximal(a in "[a-zA-Z0-9 ]{1,30}") {
        prop_assume!(!tokenize(&a).is_empty());
        let mut builder = SimEngineBuilder::new();
        builder.add_document(&a);
        builder.add_document("other words entirely");
        let engine = builder.freeze();
        let d = engine.doc(&a);
        let p = engine.profile(&d, &d);
        prop_assert!((p.tfidf_cosine - 1.0).abs() < 1e-6);
        prop_assert!((p.jaccard - 1.0).abs() < 1e-12);
        prop_assert!((p.edit_sim - 1.0).abs() < 1e-12);
    }
}

/// Textbook two-row Levenshtein over `char`s — the pre-fast-path
/// implementation, kept as the oracle for the ASCII/stack-buffer kernels.
fn reference_levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let (short, long) = if a.len() <= b.len() { (&a, &b) } else { (&b, &a) };
    if short.is_empty() {
        return long.len();
    }
    let mut prev: Vec<usize> = (0..=short.len()).collect();
    let mut cur = vec![0usize; short.len() + 1];
    for (i, &lc) in long.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &sc) in short.iter().enumerate() {
            let sub = prev[j] + usize::from(lc != sc);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[short.len()]
}

/// Heap-buffer Jaro over `char`s — the pre-fast-path implementation.
fn reference_jaro(a: &str, b: &str) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let mut b_used = vec![false; b.len()];
    let mut matches_a = Vec::with_capacity(a.len());
    for (i, &ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        for j in lo..hi {
            if !b_used[j] && b[j] == ca {
                b_used[j] = true;
                matches_a.push((i, j));
                break;
            }
        }
    }
    let m = matches_a.len();
    if m == 0 {
        return 0.0;
    }
    let b_matches: Vec<usize> = matches_a.iter().map(|&(_, j)| j).collect();
    let t = {
        let mut sorted = b_matches.clone();
        sorted.sort_unstable();
        b_matches.iter().zip(&sorted).filter(|(x, y)| x != y).count() / 2
    };
    let m = m as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - t as f64) / m) / 3.0
}

/// WAND admissibility: the early-terminated probe must return exactly the
/// exhaustive probe's top-k — same ids, same order, bit-identical scores.
fn assert_wand_matches_exhaustive(idx: &LemmaIndex, text: &str, ks: &[usize], factors: &[usize]) {
    let q = idx.doc(text);
    let mut s_wand = ProbeScratch::new();
    let mut s_ref = ProbeScratch::new();
    for &k in ks {
        for &factor in factors {
            let wand = idx.entity_candidates_mode(&q, k, factor, ProbeMode::Wand, &mut s_wand);
            let exhaustive =
                idx.entity_candidates_mode(&q, k, factor, ProbeMode::Exhaustive, &mut s_ref);
            assert_eq!(wand.len(), exhaustive.len(), "{text:?} k={k} factor={factor}");
            for (w, e) in wand.iter().zip(&exhaustive) {
                assert_eq!(w.id, e.id, "{text:?} k={k} factor={factor}");
                assert_eq!(
                    w.score.to_bits(),
                    e.score.to_bits(),
                    "{text:?} k={k} factor={factor}: {} vs {}",
                    w.score,
                    e.score
                );
            }
            let wand = idx.type_candidates_mode(&q, k, factor, ProbeMode::Wand, &mut s_wand);
            let exhaustive =
                idx.type_candidates_mode(&q, k, factor, ProbeMode::Exhaustive, &mut s_ref);
            assert_eq!(wand, exhaustive, "types {text:?} k={k} factor={factor}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn wand_topk_matches_exhaustive_on_random_indexes(
        entity_words in proptest::collection::vec(
            proptest::collection::vec("[a-e]{1,4}", 1..4),
            1..30,
        ),
        query_words in proptest::collection::vec("[a-e]{1,4}", 0..8),
        k in 1usize..10,
    ) {
        let mut b = CatalogBuilder::new();
        let t = b.add_type("thing", &["stuff"]).unwrap();
        for (j, words) in entity_words.iter().enumerate() {
            b.add_entity(format!("{} e{j}", words.join(" ")), &[words[0].as_str()], &[t])
                .unwrap();
        }
        let idx = LemmaIndex::build(&b.finish().unwrap());
        assert_wand_matches_exhaustive(&idx, &query_words.join(" "), &[k], &[1, 6]);
    }
}

#[test]
fn wand_handles_all_upper_bounds_tied() {
    // Adversarial case: every lemma is one distinct token that occurs in
    // exactly one document, so every posting row has the same IDF and all
    // WAND upper bounds tie. Overlap scores then tie across every matched
    // lemma and ranking is decided purely by the id tie-break — the regime
    // where a sloppy (non-strict) skip test would drop qualifying lemmas.
    let mut b = CatalogBuilder::new();
    let t = b.add_type("q0", &[]).unwrap(); // one-token type name, same df
    let n = 60usize;
    for i in 0..n {
        b.add_entity(format!("w{i}"), &[], &[t]).unwrap();
    }
    let cat = b.finish().unwrap();
    let idx = LemmaIndex::build(&cat);
    // Query mentioning many distinct single-occurrence tokens: every
    // matched lemma scores exactly one identical IDF.
    let all: String = (0..n).map(|i| format!("w{i} ")).collect();
    for query in [all.as_str(), "w0 w1 w2 w3 w4 w5 w6 w7", "w59 w58 w57", "w10"] {
        assert_wand_matches_exhaustive(&idx, query, &[1, 2, 5, 16, 64], &[1, 2, 6]);
    }
}

#[test]
fn wand_survives_epoch_wraparound() {
    // The exhaustive path advances the epoch-stamped scratch; the WAND path
    // keeps separate cursor state. Force the u32 epoch to wrap between and
    // during interleaved probes of both modes: results must stay identical.
    let mut b = CatalogBuilder::new();
    let t = b.add_type("team", &[]).unwrap();
    for i in 0..20 {
        b.add_entity(format!("club {i}"), &[&format!("fc {i}")[..]], &[t]).unwrap();
    }
    let idx = LemmaIndex::build(&b.finish().unwrap());
    let q = idx.doc("club fc 7");
    let mut scratch = ProbeScratch::new();
    let baseline = idx.entity_candidates_mode(&q, 8, 6, ProbeMode::Exhaustive, &mut scratch);
    scratch.force_epoch_wrap();
    let wand = idx.entity_candidates_mode(&q, 8, 6, ProbeMode::Wand, &mut scratch);
    assert_eq!(baseline, wand, "wand probe straddling the wrap");
    let wrapped = idx.entity_candidates_mode(&q, 8, 6, ProbeMode::Exhaustive, &mut scratch);
    assert_eq!(baseline, wrapped, "exhaustive probe after the wrap");
}

#[test]
fn index_is_deterministic_and_ranked() {
    let mut b = CatalogBuilder::new();
    let t = b.add_type("thing", &[]).unwrap();
    for i in 0..50 {
        b.add_entity(format!("Entity Number {i}"), &[&format!("alias {i}")[..]], &[t]).unwrap();
    }
    let cat = b.finish().unwrap();
    let idx = webtable_text::LemmaIndex::build(&cat);
    let q = idx.doc("entity number 7");
    let probe = |q| idx.entity_candidates_with(q, 10, 6, &mut ProbeScratch::new());
    let (r1, r2) = (probe(&q), probe(&q));
    assert_eq!(r1.len(), r2.len());
    for (a, b) in r1.iter().zip(&r2) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.score, b.score);
    }
    for w in r1.windows(2) {
        assert!(w[0].score >= w[1].score, "ranking must be sorted");
    }
    assert_eq!(r1[0].id, cat.entity_named("Entity Number 7").unwrap());
}
