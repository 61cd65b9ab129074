//! Annotator configuration.

/// How the type↔entity compatibility feature (`f3`, §4.2.3) is computed —
/// the three settings compared in Figure 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CompatMode {
    /// `1/√dist(E,T)` — the paper's robust default.
    #[default]
    InvSqrtDist,
    /// `1/dist(E,T)`.
    InvDist,
    /// IDF-style specificity `|E|/|E(T)|` (log-normalized), independent of
    /// the distance — "IDF on its own performs poorly for type labeling".
    Idf,
}

impl CompatMode {
    /// Stable name used in reports (matches Figure 8's column headers).
    pub fn name(self) -> &'static str {
        match self {
            CompatMode::InvSqrtDist => "1/sqrt(dist)",
            CompatMode::InvDist => "1/dist",
            CompatMode::Idf => "IDF",
        }
    }

    /// All modes, in Figure 8 column order.
    pub fn all() -> [CompatMode; 3] {
        [CompatMode::InvSqrtDist, CompatMode::InvDist, CompatMode::Idf]
    }
}

/// Knobs of the annotation pipeline.
#[derive(Debug, Clone)]
pub struct AnnotatorConfig {
    /// Candidate entities per cell (the paper observes ~7–8 candidates).
    pub entity_k: usize,
    /// Candidate types per column after pruning.
    pub type_k: usize,
    /// Candidate relations per column pair.
    pub relation_k: usize,
    /// `f3` variant (Figure 8 ablation).
    pub compat: CompatMode,
    /// Enable the missing-link relatedness feature (§4.2.3). On by
    /// default; exposed for ablation.
    pub missing_link_feature: bool,
    /// Maximum BP sweeps (the paper converges in ~3).
    pub max_bp_iters: usize,
    /// BP convergence tolerance.
    pub bp_tol: f64,
    /// Minimum best-lemma TFIDF cosine for an entity to enter a cell's
    /// candidate set. Filters spurious matches that share only stop-ish
    /// tokens ("The", "of") with a lemma.
    pub min_candidate_score: f64,
    /// How many IDF-overlap index hits are rescored by exact cosine per
    /// query, as a multiple of the requested `k` (floor of 16). Higher
    /// trades latency for recall on ambiguous mentions.
    pub rescoring_factor: usize,
    /// Entry capacity of the cross-table cell-candidate LRU that a request
    /// run by `Annotator::run` shares across its workers (repeated strings
    /// across a corpus probe the index once). `0` disables the cache.
    /// Caching never changes output — only which probes are skipped.
    pub batch_cache_capacity: usize,
}

impl Default for AnnotatorConfig {
    fn default() -> Self {
        AnnotatorConfig {
            entity_k: 8,
            type_k: 64,
            relation_k: 12,
            compat: CompatMode::InvSqrtDist,
            missing_link_feature: true,
            max_bp_iters: 10,
            bp_tol: 1e-5,
            min_candidate_score: 0.25,
            rescoring_factor: webtable_text::DEFAULT_RESCORING_FACTOR,
            batch_cache_capacity: 1 << 16,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_bands() {
        let c = AnnotatorConfig::default();
        assert_eq!(c.entity_k, 8);
        assert_eq!(c.compat, CompatMode::InvSqrtDist);
        assert!(c.missing_link_feature);
        assert_eq!(c.rescoring_factor, 6);
        assert!(c.batch_cache_capacity > 0, "batch caching is on by default");
    }

    #[test]
    fn mode_names_match_figure8() {
        assert_eq!(CompatMode::InvSqrtDist.name(), "1/sqrt(dist)");
        assert_eq!(CompatMode::InvDist.name(), "1/dist");
        assert_eq!(CompatMode::Idf.name(), "IDF");
        assert_eq!(CompatMode::all().len(), 3);
    }
}
