//! Annotation output types.

use std::collections::HashMap;

use webtable_catalog::{EntityId, RelationId, TypeId};

/// The annotator's decision for one table: the assignment to all `e_rc`,
/// `t_c`, `b_cc'` variables, decoded back to catalog ids.
///
/// Conventions:
/// * `None` everywhere means the `na` label ("no annotation"), an explicit
///   decision — not a missing prediction.
/// * Relation keys are *oriented*: `(c1, c2) → Some(B)` asserts that column
///   `c1` plays `B`'s left (first schema) role. `na` decisions for a pair
///   are keyed `(min, max)`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TableAnnotation {
    /// `(row, col)` → entity decision.
    pub cell_entities: HashMap<(usize, usize), Option<EntityId>>,
    /// `(row, col)` → confidence of the entity decision (belief margin
    /// between the chosen label and the runner-up, ≥ 0).
    pub cell_confidence: HashMap<(usize, usize), f64>,
    /// `col` → type decision.
    pub column_types: HashMap<usize, Option<TypeId>>,
    /// Oriented column pair → relation decision (see type docs).
    pub relations: HashMap<(usize, usize), Option<RelationId>>,
    /// Belief-propagation sweeps used (paper: ~3).
    pub bp_iterations: usize,
    /// Whether message passing converged.
    pub converged: bool,
}

impl TableAnnotation {
    /// Looks up the relation decision for an *unordered* column pair,
    /// returning the relation and whether `a` plays the left role.
    pub fn relation_between(&self, a: usize, b: usize) -> Option<(RelationId, bool)> {
        if let Some(Some(r)) = self.relations.get(&(a, b)) {
            return Some((*r, true));
        }
        if let Some(Some(r)) = self.relations.get(&(b, a)) {
            return Some((*r, false));
        }
        None
    }

    /// Number of non-`na` entity decisions.
    pub fn num_entity_links(&self) -> usize {
        self.cell_entities.values().filter(|v| v.is_some()).count()
    }
}

/// Wall-clock phase breakdown for one table (Figure 7's drill-down: ~80%
/// of time in lemma probing + similarity, <1% in inference).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTimings {
    /// Candidate generation: index probing + similarity profiles.
    pub candidates_us: u64,
    /// Potential/table materialization.
    pub potentials_us: u64,
    /// Message passing + decoding.
    pub inference_us: u64,
    /// Total annotation time.
    pub total_us: u64,
}

impl PhaseTimings {
    /// Element-wise sum.
    pub fn add(&mut self, other: &PhaseTimings) {
        self.candidates_us += other.candidates_us;
        self.potentials_us += other.potentials_us;
        self.inference_us += other.inference_us;
        self.total_us += other.total_us;
    }

    /// Fraction of total time spent in candidate generation.
    pub fn candidate_fraction(&self) -> f64 {
        if self.total_us == 0 {
            0.0
        } else {
            self.candidates_us as f64 / self.total_us as f64
        }
    }

    /// Fraction of total time spent in inference.
    pub fn inference_fraction(&self) -> f64 {
        if self.total_us == 0 {
            0.0
        } else {
            self.inference_us as f64 / self.total_us as f64
        }
    }
}

/// Aggregate statistics for one batch-annotation run
/// (`AnnotateResponse::stats`).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AnnotateStats {
    /// Number of tables annotated.
    pub tables: usize,
    /// Cross-table cell-candidate cache hits (0 when the cache is disabled).
    /// Exact totals; deterministic per key only with a single worker (two
    /// workers may both miss the same key before either inserts).
    pub cache_hits: u64,
    /// Cross-table cell-candidate cache misses.
    pub cache_misses: u64,
    /// Element-wise sum of every table's phase timings.
    pub timings: PhaseTimings,
}

impl AnnotateStats {
    /// Fraction of cache lookups that hit, or 0.0 when none were made.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_hit_rate_handles_empty_and_mixed() {
        let mut s = AnnotateStats::default();
        assert_eq!(s.cache_hit_rate(), 0.0);
        s.cache_hits = 3;
        s.cache_misses = 1;
        assert!((s.cache_hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn relation_between_checks_both_orientations() {
        let mut a = TableAnnotation::default();
        a.relations.insert((2, 0), Some(RelationId(7)));
        assert_eq!(a.relation_between(2, 0), Some((RelationId(7), true)));
        assert_eq!(a.relation_between(0, 2), Some((RelationId(7), false)));
        assert_eq!(a.relation_between(0, 1), None);
        a.relations.insert((0, 1), None);
        assert_eq!(a.relation_between(0, 1), None);
    }

    #[test]
    fn timing_fractions() {
        let t =
            PhaseTimings { candidates_us: 80, potentials_us: 15, inference_us: 5, total_us: 100 };
        assert!((t.candidate_fraction() - 0.8).abs() < 1e-12);
        assert!((t.inference_fraction() - 0.05).abs() < 1e-12);
        let mut sum = PhaseTimings::default();
        sum.add(&t);
        sum.add(&t);
        assert_eq!(sum.total_us, 200);
    }

    #[test]
    fn entity_link_count_skips_na() {
        let mut a = TableAnnotation::default();
        a.cell_entities.insert((0, 0), Some(EntityId(1)));
        a.cell_entities.insert((0, 1), None);
        assert_eq!(a.num_entity_links(), 1);
        let _ = TypeId(0);
    }
}
