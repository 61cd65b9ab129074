//! The structured learner. See the crate docs for the algorithm.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use webtable_catalog::Catalog;
use webtable_core::{AnnotatorConfig, TableCandidates, TableModel, Weights};
use webtable_tables::LabeledTable;
use webtable_text::SegmentedIndex;

/// Hyper-parameters for [`train`].
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Passes over the training set.
    pub epochs: usize,
    /// Learning rate `η`.
    pub learning_rate: f64,
    /// Hamming-loss weight for margin rescaling.
    pub loss_weight: f64,
    /// L2 regularization `λ` (shrinks weights each step).
    pub l2: f64,
    /// Shuffle seed.
    pub seed: u64,
    /// Average iterates (recommended).
    pub average: bool,
    /// Initialize from these weights (defaults to zeros).
    pub init: Option<Weights>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 5,
            learning_rate: 0.1,
            loss_weight: 1.0,
            l2: 1e-4,
            seed: 0,
            average: true,
            init: None,
        }
    }
}

/// Per-epoch statistics.
#[derive(Debug, Clone, Default)]
pub struct TrainStats {
    /// Per-epoch count of variables whose loss-augmented prediction
    /// disagreed with gold (the structured "mistake" count).
    pub epoch_violations: Vec<usize>,
    /// Number of tables that contributed at least one known gold label.
    pub usable_tables: usize,
}

impl TrainStats {
    /// True if mistakes did not increase from the first to the last epoch.
    pub fn improved(&self) -> bool {
        match (self.epoch_violations.first(), self.epoch_violations.last()) {
            (Some(&a), Some(&b)) => b <= a,
            _ => false,
        }
    }
}

/// Trains weights on labeled tables. Deterministic per config.
pub fn train(
    catalog: &Catalog,
    index: &SegmentedIndex,
    cfg: &AnnotatorConfig,
    tables: &[LabeledTable],
    tc: &TrainConfig,
) -> (Weights, TrainStats) {
    let mut rng = StdRng::seed_from_u64(tc.seed);
    // Candidate sets do not depend on weights: build once.
    let cands: Vec<TableCandidates> =
        tables.iter().map(|lt| TableCandidates::build(catalog, index, &lt.table, cfg)).collect();

    let mut w = tc.init.clone().unwrap_or_else(Weights::zeros).to_flat();
    let mut w_sum = vec![0.0; w.len()];
    let mut steps = 0usize;
    let mut stats = TrainStats::default();
    let mut usable = vec![false; tables.len()];

    let mut order: Vec<usize> = (0..tables.len()).collect();
    for _epoch in 0..tc.epochs {
        order.shuffle(&mut rng);
        let mut violations = 0usize;
        for &i in &order {
            let lt = &tables[i];
            let weights = Weights::from_flat(&w);
            let mut model = TableModel::build(catalog, cfg, &weights, &lt.table, cands[i].clone());
            let gold = model.gold_assignment(&lt.truth);
            if gold.iter().all(Option::is_none) {
                continue;
            }
            usable[i] = true;
            model.add_hamming_loss(&gold, tc.loss_weight);
            let pred = model.map_assignment();
            // Count mistakes on known variables.
            let mistakes = gold
                .iter()
                .enumerate()
                .filter(|(vi, g)| matches!(g, Some(gl) if pred[*vi] != *gl))
                .count();
            violations += mistakes;
            if mistakes > 0 {
                let gold_full: Vec<usize> = gold.iter().map(|g| g.unwrap_or(0)).collect();
                let phi_gold = model.feature_vector(&gold_full, Some(&gold));
                let phi_pred = model.feature_vector(&pred, Some(&gold));
                for ((wi, pg), pp) in w.iter_mut().zip(&phi_gold).zip(&phi_pred) {
                    *wi = (1.0 - tc.learning_rate * tc.l2) * *wi + tc.learning_rate * (pg - pp);
                }
            }
            if tc.average {
                for (s, x) in w_sum.iter_mut().zip(&w) {
                    *s += x;
                }
                steps += 1;
            }
        }
        stats.epoch_violations.push(violations);
    }
    stats.usable_tables = usable.iter().filter(|&&u| u).count();

    let final_w = if tc.average && steps > 0 {
        let inv = 1.0 / steps as f64;
        w_sum.iter().map(|x| x * inv).collect()
    } else {
        w
    };
    (Weights::from_flat(&final_w), stats)
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use webtable_catalog::{generate_world, WorldConfig};
    use webtable_core::annotate_collective;
    use webtable_eval::entity_accuracy;
    use webtable_tables::{NoiseConfig, TableGenerator, TruthMask};

    use super::*;

    fn setup() -> (webtable_catalog::World, SegmentedIndex) {
        let w = generate_world(&WorldConfig::tiny(5)).unwrap();
        let index = SegmentedIndex::build_split(&w.catalog, 1, 0);
        (w, index)
    }

    #[test]
    fn training_reduces_violations_on_clean_data() {
        let (w, index) = setup();
        let cfg = AnnotatorConfig::default();
        let mut g = TableGenerator::new(&w, NoiseConfig::clean(), TruthMask::full(), 51);
        let train_set = g.gen_corpus(6, 6);
        let tc = TrainConfig { epochs: 4, ..Default::default() };
        let (_weights, stats) = train(&w.catalog, &index, &cfg, &train_set, &tc);
        assert_eq!(stats.epoch_violations.len(), 4);
        assert!(stats.usable_tables > 0);
        assert!(stats.improved(), "violations should not grow: {:?}", stats.epoch_violations);
    }

    #[test]
    fn trained_weights_beat_zero_weights() {
        let (w, index) = setup();
        let cfg = AnnotatorConfig::default();
        let mut g = TableGenerator::new(&w, NoiseConfig::wiki(), TruthMask::full(), 52);
        let train_set = g.gen_corpus(8, 6);
        let test_set = g.gen_corpus(4, 6);
        let tc = TrainConfig { epochs: 4, ..Default::default() };
        let (weights, _) = train(&w.catalog, &index, &cfg, &train_set, &tc);

        let score = |ws: &Weights| {
            let mut acc = webtable_eval::Accuracy::default();
            for lt in &test_set {
                let ann = annotate_collective(&w.catalog, &index, &cfg, ws, &lt.table);
                acc.add(entity_accuracy(&ann.cell_entities, &lt.truth.cell_entities));
            }
            acc
        };
        let trained = score(&weights);
        let zero = score(&Weights::zeros());
        assert!(
            trained.fraction() > zero.fraction(),
            "trained {} must beat zeros {}",
            trained.fraction(),
            zero.fraction()
        );
    }

    #[test]
    fn training_is_deterministic() {
        let (w, index) = setup();
        let cfg = AnnotatorConfig::default();
        let mut g = TableGenerator::new(&w, NoiseConfig::wiki(), TruthMask::full(), 53);
        let train_set = g.gen_corpus(4, 5);
        let tc = TrainConfig { epochs: 2, ..Default::default() };
        let (w1, _) = train(&w.catalog, &index, &cfg, &train_set, &tc);
        let (w2, _) = train(&w.catalog, &index, &cfg, &train_set, &tc);
        assert_eq!(w1, w2);
    }

    #[test]
    fn partial_ground_truth_is_usable() {
        // Wiki-Link-style data (entities only) must still drive updates.
        let (w, index) = setup();
        let cfg = AnnotatorConfig::default();
        let mut g = TableGenerator::new(&w, NoiseConfig::wiki(), TruthMask::entities_only(), 54);
        let train_set = g.gen_corpus(4, 6);
        let tc = TrainConfig { epochs: 2, ..Default::default() };
        let (weights, stats) = train(&w.catalog, &index, &cfg, &train_set, &tc);
        assert!(stats.usable_tables > 0);
        // w2 (header↔type) cannot be learned from entity-only data when no
        // type variables are known; the f1 block should carry signal.
        let flat = weights.to_flat();
        assert!(flat.iter().any(|&x| x.abs() > 1e-9), "some weights must move");
    }

    #[test]
    fn empty_training_set_returns_init() {
        let (w, index) = setup();
        let cfg = AnnotatorConfig::default();
        let tc = TrainConfig { init: Some(Weights::default()), ..Default::default() };
        let (weights, stats) = train(&w.catalog, &index, &cfg, &[], &tc);
        assert_eq!(weights, Weights::default());
        assert_eq!(stats.usable_tables, 0);
        let _ = HashMap::<(), ()>::new();
    }
}
