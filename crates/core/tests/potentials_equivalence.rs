//! Potentials equivalence: every φ3 factor value that `TableModel::build`
//! materializes must equal, bit for bit, `w3 · f3(T, E)` recomputed here
//! from the paper's formula (§4.2.3), with the missing-link ratio taken
//! pair by pair from `extent_overlap` / `extent_size` instead of the
//! catalog's precomputed relatedness rows.

use webtable_catalog::{generate_world, Catalog, EntityId, TypeId, WorldConfig};
use webtable_core::weights::dot;
use webtable_core::{AnnotatorConfig, CompatMode, TableCandidates, TableModel, Weights};
use webtable_tables::{NoiseConfig, TableGenerator, TruthMask};
use webtable_text::SegmentedIndex;

/// `f3` under `AnnotatorConfig::default()` (inverse-sqrt-distance compat,
/// missing-link feature on), written from the formula, not shared code.
mod reference {
    use super::*;

    /// `min_{T' : E ∈ T'} |E(T') ∩ E(T)| / |E(T')|` over `e`'s direct types
    /// in order, skipping empty and over-cap extents.
    fn relatedness(cat: &Catalog, e: EntityId, t: TypeId) -> f64 {
        let mut best: Option<f64> = None;
        for &tp in &cat.entity(e).direct_types {
            let denom = cat.extent_size(tp);
            if denom == 0 || denom > Catalog::MISSING_LINK_EXTENT_CAP {
                continue;
            }
            let ratio = cat.extent_overlap(tp, t) as f64 / denom as f64;
            best = Some(best.map_or(ratio, |b| b.min(ratio)));
        }
        best.unwrap_or(0.0)
    }

    pub fn f3(cat: &Catalog, t: TypeId, e: EntityId) -> [f64; 2] {
        if let Some(d) = cat.dist(e, t) {
            return [1.0 / (d.max(1) as f64).sqrt(), 0.0];
        }
        let r = relatedness(cat, e, t);
        match cat.min_entity_dist(t) {
            Some(min_dist) if r > 0.0 => [0.0, r / min_dist.max(1) as f64],
            _ => [0.0, 0.0],
        }
    }
}

#[test]
fn phi3_factors_match_the_extent_overlap_reference_bitwise() {
    let w = generate_world(&WorldConfig::tiny(23)).unwrap();
    let index = SegmentedIndex::build_split(&w.catalog, 1, 0);
    let cfg = AnnotatorConfig::default();
    assert!(cfg.compat == CompatMode::InvSqrtDist && cfg.missing_link_feature);
    let weights = Weights::default();
    let mut generator = TableGenerator::new(&w, NoiseConfig::web(), TruthMask::full(), 29);
    let (mut checked, mut missing_links) = (0usize, 0usize);
    for (i, lt) in generator.gen_corpus(40, 8).iter().enumerate() {
        let table = &lt.table;
        let cands = TableCandidates::build(&w.catalog, &index, table, &cfg);
        let model = TableModel::build(&w.catalog, &cfg, &weights, table, cands);
        // The φ3 group comes first: one factor per cell with candidates,
        // column by column, over (t_c, e_rc) with `na` at index 0.
        let mut factors = model.graph().factors().iter();
        for (c, col) in model.cands.columns.iter().enumerate() {
            for r in 0..table.num_rows() {
                let ents = &model.cands.cells[r][c].entities;
                if ents.is_empty() {
                    continue;
                }
                let factor = factors.next().expect("one φ3 factor per cell with candidates");
                assert_eq!(factor.table.dims(), [1 + col.types.len(), 1 + ents.len()]);
                for (k, got) in factor.table.values().iter().enumerate() {
                    let (ti, ei) = (k / (1 + ents.len()), k % (1 + ents.len()));
                    let want = if ti == 0 || ei == 0 {
                        0.0
                    } else {
                        let f = reference::f3(&w.catalog, col.types[ti - 1], ents[ei - 1]);
                        missing_links += usize::from(f[1] > 0.0);
                        dot(&weights.w3, &f)
                    };
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "table {i}, cell ({r}, {c}), entry {k}"
                    );
                    checked += 1;
                }
            }
        }
    }
    assert!(checked > 10_000, "only {checked} φ3 entries checked");
    assert!(missing_links > 0, "no entry exercised the missing-link ratio");
}
