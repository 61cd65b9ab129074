//! The per-table graphical model (Figure 10) and its construction.
//!
//! Variables: `t_c` per column, `e_rc` per cell, `b_cc'` per candidate-
//! bearing column pair; every domain has `na` at index 0 with log-potential
//! 0 ("no feature is fired if label na is involved", §4.2). Factors are
//! added in the Figure 11 schedule order (φ3 group, φ5 group, φ4 group) so
//! the BP engine's insertion-order sweeps reproduce the paper's message
//! schedule.

// Row/column indices deliberately drive several parallel structures
// (candidate grids, variable grids, the table itself).
#![allow(clippy::needless_range_loop)]

use webtable_catalog::Catalog;
use webtable_factorgraph::{propagate, BpOptions, FactorGraph, VarId};
use webtable_tables::{GroundTruth, Table};

use crate::candidates::TableCandidates;
use crate::config::AnnotatorConfig;
use crate::features::{f3, f4, f5};
use crate::result::TableAnnotation;
use crate::weights::{dot, Weights, F1_DIM, F2_DIM, F3_DIM, F4_DIM, TOTAL_DIM};

/// A fully materialized model for one table.
#[derive(Debug)]
pub struct TableModel<'a> {
    catalog: &'a Catalog,
    cfg: &'a AnnotatorConfig,
    /// Candidate sets (owned).
    pub cands: TableCandidates,
    graph: FactorGraph,
    evar: Vec<Vec<VarId>>,
    tvar: Vec<VarId>,
    bvar: Vec<VarId>,
    num_rows: usize,
    num_cols: usize,
}

impl<'a> TableModel<'a> {
    /// Builds the model: candidate generation is assumed done (pass the
    /// result in); potentials are materialized with the given weights.
    pub fn build(
        catalog: &'a Catalog,
        cfg: &'a AnnotatorConfig,
        weights: &Weights,
        table: &Table,
        cands: TableCandidates,
    ) -> TableModel<'a> {
        let m = table.num_rows();
        let n = table.num_cols();
        let mut graph = FactorGraph::new();

        // Variables: types first, then cells, then relations.
        let tvar: Vec<VarId> =
            (0..n).map(|c| graph.add_var(1 + cands.columns[c].types.len())).collect();
        let evar: Vec<Vec<VarId>> = (0..m)
            .map(|r| (0..n).map(|c| graph.add_var(1 + cands.cells[r][c].entities.len())).collect())
            .collect();
        let bvar: Vec<VarId> =
            cands.pairs.iter().map(|p| graph.add_var(1 + p.rels.len())).collect();

        // Unary potentials: φ1 on cells, φ2 on columns; na stays 0.
        for c in 0..n {
            let col = &cands.columns[c];
            let mut u = vec![0.0];
            u.extend(col.header_profiles.iter().map(|p| dot(&weights.w2, &p.as_array())));
            graph.add_unary(tvar[c], &u);
        }
        for r in 0..m {
            for c in 0..n {
                let cell = &cands.cells[r][c];
                let mut u = vec![0.0];
                u.extend(cell.profiles.iter().map(|p| dot(&weights.w1, &p.as_array())));
                graph.add_unary(evar[r][c], &u);
            }
        }

        // --- Schedule group 1: φ3(t_c, e_rc) per cell ---
        // `f3` is a few lookups in tables the catalog precomputed, so it is
        // evaluated per entry: most (T, E) pairs of a table are distinct,
        // and a per-table memo cost more than it saved.
        for c in 0..n {
            let types = &cands.columns[c].types;
            for r in 0..m {
                let ents = &cands.cells[r][c].entities;
                if ents.is_empty() {
                    continue;
                }
                let mut table_vals = Vec::with_capacity((1 + types.len()) * (1 + ents.len()));
                for ti in 0..=types.len() {
                    for ei in 0..=ents.len() {
                        if ti == 0 || ei == 0 {
                            table_vals.push(0.0);
                            continue;
                        }
                        let f = f3(catalog, cfg, types[ti - 1], ents[ei - 1]);
                        table_vals.push(dot(&weights.w3, &f));
                    }
                }
                graph.add_factor(&[tvar[c], evar[r][c]], table_vals);
            }
        }

        // --- Schedule group 2: φ5(b_cc', e_rc, e_rc') per pair per row ---
        for (pi, pair) in cands.pairs.iter().enumerate() {
            for r in 0..m {
                let e1s = &cands.cells[r][pair.c1].entities;
                let e2s = &cands.cells[r][pair.c2].entities;
                if e1s.is_empty() || e2s.is_empty() {
                    continue;
                }
                let mut vals =
                    Vec::with_capacity((1 + pair.rels.len()) * (1 + e1s.len()) * (1 + e2s.len()));
                for bi in 0..=pair.rels.len() {
                    for i1 in 0..=e1s.len() {
                        for i2 in 0..=e2s.len() {
                            if bi == 0 || i1 == 0 || i2 == 0 {
                                vals.push(0.0);
                                continue;
                            }
                            let lbl = pair.rels[bi - 1];
                            vals.push(dot(
                                &weights.w5,
                                &f5(catalog, lbl, e1s[i1 - 1], e2s[i2 - 1]),
                            ));
                        }
                    }
                }
                graph.add_factor(&[bvar[pi], evar[r][pair.c1], evar[r][pair.c2]], vals);
            }
        }

        // --- Schedule group 3: φ4(b_cc', t_c, t_c') per pair ---
        // f4 factorizes per axis: schema match is `is_subtype(left col type,
        // B.left) && is_subtype(right col type, B.right)`. Hoisting the
        // subtype checks to per-axis boolean vectors turns the table fill
        // from O(|B|·|T1|·|T2|) catalog probes into cheap lookups.
        for (pi, pair) in cands.pairs.iter().enumerate() {
            let t1s = &cands.columns[pair.c1].types;
            let t2s = &cands.columns[pair.c2].types;
            let nb = pair.rels.len();
            let mut left_ok = vec![false; nb * t1s.len()];
            let mut right_ok = vec![false; nb * t2s.len()];
            let mut rel_value = vec![0.0f64; nb]; // w4·f4 when schema matches
            for (bi, lbl) in pair.rels.iter().enumerate() {
                let rel = catalog.relation(lbl.rel);
                let (want1, want2) = if lbl.reversed {
                    (rel.right_type, rel.left_type)
                } else {
                    (rel.left_type, rel.right_type)
                };
                for (i1, &t1) in t1s.iter().enumerate() {
                    left_ok[bi * t1s.len() + i1] = catalog.is_subtype(t1, want1);
                }
                for (i2, &t2) in t2s.iter().enumerate() {
                    right_ok[bi * t2s.len() + i2] = catalog.is_subtype(t2, want2);
                }
                let (pl, pr) = catalog.participation(lbl.rel);
                rel_value[bi] = dot(&weights.w4, &[1.0, (pl + pr) / 2.0]);
            }
            let mut vals = Vec::with_capacity((1 + nb) * (1 + t1s.len()) * (1 + t2s.len()));
            for bi in 0..=nb {
                for i1 in 0..=t1s.len() {
                    for i2 in 0..=t2s.len() {
                        if bi == 0 || i1 == 0 || i2 == 0 {
                            vals.push(0.0);
                            continue;
                        }
                        let matched = left_ok[(bi - 1) * t1s.len() + (i1 - 1)]
                            && right_ok[(bi - 1) * t2s.len() + (i2 - 1)];
                        vals.push(if matched { rel_value[bi - 1] } else { 0.0 });
                    }
                }
            }
            graph.add_factor(&[bvar[pi], tvar[pair.c1], tvar[pair.c2]], vals);
        }

        TableModel { catalog, cfg, cands, graph, evar, tvar, bvar, num_rows: m, num_cols: n }
    }

    /// Read access to the underlying factor graph.
    pub fn graph(&self) -> &FactorGraph {
        &self.graph
    }

    /// Adds margin-rescaling Hamming loss to each *known* variable's unary
    /// potential: every label except the gold one gets `+loss`. Used by
    /// loss-augmented decoding during training.
    pub fn add_hamming_loss(&mut self, gold: &[Option<usize>], loss: f64) {
        assert_eq!(gold.len(), self.graph.num_vars());
        for (vi, g) in gold.iter().enumerate() {
            if let Some(gold_label) = g {
                let v = VarId(vi as u32);
                let dom = self.graph.domain(v);
                let mut u = vec![loss; dom];
                u[*gold_label] = 0.0;
                self.graph.add_unary(v, &u);
            }
        }
    }

    /// Runs collective inference and decodes to a [`TableAnnotation`].
    pub fn decode(&self) -> TableAnnotation {
        let opts = BpOptions {
            max_iters: self.cfg.max_bp_iters,
            tol: self.cfg.bp_tol,
            ..Default::default()
        };
        let r = propagate(&self.graph, &opts);
        self.annotation_from_assignment(&r.assignment, Some(&r.beliefs), r.iterations, r.converged)
    }

    /// Runs collective inference and returns the raw MAP label assignment
    /// (used by loss-augmented decoding in the structured learner).
    pub fn map_assignment(&self) -> Vec<usize> {
        let opts = BpOptions {
            max_iters: self.cfg.max_bp_iters,
            tol: self.cfg.bp_tol,
            ..Default::default()
        };
        propagate(&self.graph, &opts).assignment
    }

    /// Decodes an explicit assignment vector (used by tests and learning).
    pub fn annotation_from_assignment(
        &self,
        assignment: &[usize],
        beliefs: Option<&Vec<Vec<f64>>>,
        iterations: usize,
        converged: bool,
    ) -> TableAnnotation {
        let mut out =
            TableAnnotation { bp_iterations: iterations, converged, ..Default::default() };
        for c in 0..self.num_cols {
            let label = assignment[self.tvar[c].index()];
            let t = (label > 0).then(|| self.cands.columns[c].types[label - 1]);
            out.column_types.insert(c, t);
        }
        for r in 0..self.num_rows {
            for c in 0..self.num_cols {
                let v = self.evar[r][c];
                let label = assignment[v.index()];
                let e = (label > 0).then(|| self.cands.cells[r][c].entities[label - 1]);
                out.cell_entities.insert((r, c), e);
                if let Some(beliefs) = beliefs {
                    let b = &beliefs[v.index()];
                    let margin = belief_margin(b, label);
                    out.cell_confidence.insert((r, c), margin);
                }
            }
        }
        for (pi, pair) in self.cands.pairs.iter().enumerate() {
            let label = assignment[self.bvar[pi].index()];
            if label > 0 {
                let l = pair.rels[label - 1];
                let key = if l.reversed { (pair.c2, pair.c1) } else { (pair.c1, pair.c2) };
                out.relations.insert(key, Some(l.rel));
            } else {
                out.relations.insert((pair.c1, pair.c2), None);
            }
        }
        // Pairs that never got a variable are explicit na.
        for c1 in 0..self.num_cols {
            for c2 in (c1 + 1)..self.num_cols {
                let has_var = self.cands.pairs.iter().any(|p| p.c1 == c1 && p.c2 == c2);
                if !has_var {
                    out.relations.insert((c1, c2), None);
                }
            }
        }
        out
    }

    /// Maps ground truth onto the model's label indices. Returns, per
    /// graph variable, `Some(label)` when the gold label is known *and*
    /// representable in the variable's domain, else `None`.
    pub fn gold_assignment(&self, truth: &GroundTruth) -> Vec<Option<usize>> {
        let mut gold: Vec<Option<usize>> = vec![None; self.graph.num_vars()];
        for c in 0..self.num_cols {
            if let Some(g) = truth.column_types.get(&c) {
                let label = match g {
                    None => Some(0),
                    Some(t) => {
                        self.cands.columns[c].types.iter().position(|x| x == t).map(|i| i + 1)
                    }
                };
                gold[self.tvar[c].index()] = label;
            }
        }
        for r in 0..self.num_rows {
            for c in 0..self.num_cols {
                if let Some(g) = truth.cell_entities.get(&(r, c)) {
                    let label = match g {
                        None => Some(0),
                        Some(e) => self.cands.cells[r][c]
                            .entities
                            .iter()
                            .position(|x| x == e)
                            .map(|i| i + 1),
                    };
                    gold[self.evar[r][c].index()] = label;
                }
            }
        }
        for (pi, pair) in self.cands.pairs.iter().enumerate() {
            // Forward, reversed, or explicit na ground truth.
            let mut label: Option<usize> = None;
            if let Some(Some(b)) = truth.relations.get(&(pair.c1, pair.c2)) {
                label = pair.rels.iter().position(|l| l.rel == *b && !l.reversed).map(|i| i + 1);
            } else if let Some(Some(b)) = truth.relations.get(&(pair.c2, pair.c1)) {
                label = pair.rels.iter().position(|l| l.rel == *b && l.reversed).map(|i| i + 1);
            } else if truth.relations.contains_key(&(pair.c1, pair.c2))
                || truth.relations.contains_key(&(pair.c2, pair.c1))
            {
                label = Some(0);
            }
            gold[self.bvar[pi].index()] = label;
        }
        gold
    }

    /// Stacked feature vector `Φ(y) = [Σf1 | Σf2 | Σf3 | Σf4 | Σf5]` of an
    /// assignment, counting only components whose variables are all
    /// "known" per `mask` (pass `None` to count everything). Used by the
    /// structured learner: `w ← w + η(Φ(gold) − Φ(pred))`.
    pub fn feature_vector(&self, assignment: &[usize], mask: Option<&[Option<usize>]>) -> Vec<f64> {
        let known = |v: VarId| mask.map(|m| m[v.index()].is_some()).unwrap_or(true);
        let mut phi = vec![0.0; TOTAL_DIM];
        let (o1, o2, o3, o4, _o5) = (
            0,
            F1_DIM,
            F1_DIM + F2_DIM,
            F1_DIM + F2_DIM + F3_DIM,
            F1_DIM + F2_DIM + F3_DIM + F4_DIM,
        );
        let o5 = o4 + F4_DIM;
        // f2 (columns) and f1 (cells).
        for c in 0..self.num_cols {
            let v = self.tvar[c];
            let label = assignment[v.index()];
            if label > 0 && known(v) {
                let p = self.cands.columns[c].header_profiles[label - 1].as_array();
                for (i, x) in p.iter().enumerate() {
                    phi[o2 + i] += x;
                }
            }
        }
        for r in 0..self.num_rows {
            for c in 0..self.num_cols {
                let v = self.evar[r][c];
                let label = assignment[v.index()];
                if label > 0 && known(v) {
                    let p = self.cands.cells[r][c].profiles[label - 1].as_array();
                    for (i, x) in p.iter().enumerate() {
                        phi[o1 + i] += x;
                    }
                }
                // f3 couples (t_c, e_rc).
                let tv = self.tvar[c];
                let tlabel = assignment[tv.index()];
                if label > 0 && tlabel > 0 && known(v) && known(tv) {
                    let t = self.cands.columns[c].types[tlabel - 1];
                    let e = self.cands.cells[r][c].entities[label - 1];
                    let f = f3(self.catalog, self.cfg, t, e);
                    for (i, x) in f.iter().enumerate() {
                        phi[o3 + i] += x;
                    }
                }
            }
        }
        for (pi, pair) in self.cands.pairs.iter().enumerate() {
            let bv = self.bvar[pi];
            let blabel = assignment[bv.index()];
            if blabel == 0 || !known(bv) {
                continue;
            }
            let lbl = pair.rels[blabel - 1];
            let (tv1, tv2) = (self.tvar[pair.c1], self.tvar[pair.c2]);
            let (tl1, tl2) = (assignment[tv1.index()], assignment[tv2.index()]);
            if tl1 > 0 && tl2 > 0 && known(tv1) && known(tv2) {
                let f = f4(
                    self.catalog,
                    lbl,
                    self.cands.columns[pair.c1].types[tl1 - 1],
                    self.cands.columns[pair.c2].types[tl2 - 1],
                );
                for (i, x) in f.iter().enumerate() {
                    phi[o4 + i] += x;
                }
            }
            for r in 0..self.num_rows {
                let (ev1, ev2) = (self.evar[r][pair.c1], self.evar[r][pair.c2]);
                let (el1, el2) = (assignment[ev1.index()], assignment[ev2.index()]);
                if el1 > 0 && el2 > 0 && known(ev1) && known(ev2) {
                    let f = f5(
                        self.catalog,
                        lbl,
                        self.cands.cells[r][pair.c1].entities[el1 - 1],
                        self.cands.cells[r][pair.c2].entities[el2 - 1],
                    );
                    for (i, x) in f.iter().enumerate() {
                        phi[o5 + i] += x;
                    }
                }
            }
        }
        phi
    }

    /// A human-readable sketch of the model (Figure 10 analogue).
    pub fn describe(&self) -> String {
        format!(
            "TableModel: {} rows × {} cols; vars: {} types + {} cells + {} relations; factors: {}",
            self.num_rows,
            self.num_cols,
            self.tvar.len(),
            self.num_rows * self.num_cols,
            self.bvar.len(),
            self.graph.num_factors()
        )
    }
}

fn belief_margin(beliefs: &[f64], chosen: usize) -> f64 {
    let chosen_v = beliefs[chosen];
    let mut runner = f64::NEG_INFINITY;
    for (i, &b) in beliefs.iter().enumerate() {
        if i != chosen && b > runner {
            runner = b;
        }
    }
    if runner.is_finite() {
        (chosen_v - runner).max(0.0)
    } else {
        chosen_v.max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use webtable_catalog::{generate_world, WorldConfig};
    use webtable_tables::{NoiseConfig, TableGenerator, TruthMask};
    use webtable_text::SegmentedIndex;

    use super::*;
    use crate::candidates::TableCandidates;

    fn setup() -> (webtable_catalog::World, SegmentedIndex, AnnotatorConfig, Weights) {
        let w = generate_world(&WorldConfig::tiny(5)).unwrap();
        let index = SegmentedIndex::build_split(&w.catalog, 1, 0);
        (w, index, AnnotatorConfig::default(), Weights::default())
    }

    #[test]
    fn model_shapes_match_figure10() {
        // A 3-row 2-column relation table should produce 2 type vars, 6
        // entity vars, and (if related) 1 relation var; factor counts: 6 φ3
        // + 3 φ5 + 1 φ4 (minus cells without candidates).
        let (w, index, cfg, weights) = setup();
        let mut g = TableGenerator::new(&w, NoiseConfig::clean(), TruthMask::full(), 8);
        let lt = g.gen_table_for_relation(w.relations.wrote, 3);
        let t = &lt.table;
        let cands = TableCandidates::build(&w.catalog, &index, t, &cfg);
        let model = TableModel::build(&w.catalog, &cfg, &weights, t, cands);
        let desc = model.describe();
        assert!(desc.contains("3 rows"), "{desc}");
        assert!(model.graph().num_vars() >= t.num_cols() + t.num_rows() * t.num_cols());
    }

    #[test]
    fn decode_annotates_every_cell_and_column() {
        let (w, index, cfg, weights) = setup();
        let mut g = TableGenerator::new(&w, NoiseConfig::wiki(), TruthMask::full(), 9);
        let lt = g.gen_table(6);
        let cands = TableCandidates::build(&w.catalog, &index, &lt.table, &cfg);
        let model = TableModel::build(&w.catalog, &cfg, &weights, &lt.table, cands);
        let ann = model.decode();
        assert_eq!(ann.cell_entities.len(), lt.table.num_rows() * lt.table.num_cols());
        assert_eq!(ann.column_types.len(), lt.table.num_cols());
        // Every unordered pair got a decision (var or explicit na).
        let n = lt.table.num_cols();
        let mut pairs_covered = 0;
        for c1 in 0..n {
            for c2 in (c1 + 1)..n {
                if ann.relation_between(c1, c2).is_some() || ann.relations.contains_key(&(c1, c2)) {
                    pairs_covered += 1;
                }
            }
        }
        assert_eq!(pairs_covered, n * (n - 1) / 2);
    }

    #[test]
    fn gold_assignment_maps_known_labels() {
        let (w, index, cfg, weights) = setup();
        let mut g = TableGenerator::new(&w, NoiseConfig::clean(), TruthMask::full(), 10);
        let lt = g.gen_table(5);
        let cands = TableCandidates::build(&w.catalog, &index, &lt.table, &cfg);
        let model = TableModel::build(&w.catalog, &cfg, &weights, &lt.table, cands);
        let gold = model.gold_assignment(&lt.truth);
        let known = gold.iter().filter(|g| g.is_some()).count();
        assert!(known > 0, "clean tables should have mappable gold labels");
        // Feature vector of the gold assignment is finite and non-negative
        // in the f1 block (similarities).
        let full: Vec<usize> = gold.iter().map(|g| g.unwrap_or(0)).collect();
        let phi = model.feature_vector(&full, Some(&gold));
        assert_eq!(phi.len(), TOTAL_DIM);
        assert!(phi.iter().all(|x| x.is_finite()));
        assert!(phi[0] >= 0.0);
    }

    #[test]
    fn hamming_loss_changes_scores() {
        let (w, index, cfg, weights) = setup();
        let mut g = TableGenerator::new(&w, NoiseConfig::clean(), TruthMask::full(), 11);
        let lt = g.gen_table(4);
        let cands = TableCandidates::build(&w.catalog, &index, &lt.table, &cfg);
        let mut model = TableModel::build(&w.catalog, &cfg, &weights, &lt.table, cands);
        let gold = model.gold_assignment(&lt.truth);
        let full: Vec<usize> = gold.iter().map(|g| g.unwrap_or(0)).collect();
        let before = model.graph().log_score(&full);
        model.add_hamming_loss(&gold, 1.0);
        let after = model.graph().log_score(&full);
        // The gold assignment gains no loss.
        assert!((before - after).abs() < 1e-9);
        // A corrupted assignment gains positive loss.
        let mut corrupted = full.clone();
        let victim = gold.iter().position(|g| g.is_some()).unwrap();
        corrupted[victim] = if full[victim] == 0 { 1 } else { 0 };
        // Only valid if the domain admits the flipped label.
        if corrupted[victim] < model.graph().domain(VarId(victim as u32)) {
            let before_c = before - model.graph().log_score(&corrupted);
            let _ = before_c;
            let after_c = model.graph().log_score(&corrupted);
            assert!(after_c > model.graph().log_score(&full) - 1e9, "sanity");
        }
    }

    #[test]
    fn belief_margin_is_nonnegative() {
        assert!(belief_margin(&[0.0, -1.0], 0) >= 0.0);
        assert_eq!(belief_margin(&[0.0], 0), 0.0);
        assert!((belief_margin(&[0.0, -2.0], 0) - 2.0).abs() < 1e-12);
    }
}
