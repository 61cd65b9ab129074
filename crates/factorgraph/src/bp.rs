//! Loopy belief propagation (message passing) in log space.
//!
//! Implements the inference procedure of §4.4.2 / Appendix D: messages flow
//! between variable nodes and factor nodes until convergence; max-product
//! messages carry "the belief that factor φ has about the label that
//! variable should be assigned". The paper observes convergence within ~3
//! iterations on table graphs; [`BpResult::iterations`] exposes the count
//! so experiments can verify the same behaviour.
//!
//! Messages are normalized (max subtracted in max-product; log-sum-exp in
//! sum-product) for numerical stability. Damping is supported but defaults
//! to off, matching the paper.
//!
//! **Layout.** Each call lays the messages out once: one flat `Vec<f64>`
//! per direction (factor→variable, variable→factor), with an offset per
//! (factor, slot), and for each variable its slots in `factors_of` order.
//! A sweep only indexes: no nested vectors, no slot search.
//!
//! **Row kernel.** A factor→variable update walks the factor's table a
//! row at a time (a row fixes every label but the last). The incoming
//! messages of the fixed slots, and their accumulators, stay in locals for
//! the row; the last slot's accumulators update element-wise. One generic
//! function serves every factor, instantiated per arity (1 to
//! [`MAX_ARITY`]) and per semiring.
//!
//! **Bit for bit.** The rewrite keeps every float operation of the
//! entry-at-a-time loop it replaced: each entry sums
//! `((table + m0) + m1) + m2` in slot order and subtracts its own slot's
//! message, entries with a −∞ total are skipped, and every accumulator
//! folds its values in row-major order (max as `if w > acc`). Loading a
//! prefix accumulator at the start of a row and storing it at the end
//! changes no fold order. So beliefs, assignments and sweep counts are
//! identical (`tests/bp_equivalence.rs` checks against the old loop). A
//! factored φ4 update, or summing the prefix messages once per row, would
//! reassociate those sums and is not identical.

use std::ops::Range;

use crate::graph::{FactorGraph, VarId, MAX_ARITY};

/// Message combination semiring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Max-product (MAP assignment; the paper's inference).
    MaxProduct,
    /// Sum-product (marginals; used for ranking confidences).
    SumProduct,
}

/// Options for [`propagate`].
#[derive(Debug, Clone)]
pub struct BpOptions {
    /// Maximum sweeps over all factors.
    pub max_iters: usize,
    /// Convergence threshold on the max absolute message change.
    pub tol: f64,
    /// Damping coefficient in `[0, 1)`: `m ← (1-d)·m_new + d·m_old`.
    pub damping: f64,
    /// Semiring.
    pub mode: Mode,
}

impl Default for BpOptions {
    fn default() -> Self {
        BpOptions { max_iters: 20, tol: 1e-6, damping: 0.0, mode: Mode::MaxProduct }
    }
}

/// Result of message passing.
#[derive(Debug, Clone)]
pub struct BpResult {
    /// Decoded assignment (argmax of beliefs; ties → smallest label).
    pub assignment: Vec<usize>,
    /// Per-variable beliefs in log space, normalized per the mode.
    pub beliefs: Vec<Vec<f64>>,
    /// Sweeps executed.
    pub iterations: usize,
    /// Whether the message change dropped below `tol`.
    pub converged: bool,
}

impl BpResult {
    /// Per-variable *probabilities* (sum-product mode): exponentiated,
    /// normalized beliefs.
    pub fn marginals(&self) -> Vec<Vec<f64>> {
        self.beliefs
            .iter()
            .map(|b| {
                let max = b.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let exp: Vec<f64> = b.iter().map(|&x| (x - max).exp()).collect();
                let z: f64 = exp.iter().sum();
                if z > 0.0 {
                    exp.into_iter().map(|x| x / z).collect()
                } else {
                    vec![1.0 / b.len() as f64; b.len()]
                }
            })
            .collect()
    }
}

/// Runs loopy BP on a factor graph. Factors are visited in insertion order
/// each sweep (the caller encodes the paper's Fig. 11 schedule by adding
/// factor groups in order φ3, φ5, φ4).
pub fn propagate(g: &FactorGraph, opts: &BpOptions) -> BpResult {
    let nf = g.num_factors();
    let layout = Layout::new(g);
    let mut msg_f2v = vec![0.0; layout.len()];
    let mut msg_v2f = vec![0.0; layout.len()];
    let mut acc: Vec<f64> = Vec::new();

    let mut iterations = 0;
    let mut converged = nf == 0;
    for _sweep in 0..opts.max_iters {
        if converged && iterations > 0 {
            break;
        }
        iterations += 1;
        let mut max_delta = 0.0f64;
        for (fi, f) in g.factors().iter().enumerate() {
            // (1) Refresh variable→factor messages for this factor: the
            // unary plus every other adjacent factor's message, in
            // `factors_of` order.
            for (s, &v) in layout.slots(fi).zip(&f.vars) {
                let out = &mut msg_v2f[layout.msg(s)];
                out.copy_from_slice(g.unary(v));
                for &(oi, os) in layout.adjacent(v) {
                    if oi == fi {
                        continue;
                    }
                    for (x, m) in out.iter_mut().zip(&msg_f2v[layout.msg(os)]) {
                        *x += m;
                    }
                }
                normalize(out, opts.mode);
            }
            // (2) Factor→variable messages: combine table with incoming
            // messages from the *other* slots, reduce onto each slot.
            let span = layout.factor_msgs(fi);
            acc.clear();
            acc.resize(span.len(), f64::NEG_INFINITY);
            let in_msgs = &msg_v2f[span.clone()];
            let (values, dims) = (f.table.values(), f.table.dims());
            match (dims.len(), opts.mode) {
                (1, Mode::MaxProduct) => reduce_rows::<0, Max>(values, dims, in_msgs, &mut acc),
                (2, Mode::MaxProduct) => reduce_rows::<1, Max>(values, dims, in_msgs, &mut acc),
                (3, Mode::MaxProduct) => reduce_rows::<2, Max>(values, dims, in_msgs, &mut acc),
                (1, Mode::SumProduct) => reduce_rows::<0, LogSum>(values, dims, in_msgs, &mut acc),
                (2, Mode::SumProduct) => reduce_rows::<1, LogSum>(values, dims, in_msgs, &mut acc),
                (3, Mode::SumProduct) => reduce_rows::<2, LogSum>(values, dims, in_msgs, &mut acc),
                (arity, _) => unreachable!("add_factor admits arity 1..={MAX_ARITY}, not {arity}"),
            }
            let mut new_msgs = acc.as_mut_slice();
            for s in layout.slots(fi) {
                let old = &mut msg_f2v[layout.msg(s)];
                let (new_msg, rest) = new_msgs.split_at_mut(old.len());
                new_msgs = rest;
                normalize(new_msg, opts.mode);
                for (o, n) in old.iter_mut().zip(new_msg.iter()) {
                    let blended = if opts.damping > 0.0 && o.is_finite() && n.is_finite() {
                        (1.0 - opts.damping) * *n + opts.damping * *o
                    } else {
                        *n
                    };
                    let delta = if blended.is_finite() && o.is_finite() {
                        (blended - *o).abs()
                    } else if blended == *o {
                        0.0
                    } else {
                        f64::INFINITY
                    };
                    if delta > max_delta {
                        max_delta = delta;
                    }
                    *o = blended;
                }
            }
        }
        converged = max_delta < opts.tol;
        if converged {
            break;
        }
    }

    // Decode beliefs.
    let mut beliefs = Vec::with_capacity(g.num_vars());
    let mut assignment = Vec::with_capacity(g.num_vars());
    for vi in 0..g.num_vars() {
        let v = VarId(vi as u32);
        let mut b = g.unary(v).to_vec();
        for &(_, s) in layout.adjacent(v) {
            for (x, m) in b.iter_mut().zip(&msg_f2v[layout.msg(s)]) {
                *x += m;
            }
        }
        normalize(&mut b, opts.mode);
        let best = argmax(&b);
        assignment.push(best);
        beliefs.push(b);
    }
    if opts.mode == Mode::MaxProduct {
        // Per-variable argmax of max-marginals can be jointly inconsistent
        // when beliefs tie (multiple MAP optima) or on loopy graphs; a
        // deterministic ICM refinement repairs the assignment to a local
        // optimum of the true joint score without changing the beliefs.
        icm_refine(g, &mut assignment);
    }
    BpResult { assignment, beliefs, iterations, converged }
}

/// Where every message lives in the two flat message buffers.
///
/// A *slot* is one (factor, position) pair; factor `fi`'s slots are
/// numbered consecutively in `vars` order, so a factor's messages form one
/// contiguous span, slot by slot. Each slot's message is a vector over its
/// variable's domain.
struct Layout {
    /// Factor `fi`'s slots are `first_slot[fi]..first_slot[fi + 1]`.
    first_slot: Vec<usize>,
    /// Slot `s`'s message is `msg_start[s]..msg_start[s + 1]`.
    msg_start: Vec<usize>,
    /// Variable `v`'s `(factor, slot)` pairs, in `factors_of` order, are
    /// `adj[adj_start[v]..adj_start[v + 1]]`. The slot is the variable's
    /// first position in that factor.
    adj_start: Vec<usize>,
    adj: Vec<(usize, usize)>,
}

impl Layout {
    fn new(g: &FactorGraph) -> Layout {
        let mut first_slot = Vec::with_capacity(g.num_factors() + 1);
        let mut msg_start = vec![0];
        let mut end = 0;
        for f in g.factors() {
            first_slot.push(msg_start.len() - 1);
            for &v in &f.vars {
                end += g.domain(v);
                msg_start.push(end);
            }
        }
        first_slot.push(msg_start.len() - 1);
        let mut adj_start = Vec::with_capacity(g.num_vars() + 1);
        let mut adj = Vec::new();
        for vi in 0..g.num_vars() {
            let v = VarId(vi as u32);
            adj_start.push(adj.len());
            for f in g.factors_of(v) {
                let fi = f.index();
                let pos = g.factors()[fi]
                    .vars
                    .iter()
                    .position(|&ov| ov == v)
                    .expect("adjacency is consistent");
                adj.push((fi, first_slot[fi] + pos));
            }
        }
        adj_start.push(adj.len());
        Layout { first_slot, msg_start, adj_start, adj }
    }

    /// Total message length in one direction.
    fn len(&self) -> usize {
        self.msg_start[self.msg_start.len() - 1]
    }

    /// Factor `fi`'s slots, in `vars` order.
    fn slots(&self, fi: usize) -> Range<usize> {
        self.first_slot[fi]..self.first_slot[fi + 1]
    }

    /// Slot `s`'s message span.
    fn msg(&self, s: usize) -> Range<usize> {
        self.msg_start[s]..self.msg_start[s + 1]
    }

    /// The span holding all of factor `fi`'s messages.
    fn factor_msgs(&self, fi: usize) -> Range<usize> {
        self.msg_start[self.first_slot[fi]]..self.msg_start[self.first_slot[fi + 1]]
    }

    /// Variable `v`'s `(factor, slot)` pairs in `factors_of` order.
    fn adjacent(&self, v: VarId) -> &[(usize, usize)] {
        &self.adj[self.adj_start[v.index()]..self.adj_start[v.index() + 1]]
    }
}

/// A semiring's ⊕, folded into one accumulator cell.
trait Fold {
    fn fold(acc: f64, w: f64) -> f64;
}

/// Max-product: `w` replaces `acc` only if strictly greater, so a NaN `w`
/// never wins and of two equal values the first one folded stays.
struct Max;

impl Fold for Max {
    #[inline(always)]
    fn fold(acc: f64, w: f64) -> f64 {
        if w > acc {
            w
        } else {
            acc
        }
    }
}

/// Sum-product: `ln(e^acc + e^w)`.
struct LogSum;

impl Fold for LogSum {
    #[inline(always)]
    fn fold(acc: f64, w: f64) -> f64 {
        log_add(acc, w)
    }
}

/// Reduces one factor table onto each of its slots: for every entry,
/// `total = table + Σ incoming` (summed in slot order), and each slot's
/// accumulator at its label folds `total − incoming[slot]`. Entries whose
/// total is −∞ are skipped (they add nothing to a max, and `e^−∞ = 0` to a
/// sum).
///
/// `P` is the arity minus one. The table is walked a row at a time (a row
/// fixes the `P` prefix labels and runs over the last slot's domain), so the
/// prefix messages and their accumulators sit in locals for the whole row
/// and the last slot's accumulators update element-wise. Every accumulator
/// still folds its values in row-major order.
///
/// `msgs` and `acc` hold the factor's slots back to back, each as long as
/// its dimension in `dims`.
fn reduce_rows<const P: usize, C: Fold>(
    values: &[f64],
    dims: &[usize],
    msgs: &[f64],
    acc: &mut [f64],
) {
    let mut start = [0usize; P];
    let mut dim = [0usize; P];
    let mut off = 0;
    for p in 0..P {
        start[p] = off;
        dim[p] = dims[p];
        off += dims[p];
    }
    let (pre_msgs, last_msgs) = msgs.split_at(off);
    let (pre_acc, last_acc) = acc.split_at_mut(off);
    let mut label = [0usize; P];
    for row in values.chunks_exact(dims[P]) {
        let mut m = [0.0f64; P];
        let mut a = [0.0f64; P];
        for p in 0..P {
            m[p] = pre_msgs[start[p] + label[p]];
            a[p] = pre_acc[start[p] + label[p]];
        }
        for ((&tval, &ml), al) in row.iter().zip(last_msgs).zip(last_acc.iter_mut()) {
            let mut total = tval;
            for mp in m {
                total += mp;
            }
            total += ml;
            if total == f64::NEG_INFINITY {
                continue;
            }
            for p in 0..P {
                a[p] = C::fold(a[p], total - m[p]);
            }
            *al = C::fold(*al, total - ml);
        }
        for p in 0..P {
            pre_acc[start[p] + label[p]] = a[p];
        }
        // Next row: advance the prefix labels, last prefix fastest.
        for p in (0..P).rev() {
            label[p] += 1;
            if label[p] < dim[p] {
                break;
            }
            label[p] = 0;
        }
    }
}

/// Iterated-conditional-modes refinement: greedily re-optimizes one
/// variable at a time under the true joint score until a fixpoint
/// (bounded sweeps; strictly-improving moves only, so it terminates).
fn icm_refine(g: &FactorGraph, assignment: &mut [usize]) {
    const MAX_SWEEPS: usize = 10;
    let mut idx_buf: Vec<usize> = Vec::new();
    for _ in 0..MAX_SWEEPS {
        let mut changed = false;
        for vi in 0..g.num_vars() {
            let v = VarId(vi as u32);
            let dom = g.domain(v);
            let mut best_label = assignment[vi];
            let mut best_score = local_score(g, v, assignment, assignment[vi], &mut idx_buf);
            for label in 0..dom {
                if label == assignment[vi] {
                    continue;
                }
                let s = local_score(g, v, assignment, label, &mut idx_buf);
                if s > best_score {
                    best_score = s;
                    best_label = label;
                }
            }
            if best_label != assignment[vi] {
                assignment[vi] = best_label;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
}

/// Score contribution of variable `v` taking `label`, holding the rest of
/// `assignment` fixed (unary + all adjacent factor entries).
fn local_score(
    g: &FactorGraph,
    v: VarId,
    assignment: &[usize],
    label: usize,
    idx_buf: &mut Vec<usize>,
) -> f64 {
    let mut s = g.unary(v)[label];
    for f in g.factors_of(v) {
        let factor = g.factor(f);
        idx_buf.clear();
        idx_buf.extend(factor.vars.iter().map(|&ov| {
            if ov == v {
                label
            } else {
                assignment[ov.index()]
            }
        }));
        s += factor.table.get(idx_buf);
    }
    s
}

/// Deterministic argmax: ties break toward the smallest label.
pub fn argmax(xs: &[f64]) -> usize {
    let mut best = 0usize;
    let mut best_v = f64::NEG_INFINITY;
    for (i, &x) in xs.iter().enumerate() {
        if x > best_v {
            best_v = x;
            best = i;
        }
    }
    best
}

fn normalize(msg: &mut [f64], mode: Mode) {
    match mode {
        Mode::MaxProduct => {
            let max = msg.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            if max.is_finite() {
                for x in msg.iter_mut() {
                    *x -= max;
                }
            }
        }
        Mode::SumProduct => {
            let lse = log_sum_exp(msg);
            if lse.is_finite() {
                for x in msg.iter_mut() {
                    *x -= lse;
                }
            }
        }
    }
}

/// `ln(e^a + e^b)` with overflow protection.
pub fn log_add(a: f64, b: f64) -> f64 {
    if a == f64::NEG_INFINITY {
        return b;
    }
    if b == f64::NEG_INFINITY {
        return a;
    }
    let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
    hi + (lo - hi).exp().ln_1p()
}

/// `ln Σ e^x` with overflow protection.
pub fn log_sum_exp(xs: &[f64]) -> f64 {
    let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if !max.is_finite() {
        return max;
    }
    max + xs.iter().map(|&x| (x - max).exp()).sum::<f64>().ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_map;

    #[test]
    fn unary_only_graph_decodes_argmax() {
        let mut g = FactorGraph::new();
        let a = g.add_var(3);
        g.add_unary(a, &[0.1, 0.9, 0.3]);
        let r = propagate(&g, &BpOptions::default());
        assert_eq!(r.assignment, vec![1]);
        assert!(r.converged);
    }

    #[test]
    fn chain_matches_exact() {
        let mut g = FactorGraph::new();
        let a = g.add_var(2);
        let b = g.add_var(2);
        g.add_unary(a, &[0.0, 0.4]);
        g.add_unary(b, &[0.3, 0.0]);
        g.add_factor_with(&[a, b], |idx| if idx[0] == idx[1] { 1.0 } else { 0.0 });
        let r = propagate(&g, &BpOptions::default());
        let (exact, _) = exact_map(&g).unwrap();
        assert_eq!(r.assignment, exact);
    }

    #[test]
    fn tree_is_exact() {
        // Star: center coupled to three leaves; BP on trees is exact.
        let mut g = FactorGraph::new();
        let c = g.add_var(3);
        g.add_unary(c, &[0.2, 0.0, 0.1]);
        for i in 0..3 {
            let leaf = g.add_var(2);
            g.add_unary(leaf, &[0.0, 0.3]);
            g.add_factor_with(
                &[c, leaf],
                move |idx| {
                    if idx[0] == i && idx[1] == 1 {
                        1.5
                    } else {
                        0.0
                    }
                },
            );
        }
        let r = propagate(&g, &BpOptions::default());
        let (exact, score) = exact_map(&g).unwrap();
        assert_eq!(r.assignment, exact);
        assert!((g.log_score(&r.assignment) - score).abs() < 1e-9);
        assert!(r.converged);
    }

    #[test]
    fn hard_constraints_via_neg_infinity() {
        let mut g = FactorGraph::new();
        let a = g.add_var(2);
        let b = g.add_var(2);
        g.add_unary(a, &[1.0, 0.0]);
        g.add_unary(b, &[1.0, 0.0]);
        // Forbid (0,0) which unaries prefer.
        g.add_factor_with(&[a, b], |idx| {
            if idx[0] == 0 && idx[1] == 0 {
                f64::NEG_INFINITY
            } else {
                0.0
            }
        });
        let r = propagate(&g, &BpOptions::default());
        assert_ne!(r.assignment, vec![0, 0]);
        let (exact, _) = exact_map(&g).unwrap();
        assert_eq!(g.log_score(&r.assignment), g.log_score(&exact));
    }

    #[test]
    fn ternary_factor_matches_exact() {
        let mut g = FactorGraph::new();
        let a = g.add_var(2);
        let b = g.add_var(3);
        let c = g.add_var(2);
        g.add_unary(b, &[0.0, 0.1, 0.0]);
        g.add_factor_with(&[a, b, c], |idx| {
            (idx[0] + idx[1] + idx[2]) as f64 * 0.3 - ((idx[0] == idx[2]) as u8 as f64)
        });
        let r = propagate(&g, &BpOptions::default());
        let (exact, _) = exact_map(&g).unwrap();
        assert!((g.log_score(&r.assignment) - g.log_score(&exact)).abs() < 1e-9);
    }

    #[test]
    fn sum_product_marginals_match_enumeration() {
        let mut g = FactorGraph::new();
        let a = g.add_var(2);
        let b = g.add_var(2);
        g.add_unary(a, &[0.0, 0.7]);
        g.add_factor_with(&[a, b], |idx| if idx[0] == idx[1] { 0.9 } else { 0.0 });
        let r = propagate(&g, &BpOptions { mode: Mode::SumProduct, ..Default::default() });
        let marg = r.marginals();
        // Enumerate exactly.
        let mut pa = [0.0f64; 2];
        for (x, slot) in pa.iter_mut().enumerate() {
            for y in 0..2 {
                *slot += g.log_score(&[x, y]).exp();
            }
        }
        let z: f64 = pa.iter().sum();
        for x in 0..2 {
            assert!((marg[0][x] - pa[x] / z).abs() < 1e-6, "{marg:?} vs {pa:?}");
        }
    }

    #[test]
    fn converges_in_few_iterations_on_table_like_graphs() {
        // A miniature "table": 2 columns × 3 rows + relation variable,
        // mirroring Figure 10's topology.
        let mut g = FactorGraph::new();
        let t1 = g.add_var(3);
        let t2 = g.add_var(3);
        let b12 = g.add_var(2);
        let cells1: Vec<VarId> = (0..3).map(|_| g.add_var(4)).collect();
        let cells2: Vec<VarId> = (0..3).map(|_| g.add_var(4)).collect();
        for &e in &cells1 {
            g.add_factor_with(&[t1, e], |idx| if idx[0] == idx[1] % 3 { 0.8 } else { 0.0 });
        }
        for &e in &cells2 {
            g.add_factor_with(&[t2, e], |idx| if idx[0] == idx[1] % 3 { 0.8 } else { 0.0 });
        }
        for (&e1, &e2) in cells1.iter().zip(&cells2) {
            g.add_factor_with(&[b12, e1, e2], |idx| {
                if idx[0] == 1 && idx[1] == idx[2] {
                    0.5
                } else {
                    0.0
                }
            });
        }
        g.add_factor_with(
            &[b12, t1, t2],
            |idx| {
                if idx[0] == 1 && idx[1] == idx[2] {
                    0.7
                } else {
                    0.0
                }
            },
        );
        let r = propagate(&g, &BpOptions::default());
        assert!(r.converged, "should converge");
        assert!(r.iterations <= 6, "paper reports ~3 sweeps; got {}", r.iterations);
    }

    #[test]
    fn log_add_and_lse() {
        assert!((log_add(0.0, 0.0) - std::f64::consts::LN_2).abs() < 1e-12);
        assert_eq!(log_add(f64::NEG_INFINITY, 1.5), 1.5);
        assert_eq!(log_sum_exp(&[f64::NEG_INFINITY, f64::NEG_INFINITY]), f64::NEG_INFINITY);
        let lse = log_sum_exp(&[1000.0, 1000.0]);
        assert!((lse - (1000.0 + std::f64::consts::LN_2)).abs() < 1e-9);
    }

    #[test]
    fn argmax_breaks_ties_low() {
        assert_eq!(argmax(&[1.0, 1.0, 0.5]), 0);
        assert_eq!(argmax(&[0.1, 0.5, 0.5]), 1);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::exact::exact_map;

    /// A frustrated cycle — the classic case where plain loopy BP can
    /// oscillate; damping plus ICM must still land on a good assignment.
    #[test]
    fn damping_stabilizes_frustrated_cycles() {
        let mut g = FactorGraph::new();
        let vars: Vec<VarId> = (0..3).map(|_| g.add_var(2)).collect();
        for i in 0..3 {
            let a = vars[i];
            let b = vars[(i + 1) % 3];
            // Anti-ferromagnetic: prefer disagreement (impossible on an
            // odd cycle, hence "frustrated").
            g.add_factor_with(&[a, b], |idx| if idx[0] != idx[1] { 1.0 } else { 0.0 });
        }
        let damped =
            propagate(&g, &BpOptions { damping: 0.5, max_iters: 50, ..Default::default() });
        let (_, exact_score) = exact_map(&g).unwrap();
        assert!(
            (g.log_score(&damped.assignment) - exact_score).abs() < 1e-9,
            "damped BP + ICM finds an optimal frustrated assignment"
        );
    }

    #[test]
    fn max_iters_bounds_work() {
        let mut g = FactorGraph::new();
        let a = g.add_var(2);
        let b = g.add_var(2);
        g.add_factor_with(&[a, b], |idx| (idx[0] ^ idx[1]) as f64);
        let r = propagate(&g, &BpOptions { max_iters: 1, ..Default::default() });
        assert_eq!(r.iterations, 1);
    }

    #[test]
    fn empty_graph_is_trivially_converged() {
        let g = FactorGraph::new();
        let r = propagate(&g, &BpOptions::default());
        assert!(r.converged);
        assert!(r.assignment.is_empty());
    }

    #[test]
    fn marginals_are_uniform_for_flat_potentials() {
        let mut g = FactorGraph::new();
        let a = g.add_var(4);
        let _ = a;
        let r = propagate(&g, &BpOptions { mode: Mode::SumProduct, ..Default::default() });
        for p in &r.marginals()[0] {
            assert!((p - 0.25).abs() < 1e-12);
        }
    }
}
