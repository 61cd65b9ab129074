//! Inference equivalence: `propagate` must agree, bit for bit, with the
//! factor-at-a-time message loop it replaced (kept below as `reference`):
//! every belief's bits, the assignment, the sweep count and the convergence
//! flag. Two graph sets: arbitrary small graphs (arity 1–3, domains 1–5,
//! −∞ and ±0.0 entries, both modes, damping on and off, 1–12 sweeps), and
//! graphs shaped like the annotator's Figure 10 model at served domain sizes.

use proptest::prelude::*;
use webtable_factorgraph::{propagate, BpOptions, BpResult, FactorGraph, Mode, VarId};

/// The message loop before the flat layout and row kernel, verbatim except
/// that `LogTable::for_each` (deleted with it) is a local function here.
mod reference {
    use webtable_factorgraph::{
        argmax, log_add, log_sum_exp, BpOptions, BpResult, FactorGraph, LogTable, Mode, VarId,
    };

    fn for_each(table: &LogTable, mut f: impl FnMut(&[usize], f64)) {
        let dims = table.dims();
        let mut idx = vec![0usize; dims.len()];
        for &v in table.values() {
            f(&idx, v);
            for d in (0..dims.len()).rev() {
                idx[d] += 1;
                if idx[d] < dims[d] {
                    break;
                }
                idx[d] = 0;
            }
        }
    }

    /// Runs loopy BP on a factor graph. Factors are visited in insertion order
    /// each sweep (the caller encodes the paper's Fig. 11 schedule by adding
    /// factor groups in order φ3, φ5, φ4).
    pub fn propagate(g: &FactorGraph, opts: &BpOptions) -> BpResult {
        let nf = g.num_factors();
        // Messages live per (factor, slot): one vector over the slot-variable's
        // domain in each direction.
        let mut msg_f2v: Vec<Vec<Vec<f64>>> = Vec::with_capacity(nf);
        let mut msg_v2f: Vec<Vec<Vec<f64>>> = Vec::with_capacity(nf);
        for f in g.factors() {
            let mk = |_: usize| -> Vec<Vec<f64>> {
                f.vars.iter().map(|&v| vec![0.0; g.domain(v)]).collect()
            };
            msg_f2v.push(mk(0));
            msg_v2f.push(mk(0));
        }

        let mut iterations = 0;
        let mut converged = nf == 0;
        let mut scratch: Vec<f64> = Vec::new();
        for _sweep in 0..opts.max_iters {
            if converged && iterations > 0 {
                break;
            }
            iterations += 1;
            let mut max_delta = 0.0f64;
            for (fi, f) in g.factors().iter().enumerate() {
                // (1) Refresh variable→factor messages for this factor.
                for (slot, &v) in f.vars.iter().enumerate() {
                    let dom = g.domain(v);
                    scratch.clear();
                    scratch.extend_from_slice(g.unary(v));
                    for other in g.factors_of(v) {
                        let oi = other.index();
                        if oi == fi {
                            continue;
                        }
                        // Find this variable's slot in the other factor. A
                        // variable may appear once per factor (enforced by the
                        // annotator's construction).
                        let oslot = g.factors()[oi]
                            .vars
                            .iter()
                            .position(|&ov| ov == v)
                            .expect("adjacency is consistent");
                        let m = &msg_f2v[oi][oslot];
                        for (s, x) in scratch.iter_mut().zip(m) {
                            *s += x;
                        }
                    }
                    normalize(&mut scratch, opts.mode);
                    let out = &mut msg_v2f[fi][slot];
                    debug_assert_eq!(out.len(), dom);
                    out.copy_from_slice(&scratch);
                }
                // (2) Factor→variable messages: combine table with incoming
                // messages from the *other* slots, reduce onto each slot.
                let dims = f.table.dims();
                let mut acc: Vec<Vec<f64>> =
                    f.vars.iter().map(|&v| vec![f64::NEG_INFINITY; g.domain(v)]).collect();
                let in_msgs = &msg_v2f[fi];
                for_each(&f.table, |idx, tval| {
                    // Total incoming excluding each slot = total − that slot's
                    // message; compute total once.
                    let mut total = tval;
                    for (slot, &label) in idx.iter().enumerate() {
                        total += in_msgs[slot][label];
                    }
                    if !total.is_finite() && total < 0.0 {
                        // −∞ contributes nothing to max; for sum-product it is
                        // exp(−∞) = 0.
                        return;
                    }
                    for (slot, &label) in idx.iter().enumerate() {
                        let without = total - in_msgs[slot][label];
                        let cell = &mut acc[slot][label];
                        match opts.mode {
                            Mode::MaxProduct => {
                                if without > *cell {
                                    *cell = without;
                                }
                            }
                            Mode::SumProduct => {
                                *cell = log_add(*cell, without);
                            }
                        }
                    }
                });
                let _ = dims;
                for (slot, mut new_msg) in acc.into_iter().enumerate() {
                    normalize(&mut new_msg, opts.mode);
                    let old = &mut msg_f2v[fi][slot];
                    for (o, n) in old.iter_mut().zip(new_msg.iter_mut()) {
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
            for f in g.factors_of(v) {
                let fi = f.index();
                let slot = g.factors()[fi]
                    .vars
                    .iter()
                    .position(|&ov| ov == v)
                    .expect("adjacency is consistent");
                for (x, m) in b.iter_mut().zip(&msg_f2v[fi][slot]) {
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
}

/// SplitMix64: a tiny deterministic generator for graph contents.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Uniform in `[lo, hi)`.
    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A log potential that is often special: −∞, `0.0`, `-0.0`, a value
    /// repeated across entries (ties), or a random finite value.
    fn log_value(&mut self) -> f64 {
        match self.below(10) {
            0 => f64::NEG_INFINITY,
            1 => 0.0,
            2 => -0.0,
            3 => 0.5,
            _ => self.uniform(-2.0, 2.0),
        }
    }
}

/// An arbitrary small graph: 1–6 variables with domains 1–5 and 0–7
/// factors of arity 1–3 over distinct variables.
fn arbitrary_graph(rng: &mut Rng) -> FactorGraph {
    let mut g = FactorGraph::new();
    let vars: Vec<VarId> = (0..1 + rng.below(6)).map(|_| g.add_var(1 + rng.below(5))).collect();
    for &v in &vars {
        let u: Vec<f64> = (0..g.domain(v)).map(|_| rng.log_value()).collect();
        g.add_unary(v, &u);
    }
    for _ in 0..rng.below(8) {
        let mut scope: Vec<VarId> = Vec::new();
        for _ in 0..1 + rng.below(3) {
            let v = vars[rng.below(vars.len())];
            if !scope.contains(&v) {
                scope.push(v);
            }
        }
        g.add_factor_with(&scope, |_| rng.log_value());
    }
    g
}

/// A graph shaped like the annotator's model (Figure 10) at served domain
/// sizes: per column a type variable over `na` + ~30 types, per cell an
/// entity variable over `na` + up to 8 entities, per column pair a relation
/// variable over `na` + up to 12 relations; unaries and tables are 0 on
/// every `na` label; factors come in the φ3, φ5, φ4 schedule order, with
/// no φ3 or φ5 factor on a cell without candidates.
fn figure10_graph(rng: &mut Rng, rows: usize) -> FactorGraph {
    let cols = 2 + rng.below(3);
    let mut g = FactorGraph::new();
    let tvar: Vec<VarId> = (0..cols).map(|_| g.add_var(1 + 20 + rng.below(21))).collect();
    let evar: Vec<Vec<VarId>> =
        (0..rows).map(|_| (0..cols).map(|_| g.add_var(1 + rng.below(9))).collect()).collect();
    let pairs: Vec<(usize, usize)> =
        (1..cols).map(|c| (0, c)).filter(|_| rng.below(4) != 0).collect();
    let bvar: Vec<VarId> = pairs.iter().map(|_| g.add_var(1 + 1 + rng.below(12))).collect();
    let all: Vec<VarId> = tvar.iter().chain(evar.iter().flatten()).chain(&bvar).copied().collect();
    for &v in &all {
        let u: Vec<f64> =
            (0..g.domain(v)).map(|l| if l == 0 { 0.0 } else { rng.uniform(-1.0, 3.0) }).collect();
        g.add_unary(v, &u);
    }
    let value = |idx: &[usize], rng: &mut Rng| {
        if idx.contains(&0) || rng.below(3) == 0 {
            0.0
        } else {
            rng.uniform(-0.5, 2.0)
        }
    };
    for (c, &t) in tvar.iter().enumerate() {
        for row in &evar {
            if g.domain(row[c]) > 1 {
                g.add_factor_with(&[t, row[c]], |idx| value(idx, rng));
            }
        }
    }
    for (&b, &(c1, c2)) in bvar.iter().zip(&pairs) {
        for row in &evar {
            if g.domain(row[c1]) > 1 && g.domain(row[c2]) > 1 {
                g.add_factor_with(&[b, row[c1], row[c2]], |idx| value(idx, rng));
            }
        }
    }
    for (&b, &(c1, c2)) in bvar.iter().zip(&pairs) {
        g.add_factor_with(&[b, tvar[c1], tvar[c2]], |idx| value(idx, rng));
    }
    g
}

fn assert_identical(g: &FactorGraph, opts: &BpOptions) -> Result<(), TestCaseError> {
    let got: BpResult = propagate(g, opts);
    let want: BpResult = reference::propagate(g, opts);
    let bits = |r: &BpResult| -> Vec<Vec<u64>> {
        r.beliefs.iter().map(|b| b.iter().map(|x| x.to_bits()).collect()).collect()
    };
    prop_assert_eq!(bits(&got), bits(&want), "belief bits differ under {:?}", opts);
    prop_assert_eq!(&got.assignment, &want.assignment, "assignment differs under {:?}", opts);
    prop_assert_eq!(got.iterations, want.iterations, "sweep count differs under {:?}", opts);
    prop_assert_eq!(got.converged, want.converged, "convergence differs under {:?}", opts);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn arbitrary_graphs_match_the_reference_bitwise(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let g = arbitrary_graph(&mut rng);
        for mode in [Mode::MaxProduct, Mode::SumProduct] {
            for damping in [0.0, 0.5] {
                let max_iters = 1 + rng.below(12);
                let opts = BpOptions { max_iters, damping, mode, ..Default::default() };
                assert_identical(&g, &opts)?;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn figure10_graphs_match_the_reference_bitwise(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let rows = [8, 12][rng.below(2)];
        let g = figure10_graph(&mut rng, rows);
        // The annotator's options (10 sweeps, tol 1e-5, max-product), then
        // sum-product or damping on the same graph.
        let served = BpOptions { max_iters: 10, tol: 1e-5, ..Default::default() };
        assert_identical(&g, &served)?;
        let other = if rng.below(2) == 0 {
            BpOptions { mode: Mode::SumProduct, ..served }
        } else {
            BpOptions { damping: 0.5, ..served }
        };
        assert_identical(&g, &other)?;
    }
}
