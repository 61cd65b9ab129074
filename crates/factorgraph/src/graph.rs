//! Factor-graph representation.
//!
//! A factor graph (Appendix B of the paper; Koller & Friedman [13]) has
//! variable nodes with finite label domains and factor nodes coupling
//! subsets of variables through non-negative potentials. We store
//! potentials in **log space** as dense row-major tables, materialized once
//! per factor — the annotator prunes candidate sets before building the
//! graph, so tables stay small (§4.3).

use crate::table::LogTable;

/// The most variables one factor may couple. The paper's model needs no
/// more: φ3 couples a column type with a cell entity, φ4 a relation with
/// two column types and φ5 a relation with two cell entities (φ1 and φ2
/// are unaries). Message passing instantiates its row kernel once for
/// each arity from 1 to this bound.
pub const MAX_ARITY: usize = 3;

/// Identifier of a variable node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub u32);

impl VarId {
    /// Dense index of the variable.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of a factor node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FactorId(pub u32);

impl FactorId {
    /// Dense index of the factor.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A factor node: the variables it couples and its log-potential table.
#[derive(Debug, Clone)]
pub struct Factor {
    /// The coupled variables, in table dimension order.
    pub vars: Vec<VarId>,
    /// Log potentials, row-major over `vars`' domains.
    pub table: LogTable,
}

/// A factor graph over finitely-labelled variables.
///
/// Unary (single-variable) potentials are stored directly on the variables
/// — `φ1`, `φ2` in the paper — while higher-arity potentials (`φ3`, `φ4`,
/// `φ5`) become [`Factor`]s. Message-passing visits factors in insertion
/// order, so adding factors in the paper's schedule order (φ3 group, then
/// φ5 group, then φ4 group; Fig. 11) reproduces the paper's schedule.
#[derive(Debug, Clone, Default)]
pub struct FactorGraph {
    domains: Vec<usize>,
    unary: Vec<Vec<f64>>,
    factors: Vec<Factor>,
    var_factors: Vec<Vec<u32>>,
}

impl FactorGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        FactorGraph::default()
    }

    /// Adds a variable with `domain` possible labels (log-potential 0 each).
    pub fn add_var(&mut self, domain: usize) -> VarId {
        assert!(domain >= 1, "variable domains must be non-empty");
        let id = VarId(self.domains.len() as u32);
        self.domains.push(domain);
        self.unary.push(vec![0.0; domain]);
        self.var_factors.push(Vec::new());
        id
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.domains.len()
    }

    /// Number of factors.
    pub fn num_factors(&self) -> usize {
        self.factors.len()
    }

    /// Domain size of a variable.
    pub fn domain(&self, v: VarId) -> usize {
        self.domains[v.index()]
    }

    /// Adds `log_values` element-wise to a variable's unary log-potential.
    pub fn add_unary(&mut self, v: VarId, log_values: &[f64]) {
        let u = &mut self.unary[v.index()];
        assert_eq!(u.len(), log_values.len(), "unary length must match domain");
        for (slot, &x) in u.iter_mut().zip(log_values) {
            *slot += x;
        }
    }

    /// The unary log-potential of a variable.
    pub fn unary(&self, v: VarId) -> &[f64] {
        &self.unary[v.index()]
    }

    /// Adds a factor over `vars` with a row-major log-potential table.
    ///
    /// `log_values.len()` must equal the product of the variables' domains.
    /// Dimension order follows `vars` (last variable fastest). A factor
    /// couples 1 to [`MAX_ARITY`] variables: the paper's φ3 has arity 2, φ4
    /// and φ5 arity 3.
    pub fn add_factor(&mut self, vars: &[VarId], log_values: Vec<f64>) -> FactorId {
        assert!(
            (1..=MAX_ARITY).contains(&vars.len()),
            "factors couple 1 to {MAX_ARITY} variables, not {}",
            vars.len()
        );
        let dims: Vec<usize> = vars.iter().map(|&v| self.domain(v)).collect();
        let table = LogTable::new(dims, log_values);
        let id = FactorId(self.factors.len() as u32);
        for &v in vars {
            self.var_factors[v.index()].push(id.0);
        }
        self.factors.push(Factor { vars: vars.to_vec(), table });
        id
    }

    /// Adds a factor whose log-potential is computed by `f` over assignment
    /// index tuples.
    pub fn add_factor_with<F>(&mut self, vars: &[VarId], mut f: F) -> FactorId
    where
        F: FnMut(&[usize]) -> f64,
    {
        let dims: Vec<usize> = vars.iter().map(|&v| self.domain(v)).collect();
        let total: usize = dims.iter().product();
        let mut values = Vec::with_capacity(total);
        let mut idx = vec![0usize; dims.len()];
        for _ in 0..total {
            values.push(f(&idx));
            // Increment the mixed-radix counter (last dimension fastest).
            for d in (0..dims.len()).rev() {
                idx[d] += 1;
                if idx[d] < dims[d] {
                    break;
                }
                idx[d] = 0;
            }
        }
        self.add_factor(vars, values)
    }

    /// The factors, in insertion (schedule) order.
    pub fn factors(&self) -> &[Factor] {
        &self.factors
    }

    /// One factor.
    pub fn factor(&self, f: FactorId) -> &Factor {
        &self.factors[f.index()]
    }

    /// Ids of factors touching a variable.
    pub fn factors_of(&self, v: VarId) -> impl Iterator<Item = FactorId> + '_ {
        self.var_factors[v.index()].iter().map(|&i| FactorId(i))
    }

    /// Log of the unnormalized joint probability of a full assignment:
    /// `Σ unary + Σ factor tables` — the log of the paper's objective (1).
    pub fn log_score(&self, assignment: &[usize]) -> f64 {
        assert_eq!(assignment.len(), self.num_vars());
        let mut s = 0.0;
        for (v, &label) in assignment.iter().enumerate() {
            s += self.unary[v][label];
        }
        let mut idx_buf = Vec::new();
        for f in &self.factors {
            idx_buf.clear();
            idx_buf.extend(f.vars.iter().map(|&v| assignment[v.index()]));
            s += f.table.get(&idx_buf);
        }
        s
    }

    /// Total number of joint assignments (`None` on overflow).
    pub fn joint_size(&self) -> Option<u128> {
        let mut total: u128 = 1;
        for &d in &self.domains {
            total = total.checked_mul(d as u128)?;
            if total > u128::MAX / 2 {
                return None;
            }
        }
        Some(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_score_simple_graph() {
        let mut g = FactorGraph::new();
        let a = g.add_var(2);
        let b = g.add_var(3);
        g.add_unary(a, &[0.0, 1.0]);
        g.add_unary(b, &[0.5, 0.0, -0.5]);
        // Pairwise: prefer equal labels.
        g.add_factor_with(&[a, b], |idx| if idx[0] == idx[1] { 2.0 } else { 0.0 });
        assert_eq!(g.num_vars(), 2);
        assert_eq!(g.num_factors(), 1);
        assert_eq!(g.domain(b), 3);
        // score(a=1, b=1) = 1.0 + 0.0 + 2.0
        assert!((g.log_score(&[1, 1]) - 3.0).abs() < 1e-12);
        // score(a=0, b=2) = 0.0 + (-0.5) + 0.0
        assert!((g.log_score(&[0, 2]) + 0.5).abs() < 1e-12);
    }

    #[test]
    fn factor_with_enumerates_row_major() {
        let mut g = FactorGraph::new();
        let a = g.add_var(2);
        let b = g.add_var(2);
        // Record visit order.
        let mut seen = Vec::new();
        g.add_factor_with(&[a, b], |idx| {
            seen.push((idx[0], idx[1]));
            0.0
        });
        assert_eq!(seen, vec![(0, 0), (0, 1), (1, 0), (1, 1)]);
    }

    #[test]
    fn unary_potentials_accumulate() {
        let mut g = FactorGraph::new();
        let a = g.add_var(2);
        g.add_unary(a, &[1.0, 0.0]);
        g.add_unary(a, &[0.5, 0.25]);
        assert_eq!(g.unary(a), &[1.5, 0.25]);
    }

    #[test]
    fn factors_of_tracks_adjacency() {
        let mut g = FactorGraph::new();
        let a = g.add_var(2);
        let b = g.add_var(2);
        let c = g.add_var(2);
        let f1 = g.add_factor_with(&[a, b], |_| 0.0);
        let f2 = g.add_factor_with(&[b, c], |_| 0.0);
        let of_b: Vec<FactorId> = g.factors_of(b).collect();
        assert_eq!(of_b, vec![f1, f2]);
        let of_a: Vec<FactorId> = g.factors_of(a).collect();
        assert_eq!(of_a, vec![f1]);
    }

    #[test]
    fn joint_size_multiplies_domains() {
        let mut g = FactorGraph::new();
        g.add_var(3);
        g.add_var(4);
        g.add_var(5);
        assert_eq!(g.joint_size(), Some(60));
    }

    #[test]
    #[should_panic(expected = "domains must be non-empty")]
    fn zero_domain_panics() {
        let mut g = FactorGraph::new();
        g.add_var(0);
    }
}
