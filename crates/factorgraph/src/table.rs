//! Dense row-major log-potential tables.

/// A dense table of log potentials over a mixed-radix index space.
///
/// Dimension order matches the factor's variable order; the **last**
/// dimension varies fastest (row-major).
#[derive(Debug, Clone, PartialEq)]
pub struct LogTable {
    dims: Vec<usize>,
    /// Strides per dimension (last = 1).
    strides: Vec<usize>,
    values: Vec<f64>,
}

impl LogTable {
    /// Creates a table; `values.len()` must equal the product of `dims`.
    pub fn new(dims: Vec<usize>, values: Vec<f64>) -> LogTable {
        let total: usize = dims.iter().product();
        assert_eq!(values.len(), total, "table size must match domain product");
        let mut strides = vec![1usize; dims.len()];
        for d in (0..dims.len().saturating_sub(1)).rev() {
            strides[d] = strides[d + 1] * dims[d + 1];
        }
        LogTable { dims, strides, values }
    }

    /// The dimension sizes.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if the table is empty (zero-sized dimension).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Flat offset of a multi-index.
    #[inline]
    pub fn offset(&self, idx: &[usize]) -> usize {
        debug_assert_eq!(idx.len(), self.dims.len());
        let mut off = 0usize;
        for (d, &i) in idx.iter().enumerate() {
            debug_assert!(i < self.dims[d]);
            off += i * self.strides[d];
        }
        off
    }

    /// Log potential at a multi-index.
    #[inline]
    pub fn get(&self, idx: &[usize]) -> f64 {
        self.values[self.offset(idx)]
    }

    /// Flat view of all values (row-major).
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offsets_are_row_major() {
        let t = LogTable::new(vec![2, 3], (0..6).map(|x| x as f64).collect());
        assert_eq!(t.get(&[0, 0]), 0.0);
        assert_eq!(t.get(&[0, 2]), 2.0);
        assert_eq!(t.get(&[1, 0]), 3.0);
        assert_eq!(t.get(&[1, 2]), 5.0);
    }

    #[test]
    fn ternary_offsets() {
        let t = LogTable::new(vec![2, 3, 4], (0..24).map(|x| x as f64).collect());
        assert_eq!(t.get(&[0, 0, 0]), 0.0);
        assert_eq!(t.get(&[0, 0, 3]), 3.0);
        assert_eq!(t.get(&[0, 1, 0]), 4.0);
        assert_eq!(t.get(&[1, 0, 0]), 12.0);
        assert_eq!(t.get(&[1, 2, 3]), 23.0);
        assert_eq!(t.len(), 24);
    }

    #[test]
    #[should_panic(expected = "table size must match")]
    fn size_mismatch_panics() {
        LogTable::new(vec![2, 2], vec![0.0; 3]);
    }
}
