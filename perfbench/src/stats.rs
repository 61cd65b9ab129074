//! Order statistics and the input digest.

/// The minimum number of samples a reported percentile must leave
/// beyond it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the smallest value
/// with at least `p` percent of the samples at or below it. `None` on
/// an empty slice.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// 1-based nearest rank of percentile `p` among `n` samples.
pub fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Samples strictly beyond the nearest rank of `p` among `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Percentile `p` of `values` (any order), but only when at least
/// [`MIN_BEYOND`] samples lie beyond it; otherwise a named error.
pub fn supported_percentile(values: &[f64], p: f64) -> Result<f64, String> {
    let n = values.len();
    if beyond(n, p) < MIN_BEYOND {
        return Err(format!(
            "p{p} needs at least {MIN_BEYOND} samples beyond it; {n} samples leave {}",
            beyond(n, p)
        ));
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(nearest_rank(&sorted, p).expect("non-empty after the beyond check"))
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Arithmetic mean, 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// FNV-1a 64-bit running digest of the generated inputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` in, followed by a length so that concatenations of
    /// different splits digest differently.
    pub fn add(&mut self, bytes: &[u8]) {
        for &b in bytes.iter().chain(&(bytes.len() as u64).to_le_bytes()) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}
