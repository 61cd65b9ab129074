//! Seeded randomness for the load generator: a SplitMix64 stream, the
//! open loop's Poisson arrival schedule, and zipf-popular draws.
//!
//! The benchmark keeps its own generator so that its schedules depend
//! only on the seed, not on the repository's random-number shim.

use std::time::Duration;

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated from other uses by `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]` — never 0, so `ln` is always finite.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Due times of an open loop of independent users: Poisson arrivals at
/// `rate_per_s` (exponential gaps), every due time inside `window`.
pub fn poisson_schedule(rng: &mut Rng, rate_per_s: f64, window: Duration) -> Vec<Duration> {
    let mut out = Vec::new();
    let mut t = 0.0f64;
    let end = window.as_secs_f64();
    loop {
        t += -rng.unit().ln() / rate_per_s;
        if t >= end {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}

/// A zipf distribution over ranks `0..n`: rank `r` has weight
/// `1 / (r + 1)^s`, so low ranks repeat.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Zipf over `n > 0` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n.max(1))
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}
