//! Sample sets with honest percentiles, and the output digest.

/// A percentile is reported only when at least this many samples lie
/// beyond it; with fewer, the "p99" of a small set is just its maximum.
pub const MIN_TAIL: usize = 10;

/// Samples per block of [`Samples::block_quantile`]: enough for an
/// honest 99th percentile in every block.
pub const BLOCK: usize = 1000;

#[derive(Debug, Clone, Default)]
pub struct Samples {
    xs: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, x: f64) {
        self.xs.push(x);
    }

    pub fn extend(&mut self, xs: impl IntoIterator<Item = f64>) {
        self.xs.extend(xs);
    }

    pub fn len(&self) -> usize {
        self.xs.len()
    }

    pub fn sum(&self) -> f64 {
        self.xs.iter().sum()
    }

    pub fn mean(&self) -> Option<f64> {
        (!self.xs.is_empty()).then(|| self.sum() / self.xs.len() as f64)
    }

    /// Nearest-rank `q`-quantile, `None` unless [`MIN_TAIL`] samples lie
    /// above the chosen rank.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let n = self.xs.len();
        if n == 0 {
            return None;
        }
        let idx = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
        if n - 1 - idx < MIN_TAIL {
            return None;
        }
        let mut sorted = self.xs.clone();
        sorted.sort_by(f64::total_cmp);
        Some(sorted[idx])
    }

    /// A tail quantile robust to bursts of host interference: the
    /// `q`-quantile of each run of [`BLOCK`] consecutive samples, then
    /// the median over those runs. A burst that slows a few blocks moves
    /// their quantiles, not the median of all of them. `None` unless
    /// every block has [`MIN_TAIL`] samples above its quantile.
    pub fn block_quantile(&self, q: f64) -> Option<f64> {
        let mut per_block: Vec<f64> = self
            .xs
            .chunks_exact(BLOCK)
            .filter_map(|c| Samples { xs: c.to_vec() }.quantile(q))
            .collect();
        if per_block.is_empty() {
            return None;
        }
        per_block.sort_by(f64::total_cmp);
        Some(per_block[(per_block.len() - 1) / 2])
    }

    /// Share of samples at or below `limit`.
    pub fn frac_within(&self, limit: f64) -> Option<f64> {
        (!self.xs.is_empty())
            .then(|| self.xs.iter().filter(|&&x| x <= limit).count() as f64 / self.xs.len() as f64)
    }
}

/// 64-bit FNV-1a over everything a run's outputs must reproduce bit for
/// bit.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn f64(&mut self, x: f64) {
        self.bytes(&x.to_bits().to_le_bytes());
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_need_ten_samples_beyond() {
        let mut s = Samples::default();
        for i in 0..100 {
            s.push(i as f64);
        }
        assert_eq!(s.quantile(0.5), Some(49.0));
        assert_eq!(s.quantile(0.9), Some(89.0));
        assert_eq!(s.quantile(0.99), None, "one sample beyond a p99 of 100");
        for i in 100..1000 {
            s.push(i as f64);
        }
        assert_eq!(s.quantile(0.99), Some(989.0));
    }

    #[test]
    fn block_quantile_ignores_a_burst_in_one_block() {
        let mut s = Samples::default();
        for block in 0..3 {
            for i in 0..BLOCK {
                let slow = if block == 1 { 100.0 } else { 1.0 };
                s.push(slow * (i % 100) as f64);
            }
        }
        assert_eq!(s.block_quantile(0.99), Some(98.0));
        assert!(s.quantile(0.99).unwrap() > 1000.0, "the plain p99 sees the burst");
        assert_eq!(Samples::default().block_quantile(0.99), None);
    }
}
