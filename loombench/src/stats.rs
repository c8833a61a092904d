//! The benchmark's own arithmetic: medians and quantiles, the tail-percentile
//! rule, Spearman rank correlation, failure accounting, and the content
//! digest results are compared by.

/// The median of `values` (the mean of the two middle values for an even
/// count). `NaN` when `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by linear interpolation between
/// closest ranks. `NaN` when `values` is empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Samples a reported tail percentile must have beyond it.
pub const TAIL_SAMPLES: usize = 10;

/// The 99th percentile of `values`, reported only when at least
/// [`TAIL_SAMPLES`] samples lie beyond it (1000 samples or more); `None`
/// otherwise, because fewer samples cannot place the 99th percentile.
pub fn p99(values: &[f64]) -> Option<f64> {
    supports_percentile(values.len(), 99.0).then(|| quantile(values, 0.99))
}

/// Whether `n` samples leave at least [`TAIL_SAMPLES`] beyond the `pct`-th
/// percentile.
pub fn supports_percentile(n: usize, pct: f64) -> bool {
    n as f64 * (1.0 - pct / 100.0) >= TAIL_SAMPLES as f64 - 1e-9
}

/// Ranks of `values` (1-based), ties sharing the mean of the ranks they span.
fn ranks(values: &[f64]) -> Vec<f64> {
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
    let mut ranks = vec![0.0; values.len()];
    let mut start = 0;
    while start < order.len() {
        let mut end = start;
        while end + 1 < order.len() && values[order[end + 1]] == values[order[start]] {
            end += 1;
        }
        let shared = (start + end) as f64 / 2.0 + 1.0;
        for &i in &order[start..=end] {
            ranks[i] = shared;
        }
        start = end + 1;
    }
    ranks
}

/// Spearman's rank correlation of two equally long series: the Pearson
/// correlation of their ranks, ties averaged. `NaN` when fewer than two
/// pairs are given or either series is constant.
pub fn spearman(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "spearman needs paired series");
    if xs.len() < 2 {
        return f64::NAN;
    }
    let (rx, ry) = (ranks(xs), ranks(ys));
    let mean = (xs.len() + 1) as f64 / 2.0;
    let (mut cov, mut vx, mut vy) = (0.0, 0.0, 0.0);
    for (a, b) in rx.iter().zip(&ry) {
        cov += (a - mean) * (b - mean);
        vx += (a - mean) * (a - mean);
        vy += (b - mean) * (b - mean);
    }
    cov / (vx * vy).sqrt()
}

/// Outcome counts of one run's timed operations. Every operation counts once
/// in `attempted`, whatever happened to it; each failure class counts the
/// operations that ended that way. A refused request that is retried and
/// then answered is one attempt and no failure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations started.
    pub attempted: u64,
    /// Operations answered with a result that differs from the reference.
    pub mismatched: u64,
    /// Requests answered with an HTTP status other than 200.
    pub non_200: u64,
    /// Requests lost to a socket or protocol error.
    pub transport: u64,
}

impl Tally {
    /// Operations that failed, in any way.
    pub fn failed(&self) -> u64 {
        self.mismatched + self.non_200 + self.transport
    }

    /// Failed operations over attempted ones; 0 when nothing was attempted.
    pub fn error_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }
}

/// A 128-bit content digest built from two independent multiply-rotate
/// lanes. Results are compared by digest, so equal digests stand for
/// bit-identical values; the inputs are not adversarial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64, u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0x243f_6a88_85a3_08d3, 0x1319_8a2e_0370_7344)
    }
}

impl Digest {
    /// Folds one 64-bit word into both lanes.
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(29);
        self.1 = (self.1 ^ w.rotate_left(17))
            .wrapping_mul(0xc2b2_ae3d_27d4_eb4f)
            .rotate_left(31);
    }

    /// Folds a slice of 32-bit values, length first.
    pub fn i32s(&mut self, values: &[i32]) {
        self.word(values.len() as u64);
        for &v in values {
            self.word(v as u32 as u64);
        }
    }

    /// Folds a slice of 64-bit values, length first.
    pub fn i64s(&mut self, values: &[i64]) {
        self.word(values.len() as u64);
        for &v in values {
            self.word(v as u64);
        }
    }

    /// Folds a string's bytes, length first.
    pub fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        for chunk in s.as_bytes().chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
    }

    /// The digest as 32 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.0, self.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        // The same rule as Python's statistics.quantiles(method="inclusive").
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quantile(&v, 0.25) - 3.25).abs() < 1e-12);
        assert!((quantile(&v, 0.75) - 7.75).abs() < 1e-12);
        assert_eq!(quantile(&v, 1.0), 10.0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let short: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(p99(&short), None, "999 samples leave 9.99 beyond p99");
        let enough: Vec<f64> = (0..1000).map(f64::from).collect();
        let p = p99(&enough).expect("1000 samples leave 10 beyond p99");
        assert!((p - 989.01).abs() < 1e-9);
        assert!(supports_percentile(20, 50.0));
        assert!(!supports_percentile(19, 50.0));
        assert!(supports_percentile(100, 90.0));
        assert!(!supports_percentile(99, 90.0));
    }

    #[test]
    fn spearman_ranks_with_ties() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert!((spearman(&x, &[10.0, 20.0, 30.0, 40.0, 50.0]) - 1.0).abs() < 1e-12);
        assert!((spearman(&x, &[5.0, 4.0, 3.0, 2.0, 1.0]) + 1.0).abs() < 1e-12);
        // Monotone but non-linear: still a perfect rank correlation.
        assert!((spearman(&x, &[1.0, 8.0, 27.0, 64.0, 125.0]) - 1.0).abs() < 1e-12);
        // Ties share the mean rank: ranks (1, 2.5, 2.5, 4) against (1, 2, 3, 4)
        // give 4.5 / sqrt(4.5 * 5).
        let r = spearman(&[1.0, 2.0, 2.0, 3.0], &[1.0, 2.0, 3.0, 4.0]);
        assert!((r - 4.5 / (4.5f64 * 5.0).sqrt()).abs() < 1e-12);
        assert!(spearman(&[1.0], &[2.0]).is_nan());
        assert!(spearman(&[1.0, 1.0], &[1.0, 2.0]).is_nan());
    }

    #[test]
    fn error_ratio_counts_every_attempt_once() {
        // Failures of every class are also attempts: the denominator is
        // every operation started, not the successful ones.
        let t = Tally {
            attempted: 200,
            mismatched: 1,
            non_200: 2,
            transport: 1,
        };
        assert_eq!(t.failed(), 4);
        assert!((t.error_ratio() - 0.02).abs() < 1e-12);
        let all_failed = Tally {
            attempted: 3,
            non_200: 3,
            ..Tally::default()
        };
        assert_eq!(all_failed.error_ratio(), 1.0);
        assert_eq!(Tally::default().error_ratio(), 0.0);
    }

    #[test]
    fn digests_separate_values_and_lengths() {
        let digest = |f: &dyn Fn(&mut Digest)| {
            let mut d = Digest::default();
            f(&mut d);
            d
        };
        let a = digest(&|d| d.i32s(&[1, 2, 3]));
        assert_eq!(a, digest(&|d| d.i32s(&[1, 2, 3])));
        assert_ne!(a, digest(&|d| d.i32s(&[1, 2, 4])));
        assert_ne!(a, digest(&|d| d.i32s(&[1, 2, 3, 0])));
        assert_ne!(a, digest(&|d| d.i32s(&[3, 2, 1])));
        assert_eq!(a.hex().len(), 32);
    }
}
