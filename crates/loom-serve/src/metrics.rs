//! Serving observability: lock-free counters for the request paths plus a
//! small sample store with percentile extraction, shared by the server's
//! `/v1/stats` endpoint and the load generator's report.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Monotonic counters covering every way a request can leave the server.
#[derive(Debug, Default)]
pub struct Counters {
    /// Requests fully parsed off the wire.
    pub requests: AtomicU64,
    /// 200 responses.
    pub ok: AtomicU64,
    /// 429 responses (queue at capacity).
    pub overloaded: AtomicU64,
    /// 4xx protocol rejections other than 429.
    pub rejected: AtomicU64,
    /// 5xx responses: a failed or panicking batch, or a batcher that exited.
    pub failed: AtomicU64,
    /// Connections dropped for exceeding the read timeout (slow-loris).
    pub timeouts: AtomicU64,
    /// Connections refused at accept time (connection cap).
    pub refused_connections: AtomicU64,
}

impl Counters {
    /// Counts one response by its status: 200 is `ok`, 429 `overloaded`,
    /// any other 4xx `rejected`, and 5xx `failed`.
    pub fn record(&self, status: u16) {
        Self::bump(match status {
            200 => &self.ok,
            429 => &self.overloaded,
            500..=599 => &self.failed,
            _ => &self.rejected,
        });
    }

    /// Increment one counter cell.
    pub fn bump(cell: &AtomicU64) {
        cell.fetch_add(1, Ordering::Relaxed);
    }

    /// Read one counter cell.
    pub fn read(cell: &AtomicU64) -> u64 {
        cell.load(Ordering::Relaxed)
    }
}

/// An unbounded store of `u64` samples (latencies, queue depths, batch
/// sizes) with percentile extraction. Writers push concurrently; readers
/// snapshot.
#[derive(Debug, Default)]
pub struct Samples {
    values: Mutex<Vec<u64>>,
}

impl Samples {
    /// Records one sample.
    pub fn push(&self, value: u64) {
        self.values.lock().expect("samples lock").push(value);
    }

    /// Sorted copy of every sample so far.
    pub fn sorted(&self) -> Vec<u64> {
        let mut values = self.values.lock().expect("samples lock").clone();
        values.sort_unstable();
        values
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.values.lock().expect("samples lock").len()
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The `p`-th percentile (0–100) of a sorted slice using nearest-rank;
/// 0 for an empty slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn responses_are_counted_by_status_class() {
        let counters = Counters::default();
        for status in [200, 429, 400, 404, 405, 413, 500] {
            counters.record(status);
        }
        assert_eq!(Counters::read(&counters.ok), 1);
        assert_eq!(Counters::read(&counters.overloaded), 1);
        assert_eq!(Counters::read(&counters.rejected), 4);
        assert_eq!(Counters::read(&counters.failed), 1);
        assert_eq!(Counters::read(&counters.requests), 0);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 50.0), 50);
        assert_eq!(percentile(&sorted, 90.0), 90);
        assert_eq!(percentile(&sorted, 99.0), 99);
        assert_eq!(percentile(&sorted, 100.0), 100);
        assert_eq!(percentile(&sorted, 0.0), 1);
        assert_eq!(percentile(&[], 50.0), 0);
        assert_eq!(percentile(&[7], 99.0), 7);
    }

    #[test]
    fn samples_sort_on_read() {
        let samples = Samples::default();
        for v in [5u64, 1, 9, 3] {
            samples.push(v);
        }
        assert_eq!(samples.sorted(), vec![1, 3, 5, 9]);
        assert_eq!(samples.len(), 4);
    }
}
