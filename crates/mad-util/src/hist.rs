//! Lock-free log2-bucketed value histograms.
//!
//! [`AtomicHistogram`] is the recording half of the live metrics plane:
//! a fixed array of 64 power-of-two buckets plus a running sum and max,
//! all relaxed atomics, so a hot path records a latency in a handful of
//! uncontended atomic adds — no locks, no allocation, no ordering
//! constraints on the data path. The reading half, [`HistSnapshot`], is
//! a plain copy from which p50/p90/p99/max (any quantile) derive; every
//! reported quantile is the *upper bound* of the log2 bucket holding
//! that rank, so the error is bounded by the bucket width (a factor of
//! two) and a quantile always lies within its bucket's bounds.
//!
//! The histogram lives in `mad-util` rather than the metrics crate so
//! layers below the registry (drivers) can record into one without a
//! dependency cycle.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log2 buckets: bucket `i` holds values whose bit length is
/// `i`, i.e. `[2^(i-1), 2^i)`, with bucket 0 holding exactly `{0}` and
/// the top bucket saturating (it absorbs everything with 63+ bits).
pub const BUCKETS: usize = 64;

/// Bucket index of a value: its bit length, saturated to the top bucket.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    ((u64::BITS - value.leading_zeros()) as usize).min(BUCKETS - 1)
}

/// Inclusive `(low, high)` value bounds of bucket `i`.
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    match i {
        0 => (0, 0),
        _ if i < BUCKETS - 1 => (1u64 << (i - 1), (1u64 << i) - 1),
        _ => (1u64 << (BUCKETS - 2), u64::MAX),
    }
}

/// A lock-free histogram of `u64` samples in 64 log2 buckets.
///
/// Recording is wait-free and imposes no ordering: one relaxed add into
/// the sample's bucket, one into the running sum, and one `fetch_max`.
/// Snapshots are not atomic across counters — a reader racing a writer
/// may see a sum that includes a sample whose bucket increment it
/// missed — but every counter is monotone, so windows computed from two
/// snapshots never go negative.
pub struct AtomicHistogram {
    sum: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        AtomicHistogram {
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl std::fmt::Debug for AtomicHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        f.debug_struct("AtomicHistogram")
            .field("count", &s.count())
            .field("sum", &s.sum)
            .field("max", &s.max)
            .finish()
    }
}

impl AtomicHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Copy the current counters out for quantile math or export.
    pub fn snapshot(&self) -> HistSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (slot, b) in buckets.iter_mut().zip(&self.buckets) {
            *slot = b.load(Ordering::Relaxed);
        }
        HistSnapshot {
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// A point-in-time copy of an [`AtomicHistogram`]: plain integers,
/// mergeable, and the input to all quantile math.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Sum of every recorded sample (wrapping only past `u64::MAX`).
    pub sum: u64,
    /// Largest sample recorded (0 when empty).
    pub max: u64,
    /// Per-bucket sample counts, indexed by [`bucket_index`].
    pub buckets: [u64; BUCKETS],
}

impl Default for HistSnapshot {
    fn default() -> Self {
        HistSnapshot {
            sum: 0,
            max: 0,
            buckets: [0; BUCKETS],
        }
    }
}

impl std::fmt::Debug for HistSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HistSnapshot")
            .field("count", &self.count())
            .field("sum", &self.sum)
            .field("max", &self.max)
            .field("p50", &self.quantile(0.50))
            .field("p99", &self.quantile(0.99))
            .finish()
    }
}

impl HistSnapshot {
    /// Total samples (the sum of every bucket).
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// True when no sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.buckets.iter().all(|&b| b == 0)
    }

    /// Mean sample, zero when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count()).unwrap_or(0)
    }

    /// Fold another snapshot into this one (counts and sum add, max
    /// takes the larger) — cluster-wide aggregation in mad_top.
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += *b;
        }
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// The quantile `q` in `[0, 1]`: the upper bound of the bucket that
    /// holds the sample of rank `ceil(q * count)`, clamped to the
    /// recorded max so `quantile(1.0)` reports the true maximum. Returns
    /// 0 on an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_bounds(i).1.min(self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_bit_length() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_index(1u64 << 62), BUCKETS - 1);
        assert_eq!(bucket_index((1u64 << 62) - 1), BUCKETS - 2);
    }

    #[test]
    fn bounds_partition_the_domain() {
        assert_eq!(bucket_bounds(0), (0, 0));
        let mut expect_low = 1u64;
        for i in 1..BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(lo, expect_low, "bucket {i} low");
            if i < BUCKETS - 1 {
                assert_eq!(hi, expect_low * 2 - 1, "bucket {i} high");
                expect_low *= 2;
            } else {
                assert_eq!(hi, u64::MAX);
            }
        }
    }

    #[test]
    fn record_and_quantiles() {
        let h = AtomicHistogram::new();
        for v in [0u64, 1, 5, 5, 100, 1000, 10_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 7);
        assert_eq!(s.sum, 11_111);
        assert_eq!(s.max, 10_000);
        // p100 clamps to the true max, not the bucket bound.
        assert_eq!(s.quantile(1.0), 10_000);
        // Every quantile sits inside the bounds of some bucket that is
        // consistent with the recorded data.
        for q in [0.0, 0.25, 0.5, 0.9, 0.99] {
            let v = s.quantile(q);
            assert!(v <= s.max);
        }
        assert_eq!(s.quantile(0.5), bucket_bounds(bucket_index(5)).1);
    }

    #[test]
    fn top_bucket_saturates_without_panic() {
        let h = AtomicHistogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.count(), 2);
        assert_eq!(s.max, u64::MAX);
        assert_eq!(s.quantile(0.99), u64::MAX);
    }

    #[test]
    fn merge_adds_counts_and_sum() {
        let a = AtomicHistogram::new();
        let b = AtomicHistogram::new();
        a.record(10);
        a.record(20);
        b.record(1 << 40);
        let mut s = a.snapshot();
        s.merge(&b.snapshot());
        assert_eq!(s.count(), 3);
        assert_eq!(s.sum, 30 + (1u64 << 40));
        assert_eq!(s.max, 1 << 40);
    }
}
