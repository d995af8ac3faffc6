//! The metric primitives: counters, gauges, log-bucketed histograms.
//!
//! All primitives are cheap cloneable handles around `Arc`ed atomics, so a
//! metric registered once can be updated lock-free from any thread while the
//! registry retains a handle for snapshotting.
//!
//! Every ordering here is `Relaxed` on purpose: no reader infers one
//! atomic's value from another's, so there is nothing for stronger
//! orderings to protect. The annotation below makes the analyzer hold us
//! to that — each `Relaxed` site carries the reason it is safe, and any
//! future cross-field invariant (which would need a seqlock like the
//! profile nodes) fails the lint until redesigned.

// swh-analyze: protocol(monotonic)

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// A fresh, unregistered counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed); // swh-analyze: allow(atomic-ordering) -- independent monotonic counter
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed) // swh-analyze: allow(atomic-ordering) -- point-in-time read of one counter
    }
}

/// A signed gauge. `record_max` turns it into a high-water mark.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    value: Arc<AtomicI64>,
}

impl Gauge {
    /// A fresh, unregistered gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set to an absolute value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed); // swh-analyze: allow(atomic-ordering) -- single-cell gauge, no cross-field invariant
    }

    /// Add a (possibly negative) delta.
    #[inline]
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed); // swh-analyze: allow(atomic-ordering) -- single-cell gauge, no cross-field invariant
    }

    /// Raise the gauge to `v` if `v` exceeds the current value.
    #[inline]
    pub fn record_max(&self, v: i64) {
        self.value.fetch_max(v, Ordering::Relaxed); // swh-analyze: allow(atomic-ordering) -- single-cell high-water mark
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed) // swh-analyze: allow(atomic-ordering) -- point-in-time read of one gauge
    }
}

/// Number of buckets: one per power of two of a `u64`, plus one for zero.
const BUCKETS: usize = 65;

#[derive(Debug)]
struct HistogramInner {
    /// `buckets[0]` counts zeros; `buckets[i]` counts values in
    /// `[2^(i-1), 2^i)`.
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for HistogramInner {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// A log-bucketed histogram of `u64` observations (power-of-two buckets).
///
/// Designed for latencies in nanoseconds: 65 buckets cover the full `u64`
/// range with ≤ 2× relative quantile error, and recording is three relaxed
/// atomic ops — cheap enough for per-batch (not per-element) hot paths.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

#[inline]
pub(crate) fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Estimated `q`-quantile of a distribution held in [`bucket_of`] buckets
/// (≤ 2× relative error from log bucketing): the geometric middle of the
/// bucket holding the rank, clamped by the observed maximum `max`. Shared
/// by registry histograms and profile nodes.
pub(crate) fn bucket_quantile(buckets: &[u64], max: u64, q: f64) -> u64 {
    let count: u64 = buckets.iter().sum();
    if count == 0 {
        return 0;
    }
    let rank = ((count as f64) * q).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for (i, &c) in buckets.iter().enumerate() {
        seen += c;
        if seen >= rank {
            let rep = if i == 0 {
                0
            } else {
                (1u64 << (i - 1)).saturating_add(1 << i) / 2
            };
            return rep.min(max);
        }
    }
    max
}

impl Histogram {
    /// A fresh, unregistered histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        let inner = &*self.inner;
        inner.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed); // swh-analyze: allow(atomic-ordering) -- accumulators are independent; snapshot tolerates skew
        inner.count.fetch_add(1, Ordering::Relaxed); // swh-analyze: allow(atomic-ordering) -- accumulators are independent; snapshot derives count from the buckets
        inner.sum.fetch_add(v, Ordering::Relaxed); // swh-analyze: allow(atomic-ordering) -- accumulators are independent; snapshot tolerates skew
        inner.max.fetch_max(v, Ordering::Relaxed); // swh-analyze: allow(atomic-ordering) -- accumulators are independent; snapshot tolerates skew
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed) // swh-analyze: allow(atomic-ordering) -- point-in-time read of one accumulator
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.inner.sum.load(Ordering::Relaxed) // swh-analyze: allow(atomic-ordering) -- point-in-time read of one accumulator
    }

    /// Point-in-time copy of the distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let inner = &*self.inner;
        let buckets: Vec<u64> = inner
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed)) // swh-analyze: allow(atomic-ordering) -- snapshot is advisory; count is derived from this same pass
            .collect();
        let count: u64 = buckets.iter().sum();
        let sum = inner.sum.load(Ordering::Relaxed); // swh-analyze: allow(atomic-ordering) -- advisory snapshot; skew vs buckets is documented
        let max = inner.max.load(Ordering::Relaxed); // swh-analyze: allow(atomic-ordering) -- advisory snapshot; skew vs buckets is documented
        HistogramSnapshot {
            count,
            sum,
            max,
            p50: bucket_quantile(&buckets, max, 0.50),
            p90: bucket_quantile(&buckets, max, 0.90),
            p99: bucket_quantile(&buckets, max, 0.99),
        }
    }
}

/// Point-in-time summary of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations (mean = `sum / count`).
    pub sum: u64,
    /// Largest observation.
    pub max: u64,
    /// Estimated median (≤ 2× relative error from log bucketing).
    pub p50: u64,
    /// Estimated 90th percentile.
    pub p90: u64,
    /// Estimated 99th percentile.
    pub p99: u64,
}

impl HistogramSnapshot {
    /// Mean observation, zero when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(9);
        assert_eq!(c.get(), 10);
        let cloned = c.clone();
        cloned.inc();
        assert_eq!(c.get(), 11, "clones share the cell");

        let g = Gauge::new();
        g.set(5);
        g.add(-2);
        assert_eq!(g.get(), 3);
        g.record_max(10);
        g.record_max(7);
        assert_eq!(g.get(), 10);
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn histogram_quantiles_are_order_of_magnitude_right() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.max, 1000);
        assert_eq!(s.sum, 500_500);
        // Log-bucketed: within a factor of two of the true quantile.
        assert!(s.p50 >= 250 && s.p50 <= 1000, "p50 {}", s.p50);
        assert!(s.p90 >= 450 && s.p90 <= 1000, "p90 {}", s.p90);
        assert!(s.p99 >= s.p90, "p99 {} < p90 {}", s.p99, s.p90);
        assert!((s.mean() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_snapshot_is_zeroed() {
        let s = Histogram::new().snapshot();
        assert_eq!(s, HistogramSnapshot::default());
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn histogram_is_thread_safe() {
        let h = Histogram::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let h = h.clone();
                scope.spawn(move || {
                    for v in 0..10_000u64 {
                        h.record(v);
                    }
                });
            }
        });
        assert_eq!(h.count(), 40_000);
    }
}
