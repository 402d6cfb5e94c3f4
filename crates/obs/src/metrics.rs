//! A small metrics registry: counters and log-scale histograms keyed by
//! the [`Metric`] catalogue, with **deterministic** ordering and
//! serialization.
//!
//! Determinism is the design constraint everything here serves: metrics
//! keep first-touch order (no `HashMap` iteration order leaking into
//! artifacts), histogram buckets are powers of two (no float
//! boundary computation), and the JSON encoding reuses the byte-stable
//! [`Json`] writer. A [`MetricsSnapshot`] can therefore live inside a
//! session report and the experiment artifacts without breaking the
//! batch runner's byte-identity checks.

use crate::metric::Metric;
use mpdash_results::Json;

/// A power-of-two histogram: bucket `i` counts observations in
/// `[2^i, 2^(i+1))`, with 0 landing in bucket 0.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LogHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
}

impl LogHistogram {
    /// Record one observation.
    pub fn observe(&mut self, value: u64) {
        let bucket = (64 - value.max(1).leading_zeros() - 1) as usize;
        if self.buckets.len() <= bucket {
            self.buckets.resize(bucket + 1, 0);
        }
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Fold `other` into `self`. Bucket counts and totals are `u64`
    /// sums, so merging is associative and commutative down to the bit
    /// — the property the epoch-rollup shard merge relies on. (`sum`
    /// saturates; at the saturation boundary order could matter, but a
    /// simulation would overflow virtual time long before 2^64 bytes.)
    pub fn merge(&mut self, other: &LogHistogram) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of observations.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Freeze into `(bucket lower bound, count)` pairs with empty
    /// buckets elided.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, &n)| n > 0)
                .map(|(i, &n)| (1u64 << i, n))
                .collect(),
        }
    }
}

/// Mutable registry filled during a run. Lookups are linear over a
/// small `Vec` of one-byte keys — a session touches a few dozen
/// metrics, a bottleneck four — which buys first-touch-ordered,
/// hash-free determinism.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    counters: Vec<(Metric, u64)>,
    histograms: Vec<(Metric, LogHistogram)>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n` to a counter, creating it at zero first.
    pub fn add(&mut self, m: Metric, n: u64) {
        match self.counters.iter_mut().find(|(k, _)| *k == m) {
            Some((_, v)) => *v += n,
            None => self.counters.push((m, n)),
        }
    }

    /// Increment a counter by one.
    pub fn inc(&mut self, m: Metric) {
        self.add(m, 1);
    }

    /// Record `value` into a log-scale histogram.
    pub fn observe(&mut self, m: Metric, value: u64) {
        match self.histograms.iter_mut().find(|(k, _)| *k == m) {
            Some((_, h)) => h.observe(value),
            None => {
                let mut h = LogHistogram::default();
                h.observe(value);
                self.histograms.push((m, h));
            }
        }
    }

    /// Current value of a counter (zero if never touched).
    pub fn counter(&self, m: Metric) -> u64 {
        counter_in(&self.counters, m)
    }

    /// Freeze into an immutable snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.clone(),
            histograms: self
                .histograms
                .iter()
                .map(|(m, h)| (*m, h.snapshot()))
                .collect(),
        }
    }
}

fn counter_in(counters: &[(Metric, u64)], m: Metric) -> u64 {
    counters
        .iter()
        .find(|(k, _)| *k == m)
        .map(|(_, v)| *v)
        .unwrap_or(0)
}

/// Frozen histogram: `(bucket lower bound, count)` pairs, empty buckets
/// elided, plus totals for mean computation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Saturating sum of observations.
    pub sum: u64,
    /// `(2^i, count)` for every non-empty bucket, ascending.
    pub buckets: Vec<(u64, u64)>,
}

/// An immutable, ordered snapshot of a [`MetricsRegistry`], suitable
/// for embedding in reports and byte-stable artifacts.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counters in first-touch order.
    pub counters: Vec<(Metric, u64)>,
    /// Histograms in first-touch order.
    pub histograms: Vec<(Metric, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// True when nothing was ever registered.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Counter value (zero if absent).
    pub fn counter(&self, m: Metric) -> u64 {
        counter_in(&self.counters, m)
    }

    /// Histogram, if any value was observed.
    pub fn histogram(&self, m: Metric) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(k, _)| *k == m)
            .map(|(_, h)| h)
    }

    /// Deterministic JSON encoding:
    /// `{"counters": {...}, "gauges": {}, "histograms": {name:
    /// {"count", "sum", "buckets": [[lo, n], ...]}}}`. The empty
    /// `"gauges"` object keeps the report schema of earlier builds.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "counters",
                Json::obj(
                    self.counters
                        .iter()
                        .map(|&(m, v)| (m.name(), Json::from(v))),
                ),
            ),
            ("gauges", Json::Obj(Vec::new())),
            (
                "histograms",
                Json::obj(self.histograms.iter().map(|(m, h)| {
                    (
                        m.name(),
                        Json::obj([
                            ("count", Json::from(h.count)),
                            ("sum", Json::from(h.sum)),
                            (
                                "buckets",
                                Json::arr(
                                    h.buckets
                                        .iter()
                                        .map(|&(lo, n)| Json::arr([Json::from(lo), Json::from(n)])),
                                ),
                            ),
                        ]),
                    )
                })),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Metric::{ChunkBytes, ChunkFetchMs, ChunksFetched, WifiBytes};

    #[test]
    fn counters_keep_first_touch_order() {
        let mut m = MetricsRegistry::new();
        m.inc(WifiBytes);
        m.inc(ChunksFetched);
        m.add(WifiBytes, 2);
        let s = m.snapshot();
        assert_eq!(s.counters, vec![(WifiBytes, 3), (ChunksFetched, 1)]);
        assert_eq!(s.counter(ChunkBytes), 0);
        assert_eq!(m.counter(WifiBytes), 3);
    }

    #[test]
    fn log_histogram_buckets_are_powers_of_two() {
        let mut m = MetricsRegistry::new();
        for v in [0, 1, 2, 3, 4, 1000] {
            m.observe(ChunkFetchMs, v);
        }
        let s = m.snapshot();
        let h = s.histogram(ChunkFetchMs).unwrap();
        assert_eq!(h.count, 6);
        assert_eq!(h.sum, 1010);
        // 0 and 1 → bucket 1<<0; 2,3 → 1<<1; 4 → 1<<2; 1000 → 1<<9.
        assert_eq!(h.buckets, vec![(1, 2), (2, 2), (4, 1), (512, 1)]);
    }

    #[test]
    fn snapshot_json_is_byte_stable() {
        let mut m = MetricsRegistry::new();
        m.inc(ChunksFetched);
        m.observe(ChunkBytes, 300_000);
        let a = m.snapshot().to_json().to_pretty();
        let b = m.snapshot().to_json().to_pretty();
        assert_eq!(a, b);
        assert!(a.contains("\"chunks_fetched\""));
        assert!(a.contains("\"gauges\": {}"), "{a}");
    }
}
