//! Deterministic epoch time-series rollups: the fleet-scale telemetry
//! layer.
//!
//! A raw trace (PR 3) answers "what happened to this one session"; the
//! ROADMAP's mega-fleet experiments need "what was the fleet doing at
//! minute three". This module rolls per-session signals up into fixed
//! **virtual-time epochs**: epoch `i` of an [`EpochSeries`] covers
//! `[i·E, (i+1)·E)` where `E` is the configured epoch width. Each epoch
//! holds named counters and log₂ histograms — deliberately *only*
//! `u64`-valued aggregates, because the whole design hinges on
//! [`EpochSeries::merge`] being associative **and** commutative down to
//! the bit: shard-local series produced on any `MPDASH_WORKERS`
//! interleaving must combine into byte-identical fleet series. Integer
//! addition gives that for free; float accumulation (gauges, means)
//! would not, so float-valued signals are observed into histograms
//! (count + sum recover the mean deterministically).
//!
//! Metrics inside an epoch are kept **sorted** by [`Metric`], which is
//! name order, not insertion-ordered like
//! [`MetricsRegistry`](crate::MetricsRegistry): two sessions that
//! touch the same signals in different orders must still serialize
//! identically after a merge, whichever series was the merge target.
//!
//! Everything is timestamped with [`SimTime`] — virtual time — so the
//! rollup is observe-only and byte-invariant under wall-clock jitter,
//! worker count, and whether any other observer is attached.

use crate::metric::{IntoMetric, Metric};
use crate::metrics::LogHistogram;
use mpdash_results::Json;
use mpdash_sim::{SimDuration, SimTime};
use std::sync::OnceLock;

/// Telemetry configuration: the epoch width of every series in a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TelemetrySpec {
    /// Epoch width (must be non-zero).
    pub epoch: SimDuration,
}

impl TelemetrySpec {
    /// A spec with the given epoch width.
    ///
    /// # Panics
    /// If the epoch is zero — an epoch index would divide by zero.
    pub fn new(epoch: SimDuration) -> Self {
        assert!(!epoch.is_zero(), "telemetry epoch must be > 0");
        TelemetrySpec { epoch }
    }

    /// A spec with an epoch of `secs` seconds.
    pub fn seconds(secs: f64) -> Self {
        TelemetrySpec::new(SimDuration::from_secs_f64(secs))
    }

    /// The shortest epoch a scenario or `MPDASH_TELEMETRY` may ask for.
    /// A series is dense from epoch 0, so a session of `T` seconds holds
    /// `T / epoch` cells: one millisecond keeps even an hour-long session
    /// to a few million small cells, while 1 ns would ask for ~10¹² cells.
    pub const MIN_EPOCH: SimDuration = SimDuration::from_millis(1);

    /// A spec with an epoch of `secs` seconds, or `None` when the epoch
    /// would be shorter than [`TelemetrySpec::MIN_EPOCH`] (this covers
    /// zero, negative and non-finite `secs`).
    pub fn try_seconds(secs: f64) -> Option<Self> {
        let epoch = SimDuration::from_secs_f64(secs);
        (epoch >= Self::MIN_EPOCH).then_some(TelemetrySpec { epoch })
    }
}

impl Default for TelemetrySpec {
    /// One-second epochs — fine-grained enough for per-chunk dynamics,
    /// coarse enough that a long fleet run stays a few hundred cells.
    fn default() -> Self {
        TelemetrySpec {
            epoch: SimDuration::from_secs(1),
        }
    }
}

/// The telemetry spec selected by `MPDASH_TELEMETRY`, resolved once per
/// process (the same pattern as [`Tracer::from_env`](crate::Tracer::from_env)):
///
/// * unset / `""` / `"0"` / `"off"` — `None` (telemetry disabled);
/// * a number of seconds, at least [`TelemetrySpec::MIN_EPOCH`] — the
///   epoch width;
/// * `"1"` is therefore the natural "just turn it on" value: one-second
///   epochs.
///
/// An unparseable value degrades to disabled with a warning on stderr —
/// telemetry must never turn a working run into a failing one. Sessions
/// whose config carries no explicit [`TelemetrySpec`] fall back to this,
/// which is how CI proves artifacts are byte-identical with telemetry
/// on vs off without touching any experiment binary.
pub fn telemetry_from_env() -> Option<TelemetrySpec> {
    static ENV_TELEMETRY: OnceLock<Option<TelemetrySpec>> = OnceLock::new();
    *ENV_TELEMETRY.get_or_init(|| {
        let raw = std::env::var("MPDASH_TELEMETRY").unwrap_or_default();
        match raw.trim() {
            "" | "0" | "off" => None,
            v => v
                .parse::<f64>()
                .ok()
                .and_then(TelemetrySpec::try_seconds)
                .or_else(|| {
                    eprintln!(
                        "warning: unusable MPDASH_TELEMETRY value '{v}' \
                         (expected off|0|<epoch seconds>); telemetry disabled"
                    );
                    None
                }),
        }
    })
}

/// One epoch's rollup: counters and log₂ histograms, each sorted by
/// [`Metric`] (which is name order).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EpochCell {
    /// `(metric, total)` sorted by metric.
    counters: Vec<(Metric, u64)>,
    /// `(metric, histogram)` sorted by metric.
    histograms: Vec<(Metric, LogHistogram)>,
}

impl EpochCell {
    fn add(&mut self, m: Metric, n: u64) {
        match self.counters.binary_search_by_key(&m, |&(k, _)| k) {
            Ok(i) => self.counters[i].1 += n,
            Err(i) => self.counters.insert(i, (m, n)),
        }
    }

    /// `m`'s histogram, inserted empty first when absent.
    fn histogram_mut(&mut self, m: Metric) -> &mut LogHistogram {
        let i = match self.histograms.binary_search_by_key(&m, |(k, _)| *k) {
            Ok(i) => i,
            Err(i) => {
                self.histograms.insert(i, (m, LogHistogram::default()));
                i
            }
        };
        &mut self.histograms[i].1
    }

    /// Counter value (zero if absent).
    pub fn counter(&self, m: Metric) -> u64 {
        self.counters
            .binary_search_by_key(&m, |&(k, _)| k)
            .map(|i| self.counters[i].1)
            .unwrap_or(0)
    }

    /// Histogram, if any value was observed this epoch.
    pub fn histogram(&self, m: Metric) -> Option<&LogHistogram> {
        self.histograms
            .binary_search_by_key(&m, |(k, _)| *k)
            .map(|i| &self.histograms[i].1)
            .ok()
    }

    /// True when nothing was recorded in this epoch.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    fn merge(&mut self, other: &EpochCell) {
        for &(m, n) in &other.counters {
            self.add(m, n);
        }
        for (m, h) in &other.histograms {
            self.histogram_mut(*m).merge(h);
        }
    }

    fn to_json(&self) -> Json {
        Json::obj([
            (
                "counters",
                Json::obj(
                    self.counters
                        .iter()
                        .map(|&(m, v)| (m.name(), Json::from(v))),
                ),
            ),
            (
                "histograms",
                Json::obj(self.histograms.iter().map(|(m, h)| {
                    let s = h.snapshot();
                    (
                        m.name(),
                        Json::obj([
                            ("count", Json::from(s.count)),
                            ("sum", Json::from(s.sum)),
                            (
                                "buckets",
                                Json::arr(
                                    s.buckets
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

/// The epoch an [`EpochSeries`] last wrote to: its index and its
/// `[lo, hi)` bounds in nanoseconds. Empty until the first write.
#[derive(Clone, Copy, Debug, Default)]
struct Cursor {
    index: usize,
    lo: u64,
    hi: u64,
}

/// A dense series of [`EpochCell`]s over virtual time, from epoch 0 up
/// to the last epoch that recorded anything. See the module docs for
/// the merge-determinism contract.
///
/// Writes take a [`Metric`] or its catalogue name (see [`IntoMetric`]);
/// a name is resolved once, on entry, into the same typed path.
#[derive(Clone, Debug)]
pub struct EpochSeries {
    epoch: SimDuration,
    cells: Vec<EpochCell>,
    /// Consecutive writes mostly land in one epoch; the cursor lets
    /// them skip the index division. Not part of the series' value.
    cursor: Cursor,
}

impl PartialEq for EpochSeries {
    fn eq(&self, other: &Self) -> bool {
        self.epoch == other.epoch && self.cells == other.cells
    }
}

impl EpochSeries {
    /// An empty series with the spec's epoch width.
    pub fn new(spec: TelemetrySpec) -> Self {
        assert!(!spec.epoch.is_zero(), "telemetry epoch must be > 0");
        EpochSeries {
            epoch: spec.epoch,
            cells: Vec::new(),
            cursor: Cursor::default(),
        }
    }

    /// The epoch width.
    pub fn epoch_len(&self) -> SimDuration {
        self.epoch
    }

    /// The epoch index covering virtual time `t`.
    pub fn index_of(&self, t: SimTime) -> usize {
        (t.as_nanos() / self.epoch.as_nanos()) as usize
    }

    fn cell_at(&mut self, t: SimTime) -> &mut EpochCell {
        let ns = t.as_nanos();
        if !(self.cursor.lo <= ns && ns < self.cursor.hi) {
            let width = self.epoch.as_nanos();
            let i = ns / width;
            let index = i as usize;
            if self.cells.len() <= index {
                self.cells.resize(index + 1, EpochCell::default());
            }
            let lo = i * width;
            self.cursor = Cursor {
                index,
                lo,
                hi: lo.saturating_add(width),
            };
        }
        &mut self.cells[self.cursor.index]
    }

    /// Add `n` to a counter in `t`'s epoch.
    ///
    /// # Panics
    /// If `m` is a name outside the [`Metric`] catalogue.
    pub fn add(&mut self, t: SimTime, m: impl IntoMetric, n: u64) {
        let m = m.into_metric();
        self.cell_at(t).add(m, n);
    }

    /// Increment a counter in `t`'s epoch.
    ///
    /// # Panics
    /// If `m` is a name outside the [`Metric`] catalogue.
    pub fn inc(&mut self, t: SimTime, m: impl IntoMetric) {
        self.add(t, m, 1);
    }

    /// Record `value` into a log₂ histogram in `t`'s epoch.
    ///
    /// # Panics
    /// If `m` is a name outside the [`Metric`] catalogue.
    pub fn observe(&mut self, t: SimTime, m: impl IntoMetric, value: u64) {
        let m = m.into_metric();
        self.cell_at(t).histogram_mut(m).observe(value);
    }

    /// Number of epochs (index of the last touched epoch + 1).
    pub fn n_epochs(&self) -> usize {
        self.cells.len()
    }

    /// Cell by epoch index.
    pub fn cell(&self, i: usize) -> Option<&EpochCell> {
        self.cells.get(i)
    }

    /// Iterate `(epoch index, cell)`.
    pub fn cells(&self) -> impl Iterator<Item = (usize, &EpochCell)> {
        self.cells.iter().enumerate()
    }

    /// A counter's value in every epoch, dense from epoch 0.
    pub fn counter_series(&self, m: Metric) -> Vec<u64> {
        self.cells.iter().map(|c| c.counter(m)).collect()
    }

    /// A counter summed over all epochs.
    pub fn counter_total(&self, m: Metric) -> u64 {
        self.cells.iter().map(|c| c.counter(m)).sum()
    }

    /// True when no epoch recorded anything.
    pub fn is_empty(&self) -> bool {
        self.cells.iter().all(|c| c.is_empty())
    }

    /// Merge `other` into `self`, epoch by epoch. Associative and
    /// commutative (counters and histogram buckets are `u64` sums), so
    /// shard-local series combine bit-identically in any order.
    ///
    /// # Panics
    /// If the epoch widths differ — merging misaligned series would
    /// silently smear signals across time.
    pub fn merge(&mut self, other: &EpochSeries) {
        assert_eq!(
            self.epoch, other.epoch,
            "cannot merge series with different epoch widths"
        );
        if self.cells.len() < other.cells.len() {
            self.cells.resize(other.cells.len(), EpochCell::default());
        }
        for (mine, theirs) in self.cells.iter_mut().zip(&other.cells) {
            mine.merge(theirs);
        }
    }

    /// Deterministic JSON encoding: the epoch width plus one object per
    /// epoch, dense from epoch 0, names sorted. Byte-stable under the
    /// merge contract: however a series was sharded and recombined, the
    /// same underlying events produce the same bytes.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("epoch_s", Json::Float(self.epoch.as_secs_f64())),
            ("epochs", Json::arr(self.cells.iter().map(|c| c.to_json()))),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Metric::{BufferMs, Chunks, WifiBytes};

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn spec2() -> TelemetrySpec {
        TelemetrySpec::new(SimDuration::from_secs(2))
    }

    #[test]
    fn try_seconds_rejects_epochs_below_one_millisecond() {
        assert_eq!(
            TelemetrySpec::try_seconds(2.0),
            Some(TelemetrySpec::seconds(2.0))
        );
        assert_eq!(
            TelemetrySpec::try_seconds(0.001).map(|s| s.epoch),
            Some(TelemetrySpec::MIN_EPOCH)
        );
        for bad in [
            0.0,
            -1.0,
            1e-12,
            5e-10,
            1e-9,
            0.000_999,
            f64::NAN,
            f64::INFINITY,
        ] {
            assert_eq!(TelemetrySpec::try_seconds(bad), None, "{bad}");
        }
    }

    #[test]
    fn events_land_in_their_epoch() {
        let mut s = EpochSeries::new(spec2());
        s.inc(t(0), Chunks);
        s.inc(t(1), Chunks); // still epoch 0: [0, 2)
        s.inc(t(2), Chunks); // epoch 1
        s.add(t(5), Chunks, 3); // epoch 2
        s.inc(t(1), Chunks); // back to epoch 0
        assert_eq!(s.counter_series(Chunks), vec![3, 1, 3]);
        assert_eq!(s.counter_total(Chunks), 7);
        assert_eq!(s.n_epochs(), 3);
    }

    #[test]
    fn untouched_epochs_are_dense_zeros() {
        let mut s = EpochSeries::new(spec2());
        s.inc(t(9), Chunks); // epoch 4; 0..=3 exist but are empty
        assert_eq!(s.counter_series(Chunks), vec![0, 0, 0, 0, 1]);
        assert!(s.cell(0).unwrap().is_empty());
        assert!(!s.is_empty());
    }

    #[test]
    fn names_serialize_sorted_regardless_of_insertion_order() {
        let mut a = EpochSeries::new(spec2());
        a.inc(t(0), WifiBytes);
        a.inc(t(0), BufferMs);
        let mut b = EpochSeries::new(spec2());
        b.inc(t(0), BufferMs);
        b.inc(t(0), WifiBytes);
        let json = a.to_json().to_pretty();
        assert_eq!(json, b.to_json().to_pretty());
        assert!(json.find("buffer_ms") < json.find("wifi_bytes"), "{json}");
    }

    #[test]
    fn names_and_metrics_record_the_same_bytes() {
        let mut by_name = EpochSeries::new(spec2());
        let mut by_metric = EpochSeries::new(spec2());
        for (i, &m) in Metric::ALL.iter().enumerate() {
            let (at, v) = (t(i as u64 % 7), i as u64 * 37);
            by_name.add(at, m.name(), v);
            by_name.observe(at, m.name(), v);
            by_metric.add(at, m, v);
            by_metric.observe(at, m, v);
        }
        assert_eq!(by_name, by_metric);
        assert_eq!(
            by_name.to_json().to_pretty(),
            by_metric.to_json().to_pretty()
        );
    }

    #[test]
    #[should_panic(expected = "unknown metric name 'zebra'")]
    fn recording_an_unknown_name_panics() {
        EpochSeries::new(spec2()).inc(t(0), "zebra");
    }

    #[test]
    fn merge_is_commutative_bitwise() {
        let mut a = EpochSeries::new(spec2());
        a.inc(t(0), Chunks);
        a.observe(t(3), BufferMs, 900);
        let mut b = EpochSeries::new(spec2());
        b.add(t(4), Chunks, 2);
        b.observe(t(3), BufferMs, 40_000);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.to_json().to_pretty(), ba.to_json().to_pretty());
        assert_eq!(ab.counter_series(Chunks), vec![1, 0, 2]);
        assert_eq!(ab.cell(1).unwrap().histogram(BufferMs).unwrap().count(), 2);
    }

    #[test]
    #[should_panic(expected = "different epoch widths")]
    fn merging_misaligned_series_panics() {
        let mut a = EpochSeries::new(spec2());
        let b = EpochSeries::new(TelemetrySpec::default());
        a.merge(&b);
    }

    #[test]
    fn env_unset_means_disabled() {
        // The test harness never sets MPDASH_TELEMETRY.
        assert_eq!(telemetry_from_env(), None);
    }
}
