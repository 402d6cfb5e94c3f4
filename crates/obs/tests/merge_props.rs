//! Property tests on the telemetry merge algebra: log₂ histograms and
//! epoch rollups must form a commutative monoid **down to the bit**, or
//! shard-local series produced at different `MPDASH_WORKERS` settings
//! would stop combining into byte-identical fleet series.
//!
//! The invariants:
//!
//! * **associativity / commutativity** — `(a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)`
//!   and `a ⊕ b == b ⊕ a`, for both [`LogHistogram`] and
//!   [`EpochSeries`], checked structurally *and* on serialized bytes;
//! * **shard identity** — replaying one event stream into N shard-local
//!   series and merging them (in any shard order) serializes to exactly
//!   the bytes of the single-shard replay.

use mpdash_obs::{EpochSeries, LogHistogram, Metric, TelemetrySpec};
use mpdash_sim::{Prng, SimDuration, SimTime};
use proptest::prelude::*;

/// A replayable telemetry event: counter add or histogram observation.
#[derive(Clone, Debug)]
struct Event {
    at: SimTime,
    metric: Metric,
    value: u64,
    histogram: bool,
}

/// Deterministically expand a seed into a random event stream over the
/// whole metric catalogue: every metric a session, bottleneck or fleet
/// loop records must shard-merge alike, or artifacts would drift across
/// `MPDASH_WORKERS`.
fn events(seed: u64, n: usize) -> Vec<Event> {
    let mut rng = Prng::new(seed);
    (0..n)
        .map(|_| Event {
            at: SimTime::from_millis(rng.next_below(120_000)),
            metric: Metric::ALL[rng.next_below(Metric::COUNT as u64) as usize],
            value: rng.next_below(1 << 22),
            histogram: rng.next_below(2) == 0,
        })
        .collect()
}

fn replay(spec: TelemetrySpec, events: &[Event]) -> EpochSeries {
    let mut s = EpochSeries::new(spec);
    for e in events {
        if e.histogram {
            s.observe(e.at, e.metric, e.value);
        } else {
            s.add(e.at, e.metric, e.value);
        }
    }
    s
}

fn histogram_of(values: &[u64]) -> LogHistogram {
    let mut h = LogHistogram::default();
    for &v in values {
        h.observe(v);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Histogram merge is associative and commutative, and merging the
    /// parts equals observing the concatenation directly.
    #[test]
    fn log_histogram_merge_is_a_commutative_monoid(
        xs in prop::collection::vec(0u64..5_000_000, 0..40),
        ys in prop::collection::vec(0u64..5_000_000, 0..40),
        zs in prop::collection::vec(0u64..5_000_000, 0..40),
    ) {
        let (a, b, c) = (histogram_of(&xs), histogram_of(&ys), histogram_of(&zs));

        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(&ab_c, &a_bc, "merge is not associative");

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba, "merge is not commutative");

        // Identity element: the empty histogram.
        let mut a_id = a.clone();
        a_id.merge(&LogHistogram::default());
        prop_assert_eq!(&a_id, &a);

        let mut all = xs.clone();
        all.extend(&ys);
        let direct = histogram_of(&all);
        prop_assert_eq!(&ab, &direct, "merged parts differ from the whole");
    }

    /// Epoch-series merge is associative and commutative structurally
    /// and on serialized bytes, even when the streams touch different
    /// metrics in different orders and span different epoch counts.
    #[test]
    fn epoch_series_merge_is_associative_and_commutative(
        seed_a in 0u64..1_000_000,
        seed_b in 0u64..1_000_000,
        seed_c in 0u64..1_000_000,
        n in 0usize..60,
        epoch_ms in 200u64..5_000,
    ) {
        let spec = TelemetrySpec::new(SimDuration::from_millis(epoch_ms));
        let a = replay(spec, &events(seed_a, n));
        let b = replay(spec, &events(seed_b, n / 2 + 1));
        let c = replay(spec, &events(seed_c, n / 3 + 1));

        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(&ab_c, &a_bc, "series merge is not associative");
        prop_assert_eq!(
            ab_c.to_json().to_pretty(),
            a_bc.to_json().to_pretty(),
            "associativity holds structurally but not on bytes"
        );

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba, "series merge is not commutative");
        prop_assert_eq!(
            ab.to_json().to_pretty(),
            ba.to_json().to_pretty(),
            "commutativity holds structurally but not on bytes"
        );
    }

    /// Sharding one event stream across N shard-local series and
    /// merging them — in ascending or descending shard order — yields
    /// bytes identical to the single-shard replay. This is exactly the
    /// `MPDASH_WORKERS` 1-vs-N contract the fleet relies on.
    #[test]
    fn shard_merged_series_match_single_shard_bytes(
        seed in 0u64..1_000_000,
        n in 1usize..120,
        n_shards in 1usize..7,
        epoch_ms in 200u64..5_000,
    ) {
        let spec = TelemetrySpec::new(SimDuration::from_millis(epoch_ms));
        let stream = events(seed, n);
        let single = replay(spec, &stream);

        let shards: Vec<EpochSeries> = (0..n_shards)
            .map(|s| {
                let mine: Vec<Event> = stream
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % n_shards == s)
                    .map(|(_, e)| e.clone())
                    .collect();
                replay(spec, &mine)
            })
            .collect();

        let mut fwd = EpochSeries::new(spec);
        for s in &shards {
            fwd.merge(s);
        }
        let mut rev = EpochSeries::new(spec);
        for s in shards.iter().rev() {
            rev.merge(s);
        }

        let want = single.to_json().to_pretty();
        prop_assert_eq!(fwd.to_json().to_pretty(), want.clone(),
            "ascending shard merge diverged from single-shard bytes");
        prop_assert_eq!(rev.to_json().to_pretty(), want,
            "descending shard merge diverged from single-shard bytes");
    }
}
