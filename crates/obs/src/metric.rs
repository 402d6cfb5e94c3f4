//! The typed metric catalogue: every name the [`MetricsRegistry`]
//! and the [`EpochSeries`] rollups record under.
//!
//! Recording sites pass a [`Metric`], a one-byte key, so the per-packet
//! and per-tick observe paths compare integers instead of strings and
//! never allocate a name. Names appear only at serialization, through
//! [`Metric::name`]. The variants are declared in name order, so the
//! derived `Ord` is the sorted-string order the epoch cells serialize
//! in.
//!
//! [`MetricsRegistry`]: crate::MetricsRegistry
//! [`EpochSeries`]: crate::EpochSeries

use std::fmt;

macro_rules! catalogue {
    ($($(#[doc = $doc:literal])+ $variant:ident => $name:literal,)+) => {
        /// One catalogued metric. See the module docs.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
        #[repr(u8)]
        pub enum Metric {
            $($(#[doc = $doc])+ $variant,)+
        }

        impl Metric {
            /// Number of catalogued metrics.
            pub const COUNT: usize = Metric::ALL.len();

            /// Every metric, in name order.
            pub const ALL: &[Metric] = &[$(Metric::$variant,)+];

            /// The catalogue name, as it appears in artifacts.
            pub fn name(self) -> &'static str {
                match self {
                    $(Metric::$variant => $name,)+
                }
            }

            /// The metric with this catalogue name, if any.
            pub fn from_name(name: &str) -> Option<Metric> {
                match name {
                    $($name => Some(Metric::$variant),)+
                    _ => None,
                }
            }
        }
    };
}

catalogue! {
    /// Histogram: an AQM controller's drop probability in parts per
    /// million, sampled after each departure.
    AqmDropProbPpm => "aqm_drop_prob_ppm",
    /// Counter: packets an AQM dropped early (PIE admission, CoDel
    /// dequeue).
    AqmDroppedPackets => "aqm_dropped_packets",
    /// Counter: packets an AQM ECN-marked instead of dropping.
    AqmMarkedPackets => "aqm_marked_packets",
    /// Counter: origin circuit breakers that tripped open.
    BreakerOpens => "breaker_opens",
    /// Histogram: the player's buffer level in ms, per progress tick.
    BufferMs => "buffer_ms",
    /// Counter: chunks served from the shared edge cache.
    CacheHits => "cache_hits",
    /// Counter: chunks inserted into the shared edge cache.
    CacheInsertions => "cache_insertions",
    /// Counter: cache lookups that went to an origin.
    CacheMisses => "cache_misses",
    /// Counter: bytes delivered over the cellular path.
    CellBytes => "cell_bytes",
    /// Counter: encoding bitrate (kbps) summed over fetched chunks.
    ChunkBitrateKbps => "chunk_bitrate_kbps",
    /// Histogram: size of each fetched chunk in bytes.
    ChunkBytes => "chunk_bytes",
    /// Histogram: duration of each chunk fetch in virtual ms.
    ChunkFetchMs => "chunk_fetch_ms",
    /// Counter: chunks fetched (epoch rollup).
    Chunks => "chunks",
    /// Counter: chunks fetched (session registry).
    ChunksFetched => "chunks_fetched",
    /// Counter: chunks the deadline scheduler declined to schedule.
    DeadlineBypassed => "deadline_bypassed",
    /// Counter: chunks granted a deadline window.
    DeadlineGranted => "deadline_granted",
    /// Counter: deadline-scheduled chunks that arrived in time.
    DeadlineHits => "deadline_hits",
    /// Counter: deadline-scheduled chunks that overran their window.
    DeadlineMisses => "deadline_misses",
    /// Counter: sessions that left before the video ended (registry).
    Departed => "departed",
    /// Counter: sessions that left before the video ended (epochs).
    Departures => "departures",
    /// Counter: sessions admitted into a fleet.
    FleetArrivals => "fleet_arrivals",
    /// Counter: fleet sessions that finished.
    FleetDepartures => "fleet_departures",
    /// Counter: fleet sessions turned away by overload admission.
    FleetShed => "fleet_shed",
    /// Counter: hedge races the hedged request won.
    HedgeWinsHedge => "hedge_wins_hedge",
    /// Counter: hedge races the primary request won.
    HedgeWinsPrimary => "hedge_wins_primary",
    /// Counter: hedged requests launched.
    Hedges => "hedges",
    /// Counter: requests the lifecycle policy abandoned (end of run).
    LifecycleAbandoned => "lifecycle_abandoned",
    /// Counter: requests resumed by byte range (end of run).
    LifecycleResumed => "lifecycle_resumed",
    /// Counter: requests retried after a 5xx (end of run).
    LifecycleRetried => "lifecycle_retried",
    /// Counter: requests that hit the stall timeout (end of run).
    LifecycleTimeouts => "lifecycle_timeouts",
    /// Counter: dequeue-time AQM drops the fleet loop routed back.
    LoopAqmDrops => "loop_aqm_drops",
    /// Counter: bottleneck departures the fleet loop popped.
    LoopDepartures => "loop_departures",
    /// Counter: session steps the fleet loop ran.
    LoopSteps => "loop_steps",
    /// Counter: resumes that moved to a different origin.
    OriginFailovers => "origin_failovers",
    /// Counter: routing decisions made by the origin pool.
    OriginRouted => "origin_routed",
    /// Histogram: shared-bottleneck occupancy in bytes after each offer.
    QueueDepthBytes => "queue_depth_bytes",
    /// Histogram: per-packet shared-queue sojourn in ms.
    QueueWaitMs => "queue_wait_ms",
    /// Counter: requests answered with a 5xx.
    RequestErrors => "request_errors",
    /// Counter: requests that hit the stall timeout.
    RequestTimeouts => "request_timeouts",
    /// Counter: requests the lifecycle policy abandoned.
    RequestsAbandoned => "requests_abandoned",
    /// Counter: requests resumed by byte range.
    RequestsResumed => "requests_resumed",
    /// Counter: requests retried after a 5xx.
    RequestsRetried => "requests_retried",
    /// Counter: byte-range resumes (epoch rollup).
    Resumes => "resumes",
    /// Counter: 5xx retries (epoch rollup).
    Retries => "retries",
    /// Counter: cellular toggles by Algorithm 1 (end of run).
    SchedulerToggleTotal => "scheduler_toggle_total",
    /// Counter: cellular toggles by Algorithm 1, as they happen.
    SchedulerToggles => "scheduler_toggles",
    /// Counter: bytes a shared bottleneck delivered.
    SharedDeliveredBytes => "shared_delivered_bytes",
    /// Counter: bytes a shared bottleneck dropped (overflow or AQM).
    SharedDroppedBytes => "shared_dropped_bytes",
    /// Counter: bytes offered to a shared bottleneck.
    SharedOfferedBytes => "shared_offered_bytes",
    /// Counter: the session was shed by overload admission.
    Shed => "shed",
    /// Counter: stalled playback time in ms.
    StallMs => "stall_ms",
    /// Counter: playback stalls (end of run).
    Stalls => "stalls",
    /// Counter: subflow failures over both paths (end of run).
    SubflowFailures => "subflow_failures",
    /// Counter: subflow revivals over both paths (end of run).
    SubflowRevivals => "subflow_revivals",
    /// Counter: chunks fetched at a different level than the last.
    Switches => "switches",
    /// Counter: stall timeouts (epoch rollup).
    Timeouts => "timeouts",
    /// Counter: bytes delivered and then discarded (hedge losers,
    /// aborted bodies).
    WastedBytes => "wasted_bytes",
    /// Counter: bytes delivered over the WiFi path.
    WifiBytes => "wifi_bytes",
}

impl fmt::Display for Metric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A recording key: a [`Metric`], or its catalogue name resolved once
/// through [`Metric::from_name`].
pub trait IntoMetric {
    /// The metric this key names.
    ///
    /// # Panics
    /// If a name is not in the catalogue.
    fn into_metric(self) -> Metric;
}

impl IntoMetric for Metric {
    #[inline]
    fn into_metric(self) -> Metric {
        self
    }
}

impl IntoMetric for &str {
    fn into_metric(self) -> Metric {
        Metric::from_name(self).unwrap_or_else(|| panic!("unknown metric name '{self}'"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_is_sorted_unique_and_round_trips() {
        for pair in Metric::ALL.windows(2) {
            assert!(
                pair[0].name() < pair[1].name(),
                "{} must sort before {}",
                pair[0],
                pair[1]
            );
            assert!(pair[0] < pair[1], "derived Ord must follow name order");
        }
        for (i, &m) in Metric::ALL.iter().enumerate() {
            assert_eq!(m as usize, i);
            assert_eq!(Metric::from_name(m.name()), Some(m));
            assert_eq!(m.to_string(), m.name());
        }
        for absent in [
            "",
            "x",
            "chunk",
            "chunks_",
            "wifi_bytes_total",
            "aqm_drop_prob_ppm2",
        ] {
            assert_eq!(Metric::from_name(absent), None, "{absent}");
        }
        assert_eq!(std::mem::size_of::<Metric>(), 1);
    }

    #[test]
    #[should_panic(expected = "unknown metric name 'zebra'")]
    fn an_unknown_name_panics_with_the_name() {
        "zebra".into_metric();
    }
}
