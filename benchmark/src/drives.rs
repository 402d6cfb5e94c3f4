//! Per-layer drives: short loops over one layer's public functions at a
//! workload's parameters, timed in host nanoseconds per operation. Each
//! drive is deterministic and returns the median of several repetitions.

use mpdash::core::{MpDashControl, SchedulerParams};
use mpdash::link::{LinkConfig, SharedBottleneck, SharedBottleneckConfig};
use mpdash::mptcp::{MptcpConfig, MptcpSim};
use mpdash::obs::{EpochSeries, TelemetrySpec};
use mpdash::sim::{Rate, SimDuration, SimTime};
use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// Repetitions per drive.
const REPS: usize = 5;

/// Median over [`REPS`] runs of `f`, which returns `(host ns, ops)`, in
/// nanoseconds per operation.
fn ns_per_op(mut f: impl FnMut() -> (u64, u64)) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let (ns, ops) = f();
            ns as f64 / ops.max(1) as f64
        })
        .collect();
    median(&samples)
}

/// Bytes the MPTCP drive transfers per repetition.
const MPTCP_BYTES: u64 = 8_000_000;

/// `MptcpSim::send_app` then `step` until the bytes are delivered, over
/// the given WiFi and cellular links: host ns per simulator event.
pub(crate) fn mptcp_ns_per_event(wifi: &LinkConfig, cell: &LinkConfig) -> f64 {
    ns_per_op(|| {
        let mut sim = MptcpSim::new(MptcpConfig::two_path(wifi.clone(), cell.clone()));
        let start = Instant::now();
        sim.send_app(MPTCP_BYTES);
        let mut events = 0u64;
        while sim.delivered() < MPTCP_BYTES {
            black_box(sim.step().expect("the drive's transfer completes"));
            events += 1;
        }
        (start.elapsed().as_nanos() as u64, events)
    })
}

/// Packets offered per repetition of the bottleneck drive.
const LINK_PACKETS: u64 = 100_000;

/// `SharedBottleneck::offer` / `next_departure` / `pop_departure` with
/// `flows` flows offering 1500-byte packets round-robin at 110% of the
/// bottleneck's rate, so the queue fills and the discipline's drop or
/// mark path runs: host ns per offered packet.
pub(crate) fn link_ns_per_pkt(cfg: SharedBottleneckConfig, flows: usize) -> f64 {
    const PKT: u64 = 1_500;
    let gap_ns = (PKT * 8) as f64 * 1e9 / (cfg.rate.as_mbps_f64() * 1e6 * 1.1);
    ns_per_op(|| {
        let bn = SharedBottleneck::new(cfg);
        let ids: Vec<_> = (0..flows.max(1)).map(|_| bn.subscribe()).collect();
        let start = Instant::now();
        for i in 0..LINK_PACKETS {
            let now = SimTime::from_nanos((i as f64 * gap_ns) as u64);
            while bn.next_departure().is_some_and(|t| t <= now) {
                black_box(bn.pop_departure());
            }
            black_box(bn.offer(now, ids[i as usize % ids.len()], PKT));
        }
        (start.elapsed().as_nanos() as u64, LINK_PACKETS)
    })
}

/// Chunks the control-plane drive downloads per repetition.
const CORE_CHUNKS: u64 = 400;

/// `MpDashControl::on_progress` every 10 ms of 4 s chunk windows, fed
/// by `on_bytes` at the given per-path rates: host ns per progress call.
pub(crate) fn core_on_progress_ns(wifi: Rate, cell: Rate) -> f64 {
    let tick = SimDuration::from_millis(10);
    let per_tick = [wifi.bytes_in(tick), cell.bytes_in(tick)];
    // A chunk a bit larger than WiFi alone carries in the window, so the
    // cellular path toggles on part-way through.
    let size = wifi.bytes_in(SimDuration::from_secs(4)) * 11 / 10;
    ns_per_op(|| {
        let mut ctrl = MpDashControl::new(
            vec![0.0, 1.0],
            vec![wifi, cell],
            SchedulerParams::default(),
            SimDuration::from_millis(250),
        );
        let mut calls = 0u64;
        let start = Instant::now();
        for c in 0..CORE_CHUNKS {
            let t0 = SimTime::from_secs(4 * c);
            let mut enabled = ctrl
                .mp_dash_enable(t0, size, SimDuration::from_secs(4))
                .to_vec();
            let mut got = 0u64;
            let mut t = t0;
            while got < size {
                t += tick;
                for (p, &bytes) in per_tick.iter().enumerate() {
                    if enabled[p] {
                        ctrl.on_bytes(p, t, bytes);
                        got += bytes;
                    }
                }
                if let Some(change) = ctrl.on_progress(t, got, &enabled) {
                    enabled = change;
                }
                calls += 1;
            }
            black_box(ctrl.mp_dash_disable());
        }
        (start.elapsed().as_nanos() as u64, calls)
    })
}

/// The counter names a streaming session rolls into its epochs.
const SESSION_COUNTERS: [&str; 16] = [
    "breaker_opens",
    "cache_hits",
    "cache_misses",
    "cell_bytes",
    "chunks",
    "deadline_hits",
    "deadline_misses",
    "departures",
    "hedges",
    "resumes",
    "retries",
    "stall_ms",
    "switches",
    "timeouts",
    "wasted_bytes",
    "wifi_bytes",
];

/// Adds per repetition of the epoch drive.
const EPOCH_ADDS: u64 = 400_000;

/// `EpochSeries::add` over the session counter names, 2 s epochs, one
/// add every 500 µs of virtual time: host ns per add.
pub(crate) fn obs_epoch_add_ns() -> f64 {
    ns_per_op(|| {
        let mut series = EpochSeries::new(TelemetrySpec::seconds(2.0));
        let start = Instant::now();
        for i in 0..EPOCH_ADDS {
            let name = SESSION_COUNTERS[i as usize % SESSION_COUNTERS.len()];
            series.add(SimTime::from_micros(i * 500), name, i & 0xfff);
        }
        black_box(&series);
        (start.elapsed().as_nanos() as u64, EPOCH_ADDS)
    })
}

/// Median host milliseconds of `f` over [`REPS`] runs.
pub(crate) fn median_ms<T>(mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}
