//! Allocation budget of the per-event hot path.
//!
//! A counting global allocator tallies every heap allocation (fresh
//! `alloc`, `alloc_zeroed` and every `realloc`) while one field-grid
//! session and one contended fleet, with telemetry off and with 1 s
//! epochs, run end to end, set-up and report included. The steady-state
//! packet path (transport, scheduler, HTTP framing, streaming session,
//! epoch rollups keyed by the typed metric catalogue) reuses buffers
//! owned by long-lived structs, so what remains is amortized growth and
//! per-chunk or per-epoch work: far under one allocation per simulated
//! event.
//!
//! This binary holds exactly one test so no other test's allocations
//! land in the tally. Allocation counts are deterministic, so the bound
//! carries no timing noise.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use mpdash::dash::abr::AbrKind;
use mpdash::dash::video::Video;
use mpdash::fleet::{run_checked, FleetConfig, SharedLinkSpec};
use mpdash::link::SharedBottleneckConfig;
use mpdash::mptcp::SchedulerSpec;
use mpdash::obs::TelemetrySpec;
use mpdash::session::{SessionConfig, StreamingSession, TransportMode};
use mpdash::sim::SimDuration;
use mpdash::trace::field::field_corpus;

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations per popped simulator event must stay below this.
const BUDGET: f64 = 0.1;

/// Allocations made while `run` executes, with the events it reports.
fn measure(run: impl FnOnce() -> u64) -> (u64, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let events = run();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, events)
}

/// Big Buck Bunny's ladder cut to `n` 4 s chunks.
fn bbb(n: usize) -> Video {
    Video::new(
        "Big Buck Bunny",
        &[0.58, 1.01, 1.47, 2.41, 3.94],
        SimDuration::from_secs(4),
        n,
    )
}

/// The field grid's shape: one corpus location, 40 chunks, FESTIVE
/// under rate-based MP-DASH.
fn grid_session() -> u64 {
    let loc = field_corpus()[0].revisit(1);
    let cfg =
        SessionConfig::at_location(&loc, AbrKind::Festive, TransportMode::mpdash_rate_based())
            .with_video(bbb(40));
    StreamingSession::run(cfg).sim_profile.events_popped
}

/// The contended fleet: 16 MP-DASH clients with QAware behind a deep
/// FIFO AP and a cell sector, with epoch telemetry on every client,
/// bottleneck and the fleet loop when `telemetry` is set.
fn contended_fleet(telemetry: Option<TelemetrySpec>) -> u64 {
    let clients = 16;
    let base = SessionConfig::controlled_mbps(
        50.0,
        30.0,
        AbrKind::Festive,
        TransportMode::mpdash_rate_based(),
    )
    .with_video(bbb(20))
    .with_scheduler(SchedulerSpec::QAware);
    let mut cfg = FleetConfig::new(base, clients)
        .with_stagger(SimDuration::from_secs(1))
        .with_rtt_skew(SimDuration::from_millis(10))
        .with_seed(11)
        .with_shared(SharedLinkSpec::wifi_ap(
            SharedBottleneckConfig::fifo_mbps(1.5 * clients as f64)
                .with_capacity(64 * 1024 * clients as u64),
        ))
        .with_shared(SharedLinkSpec::cell_sector(
            SharedBottleneckConfig::fifo_mbps(2.0 * clients as f64),
        ));
    if let Some(spec) = telemetry {
        cfg = cfg.with_telemetry(spec);
    }
    let report = run_checked(&cfg).expect("fleet invariants hold");
    report
        .sessions
        .iter()
        .map(|s| s.sim_profile.events_popped)
        .sum()
}

#[test]
fn hot_path_stays_within_the_allocation_budget() {
    let runs = [
        ("grid session", measure(grid_session)),
        ("contended fleet", measure(|| contended_fleet(None))),
        (
            "contended fleet, 1 s telemetry",
            measure(|| contended_fleet(Some(TelemetrySpec::seconds(1.0)))),
        ),
    ];
    for (name, (allocations, events)) in runs {
        eprintln!(
            "{name}: {allocations} allocations / {events} events = {:.4}",
            allocations as f64 / events as f64
        );
    }
    for (name, (allocations, events)) in runs {
        assert!(events > 10_000, "{name}: only {events} events");
        let per_event = allocations as f64 / events as f64;
        assert!(
            per_event < BUDGET,
            "{name}: {per_event:.3} heap allocations per event (budget {BUDGET})"
        );
    }
}
