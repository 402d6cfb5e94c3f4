//! `bench_fleet` — the fleet loop's scaling curve.
//!
//! Runs `exp_sched`'s contended fleet (MP-DASH rate-based with QAware,
//! a 1.5 Mbps-per-client FIFO AP and a 2 Mbps-per-client cell sector)
//! at 16, 64, 256 and 1024 clients and records, per size: clients, fleet
//! loop iterations, simulator events, wall seconds, sessions/sec, and
//! nanoseconds per loop iteration. Each size runs [`REPS`] times, in
//! rounds over all sizes, and the fastest repetition is kept, so every
//! point is a floor over the same number of samples rather than one
//! noisy reading.
//!
//! The curve is judged per loop iteration, not per session: simulated
//! events per session change with fleet size (queueing reshapes every
//! transfer), so per-session cost would grow even with an O(1) loop.
//!
//! ```sh
//! # the committed curve, all four sizes
//! cargo run --release -p mpdash-bench --bin bench_fleet -- --out BENCH_fleet.json
//! # the gate: 16, 64, 256 clients only
//! cargo run --release -p mpdash-bench --bin bench_fleet -- --check
//! ```
//!
//! `--check` runs only the sizes up to [`CHECK_MAX_CLIENTS`] and fails if
//! nanoseconds per loop iteration grow more than [`MAX_STEP_GROWTH`]×
//! across any 4× step in clients.

use mpdash_bench::cli::{commit, machine};
use mpdash_mptcp::SchedulerSpec;
use mpdash_results::Json;
use mpdash_session::TransportMode;
use std::time::Instant;

const SIZES: [usize; 4] = [16, 64, 256, 1024];
/// Largest fleet `--check` runs; the 1024-client point takes minutes.
const CHECK_MAX_CLIENTS: usize = 256;
/// Allowed growth of ns per loop iteration across one 4× size step.
const MAX_STEP_GROWTH: f64 = 1.3;
/// Repetitions per size; the fastest is kept.
const REPS: usize = 5;

/// One point of the curve: the fastest repetition at `clients`.
struct Point {
    clients: usize,
    loop_iterations: u64,
    sim_events: u64,
    wall_s: f64,
}

impl Point {
    fn ns_per_iter(&self) -> f64 {
        self.wall_s * 1e9 / self.loop_iterations as f64
    }

    fn sessions_per_s(&self) -> f64 {
        self.clients as f64 / self.wall_s
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("clients", Json::from(self.clients)),
            ("loop_iterations", Json::from(self.loop_iterations)),
            ("sim_events", Json::from(self.sim_events)),
            ("wall_s", Json::Float(self.wall_s)),
            ("sessions_per_s", Json::Float(self.sessions_per_s())),
            ("ns_per_loop_iteration", Json::Float(self.ns_per_iter())),
        ])
    }
}

/// One timed run at `clients`.
fn measure(clients: usize) -> Point {
    let cfg = mpdash_bench::experiments::sched::fleet_cfg(
        clients,
        SchedulerSpec::QAware,
        TransportMode::mpdash_rate_based(),
    );
    let start = Instant::now();
    let report = mpdash_fleet::run(&cfg);
    let wall_s = start.elapsed().as_secs_f64();
    Point {
        clients,
        loop_iterations: report.profile.loop_iterations,
        sim_events: report
            .sessions
            .iter()
            .map(|s| s.sim_profile.events_popped)
            .sum(),
        wall_s,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.iter().any(|a| a == "--check");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .map(|i| args.get(i + 1).expect("--out needs a path").clone());

    // Rounds over every size, so a slow spell on a shared host lands on
    // one repetition of several sizes rather than every repetition of
    // one. The fleet is deterministic: repetitions differ only in wall
    // time, and the fastest is kept.
    let sizes: Vec<usize> = SIZES
        .into_iter()
        .filter(|&n| !check || n <= CHECK_MAX_CLIENTS)
        .collect();
    let mut best: Vec<Option<Point>> = sizes.iter().map(|_| None).collect();
    for _ in 0..REPS {
        for (slot, &clients) in best.iter_mut().zip(&sizes) {
            let p = measure(clients);
            if slot.as_ref().is_none_or(|b| p.wall_s < b.wall_s) {
                *slot = Some(p);
            }
        }
    }
    let points: Vec<Point> = best.into_iter().flatten().collect();
    for p in &points {
        println!(
            "{:>5} clients: {:>10} iterations, {:>11} sim events, {:>8.3} s, \
             {:>7.1} sessions/s, {:>6.1} ns/iteration (best of {REPS})",
            p.clients,
            p.loop_iterations,
            p.sim_events,
            p.wall_s,
            p.sessions_per_s(),
            p.ns_per_iter(),
        );
    }

    let doc = Json::obj([
        ("schema", Json::from("mpdash-bench-fleet/1")),
        (
            "workload",
            Json::from("exp_sched contended fleet: mpdash_rate + qaware, fifo AP + cell sector"),
        ),
        ("commit", Json::from(commit())),
        ("machine", machine()),
        ("reps_per_size", Json::from(REPS)),
        ("points", Json::arr(points.iter().map(Point::to_json))),
    ]);
    if let Some(path) = out {
        if let Some(dir) = std::path::Path::new(&path).parent() {
            std::fs::create_dir_all(dir).expect("create the curve's directory");
        }
        std::fs::write(&path, doc.to_pretty() + "\n").expect("write the curve");
        println!("[artifact] {path}");
    }

    if check {
        for w in points.windows(2) {
            let growth = w[1].ns_per_iter() / w[0].ns_per_iter();
            assert!(
                growth <= MAX_STEP_GROWTH,
                "ns per loop iteration grew {growth:.2}x from {} to {} clients \
                 (gate {MAX_STEP_GROWTH}x)",
                w[0].clients,
                w[1].clients
            );
        }
        println!("[check] ns per loop iteration grows at most {MAX_STEP_GROWTH}x per 4x clients");
    }
}
