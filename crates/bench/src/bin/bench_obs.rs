//! `bench_obs` — the telemetry-overhead artifact.
//!
//! Emits `results/BENCH_obs.json` with two figures tracked across PRs:
//!
//! * nanoseconds per epoch-rollup event — counter bumps and histogram
//!   observations into an [`EpochSeries`] keyed by the [`Metric`]
//!   catalogue at a realistic mix, best-of-N wall-clock over millions of
//!   events so the number is the steady hot-path cost rather than a cold
//!   sample;
//! * the telemetry overhead of the 16-client contended fleet from
//!   `bench_sched`: [`PAIRS`] interleaved pairs of one run with telemetry
//!   off and one with 1-second epochs on (every client, bottleneck, and
//!   the fleet loop all rolling up), the order alternating from pair to
//!   pair. Each pair gives one ratio, on over off; the figure is the
//!   median ratio, and its quartiles are the noise floor. A slow spell on
//!   a shared host lands on both halves of a pair or is dropped by the
//!   median, where comparing two best-of-N floors measured host noise.
//!
//! `--check` gates the median per-pair overhead at 3%.
//!
//! `--out PATH --label NAME` also records the run under `NAME` in the
//! JSON document at `PATH`, with the commit and machine, replacing an
//! earlier run of that label. The committed repo-root `BENCH_obs.json`
//! holds a `before` and an `after` run from one machine.
//!
//! ```sh
//! cargo run --release -p mpdash-bench --bin bench_obs -- --check
//! cargo run --release -p mpdash-bench --bin bench_obs -- --out BENCH_obs.json --label after
//! ```

use mpdash_bench::cli::{commit, machine, quick_requested};
use mpdash_fleet::FleetConfig;
use mpdash_obs::{EpochSeries, Metric, TelemetrySpec};
use mpdash_results::{write_artifact, ExperimentResult, Json, ScalarGroup};
use mpdash_sim::series::Cdf;
use mpdash_sim::SimTime;
use std::hint::black_box;
use std::time::Instant;

const ROLLUP_TRIALS: usize = 7;
/// Off/on fleet pairs in a full run.
const PAIRS: usize = 21;
/// Off/on fleet pairs in a quick run.
const QUICK_PAIRS: usize = 9;
/// The gate: median per-pair wall-clock overhead of telemetry.
const MAX_OVERHEAD: f64 = 0.03;

/// Best-of-[`ROLLUP_TRIALS`] nanoseconds per rollup event. The mix is
/// four counter bumps and one histogram observation per simulated
/// event-ish step, walking virtual time forward so the epoch cursor
/// moves the way a real session drives it (mostly same-epoch hits with
/// a periodic append).
fn rollup_ns_per_event(events: u64) -> f64 {
    let counters = [
        Metric::WifiBytes,
        Metric::DeadlineHits,
        Metric::Chunks,
        Metric::Switches,
    ];
    let mut best = f64::INFINITY;
    for _ in 0..ROLLUP_TRIALS {
        let mut series = EpochSeries::new(TelemetrySpec::seconds(1.0));
        let mut t_ms: u64 = 0;
        let start = Instant::now();
        for i in 0..events {
            let t = SimTime::from_millis(t_ms);
            let m = counters[(i % 4) as usize];
            series.add(t, black_box(m), black_box(i & 0xffff));
            if i % 4 == 0 {
                series.observe(t, Metric::QueueDepthBytes, black_box(i & 0x3ff));
            }
            t_ms += 3; // ~333 events/epoch before the next cell appends
        }
        black_box(&series);
        best = best.min(start.elapsed().as_nanos() as f64 / events as f64);
    }
    best
}

/// Wall-clock seconds of one fleet run, and its session count.
fn fleet_wall_s(cfg: &FleetConfig) -> (f64, usize) {
    let cfg = cfg.clone();
    let start = Instant::now();
    let report = mpdash_fleet::run(&cfg);
    (start.elapsed().as_secs_f64(), report.sessions.len())
}

/// `quantile(q)` of `values`.
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut cdf = Cdf::new();
    values.iter().for_each(|&v| cdf.push(v));
    cdf.quantile(q).unwrap_or(f64::NAN)
}

/// The value following `flag` on the command line.
fn arg_value(args: &[String], flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    Some(
        args.get(i + 1)
            .unwrap_or_else(|| panic!("{flag} needs a value"))
            .clone(),
    )
}

/// Replace the run labelled like `run` in the document at `path` (or
/// start a new document) and write it back.
fn record(path: &str, run: Json) {
    let label = run.get("label").and_then(Json::as_str).unwrap_or_default();
    let mut runs: Vec<Json> = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| Json::parse(&text).ok())
        .and_then(|doc| doc.get("runs").and_then(Json::as_arr).map(<[Json]>::to_vec))
        .unwrap_or_default();
    runs.retain(|r| r.get("label").and_then(Json::as_str) != Some(label));
    runs.push(run);
    let doc = Json::obj([
        ("schema", Json::from("mpdash-bench-obs/1")),
        (
            "workload",
            Json::from(
                "epoch rollup micro-bench; exp_sched 16-client contended fleet, \
                 telemetry off vs 1 s epochs",
            ),
        ),
        (
            "method",
            Json::from(
                "rollup: best-of-7 ns per event; fleet: interleaved off/on pairs, \
                 order alternating per pair, median of per-pair on/off - 1 with its quartiles",
            ),
        ),
        ("runs", Json::Arr(runs)),
    ]);
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).expect("create the record's directory");
    }
    std::fs::write(path, doc.to_pretty() + "\n").expect("write the record");
    println!("[artifact] {path}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.iter().any(|a| a == "--check");
    let out = arg_value(&args, "--out");
    let label = arg_value(&args, "--label").unwrap_or_else(|| "after".into());
    let quick = quick_requested();
    let rollup_events: u64 = if quick { 400_000 } else { 4_000_000 };
    let pairs = if quick { QUICK_PAIRS } else { PAIRS };

    let rollup_ns = rollup_ns_per_event(rollup_events);

    let base = mpdash_bench::experiments::sched::bench_fleet_config();
    let on_cfg = base.clone().with_telemetry(TelemetrySpec::seconds(1.0));
    let (mut off_s, mut on_s, mut overhead) = (Vec::new(), Vec::new(), Vec::new());
    let mut sessions = 0;
    for p in 0..pairs {
        let (off, on) = if p % 2 == 0 {
            let off = fleet_wall_s(&base);
            (off, fleet_wall_s(&on_cfg))
        } else {
            let on = fleet_wall_s(&on_cfg);
            (fleet_wall_s(&base), on)
        };
        sessions = off.1;
        off_s.push(off.0);
        on_s.push(on.0);
        overhead.push(on.0 / off.0 - 1.0);
    }
    let (off_med, on_med) = (quantile(&off_s, 0.5), quantile(&on_s, 0.5));
    let (q1, median, q3) = (
        quantile(&overhead, 0.25),
        quantile(&overhead, 0.5),
        quantile(&overhead, 0.75),
    );

    let mut res = ExperimentResult::new(
        "BENCH_obs",
        "Telemetry overhead — epoch rollup cost and fleet throughput on vs off",
    );
    res.text(format!(
        "\nrollup: {rollup_ns:.1} ns/event over {rollup_events} events (best-of-{ROLLUP_TRIALS})\n\
         fleet:  {sessions} sessions, {pairs} interleaved pairs, median off {off_med:.3}s, \
         on {on_med:.3}s\n\
         overhead per pair: median {:+.2}% (quartiles {:+.2}% .. {:+.2}%)",
        median * 100.0,
        q1 * 100.0,
        q3 * 100.0,
    ));
    res.scalars(
        ScalarGroup::new(format!("epoch rollup (best-of-{ROLLUP_TRIALS})"))
            .with("ns_per_event", rollup_ns)
            .with("events", rollup_events as f64),
    );
    res.scalars(
        ScalarGroup::new(format!(
            "16-client contended fleet ({pairs} interleaved off/on pairs)"
        ))
        .with("telemetry_off_wall_s_median", off_med)
        .with("telemetry_on_wall_s_median", on_med)
        .with("overhead_pct_median", median * 100.0)
        .with("overhead_pct_q1", q1 * 100.0)
        .with("overhead_pct_q3", q3 * 100.0)
        .with("sessions_per_sec_off", sessions as f64 / off_med)
        .with("sessions_per_sec_on", sessions as f64 / on_med),
    );
    println!("{}", res.render());
    let path = write_artifact(&res).expect("artifact write");
    println!("[artifact] {}", path.display());

    if let Some(out) = out {
        record(
            &out,
            Json::obj([
                ("label", Json::from(label.as_str())),
                ("commit", Json::from(commit())),
                ("machine", machine()),
                ("quick", Json::Bool(quick)),
                ("rollup_ns_per_event", Json::Float(rollup_ns)),
                ("rollup_events", Json::from(rollup_events)),
                ("pairs", Json::from(pairs)),
                ("telemetry_off_wall_s_median", Json::Float(off_med)),
                ("telemetry_on_wall_s_median", Json::Float(on_med)),
                ("sessions_per_s_off", Json::Float(sessions as f64 / off_med)),
                ("sessions_per_s_on", Json::Float(sessions as f64 / on_med)),
                ("overhead_median", Json::Float(median)),
                ("overhead_q1", Json::Float(q1)),
                ("overhead_q3", Json::Float(q3)),
            ]),
        );
    }

    if check {
        assert!(
            median <= MAX_OVERHEAD,
            "telemetry costs {:+.2}% of fleet wall-clock (median of {pairs} pairs), \
             over the {:.0}% gate",
            median * 100.0,
            MAX_OVERHEAD * 100.0
        );
        println!("[check] median telemetry overhead within 3% of the off path");
    }
}
