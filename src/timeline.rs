//! `mpdash timeline <scenario.json>`: fleet-wide time series over
//! virtual time.
//!
//! The scenario runner prints end-of-run aggregates; this command
//! renders *when* things happened. It runs the document's fleet once
//! per mode with epoch telemetry forced on, folds every client's
//! [`EpochSeries`], every shared bottleneck's, and the fleet loop's own
//! series into one fleet-wide series per mode, and renders the signals
//! the capacity questions need — deadline-miss rate, cellular bytes,
//! cache hit ratio, shared-queue depth, per-epoch QoE — as aligned
//! sparklines plus machine-readable NDJSON under `results/`.
//!
//! Determinism: every NDJSON byte derives from epoch series, which
//! merge associatively, so output is identical at any `MPDASH_WORKERS`
//! — CI diffs the file across worker counts. The wall-clock loop
//! profile is intrinsically machine-dependent, so it is quarantined in
//! `results/PROF_fleet.json` and never enters the NDJSON.

use crate::scenario::Scenario;
use mpdash_dash::QoeScore;
use mpdash_fleet::{run_checked, FleetConfig};
use mpdash_obs::{EpochSeries, InvariantViolation, Metric, TelemetrySpec};
use mpdash_results::{artifact_dir, Json};
use mpdash_session::{run_batch, Job, JobReport};

/// Options parsed from the `timeline` command line.
#[derive(Clone, Copy, Debug, Default)]
pub struct TimelineOptions {
    /// Reduced run: cap the fleet at 8 clients per mode.
    pub quick: bool,
}

/// Widest sparkline the report prints; longer series are downsampled
/// (deterministically, by averaging fixed-size epoch groups).
const SPARK_WIDTH: usize = 64;

/// Everything `mpdash timeline` produced: the rendered report plus the
/// artifact paths it wrote.
pub struct TimelineOutput {
    /// Human-readable report (sparklines + per-mode tables).
    pub rendered: String,
    /// The NDJSON export path (one line per mode per epoch).
    pub ndjson_path: std::path::PathBuf,
    /// The loop-profile path (`PROF_fleet.json`).
    pub profile_path: std::path::PathBuf,
}

/// Run the scenario's fleet per mode and build the timeline report.
/// Errors when the document has no `fleet` key or fails to build.
pub fn timeline_scenario(
    scenario: &Scenario,
    opts: &TimelineOptions,
) -> Result<TimelineOutput, String> {
    if scenario.fleet.is_none() {
        return Err("scenario has no 'fleet' key (timeline renders fleet runs)".into());
    }
    // Telemetry is the whole point here: force it on when the document
    // doesn't ask for it (default one-second epochs).
    let spec = scenario.telemetry.unwrap_or_default();
    let mut configs = scenario.fleet_configs()?;
    for (_, fc) in configs.iter_mut() {
        *fc = fc.clone().with_telemetry(spec).with_wall_profile();
        if opts.quick {
            fc.clients = fc.clients.min(8);
        }
    }

    // One job per mode through the ordinary order-preserving batch
    // machinery: results come back in declaration order whatever
    // MPDASH_WORKERS says, and each job's value is pure epoch data — or
    // `{"violation": ...}` when the fleet watchdog tripped.
    let jobs: Vec<Job> = configs
        .into_iter()
        .map(|(label, fc)| {
            Job::custom(label.clone(), move || {
                let json = mode_timeline(&label, &fc)
                    .unwrap_or_else(|v| Json::obj([("violation", Json::from(v.to_string()))]));
                JobReport::Value(Box::new(json))
            })
        })
        .collect();
    let results = run_batch(jobs);
    let mut modes = Vec::new();
    for r in &results {
        let v = r.value().map_err(|e| format!("job {}: {e}", r.label))?;
        if let Some(violation) = v.get("violation").and_then(Json::as_str) {
            return Err(format!(
                "mode {}: fleet invariant violated: {violation}",
                r.label
            ));
        }
        modes.push(v.clone());
    }

    let rendered = render(scenario, opts, &modes);
    let dir = artifact_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;

    // NDJSON: deterministic rows only, one line per mode per epoch.
    let ndjson_path = dir.join(format!("TIMELINE_{}.ndjson", slug(&scenario.name)));
    let mut ndjson = String::new();
    for mode in &modes {
        for row in rows(mode) {
            ndjson.push_str(&row.to_compact());
            ndjson.push('\n');
        }
    }
    std::fs::write(&ndjson_path, &ndjson)
        .map_err(|e| format!("writing {}: {e}", ndjson_path.display()))?;

    // The loop profile: deterministic span counters beside the
    // wall-clock phase breakdown. Machine-dependent by design, hence a
    // separate artifact that no determinism gate compares.
    let profile_path = dir.join("PROF_fleet.json");
    let prof = Json::obj([
        ("scenario", Json::from(scenario.name.as_str())),
        (
            "modes",
            Json::arr(modes.iter().map(|m| {
                Json::obj([
                    ("mode", m.get("mode").cloned().unwrap_or(Json::Null)),
                    ("loop", m.get("loop").cloned().unwrap_or(Json::Null)),
                    ("wall", m.get("wall").cloned().unwrap_or(Json::Null)),
                ])
            })),
        ),
    ]);
    std::fs::write(&profile_path, prof.to_pretty())
        .map_err(|e| format!("writing {}: {e}", profile_path.display()))?;

    Ok(TimelineOutput {
        rendered,
        ndjson_path,
        profile_path,
    })
}

/// Run one mode's fleet and reduce it to the timeline's JSON: one row
/// per epoch plus loop/wall profiles. Every field except `wall` is a
/// pure function of the fleet config. Errors when the fleet's watchdog
/// reports a broken invariant.
fn mode_timeline(label: &str, fc: &FleetConfig) -> Result<Json, InvariantViolation> {
    let report = run_checked(fc)?;
    let epoch = report
        .epochs
        .as_ref()
        .map(|e| e.epoch_len())
        .unwrap_or_default();
    // Fold clients + bottlenecks + loop into one series: the signal
    // names are disjoint, and one dense grid keeps the rows aligned.
    let mut all = report
        .epochs
        .clone()
        .unwrap_or_else(|| EpochSeries::new(TelemetrySpec::new(epoch)));
    for bn in &report.bottlenecks {
        if let Some(e) = &bn.epochs {
            all.merge(e);
        }
    }
    if let Some(e) = &report.profile.epochs {
        all.merge(e);
    }

    let top_rung_mbps = fc
        .base
        .video
        .bitrate(fc.base.video.n_levels() - 1)
        .as_mbps_f64();
    let epoch_s = epoch.as_secs_f64();
    // Running arrivals-minus-departures: the fleet loop's lifecycle
    // counters integrate into the concurrency the capacity questions
    // care about. Shed sessions never arrive, so they don't inflate it.
    let mut active: i64 = 0;
    let rows = all.cells().map(move |(i, c)| {
        let hits = c.counter(Metric::DeadlineHits);
        let misses = c.counter(Metric::DeadlineMisses);
        let miss_rate = misses as f64 / (hits + misses).max(1) as f64;
        let cache_hits = c.counter(Metric::CacheHits);
        let cache_misses = c.counter(Metric::CacheMisses);
        let cache_ratio = cache_hits as f64 / (cache_hits + cache_misses).max(1) as f64;
        let mean = |m: Metric| {
            c.histogram(m)
                .map_or(0.0, |h| h.sum() as f64 / h.count().max(1) as f64)
        };
        let queue_depth = mean(Metric::QueueDepthBytes);
        // Mean sojourn of the epoch's departures — bufferbloat over
        // time, and the signal an AQM holds near its target.
        let queue_wait = mean(Metric::QueueWaitMs);
        // PIE's drop probability (parts per million), sampled at each
        // departure; zero on non-AQM fleets, whose series lack the cell.
        let aqm_prob = mean(Metric::AqmDropProbPpm);
        let arrivals = c.counter(Metric::FleetArrivals);
        let departures = c.counter(Metric::FleetDepartures);
        let shed = c.counter(Metric::FleetShed);
        active += arrivals as i64 - departures as i64;
        let qoe = QoeScore::from_epoch(
            c.counter(Metric::Chunks),
            c.counter(Metric::ChunkBitrateKbps),
            c.counter(Metric::Switches),
            c.counter(Metric::StallMs),
            epoch,
            top_rung_mbps,
        );
        Json::obj([
            ("mode", Json::from(label)),
            ("epoch", Json::from(i)),
            ("t_s", Json::Float(i as f64 * epoch_s)),
            ("deadline_hits", Json::from(hits)),
            ("deadline_misses", Json::from(misses)),
            ("miss_rate", Json::Float(miss_rate)),
            ("wifi_bytes", Json::from(c.counter(Metric::WifiBytes))),
            ("cell_bytes", Json::from(c.counter(Metric::CellBytes))),
            ("chunks", Json::from(c.counter(Metric::Chunks))),
            ("switches", Json::from(c.counter(Metric::Switches))),
            ("stall_ms", Json::from(c.counter(Metric::StallMs))),
            ("cache_hits", Json::from(cache_hits)),
            ("cache_misses", Json::from(cache_misses)),
            ("cache_hit_ratio", Json::Float(cache_ratio)),
            ("queue_depth_mean", Json::Float(queue_depth)),
            ("queue_wait_mean_ms", Json::Float(queue_wait)),
            ("aqm_drop_prob_ppm_mean", Json::Float(aqm_prob)),
            (
                "shared_dropped_bytes",
                Json::from(c.counter(Metric::SharedDroppedBytes)),
            ),
            ("wasted_bytes", Json::from(c.counter(Metric::WastedBytes))),
            ("loop_steps", Json::from(c.counter(Metric::LoopSteps))),
            (
                "loop_departures",
                Json::from(c.counter(Metric::LoopDepartures)),
            ),
            ("fleet_arrivals", Json::from(arrivals)),
            ("fleet_departures", Json::from(departures)),
            ("fleet_shed", Json::from(shed)),
            ("active_sessions", Json::from(active.max(0) as u64)),
            ("qoe_composite", Json::Float(qoe.composite)),
        ])
    });

    let qoe_mean = if report.sessions.is_empty() {
        0.0
    } else {
        report
            .sessions
            .iter()
            .map(|s| s.qoe_score.composite)
            .sum::<f64>()
            / report.sessions.len() as f64
    };
    Ok(Json::obj([
        ("mode", Json::from(label)),
        ("clients", Json::from(report.sessions.len())),
        ("epoch_s", Json::Float(epoch_s)),
        ("qoe_mean", Json::Float(qoe_mean)),
        ("miss_rate", Json::Float(report.deadline_miss_rate)),
        ("rows", Json::arr(rows)),
        ("loop", report.profile.to_json()),
        (
            "wall",
            report
                .wall_profile
                .map(|w| w.to_json())
                .unwrap_or(Json::Null),
        ),
    ]))
}

/// The per-epoch rows of one mode's timeline value.
fn rows(mode: &Json) -> &[Json] {
    mode.get("rows").and_then(|r| r.as_arr()).unwrap_or(&[])
}

fn row_f64(row: &Json, key: &str) -> f64 {
    row.get(key).and_then(|v| v.as_f64()).unwrap_or(0.0)
}

/// Downsample to at most `SPARK_WIDTH` columns by averaging fixed-size
/// groups of epochs, then render one glyph per column scaled to the
/// series max. All-zero series render as a flat baseline.
fn sparkline(values: &[f64]) -> String {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() {
        return String::new();
    }
    let group = values.len().div_ceil(SPARK_WIDTH);
    let cols: Vec<f64> = values
        .chunks(group)
        .map(|c| c.iter().sum::<f64>() / c.len() as f64)
        .collect();
    let max = cols.iter().cloned().fold(0.0_f64, f64::max);
    cols.iter()
        .map(|&v| {
            if max <= 0.0 {
                GLYPHS[0]
            } else {
                let idx = (v / max * (GLYPHS.len() - 1) as f64).round() as usize;
                GLYPHS[idx.min(GLYPHS.len() - 1)]
            }
        })
        .collect()
}

fn render(scenario: &Scenario, opts: &TimelineOptions, modes: &[Json]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "timeline: {}{} — {} mode(s), sparklines over virtual time",
        scenario.name,
        if opts.quick { " [quick]" } else { "" },
        modes.len()
    );
    for mode in modes {
        let label = mode
            .get("mode")
            .and_then(|v| v.as_str())
            .unwrap_or("?")
            .to_string();
        let rows = rows(mode);
        let n = rows.len();
        let epoch_s = mode.get("epoch_s").and_then(|v| v.as_f64()).unwrap_or(0.0);
        let span = n as f64 * epoch_s;
        let _ =
            writeln!(
            out,
            "\n{label}: {n} epochs x {epoch_s:.1}s ({span:.0}s), mean QoE {:.1}, miss rate {:.3}",
            mode.get("qoe_mean").and_then(|v| v.as_f64()).unwrap_or(0.0),
            mode.get("miss_rate").and_then(|v| v.as_f64()).unwrap_or(0.0),
        );
        let series = |key: &str| -> Vec<f64> { rows.iter().map(|r| row_f64(r, key)).collect() };
        for (title, key, unit_scale, unit) in [
            ("miss rate", "miss_rate", 1.0, ""),
            ("LTE bytes", "cell_bytes", 1e-6, " MB"),
            ("cache hit%", "cache_hit_ratio", 100.0, "%"),
            ("queue depth", "queue_depth_mean", 1e-3, " KB"),
            ("queue delay", "queue_wait_mean_ms", 1.0, " ms"),
            ("aqm prob", "aqm_drop_prob_ppm_mean", 1e-4, "%"),
            ("QoE", "qoe_composite", 1.0, ""),
            ("loop steps", "loop_steps", 1.0, ""),
            ("active sess", "active_sessions", 1.0, ""),
            ("shed", "fleet_shed", 1.0, ""),
        ] {
            let vals = series(key);
            let peak = vals.iter().cloned().fold(0.0_f64, f64::max);
            let _ = writeln!(
                out,
                "  {title:<12} {} peak {:.2}{unit}",
                sparkline(&vals),
                peak * unit_scale,
            );
        }
    }
    out
}

/// Lowercase alphanumeric artifact stem for the scenario name.
fn slug(name: &str) -> String {
    let s: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect();
    if s.is_empty() {
        "scenario".into()
    } else {
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"{
        "name": "Timeline Demo",
        "video": {"custom": {"levels_mbps": [0.6, 1.5, 3.0], "chunk_secs": 4, "n_chunks": 15}},
        "wifi": {"constant": 8.0},
        "cell": {"constant": 4.0},
        "abr": "festive",
        "modes": ["vanilla", "mpdash_rate"],
        "telemetry": {"epoch_s": 2.0},
        "cache": {"capacity_mb": 64},
        "fleet": {
            "clients": 3,
            "shared": [{"rate_mbps": 10.0, "paths": ["wifi"]}]
        }
    }"#;

    fn demo_modes() -> Vec<Json> {
        let sc = Scenario::from_json(DOC).unwrap();
        let spec = sc.telemetry.unwrap();
        sc.fleet_configs()
            .unwrap()
            .into_iter()
            .map(|(label, fc)| mode_timeline(&label, &fc.with_telemetry(spec)).unwrap())
            .collect()
    }

    #[test]
    fn mode_timeline_rows_are_deterministic_and_dense() {
        let a = demo_modes();
        let b = demo_modes();
        for (ma, mb) in a.iter().zip(&b) {
            // The deterministic surface (everything but wall) matches
            // bit for bit across runs.
            assert_eq!(
                Json::arr(rows(ma).iter().cloned()).to_pretty(),
                Json::arr(rows(mb).iter().cloned()).to_pretty()
            );
            let rows = rows(ma);
            assert!(rows.len() > 5, "a real run spans many epochs");
            for (i, r) in rows.iter().enumerate() {
                assert_eq!(r.get("epoch").and_then(|v| v.as_u64()), Some(i as u64));
            }
            let bytes: u64 = rows
                .iter()
                .map(|r| r.get("cell_bytes").and_then(|v| v.as_u64()).unwrap_or(0))
                .sum();
            assert!(bytes > 0, "cellular traffic shows up in the series");
        }
    }

    #[test]
    fn active_sessions_track_follows_churn_and_shedding() {
        let doc = r#"{
            "name": "churn-track",
            "video": {"custom": {"levels_mbps": [0.6, 1.5], "chunk_secs": 4, "n_chunks": 10}},
            "wifi": {"constant": 8.0},
            "cell": {"constant": 4.0},
            "abr": "festive",
            "buffer_secs": 8,
            "modes": ["mpdash_rate"],
            "telemetry": {"epoch_s": 2.0},
            "fleet": {
                "clients": 8,
                "seed": 23,
                "watchdog": true,
                "churn": {"mean_interarrival_s": 2.0, "mean_watch_s": 20.0},
                "overload": {"max_active": 2},
                "shared": [{"rate_mbps": 6.0, "paths": ["wifi"]}]
            }
        }"#;
        let sc = Scenario::from_json(doc).unwrap();
        let spec = sc.telemetry.unwrap();
        let (label, fc) = sc.fleet_configs().unwrap().remove(0);
        let mode = mode_timeline(&label, &fc.with_telemetry(spec)).unwrap();
        let rows = rows(&mode);
        let sum = |key: &str| -> u64 { rows.iter().map(|r| row_f64(r, key) as u64).sum() };
        let arrivals = sum("fleet_arrivals");
        let departures = sum("fleet_departures");
        let shed = sum("fleet_shed");
        assert!(arrivals > 0, "admitted sessions arrive");
        assert_eq!(
            arrivals, departures,
            "every admitted session eventually departs"
        );
        assert!(shed > 0, "the cap sheds some of the 8 packed arrivals");
        assert_eq!(arrivals + shed, 8, "every client is admitted or shed");
        let active: Vec<f64> = rows.iter().map(|r| row_f64(r, "active_sessions")).collect();
        let peak = active.iter().cloned().fold(0.0, f64::max);
        assert!(
            (1.0..=2.0).contains(&peak),
            "active sessions stay within the admission cap, peak {peak}"
        );
        assert_eq!(
            *active.last().unwrap(),
            0.0,
            "the fleet drains to zero active sessions"
        );
    }

    #[test]
    fn aqm_fleet_surfaces_queue_delay_and_drop_probability() {
        let doc = r#"{
            "name": "aqm-track",
            "video": {"custom": {"levels_mbps": [0.6, 1.5, 3.0], "chunk_secs": 4, "n_chunks": 10}},
            "wifi": {"constant": 8.0},
            "cell": {"constant": 4.0},
            "abr": "festive",
            "buffer_secs": 8,
            "modes": ["mpdash_rate"],
            "telemetry": {"epoch_s": 2.0},
            "fleet": {
                "clients": 4,
                "shared": [{"rate_mbps": 4.0, "discipline": "pie", "paths": ["wifi"]}]
            }
        }"#;
        let sc = Scenario::from_json(doc).unwrap();
        let spec = sc.telemetry.unwrap();
        let (label, fc) = sc.fleet_configs().unwrap().remove(0);
        let mode = mode_timeline(&label, &fc.with_telemetry(spec)).unwrap();
        let rows = rows(&mode);
        let peak =
            |key: &str| -> f64 { rows.iter().map(|r| row_f64(r, key)).fold(0.0_f64, f64::max) };
        assert!(
            peak("queue_wait_mean_ms") > 0.0,
            "a contended bottleneck shows queue delay"
        );
        assert!(
            peak("aqm_drop_prob_ppm_mean") > 0.0,
            "sustained contention raises PIE's drop probability"
        );
        let text = render(&sc, &TimelineOptions::default(), &[mode]);
        assert!(text.contains("queue delay"), "{text}");
        assert!(text.contains("aqm prob"), "{text}");
    }

    #[test]
    fn sparklines_scale_and_downsample() {
        assert_eq!(sparkline(&[0.0, 0.0]), "▁▁");
        assert_eq!(sparkline(&[1.0, 7.0]).chars().count(), 2);
        assert_eq!(sparkline(&[0.0, 7.0]), "▁█");
        let long: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        assert!(sparkline(&long).chars().count() <= SPARK_WIDTH);
    }

    #[test]
    fn slugs_are_filesystem_safe() {
        assert_eq!(slug("Timeline Demo"), "timeline_demo");
        assert_eq!(slug(""), "scenario");
    }
}
