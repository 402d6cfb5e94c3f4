//! The benchmark's own checks: failures are counted and fail the run,
//! every metric is named legally and printed with its unit, and
//! `BENCHMARK.json` lists exactly the metrics and workloads the binary
//! prints.

use mpdash::dash::abr::AbrKind;
use mpdash::dash::video::Video;
use mpdash::results::Json;
use mpdash::session::{run_batch_with, Job, SessionConfig, TransportMode};
use mpdash::sim::SimDuration;
use mpdash_benchmark::catalogue::{result_line, valid_name, Values, END_TO_END, PER_LAYER};
use mpdash_benchmark::score::{collect, tally, Reference};
use mpdash_benchmark::workloads::Workload;

fn tiny_session() -> SessionConfig {
    SessionConfig::controlled_mbps(6.0, 3.0, AbrKind::Festive, TransportMode::Vanilla).with_video(
        Video::new("tiny", &[0.58, 1.01], SimDuration::from_secs(4), 3),
    )
}

#[test]
fn a_panicking_custom_job_counts_as_failed_and_fails_the_run() {
    let jobs = vec![
        Job::session("ok", tiny_session()),
        Job::custom("boom", || panic!("injected failure")),
    ];
    let outcomes = collect(run_batch_with(jobs, 2));
    let t = tally(&outcomes, &[1, 1], None);
    assert_eq!((t.attempted, t.failed, t.completed), (2, 1, 1));
    assert_eq!(t.failed_frac(), 0.5);
    assert!(!t.correct());
    assert_ne!(t.exit_code(), 0);
    assert!(t.notes[0].contains("injected failure"), "{:?}", t.notes);

    let values = all_values(END_TO_END.iter().map(|d| d.name));
    let line = result_line(t.correct(), t.attempted, t.failed, END_TO_END, &values).unwrap();
    let j = Json::parse(&line).unwrap();
    assert_eq!(j.get("correct").and_then(Json::as_bool), Some(false));
    assert_eq!(j.get("failed").and_then(Json::as_u64), Some(1));
}

fn all_values(names: impl Iterator<Item = &'static str>) -> Values {
    let mut v = Values::default();
    for (i, name) in names.enumerate() {
        v.set(name, 1.0 + i as f64 / 7.0);
    }
    v
}

#[test]
fn every_metric_is_named_legally_and_printed_with_its_unit() {
    for defs in [END_TO_END, PER_LAYER] {
        let mut seen = std::collections::HashSet::new();
        for d in defs {
            assert!(valid_name(d.name), "bad metric name {}", d.name);
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
            assert!(
                !d.unit.is_empty()
                    && d.unit.len() <= 16
                    && d.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {} for {}",
                d.unit,
                d.name
            );
            assert!(matches!(d.better, "higher" | "lower"));
        }
        let values = all_values(defs.iter().map(|d| d.name));
        let line = result_line(true, 3, 0, defs, &values).unwrap();
        let metrics = Json::parse(&line).unwrap();
        let metrics = metrics.get("metrics").and_then(Json::as_obj).unwrap();
        assert_eq!(metrics.len(), defs.len());
        for (d, (name, m)) in defs.iter().zip(metrics) {
            assert_eq!(d.name, name);
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(d.unit));
            assert!(m.get("value").and_then(Json::as_f64).is_some());
        }
    }
    assert!(!valid_name("fleet run"));
    assert!(!valid_name(".hidden"));
    // A metric that was not measured is an error, not a silent gap.
    assert!(result_line(true, 1, 0, END_TO_END, &Values::default()).is_err());
}

#[test]
fn benchmark_json_lists_what_the_binary_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = Json::parse(&text).unwrap();
    let list = |key: &str| doc.get(key).and_then(Json::as_arr).unwrap().to_vec();
    let names: Vec<String> = list("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect();
    let expect: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, expect);
    for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let entries = list(key);
        assert_eq!(entries.len(), defs.len(), "{key}");
        for (e, d) in entries.iter().zip(defs) {
            assert_eq!(e.get("name").and_then(Json::as_str), Some(d.name));
            assert_eq!(e.get("unit").and_then(Json::as_str), Some(d.unit));
            assert_eq!(e.get("better").and_then(Json::as_str), Some(d.better));
        }
    }
}

#[test]
fn every_workload_has_reference_digests_for_the_default_and_held_out_seeds() {
    let reference = Reference::builtin();
    for w in Workload::ALL {
        for seed in [1, 8191] {
            let sessions = w.setup(seed).unwrap().sessions_per_job();
            let digests = reference.lookup(w.name(), seed).expect("recorded");
            assert_eq!(digests.len(), sessions.len(), "{} seed {seed}", w.name());
            for (d, n) in digests.iter().zip(&sessions) {
                let d = d.as_ref().expect("every recorded job finished");
                // A fleet job also records its fleet summary.
                assert!(d.len() == *n || d.len() == n + 1);
            }
        }
    }
}
