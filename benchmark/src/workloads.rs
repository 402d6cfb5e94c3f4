//! Workload generators. Each takes the workload seed and returns the
//! inputs the simulator parses and builds; the same seed always gives
//! the same inputs.

use mpdash::dash::abr::AbrKind;
use mpdash::dash::video::Video;
use mpdash::fleet::{run_checked, FleetConfig, FleetReport};
use mpdash::results::Json;
use mpdash::scenario::Scenario;
use mpdash::session::{Job, JobReport, SessionConfig, TransportMode};
use mpdash::sim::SimDuration;
use mpdash::trace::field::{field_corpus, Location};

use crate::score::{digest_hex, summary_bytes};

/// Big Buck Bunny's ladder, cut to this many 4 s chunks for the grid.
pub(crate) const GRID_CHUNKS: usize = 40;
/// Clients of the contended fleet.
pub(crate) const CONTENDED_CLIENTS: usize = 64;
/// Clients per mode of the robust fleet.
pub(crate) const ROBUST_CLIENTS: usize = 32;

/// A named benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 64 MP-DASH clients behind a deep FIFO AP and a cell sector.
    FleetContended,
    /// 33 field locations × {FESTIVE, BBA} × {vanilla, MP-DASH rate}.
    SessionGrid,
    /// Two 32-client fleets with churn, faults, AQM, origins, cache and
    /// telemetry.
    FleetRobust,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::FleetContended,
        Workload::SessionGrid,
        Workload::FleetRobust,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetContended => "fleet_contended",
            Workload::SessionGrid => "session_grid",
            Workload::FleetRobust => "fleet_robust",
        }
    }

    /// Look a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The scenario document this workload parses, if it is built from
    /// one (the fleets are; the grid is built from the field corpus).
    pub fn document(self, seed: u64) -> Option<String> {
        match self {
            Workload::FleetContended => Some(contended_doc(seed)),
            Workload::FleetRobust => Some(robust_doc(seed)),
            Workload::SessionGrid => None,
        }
    }

    /// Generate the inputs and have the simulator parse and build them.
    ///
    /// # Errors
    /// When the scenario parser rejects a generated document.
    pub fn setup(self, seed: u64) -> Result<Inputs, String> {
        match self.document(seed) {
            Some(doc) => Ok(Inputs::Fleets(Scenario::from_json(&doc)?.fleet_configs()?)),
            None => Ok(Inputs::Sessions(grid_sessions(seed))),
        }
    }
}

/// The built inputs of one workload.
#[derive(Clone)]
pub enum Inputs {
    /// Independent sessions, one batch job each.
    Sessions(Vec<(String, SessionConfig)>),
    /// Fleets, one batch job each.
    Fleets(Vec<(String, FleetConfig)>),
}

impl Inputs {
    /// The batch jobs, in input order. A fleet job runs `run_checked` and
    /// returns its session digests, shed count and event counts as its
    /// value.
    pub fn jobs(&self) -> Vec<Job> {
        match self {
            Inputs::Sessions(cfgs) => cfgs
                .iter()
                .map(|(label, cfg)| Job::session(label.clone(), cfg.clone()))
                .collect(),
            Inputs::Fleets(cfgs) => cfgs
                .iter()
                .map(|(label, cfg)| {
                    let cfg = cfg.clone();
                    Job::custom(label.clone(), move || fleet_outcome(&cfg))
                })
                .collect(),
        }
    }

    /// Client sessions each job simulates.
    pub fn sessions_per_job(&self) -> Vec<usize> {
        match self {
            Inputs::Sessions(cfgs) => vec![1; cfgs.len()],
            Inputs::Fleets(cfgs) => cfgs.iter().map(|(_, c)| c.clients).collect(),
        }
    }
}

/// Run one fleet with invariant checking and reduce it to what the
/// correctness check compares: the digest of every session's summary
/// bytes, then the digest of the fleet summary; plus the shed count and
/// each session's simulator events. A
/// watchdog violation comes back as `{"violation": ...}`.
pub(crate) fn fleet_outcome(cfg: &FleetConfig) -> JobReport {
    let json = match run_checked(cfg) {
        Ok(report) => outcome_json(&report),
        Err(v) => Json::obj([("violation", Json::from(v.to_string()))]),
    };
    JobReport::Value(Box::new(json))
}

/// The digests, shed count and per-session simulator events of a
/// finished fleet (see [`fleet_outcome`]).
fn outcome_json(report: &FleetReport) -> Json {
    Json::obj([
        ("shed", Json::from(report.shed_sessions)),
        (
            "digests",
            Json::arr(fleet_digests(report).into_iter().map(Json::from)),
        ),
        (
            "events",
            Json::arr(
                report
                    .sessions
                    .iter()
                    .map(|s| Json::from(s.sim_profile.events_popped)),
            ),
        ),
    ])
}

/// The digest of every session's summary bytes, in client order, then
/// the digest of the fleet summary.
pub(crate) fn fleet_digests(report: &FleetReport) -> Vec<String> {
    report
        .sessions
        .iter()
        .map(|s| s.summary_json())
        .chain(std::iter::once(report.summary_json()))
        .map(|j| digest_hex(&summary_bytes(&j)))
        .collect()
}

/// The five-level ladder the fleet experiments stream, 20 chunks.
const FLEET_VIDEO: &str = r#"{"custom": {"levels_mbps": [0.58, 1.01, 1.47, 2.41, 3.94], "chunk_secs": 4, "n_chunks": 20}}"#;

/// `exp_sched`'s contended fleet at 64 clients: MP-DASH rate-based with
/// QAware, an AP at 1.5 Mbps per client behind a 64 KiB-per-client FIFO,
/// a sector at 2 Mbps per client, 10 ms RTT skew. The seed picks the
/// stagger, 1.000 to 1.060 s in 1 ms steps (the experiment's is 1 s),
/// and the private WiFi trace around the experiment's 50 Mbps, so every
/// seed interleaves the clients differently at nearly the same work.
pub(crate) fn contended_doc(seed: u64) -> String {
    let n = CONTENDED_CLIENTS;
    format!(
        r#"{{
  "name": "fleet_contended",
  "video": {FLEET_VIDEO},
  "wifi": {{"synthetic": {{"mean_mbps": 50.0, "sigma": 0.1, "seed": {seed}}}}},
  "cell": {{"constant": 30.0}},
  "abr": "festive",
  "modes": [{{"mode": "mpdash_rate", "scheduler": "qaware"}}],
  "fleet": {{
    "clients": {n},
    "stagger_s": {stagger},
    "rtt_skew_ms": 10,
    "seed": {seed},
    "watchdog": true,
    "shared": [
      {{"rate_mbps": {ap}, "capacity_bytes": {cap}, "discipline": "fifo", "paths": ["wifi"]}},
      {{"rate_mbps": {sector}, "discipline": "fifo", "paths": ["cell"]}}
    ]
  }}
}}"#,
        stagger = 1.0 + (seed % 61) as f64 / 1000.0,
        ap = 1.5 * n as f64,
        cap = 64 * 1024 * n,
        sector = 2.0 * n as f64,
    )
}

/// Two 32-client fleets (vanilla and MP-DASH rate-based) exercising the
/// robustness paths: seeded churn, a WiFi outage on half the clients, an
/// admission cap, an FQ-PIE+ECN AP and a CoDel sector, a blackholed
/// primary origin with hedging and failover, a shared edge cache, the
/// deadline-aware request lifecycle, 2 s telemetry epochs, and the
/// watchdog armed.
pub(crate) fn robust_doc(seed: u64) -> String {
    let n = ROBUST_CLIENTS;
    let members: Vec<String> = (0..n / 2).map(|k| k.to_string()).collect();
    format!(
        r#"{{
  "name": "fleet_robust",
  "video": {FLEET_VIDEO},
  "wifi": {{"synthetic": {{"mean_mbps": 20.0, "sigma": 0.15, "seed": {seed}}}}},
  "cell": {{"constant": 30.0}},
  "abr": "festive",
  "buffer_secs": 20,
  "modes": ["vanilla", "mpdash_rate"],
  "lifecycle": "deadline_aware",
  "origins": {{
    "hedge_quantile": 0.2,
    "failure_threshold": 2,
    "pool": [
      {{"id": "primary", "faults": [{{"blackhole": {{"at_s": {blackhole_at}, "secs": 30}}}}]}},
      {{"id": "backup", "rtt_penalty_ms": 20}}
    ]
  }},
  "cache": {{"capacity_mb": 64, "edge_delay_ms": 5}},
  "telemetry": {{"epoch_s": 2.0}},
  "fleet": {{
    "clients": {n},
    "rtt_skew_ms": 5,
    "seed": 23,
    "watchdog": true,
    "churn": {{"mean_interarrival_s": 1.5, "mean_watch_s": 50.0}},
    "fault_domains": [
      {{"label": "region", "members": [{members}],
        "wifi_faults": [{{"disassociation": {{"at_s": {outage_at}, "secs": 5, "reassoc_s": 1}}}}]}}
    ],
    "overload": {{"max_active": {cap}}},
    "shared": [
      {{"rate_mbps": {ap}, "capacity_bytes": 1048576, "discipline": "fq_pie", "quantum": 1540,
        "target_delay_ms": 15, "interval_ms": 15, "ecn": true, "paths": ["wifi"]}},
      {{"rate_mbps": {sector}, "discipline": "codel", "paths": ["cell"]}}
    ]
  }}
}}"#,
        members = members.join(", "),
        blackhole_at = 10 + seed % 11,
        outage_at = 20 + seed % 16,
        cap = n / 2,
        ap = 1.5 * n as f64,
        sector = 2.0 * n as f64,
    )
}

/// The 33-location field corpus as visited under `seed`: same means and
/// RTTs as the paper's sites, fresh instantaneous conditions per seed.
pub(crate) fn grid_locations(seed: u64) -> Vec<Location> {
    field_corpus().iter().map(|loc| loc.revisit(seed)).collect()
}

/// The grid's median location by mean WiFi bandwidth; the per-layer
/// drives of the grid run at its rates.
pub(crate) fn median_location(locations: &[Location]) -> &Location {
    let mut order: Vec<&Location> = locations.iter().collect();
    order.sort_by(|a, b| a.wifi_mbps.total_cmp(&b.wifi_mbps));
    order[order.len() / 2]
}

/// Big Buck Bunny cut to [`GRID_CHUNKS`] chunks (same name, so the same
/// VBR chunk sizes as the full video's prefix).
pub(crate) fn grid_video() -> Video {
    Video::new(
        "Big Buck Bunny",
        &[0.58, 1.01, 1.47, 2.41, 3.94],
        SimDuration::from_secs(4),
        GRID_CHUNKS,
    )
}

/// The grid's ABR × transport cells, in job order within a location.
fn grid_cells() -> [(AbrKind, TransportMode); 4] {
    [
        (AbrKind::Festive, TransportMode::Vanilla),
        (AbrKind::Festive, TransportMode::mpdash_rate_based()),
        (AbrKind::Bba, TransportMode::Vanilla),
        (AbrKind::Bba, TransportMode::mpdash_rate_based()),
    ]
}

/// The paper's §7 evaluation shape: every corpus location × every grid
/// cell, 132 independent sessions.
pub(crate) fn grid_sessions(seed: u64) -> Vec<(String, SessionConfig)> {
    let video = grid_video();
    let mut out = Vec::new();
    for loc in grid_locations(seed) {
        for (abr, mode) in grid_cells() {
            let label = format!("{}/{}/{}", loc.name, abr.name(), mode.label());
            out.push((
                label,
                SessionConfig::at_location(&loc, abr, mode).with_video(video.clone()),
            ));
        }
    }
    out
}

/// A one-session scenario document for a grid location: its WiFi as a
/// seeded synthetic trace at the site's mean and variability, its LTE at
/// the site's mean, its RTTs, both grid transports. The grid itself is
/// not built from documents; the traced run parses this one to time the
/// scenario layer at the grid's parameters.
pub(crate) fn location_doc(loc: &Location, seed: u64) -> String {
    format!(
        r#"{{
  "name": "{name}",
  "video": {{"custom": {{"levels_mbps": [0.58, 1.01, 1.47, 2.41, 3.94], "chunk_secs": 4, "n_chunks": {GRID_CHUNKS}}}}},
  "wifi": {{"synthetic": {{"mean_mbps": {wifi}, "sigma": {cv}, "seed": {seed}}}}},
  "cell": {{"synthetic": {{"mean_mbps": {lte}, "sigma": 0.15, "seed": {seed}}}}},
  "wifi_rtt_ms": {wrtt},
  "cell_rtt_ms": {lrtt},
  "abr": "festive",
  "modes": ["vanilla", "mpdash_rate"]
}}"#,
        name = loc.name,
        wifi = loc.wifi_mbps,
        cv = loc.wifi_cv,
        lte = loc.lte_mbps,
        wrtt = loc.wifi_rtt.as_millis_f64().round() as u64,
        lrtt = loc.lte_rtt.as_millis_f64().round() as u64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_pure_functions_of_the_seed() {
        assert_eq!(robust_doc(3), robust_doc(3));
        assert_ne!(robust_doc(3), robust_doc(4));
        assert_ne!(contended_doc(3), contended_doc(4));
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            let inputs = w.setup(5).expect("generated documents parse");
            let jobs = inputs.sessions_per_job();
            match w {
                Workload::FleetContended => assert_eq!(jobs, vec![CONTENDED_CLIENTS]),
                Workload::SessionGrid => assert_eq!(jobs.len(), 132),
                Workload::FleetRobust => assert_eq!(jobs, vec![ROBUST_CLIENTS; 2]),
            }
        }
        let locs = grid_locations(5);
        Scenario::from_json(&location_doc(median_location(&locs), 5))
            .and_then(|s| s.build())
            .expect("location document parses");
    }
}
