//! JSON scenario definitions for the `mpdash` CLI: describe a network, a
//! video, an ABR algorithm and a set of transport policies in a file, and
//! the runner replays the whole comparison.
//!
//! See `scenarios/example.json` for a complete document. The network can
//! be a constant rate, a seeded synthetic trace, or an external profile
//! in the `mpdash-trace` JSON format (so measured traces plug straight
//! in).

use mpdash_dash::abr::AbrKind;
use mpdash_dash::video::Video;
use mpdash_fleet::{fleet_job, FleetCacheSpec, FleetConfig, SharedLinkSpec};
use mpdash_http::{OriginPoolConfig, OriginSpec};
use mpdash_link::{
    AqmConfig, BandwidthProfile, FaultScript, GilbertElliott, LinkConfig, PathId, QueueDiscipline,
    SharedBottleneckConfig,
};
use mpdash_mptcp::SchedulerSpec;
use mpdash_obs::TelemetrySpec;
use mpdash_results::Json;
use mpdash_session::{Job, LifecyclePolicy, ServerFaultScript, SessionConfig, TransportMode};
use mpdash_sim::{Rate, SimDuration, SimTime};
use mpdash_trace::io::ProfileSpec;
use mpdash_trace::synth::SynthSpec;

/// A network path's bandwidth, one of three sources.
#[derive(Debug)]
pub enum BandwidthSpec {
    /// Fixed rate in Mbps.
    Constant(f64),
    /// Seeded synthetic AR(1) trace.
    Synthetic {
        /// Mean rate, Mbps.
        mean_mbps: f64,
        /// σ as a fraction of the mean.
        sigma: f64,
        /// RNG seed.
        seed: u64,
    },
    /// Load an `mpdash-trace` JSON profile from this path.
    File(String),
}

impl BandwidthSpec {
    fn build(&self) -> Result<BandwidthProfile, String> {
        match self {
            BandwidthSpec::Constant(mbps) => {
                // Zero is a legitimate dead path; negative (or NaN from a
                // hand-edited file) is a typo worth naming precisely.
                if mbps.is_nan() || *mbps < 0.0 {
                    return Err(format!("constant bandwidth must be >= 0 Mbps, got {mbps}"));
                }
                Ok(BandwidthProfile::constant_mbps(*mbps))
            }
            BandwidthSpec::Synthetic {
                mean_mbps,
                sigma,
                seed,
            } => {
                if mean_mbps.is_nan() || *mean_mbps <= 0.0 {
                    return Err(format!(
                        "synthetic 'mean_mbps' must be > 0, got {mean_mbps}"
                    ));
                }
                if sigma.is_nan() || *sigma < 0.0 {
                    return Err(format!("synthetic 'sigma' must be >= 0, got {sigma}"));
                }
                Ok(SynthSpec::new(*mean_mbps, *sigma, *seed).profile())
            }
            BandwidthSpec::File(path) => {
                let text =
                    std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
                let spec =
                    ProfileSpec::from_json(&text).map_err(|e| format!("parsing {path}: {e}"))?;
                spec.to_profile().map_err(|e| format!("{path}: {e}"))
            }
        }
    }

    fn mean(&self, profile: &BandwidthProfile) -> Rate {
        profile.mean_rate(SimDuration::from_secs(120))
    }
}

/// Which video to stream.
#[derive(Debug)]
pub enum VideoSpec {
    /// A Table 3 dataset video by name: `big_buck_bunny`,
    /// `red_bull_playstreets`, `tears_of_steel`, `tears_of_steel_hd`.
    Named(String),
    /// A custom ladder.
    Custom {
        /// Average bitrates per level, Mbps, ascending.
        levels_mbps: Vec<f64>,
        /// Chunk playout duration, seconds.
        chunk_secs: u64,
        /// Number of chunks.
        n_chunks: usize,
    },
}

impl VideoSpec {
    fn build(&self) -> Result<Video, String> {
        match self {
            VideoSpec::Named(name) => match name.as_str() {
                "big_buck_bunny" => Ok(Video::big_buck_bunny()),
                "red_bull_playstreets" => Ok(Video::red_bull_playstreets()),
                "tears_of_steel" => Ok(Video::tears_of_steel()),
                "tears_of_steel_hd" => Ok(Video::tears_of_steel_hd()),
                other => Err(format!("unknown video '{other}'")),
            },
            VideoSpec::Custom {
                levels_mbps,
                chunk_secs,
                n_chunks,
            } => {
                if levels_mbps.is_empty() || *chunk_secs == 0 || *n_chunks == 0 {
                    return Err("custom video needs levels, chunk_secs, n_chunks".into());
                }
                for pair in levels_mbps.windows(2) {
                    // A NaN level must fail validation too, so test the
                    // positive "strictly ascending" predicate.
                    let ascending = pair[1] > pair[0];
                    if !ascending {
                        return Err(format!(
                            "'levels_mbps' must be strictly ascending, got {:?} before {:?}",
                            pair[0], pair[1]
                        ));
                    }
                }
                let first_positive = levels_mbps[0] > 0.0;
                if !first_positive {
                    return Err(format!(
                        "'levels_mbps' must all be > 0, got {}",
                        levels_mbps[0]
                    ));
                }
                Ok(Video::new(
                    "custom",
                    levels_mbps,
                    SimDuration::from_secs(*chunk_secs),
                    *n_chunks,
                ))
            }
        }
    }
}

/// Which transport policy a mode entry runs.
#[derive(Debug)]
pub enum ModeKind {
    /// Vanilla MPTCP.
    Vanilla,
    /// Single-path WiFi.
    WifiOnly,
    /// MP-DASH with rate-based deadlines.
    MpdashRate,
    /// MP-DASH with duration-based deadlines.
    MpdashDuration,
    /// Cellular throttled at the given kbps.
    Throttled(u64),
}

/// A transport policy to compare, with an optional per-mode MPTCP
/// packet-scheduler override.
#[derive(Debug)]
pub struct ModeSpec {
    /// The transport policy.
    pub kind: ModeKind,
    /// Packet scheduler: `min_rtt` (the default when absent),
    /// `round_robin`, or `qaware`.
    pub scheduler: Option<SchedulerSpec>,
}

impl ModeSpec {
    fn build(&self) -> TransportMode {
        match self.kind {
            ModeKind::Vanilla => TransportMode::Vanilla,
            ModeKind::WifiOnly => TransportMode::WifiOnly,
            ModeKind::MpdashRate => TransportMode::mpdash_rate_based(),
            ModeKind::MpdashDuration => TransportMode::mpdash_duration_based(),
            ModeKind::Throttled(kbps) => TransportMode::Throttled { kbps },
        }
    }

    /// Display label; a non-default scheduler is suffixed so grid rows
    /// stay distinguishable (e.g. `Rate+qaware`).
    pub fn label(&self) -> String {
        let base = self.build().label();
        match self.scheduler {
            None => base,
            Some(s) => format!("{base}+{}", s.label()),
        }
    }
}

/// One shared bottleneck in a fleet topology (`fleet.shared[]`).
#[derive(Debug)]
pub struct SharedSpec {
    /// Shared capacity, Mbps.
    pub rate_mbps: f64,
    /// Queue bound in bytes (default: the bottleneck's 128 KiB).
    pub capacity_bytes: Option<u64>,
    /// `fifo` (drop-tail), `fq` (per-flow DRR), or an AQM: `pie`,
    /// `fq_pie` (DRR + per-flow PIE), `codel`.
    pub discipline: String,
    /// DRR quantum in bytes for `fq`/`fq_pie` (default 1540).
    pub quantum: Option<u64>,
    /// AQM queue-delay target, ms (default: PIE 15, CoDel 5).
    pub target_delay_ms: Option<f64>,
    /// AQM update/sliding interval, ms (default: PIE 15, CoDel 100).
    pub interval_ms: Option<f64>,
    /// PIE proportional gain per second (default 0.125).
    pub alpha: Option<f64>,
    /// PIE derivative gain per second (default 1.25).
    pub beta: Option<f64>,
    /// Mark instead of dropping (ECN-style early signal to senders).
    pub ecn: Option<bool>,
    /// Which of each client's paths subscribe: `wifi` and/or `cell`.
    pub paths: Vec<String>,
}

impl SharedSpec {
    /// The [`AqmConfig`] these knobs describe, from the given defaults.
    fn aqm_config(&self, base: AqmConfig) -> AqmConfig {
        let mut a = base;
        if let Some(t) = self.target_delay_ms {
            a = a.with_target_ms(t);
        }
        if let Some(i) = self.interval_ms {
            a = a.with_interval_ms(i);
        }
        if let Some(al) = self.alpha {
            a = a.with_alpha(al);
        }
        if let Some(be) = self.beta {
            a = a.with_beta(be);
        }
        if let Some(e) = self.ecn {
            a = a.with_ecn(e);
        }
        a
    }

    fn build(&self) -> SharedLinkSpec {
        let mut config = SharedBottleneckConfig::fifo_mbps(self.rate_mbps);
        match self.discipline.as_str() {
            "fq" => {
                config = config.with_discipline(QueueDiscipline::FlowQueue {
                    quantum: self.quantum.unwrap_or(1540),
                });
            }
            "pie" => {
                config =
                    config.with_discipline(QueueDiscipline::Pie(self.aqm_config(AqmConfig::pie())));
            }
            "fq_pie" => {
                config = config.with_discipline(QueueDiscipline::FqPie {
                    quantum: self.quantum.unwrap_or(1540),
                    aqm: self.aqm_config(AqmConfig::pie()),
                });
            }
            "codel" => {
                config = config
                    .with_discipline(QueueDiscipline::Codel(self.aqm_config(AqmConfig::codel())));
            }
            _ => {}
        }
        if let Some(cap) = self.capacity_bytes {
            config = config.with_capacity(cap);
        }
        SharedLinkSpec {
            config,
            paths: self
                .paths
                .iter()
                .map(|p| {
                    if p == "wifi" {
                        PathId::WIFI
                    } else {
                        PathId::CELLULAR
                    }
                })
                .collect(),
        }
    }
}

/// Seeded fleet churn (`fleet.churn`): deterministic exponential
/// inter-arrivals and viewing-time departures replace the fixed
/// stagger, so sessions arrive, watch for a drawn duration, and leave
/// with a clean partial report.
#[derive(Debug)]
pub struct ChurnSpec {
    /// Mean gap between consecutive arrivals, seconds.
    pub mean_interarrival_s: f64,
    /// Mean viewing time before the viewer closes the tab, seconds.
    pub mean_watch_s: f64,
    /// Floor on drawn viewing times, seconds (default: the fleet
    /// crate's one-chunk floor).
    pub min_watch_s: Option<f64>,
}

impl ChurnSpec {
    fn build(&self) -> mpdash_fleet::ChurnSpec {
        let mut spec = mpdash_fleet::ChurnSpec::new(
            SimDuration::from_secs_f64(self.mean_interarrival_s),
            SimDuration::from_secs_f64(self.mean_watch_s),
        );
        if let Some(floor) = self.min_watch_s {
            spec = spec.with_min_watch(SimDuration::from_secs_f64(floor));
        }
        spec
    }
}

/// One correlated fault domain (`fleet.fault_domains[]`): a set of
/// client indices sharing wifi/cell/server fault scripts — a regional
/// AP outage, a sector brown-out, a bad origin shard — composed with
/// whatever per-client faults the base session already carries.
#[derive(Debug)]
pub struct FaultDomainSpec {
    /// Domain label for traces and reports.
    pub label: String,
    /// Client indices the scripts apply to.
    pub members: Vec<usize>,
    /// Faults on every member's WiFi link (same entry format as the
    /// top-level `wifi_faults`).
    pub wifi_faults: FaultScript,
    /// Faults on every member's cellular link.
    pub cell_faults: FaultScript,
    /// Server faults on every member's origin.
    pub server_faults: ServerFaultScript,
}

impl FaultDomainSpec {
    fn build(&self) -> mpdash_fleet::FaultDomainSpec {
        let mut spec = mpdash_fleet::FaultDomainSpec::new(self.label.clone(), self.members.clone());
        if !self.wifi_faults.is_empty() {
            spec = spec.with_wifi(self.wifi_faults.clone());
        }
        if !self.cell_faults.is_empty() {
            spec = spec.with_cell(self.cell_faults.clone());
        }
        if !self.server_faults.is_empty() {
            spec = spec.with_server(self.server_faults.clone());
        }
        spec
    }
}

/// Overload protection (`fleet.overload`): arrivals past `max_active`
/// concurrent sessions are shed deterministically (newest first) and
/// reported as shed rather than admitted to collapse the shared queues.
#[derive(Debug)]
pub struct OverloadSpec {
    /// Admission cap on concurrently active sessions.
    pub max_active: usize,
    /// Also shed when any one shared bottleneck's occupancy (waiting
    /// plus in-service bytes) is at or past this many bytes — the
    /// busiest queue, not the sum (absent: cap on concurrency alone).
    pub queue_threshold_bytes: Option<u64>,
}

impl OverloadSpec {
    fn build(&self) -> mpdash_fleet::OverloadPolicy {
        let mut policy = mpdash_fleet::OverloadPolicy::max_active(self.max_active);
        if let Some(bytes) = self.queue_threshold_bytes {
            policy = policy.with_queue_threshold(bytes);
        }
        policy
    }
}

/// Multi-client co-simulation topology (the optional `fleet` key): N
/// copies of the session, staggered starts, subflows subscribed to
/// shared bottlenecks instead of private links.
#[derive(Debug)]
pub struct FleetSpec {
    /// Number of concurrent clients.
    pub clients: usize,
    /// Start-time spacing between consecutive clients, seconds
    /// (default 0.5).
    pub stagger_s: f64,
    /// Extra one-way delay per client index, milliseconds (default 0):
    /// client `k` adds `k * rtt_skew_ms` on both private links.
    pub rtt_skew_ms: u64,
    /// Base fleet seed (default 1).
    pub seed: u64,
    /// Shared bottlenecks; may be empty (private links, a
    /// no-contention control fleet).
    pub shared: Vec<SharedSpec>,
    /// Seeded arrivals/departures; when present the fixed `stagger_s`
    /// is superseded by the churn plan.
    pub churn: Option<ChurnSpec>,
    /// Correlated fault domains; may be empty.
    pub fault_domains: Vec<FaultDomainSpec>,
    /// Overload shedding; absent admits every arrival.
    pub overload: Option<OverloadSpec>,
    /// Arm (or disarm) the runtime invariant watchdog for this fleet;
    /// absent keeps the fleet crate's default.
    pub watchdog: Option<bool>,
}

/// One origin in a multi-origin pool (`origins.pool[]`).
#[derive(Debug)]
pub struct OriginEntrySpec {
    /// Human-readable origin id; must be unique within the pool.
    pub id: String,
    /// Extra first-byte delay this origin adds, milliseconds
    /// (default 0) — models its longer network path.
    pub rtt_penalty_ms: u64,
    /// Server faults scripted on this origin only (same entry format as
    /// the top-level `server_faults`). Empty when absent.
    pub faults: ServerFaultScript,
}

/// Multi-origin serving policy (the optional `origins` key): a pool of
/// health-tracked origins with circuit breakers, optional hedging, and
/// per-origin fault scripts.
#[derive(Debug)]
pub struct OriginsSpec {
    /// The pool, in priority order.
    pub pool: Vec<OriginEntrySpec>,
    /// Hedge when a deadline-granted request has stalled for this
    /// fraction of its deadline budget, in `(0, 1]`. Absent disables
    /// hedging.
    pub hedge_quantile: Option<f64>,
    /// Consecutive failures that trip a breaker Open (default 2).
    pub failure_threshold: Option<u64>,
}

impl OriginsSpec {
    fn build(&self) -> OriginPoolConfig {
        let specs = self
            .pool
            .iter()
            .map(|o| {
                let mut s = OriginSpec::new(o.id.clone())
                    .with_rtt_penalty(SimDuration::from_millis(o.rtt_penalty_ms));
                if !o.faults.is_empty() {
                    s = s.with_faults(o.faults.clone());
                }
                s
            })
            .collect();
        let mut cfg = OriginPoolConfig::new(specs);
        if let Some(q) = self.hedge_quantile {
            cfg = cfg.with_hedge_quantile(q);
        }
        if let Some(t) = self.failure_threshold {
            cfg = cfg.with_failure_threshold(t as u32);
        }
        cfg
    }
}

/// Shared segment cache in front of the origins (the optional `cache`
/// key).
#[derive(Debug)]
pub struct CacheSpec {
    /// Cache capacity, megabytes.
    pub capacity_mb: f64,
    /// Modeled delivery delay of a cache hit, milliseconds (default 5).
    pub edge_delay_ms: u64,
}

impl CacheSpec {
    fn capacity_bytes(&self) -> u64 {
        (self.capacity_mb * (1 << 20) as f64) as u64
    }

    fn edge_delay(&self) -> SimDuration {
        SimDuration::from_millis(self.edge_delay_ms)
    }
}

/// A complete scenario document.
#[derive(Debug)]
pub struct Scenario {
    /// Scenario title for the report.
    pub name: String,
    /// Video selection.
    pub video: VideoSpec,
    /// WiFi bandwidth.
    pub wifi: BandwidthSpec,
    /// Cellular bandwidth.
    pub cell: BandwidthSpec,
    /// WiFi round-trip time, milliseconds (default 50).
    pub wifi_rtt_ms: u64,
    /// Cellular round-trip time, milliseconds (default 55).
    pub cell_rtt_ms: u64,
    /// Rate-adaptation algorithm: `gpac`, `festive`, `bba`, `bba_c`,
    /// `mpc`.
    pub abr: String,
    /// Player buffer capacity in seconds (default 40).
    pub buffer_secs: u64,
    /// Transport policies to compare, in order.
    pub modes: Vec<ModeSpec>,
    /// Faults injected on the WiFi link (empty when the document has no
    /// `wifi_faults` array). The `explain` timeline reads these windows
    /// back to attribute deadline misses.
    pub wifi_faults: FaultScript,
    /// Faults injected on the cellular link.
    pub cell_faults: FaultScript,
    /// Faults injected at the origin server (empty when the document has
    /// no `server_faults` array): 5xx bursts, stalled response bodies,
    /// slow first bytes.
    pub server_faults: ServerFaultScript,
    /// Request-lifecycle policy: `wait_forever` (default), `retry_only`,
    /// or `deadline_aware`.
    pub lifecycle: LifecyclePolicy,
    /// Optional multi-client fleet topology. When present the runner
    /// co-simulates `fleet.clients` sessions per mode instead of one.
    pub fleet: Option<FleetSpec>,
    /// Optional multi-origin pool. When present every mode fetches
    /// through the pool's routing, breakers, and hedging instead of the
    /// single implicit origin; the top-level `server_faults` still
    /// apply to that implicit origin only, so per-origin faults go on
    /// the pool entries.
    pub origins: Option<OriginsSpec>,
    /// Optional shared segment cache in front of the origins. In fleet
    /// runs every client shares one cache built fresh per run.
    pub cache: Option<CacheSpec>,
    /// Optional epoch telemetry (`{"telemetry": {"epoch_s": 2.0}}`):
    /// every session, shared bottleneck, and fleet loop rolls its
    /// counters into fixed virtual-time epochs. Observe-only — the
    /// `exp_*` artifacts are byte-identical with or without it; the
    /// series feed `mpdash timeline`.
    pub telemetry: Option<TelemetrySpec>,
}

fn parse_shared(v: &Json) -> Result<SharedSpec, String> {
    let opt_uint =
        |key: &str| -> Result<Option<u64>, String> { v.get(key).map(|j| uint(j, key)).transpose() };
    Ok(SharedSpec {
        rate_mbps: num(field(v, "rate_mbps")?, "rate_mbps")?,
        capacity_bytes: opt_uint("capacity_bytes")?,
        discipline: match v.get("discipline") {
            None => "fifo".to_string(),
            Some(j) => string(j, "discipline")?,
        },
        quantum: opt_uint("quantum")?,
        target_delay_ms: v
            .get("target_delay_ms")
            .map(|j| num(j, "target_delay_ms"))
            .transpose()?,
        interval_ms: v
            .get("interval_ms")
            .map(|j| num(j, "interval_ms"))
            .transpose()?,
        alpha: v.get("alpha").map(|j| num(j, "alpha")).transpose()?,
        beta: v.get("beta").map(|j| num(j, "beta")).transpose()?,
        ecn: v
            .get("ecn")
            .map(|j| j.as_bool().ok_or("shared 'ecn' must be a boolean"))
            .transpose()?,
        paths: field(v, "paths")?
            .as_arr()
            .ok_or("shared 'paths' must be an array of path names")?
            .iter()
            .map(|p| string(p, "paths"))
            .collect::<Result<Vec<_>, _>>()?,
    })
}

fn parse_churn(v: Option<&Json>) -> Result<Option<ChurnSpec>, String> {
    let Some(v) = v else { return Ok(None) };
    Ok(Some(ChurnSpec {
        mean_interarrival_s: num(field(v, "mean_interarrival_s")?, "mean_interarrival_s")?,
        mean_watch_s: num(field(v, "mean_watch_s")?, "mean_watch_s")?,
        min_watch_s: v
            .get("min_watch_s")
            .map(|j| num(j, "min_watch_s"))
            .transpose()?,
    }))
}

fn parse_fault_domain(v: &Json) -> Result<FaultDomainSpec, String> {
    Ok(FaultDomainSpec {
        label: string(field(v, "label")?, "label")?,
        members: field(v, "members")?
            .as_arr()
            .ok_or("fault domain 'members' must be an array of client indices")?
            .iter()
            .map(|m| uint(m, "members").map(|u| u as usize))
            .collect::<Result<Vec<_>, _>>()?,
        wifi_faults: parse_fault_list(v.get("wifi_faults"), "wifi_faults")?,
        cell_faults: parse_fault_list(v.get("cell_faults"), "cell_faults")?,
        server_faults: parse_server_fault_list(v.get("server_faults"))?,
    })
}

fn parse_overload(v: Option<&Json>) -> Result<Option<OverloadSpec>, String> {
    let Some(v) = v else { return Ok(None) };
    Ok(Some(OverloadSpec {
        max_active: uint(field(v, "max_active")?, "max_active")? as usize,
        queue_threshold_bytes: v
            .get("queue_threshold_bytes")
            .map(|j| uint(j, "queue_threshold_bytes"))
            .transpose()?,
    }))
}

fn parse_fleet(v: Option<&Json>) -> Result<Option<FleetSpec>, String> {
    let Some(v) = v else { return Ok(None) };
    let opt_uint = |key: &str, default: u64| -> Result<u64, String> {
        match v.get(key) {
            None => Ok(default),
            Some(j) => uint(j, key),
        }
    };
    Ok(Some(FleetSpec {
        clients: uint(field(v, "clients")?, "clients")? as usize,
        stagger_s: match v.get("stagger_s") {
            None => 0.5,
            Some(j) => num(j, "stagger_s")?,
        },
        rtt_skew_ms: opt_uint("rtt_skew_ms", 0)?,
        seed: opt_uint("seed", 1)?,
        shared: match v.get("shared") {
            None => Vec::new(),
            Some(j) => j
                .as_arr()
                .ok_or("fleet 'shared' must be an array of bottleneck objects")?
                .iter()
                .map(parse_shared)
                .collect::<Result<Vec<_>, _>>()?,
        },
        churn: parse_churn(v.get("churn"))?,
        fault_domains: match v.get("fault_domains") {
            None => Vec::new(),
            Some(j) => j
                .as_arr()
                .ok_or("fleet 'fault_domains' must be an array of domain objects")?
                .iter()
                .map(parse_fault_domain)
                .collect::<Result<Vec<_>, _>>()?,
        },
        overload: parse_overload(v.get("overload"))?,
        watchdog: match v.get("watchdog") {
            None => None,
            Some(j) => Some(j.as_bool().ok_or("fleet 'watchdog' must be a boolean")?),
        },
    }))
}

/// Parse one externally-tagged fault entry — e.g.
/// `{"rate_collapse": {"at_s": 20, "secs": 40, "factor": 0.15}}` — and
/// append it to `script`. Kinds: `burst_loss`, `rtt_spike`,
/// `rate_collapse`, `disassociation`.
fn parse_fault(script: FaultScript, v: &Json) -> Result<FaultScript, String> {
    let (tag, payload) = variant(v)?;
    let at_s = num(field(payload, "at_s")?, "at_s")?;
    let secs = num(field(payload, "secs")?, "secs")?;
    if at_s.is_nan() || at_s < 0.0 {
        return Err(format!("fault 'at_s' must be >= 0, got {at_s}"));
    }
    if secs.is_nan() || secs <= 0.0 {
        return Err(format!("fault 'secs' must be > 0, got {secs}"));
    }
    let at = SimTime::ZERO + SimDuration::from_secs_f64(at_s);
    let dur = SimDuration::from_secs_f64(secs);
    let opt_num = |key: &str, default: f64| -> Result<f64, String> {
        match payload.get(key) {
            None => Ok(default),
            Some(j) => num(j, key),
        }
    };
    match tag {
        "burst_loss" => {
            let p_enter = opt_num("p_enter", 0.05)?;
            let p_exit = opt_num("p_exit", 0.30)?;
            let loss = opt_num("loss", 0.5)?;
            let prob_ok = |p: f64| p > 0.0 && p <= 1.0;
            if !prob_ok(p_enter) || !prob_ok(p_exit) {
                return Err("burst_loss 'p_enter'/'p_exit' must be in (0,1]".into());
            }
            if !(0.0..=1.0).contains(&loss) {
                return Err(format!("burst_loss 'loss' must be in [0,1], got {loss}"));
            }
            Ok(script.burst_loss(at, dur, GilbertElliott::new(p_enter, p_exit, loss)))
        }
        "rtt_spike" => {
            let extra_ms = opt_num("extra_ms", 200.0)?;
            let jitter_ms = opt_num("jitter_ms", 0.0)?;
            if extra_ms.is_nan() || extra_ms < 0.0 || jitter_ms.is_nan() || jitter_ms < 0.0 {
                return Err("rtt_spike 'extra_ms'/'jitter_ms' must be >= 0".into());
            }
            Ok(script.rtt_spike(
                at,
                dur,
                SimDuration::from_secs_f64(extra_ms / 1e3),
                SimDuration::from_secs_f64(jitter_ms / 1e3),
            ))
        }
        "rate_collapse" => {
            let factor = num(field(payload, "factor")?, "factor")?;
            if !(factor > 0.0 && factor <= 1.0) {
                return Err(format!(
                    "rate_collapse 'factor' must be in (0,1], got {factor}"
                ));
            }
            Ok(script.rate_collapse(at, dur, factor))
        }
        "disassociation" => {
            let reassoc_s = opt_num("reassoc_s", 1.0)?;
            if reassoc_s.is_nan() || reassoc_s < 0.0 {
                return Err(format!("'reassoc_s' must be >= 0, got {reassoc_s}"));
            }
            Ok(script.disassociation(at, dur, SimDuration::from_secs_f64(reassoc_s)))
        }
        other => Err(format!("unknown fault kind '{other}'")),
    }
}

/// Parse one externally-tagged server-fault entry — e.g.
/// `{"stalled_body": {"at_s": 8, "secs": 6, "stall_s": 30, "after_fraction": 0.5}}`
/// — and append it to `script`. Kinds: `error_burst`, `stalled_body`,
/// `slow_first_byte`, `blackhole`.
fn parse_server_fault(script: ServerFaultScript, v: &Json) -> Result<ServerFaultScript, String> {
    let (tag, payload) = variant(v)?;
    let at_s = num(field(payload, "at_s")?, "at_s")?;
    let secs = num(field(payload, "secs")?, "secs")?;
    if at_s.is_nan() || at_s < 0.0 {
        return Err(format!("server fault 'at_s' must be >= 0, got {at_s}"));
    }
    if secs.is_nan() || secs <= 0.0 {
        return Err(format!("server fault 'secs' must be > 0, got {secs}"));
    }
    let at = SimTime::ZERO + SimDuration::from_secs_f64(at_s);
    let dur = SimDuration::from_secs_f64(secs);
    match tag {
        "error_burst" => Ok(script.error_burst(at, dur)),
        "blackhole" => Ok(script.blackhole(at, dur)),
        "stalled_body" => {
            let stall_s = num(field(payload, "stall_s")?, "stall_s")?;
            if stall_s.is_nan() || stall_s <= 0.0 {
                return Err(format!("stalled_body 'stall_s' must be > 0, got {stall_s}"));
            }
            let frac = match payload.get("after_fraction") {
                None => 0.5,
                Some(j) => num(j, "after_fraction")?,
            };
            if !(0.0..1.0).contains(&frac) {
                return Err(format!(
                    "stalled_body 'after_fraction' must be in [0,1), got {frac}"
                ));
            }
            Ok(script.stalled_body(at, dur, SimDuration::from_secs_f64(stall_s), frac))
        }
        "slow_first_byte" => {
            let delay_s = num(field(payload, "delay_s")?, "delay_s")?;
            if delay_s.is_nan() || delay_s <= 0.0 {
                return Err(format!(
                    "slow_first_byte 'delay_s' must be > 0, got {delay_s}"
                ));
            }
            Ok(script.slow_first_byte(at, dur, SimDuration::from_secs_f64(delay_s)))
        }
        other => Err(format!("unknown server fault kind '{other}'")),
    }
}

fn parse_server_fault_list(v: Option<&Json>) -> Result<ServerFaultScript, String> {
    match v {
        None => Ok(ServerFaultScript::new()),
        Some(j) => j
            .as_arr()
            .ok_or("'server_faults' must be an array of fault objects")?
            .iter()
            .try_fold(ServerFaultScript::new(), parse_server_fault),
    }
}

fn parse_origins(v: Option<&Json>) -> Result<Option<OriginsSpec>, String> {
    let Some(v) = v else { return Ok(None) };
    let pool = field(v, "pool")?
        .as_arr()
        .ok_or("'origins.pool' must be an array of origin objects")?
        .iter()
        .map(|o| {
            Ok(OriginEntrySpec {
                id: string(field(o, "id")?, "id")?,
                rtt_penalty_ms: match o.get("rtt_penalty_ms") {
                    None => 0,
                    Some(j) => uint(j, "rtt_penalty_ms")?,
                },
                faults: parse_server_fault_list(o.get("faults"))?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Some(OriginsSpec {
        pool,
        hedge_quantile: v
            .get("hedge_quantile")
            .map(|j| num(j, "hedge_quantile"))
            .transpose()?,
        failure_threshold: v
            .get("failure_threshold")
            .map(|j| uint(j, "failure_threshold"))
            .transpose()?,
    }))
}

fn parse_cache(v: Option<&Json>) -> Result<Option<CacheSpec>, String> {
    let Some(v) = v else { return Ok(None) };
    Ok(Some(CacheSpec {
        capacity_mb: num(field(v, "capacity_mb")?, "capacity_mb")?,
        edge_delay_ms: match v.get("edge_delay_ms") {
            None => 5,
            Some(j) => uint(j, "edge_delay_ms")?,
        },
    }))
}

fn parse_telemetry(v: Option<&Json>) -> Result<Option<TelemetrySpec>, String> {
    let Some(v) = v else { return Ok(None) };
    let epoch_s = num(field(v, "epoch_s")?, "epoch_s")?;
    TelemetrySpec::try_seconds(epoch_s)
        .map(Some)
        .ok_or_else(|| {
            format!("telemetry 'epoch_s' must be a positive number of at least 1 ns, got {epoch_s}")
        })
}

fn parse_lifecycle(v: Option<&Json>) -> Result<LifecyclePolicy, String> {
    match v {
        None => Ok(LifecyclePolicy::wait_forever()),
        Some(j) => match j.as_str() {
            Some("wait_forever") => Ok(LifecyclePolicy::wait_forever()),
            Some("retry_only") => Ok(LifecyclePolicy::retry_only()),
            Some("deadline_aware") => Ok(LifecyclePolicy::deadline_aware()),
            Some(other) => Err(format!(
                "unknown lifecycle '{other}' (expected wait_forever, retry_only, \
                 or deadline_aware)"
            )),
            None => Err("'lifecycle' must be a string".into()),
        },
    }
}

fn parse_fault_list(v: Option<&Json>, key: &str) -> Result<FaultScript, String> {
    match v {
        None => Ok(FaultScript::new()),
        Some(j) => j
            .as_arr()
            .ok_or_else(|| format!("'{key}' must be an array of fault objects"))?
            .iter()
            .try_fold(FaultScript::new(), parse_fault),
    }
}

// The documents use serde-style externally-tagged enums in snake_case: a
// bare string is a unit variant ("vanilla"), a single-key object wraps a
// payload variant ({"throttled": 700}). The helpers below keep that exact
// format so existing scenario files parse unchanged.

/// For a single-key object, the `(key, payload)` pair.
fn variant(v: &Json) -> Result<(&str, &Json), String> {
    match v.as_obj() {
        Some([(key, payload)]) => Ok((key.as_str(), payload)),
        _ => Err("expected a single-variant object".into()),
    }
}

fn num(v: &Json, what: &str) -> Result<f64, String> {
    v.as_f64()
        .ok_or_else(|| format!("'{what}' must be a number"))
}

fn uint(v: &Json, what: &str) -> Result<u64, String> {
    v.as_u64()
        .ok_or_else(|| format!("'{what}' must be a non-negative integer"))
}

fn string(v: &Json, what: &str) -> Result<String, String> {
    v.as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("'{what}' must be a string"))
}

fn field<'a>(v: &'a Json, key: &str) -> Result<&'a Json, String> {
    v.req(key).map_err(|e| e.to_string())
}

impl BandwidthSpec {
    fn parse(v: &Json) -> Result<Self, String> {
        let (tag, payload) = variant(v)?;
        match tag {
            "constant" => Ok(BandwidthSpec::Constant(num(payload, "constant")?)),
            "synthetic" => Ok(BandwidthSpec::Synthetic {
                mean_mbps: num(field(payload, "mean_mbps")?, "mean_mbps")?,
                sigma: num(field(payload, "sigma")?, "sigma")?,
                seed: uint(field(payload, "seed")?, "seed")?,
            }),
            "file" => Ok(BandwidthSpec::File(string(payload, "file")?)),
            other => Err(format!("unknown bandwidth kind '{other}'")),
        }
    }
}

impl VideoSpec {
    fn parse(v: &Json) -> Result<Self, String> {
        let (tag, payload) = variant(v)?;
        match tag {
            "named" => Ok(VideoSpec::Named(string(payload, "named")?)),
            "custom" => Ok(VideoSpec::Custom {
                levels_mbps: field(payload, "levels_mbps")?
                    .as_arr()
                    .ok_or("'levels_mbps' must be an array")?
                    .iter()
                    .map(|l| num(l, "levels_mbps"))
                    .collect::<Result<Vec<_>, _>>()?,
                chunk_secs: uint(field(payload, "chunk_secs")?, "chunk_secs")?,
                n_chunks: uint(field(payload, "n_chunks")?, "n_chunks")? as usize,
            }),
            other => Err(format!("unknown video kind '{other}'")),
        }
    }
}

impl ModeKind {
    fn parse(v: &Json) -> Result<Self, String> {
        if let Some(tag) = v.as_str() {
            return match tag {
                "vanilla" => Ok(ModeKind::Vanilla),
                "wifi_only" => Ok(ModeKind::WifiOnly),
                "mpdash_rate" => Ok(ModeKind::MpdashRate),
                "mpdash_duration" => Ok(ModeKind::MpdashDuration),
                other => Err(format!("unknown mode '{other}'")),
            };
        }
        let (tag, payload) = variant(v)?;
        match tag {
            "throttled" => Ok(ModeKind::Throttled(uint(payload, "throttled")?)),
            other => Err(format!("unknown mode '{other}'")),
        }
    }
}

impl ModeSpec {
    fn parse(v: &Json) -> Result<Self, String> {
        // The long form `{"mode": ..., "scheduler": "..."}` wraps any
        // short-form mode with a packet-scheduler override; the short
        // forms ("vanilla", {"throttled": 700}) stay valid unchanged.
        if let Some(mode) = v.get("mode") {
            let scheduler = match v.get("scheduler") {
                None => None,
                Some(j) => {
                    let name = string(j, "scheduler")?;
                    Some(SchedulerSpec::parse(&name).ok_or_else(|| {
                        format!(
                            "unknown scheduler '{name}' (expected min_rtt, \
                             round_robin, or qaware)"
                        )
                    })?)
                }
            };
            return Ok(ModeSpec {
                kind: ModeKind::parse(mode)?,
                scheduler,
            });
        }
        Ok(ModeSpec {
            kind: ModeKind::parse(v)?,
            scheduler: None,
        })
    }
}

impl Scenario {
    /// Parse a scenario document.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = Json::parse(text).map_err(|e| e.to_string())?;
        let opt_uint = |key: &str, default: u64| -> Result<u64, String> {
            match v.get(key) {
                None => Ok(default),
                Some(j) => uint(j, key),
            }
        };
        let sc = Scenario {
            name: string(field(&v, "name")?, "name")?,
            video: VideoSpec::parse(field(&v, "video")?)?,
            wifi: BandwidthSpec::parse(field(&v, "wifi")?)?,
            cell: BandwidthSpec::parse(field(&v, "cell")?)?,
            wifi_rtt_ms: opt_uint("wifi_rtt_ms", 50)?,
            cell_rtt_ms: opt_uint("cell_rtt_ms", 55)?,
            abr: string(field(&v, "abr")?, "abr")?,
            buffer_secs: opt_uint("buffer_secs", 40)?,
            modes: field(&v, "modes")?
                .as_arr()
                .ok_or("'modes' must be an array")?
                .iter()
                .map(ModeSpec::parse)
                .collect::<Result<Vec<_>, _>>()?,
            wifi_faults: parse_fault_list(v.get("wifi_faults"), "wifi_faults")?,
            cell_faults: parse_fault_list(v.get("cell_faults"), "cell_faults")?,
            server_faults: parse_server_fault_list(v.get("server_faults"))?,
            lifecycle: parse_lifecycle(v.get("lifecycle"))?,
            fleet: parse_fleet(v.get("fleet"))?,
            origins: parse_origins(v.get("origins"))?,
            cache: parse_cache(v.get("cache"))?,
            telemetry: parse_telemetry(v.get("telemetry"))?,
        };
        sc.validate()?;
        Ok(sc)
    }

    /// Reject structurally-valid documents whose values would wedge or
    /// panic deep inside the simulator, with a message naming the field.
    fn validate(&self) -> Result<(), String> {
        if self.wifi_rtt_ms == 0 {
            return Err("'wifi_rtt_ms' must be > 0".into());
        }
        if self.cell_rtt_ms == 0 {
            return Err("'cell_rtt_ms' must be > 0".into());
        }
        if self.buffer_secs == 0 {
            return Err("'buffer_secs' must be > 0 (the player needs a buffer)".into());
        }
        if self.modes.is_empty() {
            return Err("'modes' must list at least one transport policy".into());
        }
        for mode in &self.modes {
            if let ModeKind::Throttled(0) = mode.kind {
                return Err("throttled mode needs a rate > 0 kbps (use a zero-rate \
                     'cell' bandwidth for a dead path instead)"
                    .into());
            }
        }
        if let Some(fleet) = &self.fleet {
            if fleet.clients == 0 {
                return Err("'clients' must be > 0".into());
            }
            if fleet.stagger_s.is_nan() || fleet.stagger_s < 0.0 {
                return Err(format!("'stagger_s' must be >= 0, got {}", fleet.stagger_s));
            }
            if let Some(churn) = &fleet.churn {
                let positive = |what: &str, v: f64| -> Result<(), String> {
                    if v.is_finite() && v > 0.0 {
                        Ok(())
                    } else {
                        Err(format!("'churn.{what}' must be a positive number, got {v}"))
                    }
                };
                positive("mean_interarrival_s", churn.mean_interarrival_s)?;
                positive("mean_watch_s", churn.mean_watch_s)?;
                if let Some(floor) = churn.min_watch_s {
                    if !(floor.is_finite() && floor >= 0.0) {
                        return Err(format!("'churn.min_watch_s' must be >= 0, got {floor}"));
                    }
                }
            }
            for domain in &fleet.fault_domains {
                if domain.members.is_empty() {
                    return Err(format!(
                        "fault domain '{}' needs at least one member index",
                        domain.label
                    ));
                }
                for (i, &m) in domain.members.iter().enumerate() {
                    if m >= fleet.clients {
                        return Err(format!(
                            "fault domain '{}' member {m} is out of range (the fleet \
                             has {} clients, indices 0..{})",
                            domain.label,
                            fleet.clients,
                            fleet.clients - 1
                        ));
                    }
                    if domain.members[..i].contains(&m) {
                        return Err(format!(
                            "fault domain '{}' lists member {m} twice (its scripts \
                             would compose onto the client once per listing)",
                            domain.label
                        ));
                    }
                }
                if domain.wifi_faults.is_empty()
                    && domain.cell_faults.is_empty()
                    && domain.server_faults.is_empty()
                {
                    return Err(format!(
                        "fault domain '{}' has no fault scripts (add wifi_faults, \
                         cell_faults, or server_faults — or drop the domain)",
                        domain.label
                    ));
                }
            }
            if let Some(overload) = &fleet.overload {
                if overload.max_active == 0 {
                    return Err("'overload.max_active' must be > 0 (a zero cap sheds \
                         every session; drop the 'overload' key to admit everyone)"
                        .into());
                }
                if overload.queue_threshold_bytes == Some(0) {
                    return Err("'overload.queue_threshold_bytes' must be > 0".into());
                }
            }
            for shared in &fleet.shared {
                if shared.rate_mbps.is_nan() || shared.rate_mbps <= 0.0 {
                    return Err(format!(
                        "shared 'rate_mbps' must be > 0, got {}",
                        shared.rate_mbps
                    ));
                }
                if shared.capacity_bytes == Some(0) {
                    return Err("shared 'capacity_bytes' must be > 0 (a zero-length \
                         queue drops every packet and the fleet never finishes)"
                        .into());
                }
                if shared.quantum == Some(0) {
                    return Err("shared 'quantum' must be > 0".into());
                }
                match shared.discipline.as_str() {
                    "fifo" | "fq" | "pie" | "fq_pie" | "codel" => {}
                    other => {
                        return Err(format!(
                            "unknown discipline '{other}' (expected fifo, fq, pie, \
                             fq_pie, or codel)"
                        ))
                    }
                }
                let is_aqm = matches!(shared.discipline.as_str(), "pie" | "fq_pie" | "codel");
                if !is_aqm {
                    for (key, set) in [
                        ("target_delay_ms", shared.target_delay_ms.is_some()),
                        ("interval_ms", shared.interval_ms.is_some()),
                        ("alpha", shared.alpha.is_some()),
                        ("beta", shared.beta.is_some()),
                        ("ecn", shared.ecn.is_some()),
                    ] {
                        if set {
                            return Err(format!(
                                "shared '{key}' only applies to an AQM discipline \
                                 (pie, fq_pie, or codel), not '{}'",
                                shared.discipline
                            ));
                        }
                    }
                }
                for (key, val) in [
                    ("target_delay_ms", shared.target_delay_ms),
                    ("interval_ms", shared.interval_ms),
                ] {
                    if let Some(v) = val {
                        if v.is_nan() || v <= 0.0 {
                            return Err(format!("shared '{key}' must be > 0, got {v}"));
                        }
                    }
                }
                for (key, val) in [("alpha", shared.alpha), ("beta", shared.beta)] {
                    if let Some(v) = val {
                        if !(v.is_finite() && v >= 0.0) {
                            return Err(format!("shared '{key}' must be >= 0, got {v}"));
                        }
                    }
                }
                if shared.discipline == "codel" && (shared.alpha.is_some() || shared.beta.is_some())
                {
                    return Err(
                        "'alpha'/'beta' are PIE gains; codel only takes 'target_delay_ms', \
                         'interval_ms', and 'ecn'"
                            .into(),
                    );
                }
                if shared.quantum.is_some()
                    && !matches!(shared.discipline.as_str(), "fq" | "fq_pie")
                {
                    return Err(format!(
                        "shared 'quantum' only applies to the per-flow disciplines \
                         (fq or fq_pie), not '{}'",
                        shared.discipline
                    ));
                }
                if shared.paths.is_empty() {
                    return Err("a shared link needs at least one subscribing path \
                         ('wifi' or 'cell')"
                        .into());
                }
                for p in &shared.paths {
                    if p != "wifi" && p != "cell" {
                        return Err(format!("unknown path '{p}' (expected wifi or cell)"));
                    }
                }
            }
        }
        if let Some(origins) = &self.origins {
            if origins.pool.is_empty() {
                return Err("'origins.pool' must list at least one origin \
                     (drop the 'origins' key for the implicit single origin)"
                    .into());
            }
            for (i, a) in origins.pool.iter().enumerate() {
                if origins.pool[..i].iter().any(|b| b.id == a.id) {
                    return Err(format!(
                        "duplicate origin id '{}' (pool ids must be unique so \
                         explain/trace attribution stays unambiguous)",
                        a.id
                    ));
                }
            }
            if let Some(q) = origins.hedge_quantile {
                if !(q > 0.0 && q <= 1.0) {
                    return Err(format!(
                        "'hedge_quantile' must be in (0,1] (0 would hedge \
                         instantly, >1 can never fire before the deadline), got {q}"
                    ));
                }
            }
            if origins.failure_threshold == Some(0) {
                return Err("'failure_threshold' must be > 0 (a zero threshold \
                     would trip every breaker on sight)"
                    .into());
            }
        }
        if let Some(cache) = &self.cache {
            if cache.capacity_mb.is_nan() || cache.capacity_mb <= 0.0 {
                return Err(format!(
                    "'capacity_mb' must be > 0 (drop the 'cache' key to run \
                     uncached), got {}",
                    cache.capacity_mb
                ));
            }
        }
        Ok(())
    }

    fn abr_kind(&self) -> Result<AbrKind, String> {
        match self.abr.as_str() {
            "gpac" => Ok(AbrKind::Gpac),
            "festive" => Ok(AbrKind::Festive),
            "bba" => Ok(AbrKind::Bba),
            "bba_c" | "bbac" | "bba-c" => Ok(AbrKind::BbaC),
            "mpc" => Ok(AbrKind::Mpc),
            other => Err(format!("unknown abr '{other}'")),
        }
    }

    /// Build the session configs, one per mode, in declaration order.
    pub fn build(&self) -> Result<Vec<(String, SessionConfig)>, String> {
        let video = self.video.build()?;
        let abr = self.abr_kind()?;
        let wifi_profile = self.wifi.build()?;
        let cell_profile = self.cell.build()?;
        let priors = (self.wifi.mean(&wifi_profile), self.cell.mean(&cell_profile));
        let mut out = Vec::new();
        for mode in &self.modes {
            // Half-RTT in microseconds, so odd RTTs (the testbed's 55 ms
            // LTE) survive the halving exactly.
            let wifi = LinkConfig::constant(1.0, SimDuration::from_micros(self.wifi_rtt_ms * 500))
                .with_profile(wifi_profile.clone());
            let cell = LinkConfig::constant(1.0, SimDuration::from_micros(self.cell_rtt_ms * 500))
                .with_profile(cell_profile.clone());
            let mut cfg = SessionConfig::controlled(
                (wifi_profile.clone(), cell_profile.clone()),
                abr,
                mode.build(),
            )
            .with_video(video.clone());
            cfg.wifi = wifi;
            cfg.cell = cell;
            cfg.buffer_capacity = SimDuration::from_secs(self.buffer_secs);
            cfg.priors = priors;
            if !self.wifi_faults.is_empty() {
                cfg = cfg.with_wifi_faults(self.wifi_faults.clone());
            }
            if !self.cell_faults.is_empty() {
                cfg = cfg.with_cell_faults(self.cell_faults.clone());
            }
            if !self.server_faults.is_empty() {
                cfg = cfg.with_server_faults(self.server_faults.clone());
            }
            cfg = cfg.with_lifecycle(self.lifecycle);
            if let Some(origins) = &self.origins {
                cfg = cfg.with_origins(origins.build());
            }
            if let Some(cache) = &self.cache {
                // A fresh cache per mode: compared policies must not
                // warm each other's working set.
                cfg = cfg.with_cache(
                    mpdash_session::SharedSegmentCache::new(cache.capacity_bytes())
                        .with_edge_delay(cache.edge_delay()),
                );
            }
            if let Some(sched) = mode.scheduler {
                cfg = cfg.with_scheduler(sched);
            }
            if let Some(t) = self.telemetry {
                cfg = cfg.with_telemetry(t);
            }
            out.push((mode.label(), cfg));
        }
        Ok(out)
    }

    /// The scenario as a batch-runner job list (one job per mode, in
    /// declaration order) — feed straight into
    /// [`mpdash_session::run_batch`].
    pub fn jobs(&self) -> Result<Vec<Job>, String> {
        Ok(self
            .build()?
            .into_iter()
            .map(|(label, cfg)| Job::session(label, cfg))
            .collect())
    }

    /// Wrap one built mode config in the document's fleet topology.
    /// Errors when the document has no `fleet` key.
    pub fn fleet_config(&self, mut base: SessionConfig) -> Result<FleetConfig, String> {
        let Some(fleet) = &self.fleet else {
            return Err("scenario has no 'fleet' key".into());
        };
        // In a fleet the cache is per *run*, not per mode config: hand
        // the fleet the spec and drop the session-level handle, so two
        // runs of the same FleetConfig never share warm state.
        let cache = self.cache.as_ref().map(|c| {
            base.cache = None;
            FleetCacheSpec::new(c.capacity_bytes()).with_edge_delay(c.edge_delay())
        });
        let mut fc = FleetConfig::new(base, fleet.clients)
            .with_stagger(SimDuration::from_secs_f64(fleet.stagger_s))
            .with_rtt_skew(SimDuration::from_millis(fleet.rtt_skew_ms))
            .with_seed(fleet.seed);
        if let Some(cache) = cache {
            fc = fc.with_cache(cache);
        }
        for shared in &fleet.shared {
            fc = fc.with_shared(shared.build());
        }
        if let Some(churn) = &fleet.churn {
            fc = fc.with_churn(churn.build());
        }
        for domain in &fleet.fault_domains {
            fc = fc.with_fault_domain(domain.build());
        }
        if let Some(overload) = &fleet.overload {
            fc = fc.with_overload(overload.build());
        }
        if let Some(watchdog) = fleet.watchdog {
            fc = fc.with_watchdog(watchdog);
        }
        Ok(fc)
    }

    /// Build the fleet configs, one per mode, in declaration order.
    pub fn fleet_configs(&self) -> Result<Vec<(String, FleetConfig)>, String> {
        self.build()?
            .into_iter()
            .map(|(label, cfg)| Ok((label, self.fleet_config(cfg)?)))
            .collect()
    }

    /// The fleet scenario as a batch-runner job list (one fleet replica
    /// per mode); each job returns the replica's summary JSON.
    pub fn fleet_jobs(&self) -> Result<Vec<Job>, String> {
        Ok(self
            .fleet_configs()?
            .into_iter()
            .map(|(label, fc)| fleet_job(label, fc))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"{
        "name": "demo",
        "video": {"named": "big_buck_bunny"},
        "wifi": {"synthetic": {"mean_mbps": 3.8, "sigma": 0.1, "seed": 42}},
        "cell": {"constant": 3.0},
        "abr": "festive",
        "modes": ["vanilla", "mpdash_rate", {"throttled": 700}]
    }"#;

    #[test]
    fn parses_and_builds() {
        let sc = Scenario::from_json(DOC).unwrap();
        assert_eq!(sc.name, "demo");
        assert_eq!(sc.wifi_rtt_ms, 50, "default applied");
        let configs = sc.build().unwrap();
        assert_eq!(configs.len(), 3);
        assert_eq!(configs[0].0, "Baseline");
        assert_eq!(configs[1].0, "Rate");
        assert_eq!(configs[2].0, "Throttle700k");
        assert_eq!(configs[0].1.video.n_chunks(), 150);
        // Priors track the declared bandwidths.
        assert!((configs[0].1.priors.0.as_mbps_f64() - 3.8).abs() < 0.4);
    }

    #[test]
    fn rejects_unknown_names() {
        let bad = DOC.replace("festive", "quantum");
        let sc = Scenario::from_json(&bad).unwrap();
        assert!(sc.build().unwrap_err().contains("unknown abr"));

        let bad = DOC.replace("big_buck_bunny", "rickroll");
        let sc = Scenario::from_json(&bad).unwrap();
        assert!(sc.build().unwrap_err().contains("unknown video"));
    }

    #[test]
    fn rejects_values_that_would_wedge_the_simulator() {
        for (patch, expect) in [
            (r#""wifi_rtt_ms": 0,"#, "'wifi_rtt_ms' must be > 0"),
            (r#""buffer_secs": 0,"#, "'buffer_secs' must be > 0"),
        ] {
            let doc = DOC.replacen(r#""name":"#, &format!("{patch} \"name\":"), 1);
            let err = Scenario::from_json(&doc).unwrap_err();
            assert!(err.contains(expect), "{patch}: {err}");
        }

        let doc = DOC.replace(r#"["vanilla", "mpdash_rate", {"throttled": 700}]"#, "[]");
        let err = Scenario::from_json(&doc).unwrap_err();
        assert!(err.contains("at least one transport policy"), "{err}");

        let doc = DOC.replace(r#"{"throttled": 700}"#, r#"{"throttled": 0}"#);
        let err = Scenario::from_json(&doc).unwrap_err();
        assert!(err.contains("rate > 0 kbps"), "{err}");

        let doc = DOC.replace(r#"{"constant": 3.0}"#, r#"{"constant": -1.0}"#);
        let sc = Scenario::from_json(&doc).unwrap();
        let err = sc.build().unwrap_err();
        assert!(err.contains(">= 0 Mbps"), "{err}");

        let doc = DOC.replace(r#""mean_mbps": 3.8"#, r#""mean_mbps": 0.0"#);
        let sc = Scenario::from_json(&doc).unwrap();
        let err = sc.build().unwrap_err();
        assert!(err.contains("'mean_mbps' must be > 0"), "{err}");
    }

    #[test]
    fn per_mode_scheduler_key_parses_and_applies() {
        let doc = DOC.replace(
            r#"["vanilla", "mpdash_rate", {"throttled": 700}]"#,
            r#"["vanilla",
               {"mode": "mpdash_rate", "scheduler": "qaware"},
               {"mode": {"throttled": 700}, "scheduler": "round_robin"},
               {"mode": "vanilla"}]"#,
        );
        let sc = Scenario::from_json(&doc).unwrap();
        assert_eq!(sc.modes[0].scheduler, None);
        assert_eq!(sc.modes[1].scheduler, Some(SchedulerSpec::QAware));
        assert_eq!(sc.modes[2].scheduler, Some(SchedulerSpec::RoundRobin));
        assert_eq!(sc.modes[3].scheduler, None, "long form without the key");
        let configs = sc.build().unwrap();
        assert_eq!(configs[0].1.scheduler, SchedulerSpec::MinRtt, "default");
        assert_eq!(configs[1].1.scheduler, SchedulerSpec::QAware);
        assert_eq!(configs[2].1.scheduler, SchedulerSpec::RoundRobin);
        // Labels stay distinguishable per grid row.
        assert_eq!(configs[0].0, "Baseline");
        assert_eq!(configs[1].0, "Rate+qaware");
        assert_eq!(configs[2].0, "Throttle700k+round_robin");
        assert_eq!(configs[3].0, "Baseline");
    }

    #[test]
    fn rejects_an_unknown_scheduler_name() {
        let doc = DOC.replace(
            r#""mpdash_rate""#,
            r#"{"mode": "mpdash_rate", "scheduler": "lowest_latency_first"}"#,
        );
        let err = Scenario::from_json(&doc).unwrap_err();
        assert!(
            err.contains("unknown scheduler 'lowest_latency_first'")
                && err.contains("min_rtt, round_robin, or qaware"),
            "{err}"
        );

        let doc = DOC.replace(
            r#""mpdash_rate""#,
            r#"{"mode": "mpdash_rate", "scheduler": 3}"#,
        );
        let err = Scenario::from_json(&doc).unwrap_err();
        assert!(err.contains("'scheduler' must be a string"), "{err}");
    }

    #[test]
    fn rejects_a_descending_bitrate_ladder() {
        let doc = r#"{
            "name": "bad-ladder",
            "video": {"custom": {"levels_mbps": [2.0, 1.0], "chunk_secs": 2, "n_chunks": 10}},
            "wifi": {"constant": 5.0},
            "cell": {"constant": 3.0},
            "abr": "gpac",
            "modes": ["vanilla"]
        }"#;
        let sc = Scenario::from_json(doc).unwrap();
        let err = sc.build().unwrap_err();
        assert!(err.contains("strictly ascending"), "{err}");
    }

    #[test]
    fn parses_fault_arrays_onto_links() {
        let doc = DOC.replacen(
            r#""name":"#,
            r#""wifi_faults": [
                {"rate_collapse": {"at_s": 20, "secs": 40, "factor": 0.15}},
                {"disassociation": {"at_s": 90, "secs": 10, "reassoc_s": 2}}
            ],
            "cell_faults": [
                {"rtt_spike": {"at_s": 5, "secs": 10, "extra_ms": 300, "jitter_ms": 50}}
            ],
            "name":"#,
            1,
        );
        let sc = Scenario::from_json(&doc).unwrap();
        assert_eq!(sc.wifi_faults.events().len(), 2);
        assert_eq!(sc.cell_faults.events().len(), 1);
        assert_eq!(sc.wifi_faults.events()[0].kind.name(), "rate_collapse");
        // The disassociation window includes the reassociation tail.
        assert_eq!(sc.wifi_faults.events()[1].end(), SimTime::from_secs(102));
        let configs = sc.build().unwrap();
        let cfg = &configs[0].1;
        assert_eq!(
            cfg.wifi.faults.as_ref().map(|s| s.events().len()),
            Some(2),
            "faults land on the built WiFi link"
        );
        assert_eq!(cfg.cell.faults.as_ref().map(|s| s.events().len()), Some(1));
    }

    #[test]
    fn parses_server_faults_and_lifecycle() {
        let doc = DOC.replacen(
            r#""name":"#,
            r#""server_faults": [
                {"error_burst": {"at_s": 10, "secs": 3}},
                {"stalled_body": {"at_s": 8, "secs": 6, "stall_s": 30, "after_fraction": 0.5}},
                {"slow_first_byte": {"at_s": 12, "secs": 6, "delay_s": 1}}
            ],
            "lifecycle": "deadline_aware",
            "name":"#,
            1,
        );
        let sc = Scenario::from_json(&doc).unwrap();
        assert_eq!(sc.server_faults.events().len(), 3);
        // Events are sorted by activation time.
        assert_eq!(sc.server_faults.events()[0].kind.name(), "stalled_body");
        assert!(sc.lifecycle.abandon_resume);
        let configs = sc.build().unwrap();
        assert_eq!(configs[0].1.server_faults.events().len(), 3);
        assert!(configs[0].1.lifecycle.abandon_resume);
        // Absent keys keep the passive defaults.
        let sc = Scenario::from_json(DOC).unwrap();
        assert!(sc.server_faults.is_empty());
        assert!(sc.lifecycle.is_passive());
    }

    #[test]
    fn rejects_bad_server_fault_values() {
        for (faults, expect) in [
            (
                r#"[{"error_burst": {"at_s": -1, "secs": 3}}]"#,
                "'at_s' must be >= 0",
            ),
            (
                r#"[{"error_burst": {"at_s": 1, "secs": 0}}]"#,
                "'secs' must be > 0",
            ),
            (
                r#"[{"stalled_body": {"at_s": 1, "secs": 3, "stall_s": 5, "after_fraction": 1.0}}]"#,
                "'after_fraction' must be in [0,1)",
            ),
            (
                r#"[{"stalled_body": {"at_s": 1, "secs": 3, "stall_s": 0}}]"#,
                "'stall_s' must be > 0",
            ),
            (
                r#"[{"slow_first_byte": {"at_s": 1, "secs": 3, "delay_s": 0}}]"#,
                "'delay_s' must be > 0",
            ),
            (
                r#"[{"ransomware": {"at_s": 1, "secs": 3}}]"#,
                "unknown server fault kind",
            ),
        ] {
            let doc = DOC.replacen(
                r#""name":"#,
                &format!(r#""server_faults": {faults}, "name":"#),
                1,
            );
            let err = Scenario::from_json(&doc).unwrap_err();
            assert!(err.contains(expect), "{faults}: {err}");
        }

        let doc = DOC.replacen(r#""name":"#, r#""lifecycle": "yolo", "name":"#, 1);
        let err = Scenario::from_json(&doc).unwrap_err();
        assert!(err.contains("unknown lifecycle"), "{err}");
    }

    #[test]
    fn shipped_server_faults_scenario_parses() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/server_faults.json");
        let text = std::fs::read_to_string(path).unwrap();
        let sc = Scenario::from_json(&text).unwrap();
        assert!(!sc.server_faults.is_empty());
        assert!(sc.lifecycle.abandon_resume);
        assert!(sc.build().is_ok());
    }

    #[test]
    fn rejects_bad_fault_values() {
        for (faults, expect) in [
            (
                r#"[{"rate_collapse": {"at_s": 5, "secs": 10, "factor": 0.0}}]"#,
                "'factor' must be in (0,1]",
            ),
            (
                r#"[{"rate_collapse": {"at_s": 5, "secs": 0, "factor": 0.5}}]"#,
                "'secs' must be > 0",
            ),
            (
                r#"[{"burst_loss": {"at_s": 5, "secs": 10, "p_enter": 2.0}}]"#,
                "must be in (0,1]",
            ),
            (
                r#"[{"meteor_strike": {"at_s": 5, "secs": 10}}]"#,
                "unknown fault kind",
            ),
        ] {
            let doc = DOC.replacen(
                r#""name":"#,
                &format!(r#""wifi_faults": {faults}, "name":"#),
                1,
            );
            let err = Scenario::from_json(&doc).unwrap_err();
            assert!(err.contains(expect), "{faults}: {err}");
        }
    }

    const FLEET_PATCH: &str = r#""fleet": {
        "clients": 4,
        "stagger_s": 1.0,
        "rtt_skew_ms": 10,
        "seed": 7,
        "shared": [
            {"rate_mbps": 10.0, "discipline": "fq", "quantum": 1540, "paths": ["wifi"]},
            {"rate_mbps": 3.0, "discipline": "fifo", "paths": ["cell"]}
        ]
    },"#;

    fn fleet_doc(patch: &str) -> String {
        DOC.replacen(r#""name":"#, &format!("{patch} \"name\":"), 1)
    }

    #[test]
    fn parses_a_fleet_topology() {
        let sc = Scenario::from_json(&fleet_doc(FLEET_PATCH)).unwrap();
        let fleet = sc.fleet.as_ref().unwrap();
        assert_eq!(fleet.clients, 4);
        assert_eq!(fleet.shared.len(), 2);
        let configs = sc.fleet_configs().unwrap();
        assert_eq!(configs.len(), 3, "one fleet per mode");
        let fc = &configs[0].1;
        assert_eq!(fc.clients, 4);
        assert_eq!(fc.stagger, SimDuration::from_secs(1));
        assert_eq!(fc.rtt_skew, SimDuration::from_millis(10));
        assert_eq!(fc.seed, 7);
        assert_eq!(fc.shared[0].paths, vec![mpdash_link::PathId::WIFI]);
        assert_eq!(fc.shared[1].paths, vec![mpdash_link::PathId::CELLULAR]);
        assert_eq!(sc.fleet_jobs().unwrap().len(), 3);
        // Documents without the key build no fleet.
        let plain = Scenario::from_json(DOC).unwrap();
        assert!(plain.fleet.is_none());
        assert!(plain
            .fleet_configs()
            .unwrap_err()
            .contains("no 'fleet' key"));
    }

    #[test]
    fn parses_aqm_disciplines_with_knobs() {
        let patch = r#""fleet": {
            "clients": 4,
            "seed": 7,
            "shared": [
                {"rate_mbps": 10.0, "discipline": "pie", "target_delay_ms": 20.0,
                 "interval_ms": 30.0, "alpha": 0.25, "beta": 2.5, "ecn": true,
                 "paths": ["wifi"]},
                {"rate_mbps": 8.0, "discipline": "fq_pie", "quantum": 3080, "paths": ["wifi"]},
                {"rate_mbps": 3.0, "discipline": "codel", "target_delay_ms": 5.0,
                 "interval_ms": 100.0, "paths": ["cell"]}
            ]
        },"#;
        let sc = Scenario::from_json(&fleet_doc(patch)).unwrap();
        let fc = &sc.fleet_configs().unwrap()[0].1;
        match fc.shared[0].config.discipline {
            QueueDiscipline::Pie(a) => {
                assert_eq!(a.target_ns, 20_000_000);
                assert_eq!(a.interval_ns, 30_000_000);
                assert_eq!(
                    a,
                    AqmConfig::pie()
                        .with_target_ms(20.0)
                        .with_interval_ms(30.0)
                        .with_alpha(0.25)
                        .with_beta(2.5)
                        .with_ecn(true)
                );
            }
            ref d => panic!("expected pie, got {d:?}"),
        }
        match fc.shared[1].config.discipline {
            QueueDiscipline::FqPie { quantum, aqm } => {
                assert_eq!(quantum, 3080);
                assert_eq!(aqm, AqmConfig::pie(), "fq_pie defaults to PIE's knobs");
            }
            ref d => panic!("expected fq_pie, got {d:?}"),
        }
        match fc.shared[2].config.discipline {
            QueueDiscipline::Codel(a) => assert_eq!(a, AqmConfig::codel()),
            ref d => panic!("expected codel, got {d:?}"),
        }
    }

    #[test]
    fn parses_the_telemetry_key_into_every_config() {
        let doc = fleet_doc(&format!(
            r#""telemetry": {{"epoch_s": 2.0}}, {FLEET_PATCH}"#
        ));
        let sc = Scenario::from_json(&doc).unwrap();
        let spec = sc.telemetry.expect("telemetry parsed");
        assert_eq!(spec.epoch, SimDuration::from_secs(2));
        for (_, cfg) in sc.build().unwrap() {
            assert_eq!(cfg.telemetry, Some(spec));
        }
        for (_, fc) in sc.fleet_configs().unwrap() {
            assert_eq!(fc.base.telemetry, Some(spec));
        }
        // Absent key → no telemetry; bad epoch rejected.
        assert!(Scenario::from_json(DOC).unwrap().telemetry.is_none());
        let err = Scenario::from_json(&fleet_doc(r#""telemetry": {"epoch_s": 0.0},"#)).unwrap_err();
        assert!(err.contains("'epoch_s' must be a positive number"), "{err}");
    }

    #[test]
    fn rejects_a_telemetry_epoch_that_rounds_to_zero() {
        let err =
            Scenario::from_json(&fleet_doc(r#""telemetry": {"epoch_s": 1e-12},"#)).unwrap_err();
        assert!(err.contains("'epoch_s'"), "{err}");
        // Half a nanosecond rounds up to 1 ns: the smallest usable epoch.
        let sc = Scenario::from_json(&fleet_doc(r#""telemetry": {"epoch_s": 5e-10},"#)).unwrap();
        assert_eq!(sc.telemetry.unwrap().epoch, SimDuration::from_nanos(1));
    }

    const CHURN_PATCH: &str = r#""fleet": {
        "clients": 8,
        "seed": 23,
        "watchdog": true,
        "churn": {"mean_interarrival_s": 6.0, "mean_watch_s": 30.0, "min_watch_s": 4.0},
        "fault_domains": [
            {"label": "region", "members": [0, 1, 2, 3],
             "wifi_faults": [{"disassociation": {"at_s": 30, "secs": 3, "reassoc_s": 1}}]}
        ],
        "overload": {"max_active": 4, "queue_threshold_bytes": 262144},
        "shared": [
            {"rate_mbps": 4.8, "paths": ["wifi"]},
            {"rate_mbps": 3.0, "paths": ["cell"]}
        ]
    },"#;

    #[test]
    fn parses_churn_domains_and_overload_onto_the_fleet() {
        let sc = Scenario::from_json(&fleet_doc(CHURN_PATCH)).unwrap();
        let fleet = sc.fleet.as_ref().unwrap();
        let churn = fleet.churn.as_ref().unwrap();
        assert_eq!(churn.mean_interarrival_s, 6.0);
        assert_eq!(fleet.fault_domains.len(), 1);
        assert_eq!(fleet.fault_domains[0].members, vec![0, 1, 2, 3]);
        assert_eq!(fleet.overload.as_ref().unwrap().max_active, 4);

        let configs = sc.fleet_configs().unwrap();
        let fc = &configs[0].1;
        let built = fc.churn.expect("churn forwarded");
        assert_eq!(built.mean_interarrival, SimDuration::from_secs(6));
        assert_eq!(built.mean_watch, SimDuration::from_secs(30));
        assert_eq!(built.min_watch, SimDuration::from_secs(4));
        assert_eq!(fc.fault_domains.len(), 1);
        assert_eq!(fc.fault_domains[0].label, "region");
        assert_eq!(fc.fault_domains[0].wifi.events().len(), 1);
        assert!(fc.fault_domains[0].cell.is_empty());
        let overload = fc.overload.expect("overload forwarded");
        assert_eq!(overload.max_active, 4);
        assert_eq!(overload.queue_threshold_bytes, 262144);
        assert_eq!(fc.watchdog, Some(true));

        // Documents without the keys keep the plain staggered fleet.
        let plain = Scenario::from_json(&fleet_doc(FLEET_PATCH)).unwrap();
        let fc = &plain.fleet_configs().unwrap()[0].1;
        assert!(fc.churn.is_none() && fc.fault_domains.is_empty());
        assert!(fc.overload.is_none() && fc.watchdog.is_none());
    }

    #[test]
    fn rejects_wedging_fleet_values() {
        for (patch, expect) in [
            (r#""fleet": {"clients": 0},"#, "'clients' must be > 0"),
            (
                r#""fleet": {"clients": 4, "stagger_s": -1.0},"#,
                "'stagger_s' must be >= 0",
            ),
            (
                r#""fleet": {"clients": 4, "rtt_skew_ms": -5},"#,
                "'rtt_skew_ms' must be a non-negative integer",
            ),
            (
                r#""fleet": {"clients": 4, "churn": {"mean_interarrival_s": 0.0, "mean_watch_s": 30}},"#,
                "'churn.mean_interarrival_s' must be a positive number",
            ),
            (
                r#""fleet": {"clients": 4, "churn": {"mean_interarrival_s": 6, "mean_watch_s": -2.0}},"#,
                "'churn.mean_watch_s' must be a positive number",
            ),
            (
                r#""fleet": {"clients": 4, "churn": {"mean_interarrival_s": 6, "mean_watch_s": 30, "min_watch_s": -1.0}},"#,
                "'churn.min_watch_s' must be >= 0",
            ),
            (
                r#""fleet": {"clients": 4, "churn": {"mean_watch_s": 30}},"#,
                "missing field 'mean_interarrival_s'",
            ),
            (
                r#""fleet": {"clients": 4, "fault_domains": [{"label": "r", "members": []}]},"#,
                "needs at least one member index",
            ),
            (
                r#""fleet": {"clients": 4, "fault_domains": [{"label": "r", "members": [7],
                   "wifi_faults": [{"disassociation": {"at_s": 1, "secs": 1}}]}]},"#,
                "member 7 is out of range",
            ),
            (
                r#""fleet": {"clients": 4, "fault_domains": [{"label": "r", "members": [1, 1],
                   "wifi_faults": [{"disassociation": {"at_s": 1, "secs": 1}}]}]},"#,
                "lists member 1 twice",
            ),
            (
                r#""fleet": {"clients": 4, "fault_domains": [{"label": "r", "members": [0]}]},"#,
                "has no fault scripts",
            ),
            (
                r#""fleet": {"clients": 4, "overload": {"max_active": 0}},"#,
                "'overload.max_active' must be > 0",
            ),
            (
                r#""fleet": {"clients": 4, "overload": {"max_active": 2, "queue_threshold_bytes": 0}},"#,
                "'overload.queue_threshold_bytes' must be > 0",
            ),
            (
                r#""fleet": {"clients": 4, "watchdog": "on"},"#,
                "'watchdog' must be a boolean",
            ),
            (
                r#""fleet": {"clients": 4, "shared": [{"rate_mbps": 10.0, "paths": []}]},"#,
                "at least one subscribing path",
            ),
            (
                r#""fleet": {"clients": 4, "shared": [{"rate_mbps": 0.0, "paths": ["wifi"]}]},"#,
                "'rate_mbps' must be > 0",
            ),
            (
                r#""fleet": {"clients": 4, "shared": [{"rate_mbps": 10.0, "capacity_bytes": 0, "paths": ["wifi"]}]},"#,
                "'capacity_bytes' must be > 0",
            ),
            (
                r#""fleet": {"clients": 4, "shared": [{"rate_mbps": 10.0, "discipline": "red", "paths": ["wifi"]}]},"#,
                "unknown discipline 'red' (expected fifo, fq, pie, fq_pie, or codel)",
            ),
            (
                r#""fleet": {"clients": 4, "shared": [{"rate_mbps": 10.0, "paths": ["starlink"]}]},"#,
                "unknown path 'starlink'",
            ),
            (
                r#""fleet": {"clients": 4, "shared": [{"rate_mbps": 10.0, "discipline": "fifo", "ecn": true, "paths": ["wifi"]}]},"#,
                "'ecn' only applies to an AQM discipline",
            ),
            (
                r#""fleet": {"clients": 4, "shared": [{"rate_mbps": 10.0, "discipline": "fq", "target_delay_ms": 15.0, "paths": ["wifi"]}]},"#,
                "'target_delay_ms' only applies to an AQM discipline",
            ),
            (
                r#""fleet": {"clients": 4, "shared": [{"rate_mbps": 10.0, "discipline": "pie", "target_delay_ms": 0.0, "paths": ["wifi"]}]},"#,
                "'target_delay_ms' must be > 0",
            ),
            (
                r#""fleet": {"clients": 4, "shared": [{"rate_mbps": 10.0, "discipline": "codel", "alpha": 0.125, "paths": ["wifi"]}]},"#,
                "'alpha'/'beta' are PIE gains",
            ),
            (
                r#""fleet": {"clients": 4, "shared": [{"rate_mbps": 10.0, "discipline": "pie", "quantum": 1540, "paths": ["wifi"]}]},"#,
                "'quantum' only applies to the per-flow disciplines",
            ),
            (
                r#""fleet": {"clients": 4, "shared": [{"rate_mbps": 10.0, "discipline": "pie", "beta": -1.0, "paths": ["wifi"]}]},"#,
                "'beta' must be >= 0",
            ),
        ] {
            let err = Scenario::from_json(&fleet_doc(patch)).unwrap_err();
            assert!(err.contains(expect), "{patch}: {err}");
        }
    }

    #[test]
    fn shipped_churn_scenario_parses() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/churn.json");
        let text = std::fs::read_to_string(path).unwrap();
        let sc = Scenario::from_json(&text).unwrap();
        let fleet = sc.fleet.as_ref().unwrap();
        assert!(fleet.churn.is_some());
        assert_eq!(fleet.fault_domains.len(), 1);
        assert!(fleet.overload.is_some());
        assert_eq!(fleet.watchdog, Some(true));
        assert!(sc.fleet_configs().is_ok());
    }

    #[test]
    fn shipped_fleet_scenario_parses() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/fleet.json");
        let text = std::fs::read_to_string(path).unwrap();
        let sc = Scenario::from_json(&text).unwrap();
        let fleet = sc.fleet.as_ref().unwrap();
        assert_eq!(fleet.clients, 16);
        assert!(!fleet.shared.is_empty());
        assert!(sc.fleet_configs().is_ok());
    }

    #[test]
    fn shipped_aqm_scenario_parses_to_fq_pie() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/aqm.json");
        let text = std::fs::read_to_string(path).unwrap();
        let sc = Scenario::from_json(&text).unwrap();
        let fleet = sc.fleet.as_ref().unwrap();
        assert_eq!(fleet.clients, 8);
        let ap = &fleet.shared[0];
        assert_eq!(ap.discipline, "fq_pie");
        assert!(matches!(
            ap.build().config.discipline,
            QueueDiscipline::FqPie { quantum: 1540, aqm }
                if aqm.ecn && aqm.target_ns == 15_000_000
        ));
        assert!(sc.fleet_configs().is_ok());
    }

    const ORIGINS_PATCH: &str = r#""origins": {
        "hedge_quantile": 0.5,
        "failure_threshold": 3,
        "pool": [
            {"id": "primary", "faults": [{"error_burst": {"at_s": 10, "secs": 3}}]},
            {"id": "backup", "rtt_penalty_ms": 30}
        ]
    },
    "cache": {"capacity_mb": 64, "edge_delay_ms": 8},"#;

    #[test]
    fn parses_origins_and_cache_onto_sessions() {
        let doc = fleet_doc(ORIGINS_PATCH);
        let sc = Scenario::from_json(&doc).unwrap();
        let origins = sc.origins.as_ref().unwrap();
        assert_eq!(origins.pool.len(), 2);
        assert_eq!(origins.hedge_quantile, Some(0.5));
        let configs = sc.build().unwrap();
        let pool = configs[0].1.origins.as_ref().unwrap();
        assert_eq!(pool.origins.len(), 2);
        assert_eq!(pool.origins[0].id, "primary");
        assert_eq!(pool.origins[0].faults.events().len(), 1);
        assert_eq!(
            pool.origins[1].rtt_penalty,
            SimDuration::from_millis(30),
            "the backup's RTT penalty survives the build"
        );
        assert_eq!(pool.failure_threshold, 3);
        assert_eq!(pool.hedge_quantile, Some(0.5));
        let cache = configs[0].1.cache.as_ref().unwrap();
        assert_eq!(cache.capacity_bytes(), 64 << 20);
        assert_eq!(cache.edge_delay(), SimDuration::from_millis(8));
        // Documents without the keys keep the single implicit origin.
        let plain = Scenario::from_json(DOC).unwrap();
        assert!(plain.origins.is_none() && plain.cache.is_none());
        assert!(plain.build().unwrap()[0].1.origins.is_none());
    }

    #[test]
    fn fleet_builds_share_one_cache_spec_not_a_live_handle() {
        let doc = fleet_doc(&format!("{FLEET_PATCH} {ORIGINS_PATCH}"));
        let sc = Scenario::from_json(&doc).unwrap();
        let configs = sc.fleet_configs().unwrap();
        let fc = &configs[0].1;
        let spec = fc.cache.expect("fleet inherits the cache key");
        assert_eq!(spec.capacity_bytes, 64 << 20);
        assert_eq!(spec.edge_delay, SimDuration::from_millis(8));
        assert!(
            fc.base.cache.is_none(),
            "the session-level handle must be stripped so each fleet run \
             builds a fresh cache"
        );
        assert!(fc.base.origins.is_some(), "the pool rides into the fleet");
    }

    #[test]
    fn rejects_bad_origins_and_cache_values() {
        for (patch, expect) in [
            (
                r#""origins": {"pool": []},"#,
                "'origins.pool' must list at least one origin",
            ),
            (
                r#""origins": {"pool": [{"id": "a"}, {"id": "a"}]},"#,
                "duplicate origin id 'a'",
            ),
            (
                r#""origins": {"hedge_quantile": 0.0, "pool": [{"id": "a"}]},"#,
                "'hedge_quantile' must be in (0,1]",
            ),
            (
                r#""origins": {"hedge_quantile": 1.5, "pool": [{"id": "a"}]},"#,
                "'hedge_quantile' must be in (0,1]",
            ),
            (
                r#""origins": {"failure_threshold": 0, "pool": [{"id": "a"}]},"#,
                "'failure_threshold' must be > 0",
            ),
            (
                r#""origins": {"pool": [{"rtt_penalty_ms": 5}]},"#,
                "missing field 'id'",
            ),
            (
                r#""cache": {"capacity_mb": 0},"#,
                "'capacity_mb' must be > 0",
            ),
            (
                r#""cache": {"capacity_mb": -3.5},"#,
                "'capacity_mb' must be > 0",
            ),
            (
                r#""cache": {"edge_delay_ms": 5},"#,
                "missing field 'capacity_mb'",
            ),
        ] {
            let err = Scenario::from_json(&fleet_doc(patch)).unwrap_err();
            assert!(err.contains(expect), "{patch}: {err}");
        }
    }

    #[test]
    fn shipped_origins_scenario_parses() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/origins.json");
        let text = std::fs::read_to_string(path).unwrap();
        let sc = Scenario::from_json(&text).unwrap();
        let origins = sc.origins.as_ref().unwrap();
        assert!(origins.pool.len() >= 2);
        assert!(origins.hedge_quantile.is_some());
        assert!(sc.cache.is_some());
        assert!(sc.build().is_ok());
    }

    #[test]
    fn custom_video_and_file_profile() {
        // Write a profile to a temp file and reference it.
        let dir = std::env::temp_dir().join("mpdash-scenario-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wifi.json");
        let spec = mpdash_trace::io::ProfileSpec {
            name: "t".into(),
            points: vec![
                mpdash_trace::io::ProfilePoint {
                    at_secs: 0.0,
                    mbps: 5.0,
                },
                mpdash_trace::io::ProfilePoint {
                    at_secs: 1.0,
                    mbps: 2.0,
                },
            ],
            period_secs: Some(2.0),
        };
        std::fs::write(&path, spec.to_json()).unwrap();
        let doc = format!(
            r#"{{
            "name": "custom",
            "video": {{"custom": {{"levels_mbps": [1.0, 2.0], "chunk_secs": 2, "n_chunks": 10}}}},
            "wifi": {{"file": "{}"}},
            "cell": {{"constant": 3.0}},
            "abr": "gpac",
            "buffer_secs": 20,
            "modes": ["vanilla"]
        }}"#,
            path.display()
        );
        let sc = Scenario::from_json(&doc).unwrap();
        let configs = sc.build().unwrap();
        assert_eq!(configs[0].1.video.n_levels(), 2);
        assert_eq!(configs[0].1.buffer_capacity, SimDuration::from_secs(20));
    }
}
