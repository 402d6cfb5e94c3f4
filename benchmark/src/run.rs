//! The two kinds of run: untraced (end-to-end metrics) and traced
//! (per-layer metrics).

use mpdash::dash::abr::AbrKind;
use mpdash::fleet::{run_checked, FleetConfig, FleetReport, SharedLinkSpec};
use mpdash::link::{AqmConfig, LinkConfig, QueueDiscipline, SharedBottleneckConfig};
use mpdash::scenario::Scenario;
use mpdash::session::{
    run_batch_with, Job, SessionConfig, SessionReport, StreamingSession, TransportMode,
};
use mpdash::sim::Rate;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use crate::catalogue::Values;
use crate::drives;
use crate::score::{
    collect, digest_hex, digests_of, summary_bytes, tally, JobOutcome, Reference, Tally,
};
use crate::spans::Spans;
use crate::stats::{median, quantile, summarize};
use crate::workloads::{
    fleet_digests, grid_locations, grid_video, location_doc, median_location, Inputs, Workload,
};

/// Parsed command line.
#[derive(Clone, Copy, Debug)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Measurement budget, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced.
    pub trace: bool,
}

/// What a run measured.
pub struct Outcome {
    /// Metric values by name.
    pub values: Values,
    /// Session accounting over every batch the run made.
    pub tally: Tally,
    /// Human-readable lines, printed before the result line.
    pub lines: Vec<String>,
    /// Digests of the first batch, for recording references.
    pub digests: Vec<Option<Vec<String>>>,
}

/// Worker threads for batches: `min(2, nproc)`.
fn workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2)
}

/// A set-up round repeats the set-up until this much time is spent ...
const SETUP_ROUND_SECONDS: f64 = 0.1;
/// ... or it has run this many times.
const SETUP_ROUND_MAX: usize = 50;

/// One set-up round: set the workload up repeatedly, recording each
/// set-up's seconds, and return the last inputs built.
fn setup_round(args: Args, samples: &mut Vec<f64>) -> Result<Inputs, String> {
    let round = Instant::now();
    for n in 1.. {
        let start = Instant::now();
        let built = args.workload.setup(args.seed)?;
        samples.push(start.elapsed().as_secs_f64());
        if n >= SETUP_ROUND_MAX || round.elapsed().as_secs_f64() >= SETUP_ROUND_SECONDS {
            return Ok(built);
        }
    }
    unreachable!("the round ends within SETUP_ROUND_MAX set-ups")
}

/// Peak resident set of this process, in MB (`VmHWM`).
///
/// # Errors
/// When `/proc/self/status` is unreadable or has no `VmHWM` line.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn line(name: &str, unit: &str, values: &[f64], what: &str) -> String {
    let s = summarize(values);
    let mut out = format!(
        "{name} = {} {unit} (median; q1 {}, q3 {}; n={} {what})",
        s.median, s.q1, s.q3, s.n
    );
    if values.len() <= 12 {
        let all: Vec<String> = values.iter().map(|v| format!("{v:.6}")).collect();
        out.push_str(&format!(" [{}]", all.join(", ")));
    }
    out
}

/// Time one batch of `jobs` on `workers` threads, digests included.
fn timed_batch(jobs: &[Job], workers: usize) -> (Vec<JobOutcome>, f64) {
    let batch = jobs.to_vec();
    let start = Instant::now();
    let outcomes = collect(run_batch_with(batch, workers));
    (outcomes, start.elapsed().as_secs_f64())
}

/// The untraced run: repeated batches of the workload until the time
/// budget is spent, each after a set-up round, so that set-up samples
/// span the run as the batches do.
///
/// # Errors
/// When set-up fails or the process's peak RSS is unreadable.
pub fn untraced(args: Args) -> Result<Outcome, String> {
    let start = Instant::now();
    let mut setup_s = Vec::new();
    let inputs = setup_round(args, &mut setup_s)?;
    let jobs = inputs.jobs();
    let sessions = inputs.sessions_per_job();
    let workers = workers();
    let mut expected = Reference::builtin().lookup(args.workload.name(), args.seed);
    let checked_against = if expected.is_some() {
        "recorded reference digests"
    } else {
        "the first repetition's digests"
    };

    let mut tally_all = Tally::default();
    let mut per_s = Vec::new();
    let mut session_ms = Vec::new();
    let mut first = None;
    loop {
        let (outcomes, wall) = timed_batch(&jobs, workers);
        let digests = digests_of(&outcomes);
        let want = expected.get_or_insert_with(|| digests.clone());
        let t = tally(&outcomes, &sessions, Some(want));
        per_s.push(t.completed as f64 / wall);
        session_ms.extend(outcomes.iter().flat_map(JobOutcome::session_ms));
        tally_all.absorb(t);
        first.get_or_insert(digests);
        if start.elapsed().as_secs_f64() + wall > args.seconds {
            break;
        }
        setup_round(args, &mut setup_s)?;
    }

    let rss = peak_rss_mb()?;
    let mut values = Values::default();
    values.set("sessions_per_s", median(&per_s));
    values.set("session_ms_p50", quantile(&session_ms, 0.5));
    values.set("session_ms_p90", quantile(&session_ms, 0.9));
    values.set("peak_rss_mb", rss);
    values.set("setup_s", median(&setup_s));
    let reps = format!("{} repetitions", per_s.len());
    let lines = vec![
        format!(
            "workload {} seed {} workers {workers} jobs {} sessions/rep {}",
            args.workload.name(),
            args.seed,
            jobs.len(),
            sessions.iter().sum::<usize>(),
        ),
        line("sessions_per_s", "1/s", &per_s, &reps),
        format!(
            "session_ms_p50 = {} ms, session_ms_p90 = {} ms (n={} session samples; {})",
            quantile(&session_ms, 0.5),
            quantile(&session_ms, 0.9),
            session_ms.len(),
            session_sample_kind(&inputs),
        ),
        format!("peak_rss_mb = {rss} MB (n=1 process)"),
        line(
            "setup_s",
            "s",
            &setup_s,
            "set-ups, in a round before each repetition",
        ),
        failed_line(&tally_all, checked_against),
    ];
    Ok(Outcome {
        values,
        tally: tally_all,
        lines,
        digests: first.unwrap_or_default(),
    })
}

fn session_sample_kind(inputs: &Inputs) -> &'static str {
    match inputs {
        Inputs::Sessions(_) => "one sample per session: its job's wall time",
        Inputs::Fleets(_) => {
            "one sample per admitted session: its fleet's wall time times its share of the fleet's simulator events"
        }
    }
}

fn failed_line(t: &Tally, against: &str) -> String {
    let mut s = format!(
        "failed_frac = {} ({} of {} sessions attempted; {} shed; outputs checked against {against})",
        t.failed_frac(),
        t.failed,
        t.attempted,
        t.shed
    );
    for note in t.notes.iter().take(10) {
        s.push_str("\n  failure: ");
        s.push_str(note);
    }
    s
}

/// Counts read from the session reports of one traced pass.
#[derive(Clone, Debug, Default)]
struct SessionCounts {
    events: u64,
    peak_queue: usize,
    toggles: u64,
    missed: u64,
    records: u64,
    retx: u64,
    subflow_failures: u64,
    hedges: u64,
    failovers: u64,
    wasted_bytes: u64,
    bytes: u64,
    chunks: u64,
}

impl SessionCounts {
    fn add(&mut self, r: &SessionReport) {
        self.events += r.sim_profile.events_popped;
        self.peak_queue = self.peak_queue.max(r.sim_profile.peak_queue_depth);
        self.toggles += r.scheduler_stats.toggles;
        self.missed += r.scheduler_stats.missed_deadlines;
        self.records += r.records.len() as u64;
        self.retx += r.records.iter().filter(|p| p.retx).count() as u64;
        self.subflow_failures += r.degradation.subflow_failures;
        self.hedges += r.origin.hedges;
        self.failovers += r.origin.failovers;
        self.wasted_bytes += r.lifecycle.wasted_bytes;
        self.bytes += r.wifi_bytes + r.cell_bytes;
        self.chunks += r.chunks.len() as u64;
    }
}

/// Counts and wall-profile phases read from fleet reports.
#[derive(Clone, Debug, Default)]
struct FleetCounts {
    run_ns: u64,
    loop_iterations: u64,
    session_steps: u64,
    departures: u64,
    shed: u64,
    watchdog_checks: u64,
    peek_ns: u64,
    pop_ns: u64,
    step_ns: u64,
    offered_packets: u64,
    dropped_packets: u64,
    delivered_packets: u64,
    marked_packets: u64,
    cache_hits: u64,
    cache_misses: u64,
}

impl FleetCounts {
    fn add(&mut self, r: &FleetReport, run: Duration) {
        self.run_ns += run.as_nanos() as u64;
        self.loop_iterations += r.profile.loop_iterations;
        self.session_steps += r.profile.session_steps;
        self.departures += r.profile.departures_popped;
        self.shed += r.shed_sessions;
        self.watchdog_checks += r.profile.watchdog_checks;
        if let Some(w) = r.wall_profile {
            self.peek_ns += w.peek_ns;
            self.pop_ns += w.pop_ns;
            self.step_ns += w.step_ns;
        }
        for b in &r.bottlenecks {
            self.offered_packets += b.stats.offered_packets;
            self.dropped_packets += b.stats.dropped_packets;
            self.delivered_packets += b.stats.delivered_packets;
            self.marked_packets += b.stats.marked_packets;
        }
        if let Some(c) = r.cache {
            self.cache_hits += c.hits;
            self.cache_misses += c.misses;
        }
    }
}

/// Span totals of the traced session driver.
#[derive(Clone, Debug, Default)]
struct DriverTimes {
    sessions: u64,
    steps: u64,
    start_ns: u64,
    steps_ns: u64,
    report_ns: u64,
}

impl DriverTimes {
    fn from_spans(sp: &Spans, steps: u64) -> Self {
        DriverTimes {
            sessions: sp.count("session.start") as u64,
            steps,
            start_ns: sp.total_ns("session.start"),
            steps_ns: sp.total_ns("session.steps"),
            report_ns: sp.total_ns("session.report"),
        }
    }
}

fn panic_text(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// Drive one session through its public stepping API under spans:
/// `start`, `step_once` until `finished`, `into_report`, then the
/// summary bytes. Returns the report, its digest and the step count.
fn traced_session(
    sp: &mut Spans,
    id: u64,
    cfg: SessionConfig,
) -> Result<(SessionReport, String, u64), String> {
    let n_chunks = cfg.video.n_chunks();
    let depth = sp.depth();
    let run = catch_unwind(AssertUnwindSafe(|| {
        sp.time("session", id, |sp| {
            let mut s = sp.time("session.start", id, |_| StreamingSession::start(cfg));
            let steps = sp.time("session.steps", id, |_| {
                let mut n = 0u64;
                while !s.finished() && s.step_once() {
                    n += 1;
                }
                n
            });
            let report = sp.time("session.report", id, |_| s.into_report());
            let digest = sp.time("results.serialize", id, |_| {
                digest_hex(&summary_bytes(&report.summary_json()))
            });
            (report, digest, steps)
        })
    }));
    sp.unwind_to(depth);
    let (report, digest, steps) =
        run.map_err(|p| format!("session {id} panicked: {}", panic_text(p.as_ref())))?;
    if !report.departed && report.chunks.len() != n_chunks {
        return Err(format!(
            "session {id} ended with {}/{n_chunks} chunks",
            report.chunks.len()
        ));
    }
    Ok((report, digest, steps))
}

/// Run one fleet under spans, its own wall profile splitting
/// `run_checked` into peek/pop/step children.
fn traced_fleet(
    sp: &mut Spans,
    id: u64,
    cfg: &FleetConfig,
) -> Result<(FleetReport, Vec<String>, Duration), String> {
    let cfg = cfg.clone().with_wall_profile();
    let depth = sp.depth();
    let run = catch_unwind(AssertUnwindSafe(|| {
        sp.time("fleet", id, |sp| {
            let report = sp.time("fleet.run_checked", id, |_| run_checked(&cfg));
            let idx = sp.last("fleet.run_checked").expect("span recorded");
            let run = Duration::from_nanos(sp.spans()[idx].ns());
            let report = report.map_err(|v| format!("fleet {id}: invariant violation: {v}"))?;
            if let Some(w) = report.wall_profile {
                sp.add_child(idx, "fleet.peek", w.peek_ns);
                sp.add_child(idx, "fleet.pop", w.pop_ns);
                sp.add_child(idx, "fleet.step", w.step_ns);
            }
            let digests = sp.time("results.serialize", id, |_| fleet_digests(&report));
            Ok((report, digests, run))
        })
    }));
    sp.unwind_to(depth);
    run.map_err(|p| format!("fleet {id} panicked: {}", panic_text(p.as_ref())))?
}

/// One traced pass over the workload's inputs, one unit at a time.
struct TracedPass {
    wall: f64,
    spans: Spans,
    outcomes: Vec<JobOutcome>,
    sessions: SessionCounts,
    fleets: FleetCounts,
    driver: DriverTimes,
}

fn traced_pass(inputs: &Inputs) -> TracedPass {
    let mut sp = Spans::new();
    let mut sessions = SessionCounts::default();
    let mut fleets = FleetCounts::default();
    let mut outcomes = Vec::new();
    let mut steps = 0u64;
    // Reports stay alive until the pass ends, as a batch holds them, so
    // the traced and untraced passes touch the same memory.
    let mut held = Vec::new();
    let start = Instant::now();
    match inputs {
        Inputs::Sessions(cfgs) => {
            for (i, (_, cfg)) in cfgs.iter().enumerate() {
                let cfg = cfg.clone();
                let t = Instant::now();
                outcomes.push(match traced_session(&mut sp, i as u64, cfg) {
                    Ok((report, digest, n)) => {
                        sessions.add(&report);
                        steps += n;
                        let events = vec![report.sim_profile.events_popped];
                        held.push(report);
                        JobOutcome::Done {
                            digests: vec![digest],
                            shed: 0,
                            events,
                            wall: t.elapsed(),
                        }
                    }
                    Err(reason) => JobOutcome::Failed { reason },
                });
            }
        }
        Inputs::Fleets(cfgs) => {
            for (i, (_, cfg)) in cfgs.iter().enumerate() {
                let t = Instant::now();
                outcomes.push(match traced_fleet(&mut sp, i as u64, cfg) {
                    Ok((report, digests, run)) => {
                        report.sessions.iter().for_each(|s| sessions.add(s));
                        fleets.add(&report, run);
                        JobOutcome::Done {
                            digests,
                            shed: report.shed_sessions as usize,
                            events: report
                                .sessions
                                .iter()
                                .map(|s| s.sim_profile.events_popped)
                                .collect(),
                            wall: t.elapsed(),
                        }
                    }
                    Err(reason) => JobOutcome::Failed { reason },
                });
            }
        }
    }
    drop(held);
    let wall = start.elapsed().as_secs_f64();
    let driver = DriverTimes::from_spans(&sp, steps);
    TracedPass {
        wall,
        spans: sp,
        outcomes,
        sessions,
        fleets,
        driver,
    }
}

/// The same fleets with telemetry disarmed.
fn without_telemetry(inputs: &Inputs) -> Option<Inputs> {
    match inputs {
        Inputs::Fleets(cfgs)
            if cfgs
                .iter()
                .any(|(_, c)| c.telemetry.or(c.base.telemetry).is_some()) =>
        {
            Some(Inputs::Fleets(
                cfgs.iter()
                    .map(|(l, c)| {
                        let mut c = c.clone();
                        c.telemetry = None;
                        c.base.telemetry = None;
                        (l.clone(), c)
                    })
                    .collect(),
            ))
        }
        _ => None,
    }
}

/// Parse a scenario document and build its configs (fleet configs when
/// it has a fleet).
fn parse_and_build(doc: &str) -> Result<usize, String> {
    let sc = Scenario::from_json(doc)?;
    if sc.fleet.is_some() {
        Ok(sc.fleet_configs()?.len())
    } else {
        Ok(sc.build()?.len())
    }
}

/// Per-layer drive parameters taken from the workload.
struct DriveParams {
    wifi_link: LinkConfig,
    cell_link: LinkConfig,
    priors: (Rate, Rate),
    ap: SharedBottleneckConfig,
    ap_flows: usize,
    /// Sessions the session driver runs for the fleets (each fleet's
    /// base session on private links).
    base_sessions: Vec<SessionConfig>,
    /// The grid's one-client fleet drive.
    grid_fleet: Option<FleetConfig>,
}

fn drive_params(args: Args, inputs: &Inputs) -> DriveParams {
    match inputs {
        Inputs::Sessions(_) => {
            let locs = grid_locations(args.seed);
            let loc = median_location(&locs);
            let (wifi, cell) = loc.links();
            let cfg = SessionConfig::at_location(
                loc,
                AbrKind::Festive,
                TransportMode::mpdash_rate_based(),
            )
            .with_video(grid_video());
            let ap = SharedBottleneckConfig::fifo_mbps(loc.wifi_mbps);
            DriveParams {
                wifi_link: wifi,
                cell_link: cell,
                priors: cfg.priors,
                ap,
                ap_flows: 1,
                base_sessions: Vec::new(),
                grid_fleet: Some(
                    FleetConfig::new(cfg, 1)
                        .with_seed(args.seed)
                        .with_watchdog(true)
                        .with_shared(SharedLinkSpec::wifi_ap(ap)),
                ),
            }
        }
        Inputs::Fleets(cfgs) => {
            let fc = &cfgs[0].1;
            DriveParams {
                wifi_link: fc.base.wifi.clone(),
                cell_link: fc.base.cell.clone(),
                priors: fc.base.priors,
                ap: fc.shared[0].config,
                ap_flows: fc.clients,
                base_sessions: cfgs.iter().map(|(_, c)| c.base.clone()).collect(),
                grid_fleet: None,
            }
        }
    }
}

/// The traced run: an untraced batch at the run's worker count, then
/// pairs of untraced single-worker and traced passes while the budget
/// lasts, then the per-layer drives. Every pass's digests must match.
///
/// # Errors
/// When set-up or a per-layer drive fails.
pub fn traced(args: Args) -> Result<Outcome, String> {
    let start = Instant::now();
    let workers = workers();
    let inputs = args.workload.setup(args.seed)?;
    let jobs = inputs.jobs();
    let sessions = inputs.sessions_per_job();
    let reference = Reference::builtin().lookup(args.workload.name(), args.seed);

    // Pass A: untraced, as the untraced run makes it.
    let (outcomes_a, makespan_a) = timed_batch(&jobs, workers);
    let busy: f64 = outcomes_a
        .iter()
        .map(|o| match o {
            JobOutcome::Done { wall, .. } => wall.as_secs_f64(),
            JobOutcome::Failed { .. } => 0.0,
        })
        .sum::<f64>()
        / (workers as f64 * makespan_a);
    let digests_a = digests_of(&outcomes_a);
    let mut tally_all = tally(&outcomes_a, &sessions, reference.as_deref());
    let expected = reference.unwrap_or_else(|| digests_a.clone());
    // With one job, pass A already ran on one worker.
    let mut single = (jobs.len() == 1).then_some(makespan_a);
    let untelemetered = without_telemetry(&inputs);
    let untelemetered_jobs = untelemetered.as_ref().map(Inputs::jobs);

    let mut overhead = Vec::new();
    let mut uncovered = Vec::new();
    let mut telemetry = Vec::new();
    let mut serialize_ms = Vec::new();
    let mut run_s = Vec::new();
    let mut last: Option<TracedPass>;
    loop {
        let wall_b = match single.take() {
            Some(w) => w,
            None => {
                let (o, w) = timed_batch(&jobs, 1);
                tally_all.absorb(tally(&o, &sessions, Some(&expected)));
                w
            }
        };
        let pass = traced_pass(&inputs);
        tally_all.absorb(tally(&pass.outcomes, &sessions, Some(&expected)));
        overhead.push(pass.wall / wall_b - 1.0);
        uncovered.push((pass.wall - pass.spans.leaf_ns() as f64 / 1e9) / pass.wall);
        serialize_ms.push(pass.spans.total_ns("results.serialize") as f64 / 1e6);
        run_s.push(pass.fleets.run_ns as f64 / 1e9);
        let mut next_round = wall_b + pass.wall;
        if let Some(jobs_d) = &untelemetered_jobs {
            let (o, wall_d) = timed_batch(jobs_d, 1);
            tally_all.absorb(tally(&o, &sessions, Some(&expected)));
            telemetry.push(wall_b / wall_d - 1.0);
            next_round += wall_d;
        }
        last = Some(pass);
        if start.elapsed().as_secs_f64() + next_round > args.seconds {
            break;
        }
    }
    let pass = last.expect("one traced pass ran");

    // Per-layer drives at the workload's parameters.
    let params = drive_params(args, &inputs);
    let doc = args
        .workload
        .document(args.seed)
        .unwrap_or_else(|| location_doc(median_location(&grid_locations(args.seed)), args.seed));
    parse_and_build(&doc)?;
    let parse_ms = drives::median_ms(|| parse_and_build(&doc));
    let corpus_ms = drives::median_ms(|| {
        grid_locations(args.seed)
            .iter()
            .map(|l| l.links())
            .collect::<Vec<_>>()
    });
    let mptcp_ns = drives::mptcp_ns_per_event(&params.wifi_link, &params.cell_link);
    let fifo = SharedBottleneckConfig {
        discipline: QueueDiscipline::Fifo,
        ..params.ap
    };
    let fq_pie = SharedBottleneckConfig {
        discipline: QueueDiscipline::FqPie {
            quantum: 1540,
            aqm: AqmConfig::pie().with_ecn(true),
        },
        ..params.ap
    };
    let fifo_ns = drives::link_ns_per_pkt(fifo, params.ap_flows);
    let fq_pie_ns = drives::link_ns_per_pkt(fq_pie, params.ap_flows);
    let core_ns = drives::core_on_progress_ns(params.priors.0, params.priors.1);
    let epoch_ns = drives::obs_epoch_add_ns();

    // Session driver on the fleets' base sessions; the grid's traced pass
    // already drove its sessions.
    let mut driver_spans = Spans::new();
    let driver = if params.base_sessions.is_empty() {
        pass.driver.clone()
    } else {
        let mut steps = 0;
        for (i, cfg) in params.base_sessions.iter().enumerate() {
            let (_, _, n) = traced_session(&mut driver_spans, i as u64, cfg.clone())?;
            steps += n;
        }
        DriverTimes::from_spans(&driver_spans, steps)
    };
    // Fleet-layer figures: the fleets' own traced pass, or the grid's
    // one-client fleet.
    let fleets = match &params.grid_fleet {
        None => pass.fleets.clone(),
        Some(cfg) => {
            let mut sp = Spans::new();
            let (report, _, run) = traced_fleet(&mut sp, 0, cfg)?;
            let mut f = FleetCounts::default();
            f.add(&report, run);
            run_s = vec![run.as_secs_f64()];
            f
        }
    };

    let s = &pass.sessions;
    let per = |num: u64, den: u64| num as f64 / den.max(1) as f64;
    let mut v = Values::default();
    v.set("fleet.run_s", median(&run_s));
    v.set("fleet.loop_iterations", fleets.loop_iterations as f64);
    v.set("fleet.session_steps", fleets.session_steps as f64);
    v.set("fleet.departures", fleets.departures as f64);
    v.set("fleet.shed", fleets.shed as f64);
    v.set(
        "fleet.peek_ns_per_iter",
        per(fleets.peek_ns, fleets.loop_iterations),
    );
    v.set(
        "fleet.pop_ns_per_departure",
        per(fleets.pop_ns, fleets.departures),
    );
    v.set(
        "fleet.step_ns_per_step",
        per(fleets.step_ns, fleets.session_steps),
    );
    v.set("sim.events", s.events as f64);
    v.set("sim.peak_queue_depth", s.peak_queue as f64);
    v.set(
        "session.start_us",
        per(driver.start_ns, driver.sessions) / 1e3,
    );
    v.set(
        "session.step_ns_per_event",
        per(driver.steps_ns, driver.steps),
    );
    v.set(
        "session.report_ms",
        per(driver.report_ns, driver.sessions) / 1e6,
    );
    v.set("session.steps", driver.steps as f64);
    v.set("batch.busy_frac", busy);
    v.set("mptcp.ns_per_event", mptcp_ns);
    v.set("mptcp.retx_frac", per(s.retx, s.records));
    v.set("mptcp.subflow_failures", s.subflow_failures as f64);
    v.set("link.fifo_ns_per_pkt", fifo_ns);
    v.set("link.fq_pie_ns_per_pkt", fq_pie_ns);
    v.set(
        "link.drop_frac",
        per(fleets.dropped_packets, fleets.offered_packets),
    );
    v.set(
        "link.mark_frac",
        per(fleets.marked_packets, fleets.delivered_packets),
    );
    v.set("core.on_progress_ns", core_ns);
    v.set("core.toggles", s.toggles as f64);
    v.set("core.missed_deadlines", s.missed as f64);
    v.set("http.hedges", s.hedges as f64);
    v.set("http.failovers", s.failovers as f64);
    v.set(
        "http.cache_hit_ratio",
        per(
            pass.fleets.cache_hits,
            pass.fleets.cache_hits + pass.fleets.cache_misses,
        ),
    );
    v.set("http.hedge_waste_frac", per(s.wasted_bytes, s.bytes));
    v.set("dash.chunks", s.chunks as f64);
    v.set("obs.epoch_add_ns", epoch_ns);
    v.set(
        "obs.telemetry_overhead_frac",
        if telemetry.is_empty() {
            0.0
        } else {
            median(&telemetry)
        },
    );
    v.set("obs.watchdog_checks", fleets.watchdog_checks as f64);
    v.set("scenario.parse_ms", parse_ms);
    v.set("trace.corpus_ms", corpus_ms);
    v.set("results.serialize_ms", median(&serialize_ms));
    v.set("tracing.overhead_frac", median(&overhead));
    v.set("tracing.uncovered_frac", median(&uncovered));

    let mut lines = vec![format!(
        "workload {} seed {} traced: {} traced pass(es) on 1 worker against untraced passes; \
         batch pass on {workers} workers",
        args.workload.name(),
        args.seed,
        overhead.len()
    )];
    lines.push(line(
        "tracing.overhead_frac",
        "frac",
        &overhead,
        "traced/untraced pass pairs",
    ));
    lines.push(line(
        "tracing.uncovered_frac",
        "frac",
        &uncovered,
        "traced passes",
    ));
    if !telemetry.is_empty() {
        lines.push(line(
            "obs.telemetry_overhead_frac",
            "frac",
            &telemetry,
            "armed/disarmed pass pairs",
        ));
    }
    lines.push(failed_line(
        &tally_all,
        "the untraced batch (and recorded references when present)",
    ));
    write_spans(&pass.spans, &driver_spans);
    Ok(Outcome {
        values: v,
        tally: tally_all,
        lines,
        digests: digests_a,
    })
}

/// Span totals to standard error: name, count, total and self ms.
fn write_spans(pass: &Spans, driver: &Spans) {
    eprintln!(
        "spans (last traced pass, then the session-driver drive): name count total_ms self_ms"
    );
    for sp in [pass, driver] {
        for (name, count, total, own) in sp.summary() {
            eprintln!(
                "  {name:<22} {count:>6} {:>12.3} {:>12.3}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
    }
}
