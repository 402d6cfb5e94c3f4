//! The output-correctness check: digests of every result's summary
//! bytes, compared with recorded references (or, for a seed without
//! references, with the run's own first repetition), and the failure
//! tally that feeds `failed_frac` and the exit code.

use mpdash::results::Json;
use mpdash::session::{BatchResult, JobReport};
use std::time::Duration;

/// The summary bytes of a report: its compact JSON serialization.
pub(crate) fn summary_bytes(summary: &Json) -> Vec<u8> {
    summary.to_compact().into_bytes()
}

/// 64-bit FNV-1a of `bytes`, as 16 lowercase hex digits.
pub(crate) fn digest_hex(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// What one batch job produced.
#[derive(Clone, Debug)]
pub enum JobOutcome {
    /// The job finished: per-session digests (a fleet appends its fleet
    /// summary digest), sessions shed at admission, simulator events per
    /// session, and the job's wall time on its worker.
    Done {
        /// Summary digests in session order.
        digests: Vec<String>,
        /// Sessions the overload policy shed.
        shed: usize,
        /// Simulator events each session popped, in session order.
        events: Vec<u64>,
        /// Host time the job spent on its worker.
        wall: Duration,
    },
    /// The job panicked, hit a watchdog violation, or returned a report
    /// of the wrong kind.
    Failed {
        /// Why.
        reason: String,
    },
}

impl JobOutcome {
    /// Host ms per session: the job's wall time shared among its sessions
    /// by their simulator events (a session job's one session gets all of
    /// it). Shed sessions never step and get no sample.
    pub fn session_ms(&self) -> Vec<f64> {
        let JobOutcome::Done { events, wall, .. } = self else {
            return Vec::new();
        };
        let total: u64 = events.iter().sum();
        let ms = wall.as_secs_f64() * 1e3;
        events
            .iter()
            .filter(|&&e| e > 0)
            .map(|&e| ms * e as f64 / total as f64)
            .collect()
    }
}

/// Reduce batch results to outcomes, producing each session report's
/// summary bytes. Consumes the results so their reports are freed here.
pub fn collect(results: Vec<BatchResult>) -> Vec<JobOutcome> {
    results.into_iter().map(outcome).collect()
}

fn outcome(result: BatchResult) -> JobOutcome {
    let wall = result.profile.map(|p| p.wall).unwrap_or_default();
    let label = result.label;
    match result.report {
        Err(e) => JobOutcome::Failed {
            reason: format!("{label}: {e}"),
        },
        Ok(JobReport::Session(r)) => JobOutcome::Done {
            digests: vec![digest_hex(&summary_bytes(&r.summary_json()))],
            shed: 0,
            events: vec![r.sim_profile.events_popped],
            wall,
        },
        Ok(JobReport::Value(v)) => match fleet_fields(&v) {
            Ok((digests, shed, events)) => JobOutcome::Done {
                digests,
                shed,
                events,
                wall,
            },
            Err(reason) => JobOutcome::Failed {
                reason: format!("{label}: {reason}"),
            },
        },
        Ok(JobReport::Transfer(_)) => JobOutcome::Failed {
            reason: format!("{label}: unexpected transfer report"),
        },
    }
}

/// Digests, shed count and per-session events of a fleet job's value
/// (see [`crate::workloads::fleet_outcome`]).
fn fleet_fields(v: &Json) -> Result<(Vec<String>, usize, Vec<u64>), String> {
    if let Some(violation) = v.get("violation") {
        return Err(format!(
            "invariant violation: {}",
            violation.as_str().unwrap_or("?")
        ));
    }
    let digests = v
        .get("digests")
        .and_then(Json::as_arr)
        .ok_or("fleet value has no digests")?
        .iter()
        .map(|d| {
            d.as_str()
                .map(str::to_string)
                .ok_or("digest is not a string")
        })
        .collect::<Result<Vec<_>, _>>()?;
    let shed = v
        .get("shed")
        .and_then(Json::as_u64)
        .ok_or("fleet value has no shed count")?;
    let events = v
        .get("events")
        .and_then(Json::as_arr)
        .ok_or("fleet value has no event counts")?
        .iter()
        .map(|e| e.as_u64().ok_or("event count is not an integer"))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((digests, shed as usize, events))
}

/// The digests of every finished job, `None` where a job failed.
pub(crate) fn digests_of(outcomes: &[JobOutcome]) -> Vec<Option<Vec<String>>> {
    outcomes
        .iter()
        .map(|o| match o {
            JobOutcome::Done { digests, .. } => Some(digests.clone()),
            JobOutcome::Failed { .. } => None,
        })
        .collect()
}

/// Session accounting over one or more batches.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Sessions in the inputs, shed ones included.
    pub attempted: u64,
    /// Sessions that panicked, violated an invariant, deadlocked, or
    /// whose summary bytes differ from the expected digest.
    pub failed: u64,
    /// Sessions shed at admission (a designed outcome, not a failure).
    pub shed: u64,
    /// Sessions simulated to the end: neither shed nor in a failed job.
    pub completed: u64,
    /// One line per failure.
    pub notes: Vec<String>,
}

impl Tally {
    /// Add another tally's counts to this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.shed += other.shed;
        self.completed += other.completed;
        self.notes.extend(other.notes);
    }

    /// Failed sessions over attempted sessions.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Whether every attempted session passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The process exit code this tally calls for.
    pub fn exit_code(&self) -> i32 {
        if self.correct() {
            0
        } else {
            1
        }
    }
}

/// Count failures in `outcomes`, job `i` holding `sessions[i]` sessions,
/// against `expected` digests (`None` skips the comparison). A session
/// fails when its job failed or its digest differs; a fleet whose own
/// summary differs while every session matches fails all its sessions.
pub fn tally(
    outcomes: &[JobOutcome],
    sessions: &[usize],
    expected: Option<&[Option<Vec<String>>]>,
) -> Tally {
    let mut t = Tally::default();
    for (i, (o, &n)) in outcomes.iter().zip(sessions).enumerate() {
        t.attempted += n as u64;
        let (digests, shed) = match o {
            JobOutcome::Failed { reason } => {
                t.failed += n as u64;
                t.notes.push(reason.clone());
                continue;
            }
            JobOutcome::Done { digests, shed, .. } => (digests, *shed),
        };
        t.shed += shed as u64;
        t.completed += n.saturating_sub(shed) as u64;
        let Some(want) = expected.map(|e| e.get(i).cloned().flatten()) else {
            continue;
        };
        let bad = match want {
            None => n,
            Some(want) if want.len() != digests.len() => n,
            Some(want) => {
                let sessions_bad = (0..n.min(digests.len()))
                    .filter(|&j| digests[j] != want[j])
                    .count();
                if sessions_bad == 0 && digests != &want {
                    n
                } else {
                    sessions_bad
                }
            }
        };
        if bad > 0 {
            t.failed += bad as u64;
            t.notes.push(format!(
                "job {i}: {bad} session(s) differ from the expected digest"
            ));
        }
    }
    t
}

/// Recorded reference digests, per workload and seed.
pub struct Reference(Json);

impl Reference {
    /// The references committed beside the benchmark.
    pub fn builtin() -> Self {
        Reference(Json::parse(include_str!("../reference.json")).expect("reference.json parses"))
    }

    /// The expected per-job digests of `workload` at `seed`, if recorded.
    pub fn lookup(&self, workload: &str, seed: u64) -> Option<Vec<Option<Vec<String>>>> {
        let jobs = self
            .0
            .get("digests")?
            .get(workload)?
            .get(&seed.to_string())?
            .as_arr()?;
        Some(
            jobs.iter()
                .map(|job| {
                    job.as_arr().map(|ds| {
                        ds.iter()
                            .filter_map(|d| d.as_str().map(str::to_string))
                            .collect()
                    })
                })
                .collect(),
        )
    }
}

/// The reference entry for one run's digests, as `reference.json` holds
/// it under `digests.<workload>.<seed>`.
pub fn reference_entry(digests: &[Option<Vec<String>>]) -> Json {
    Json::arr(digests.iter().map(|d| match d {
        Some(ds) => Json::arr(ds.iter().map(|s| Json::from(s.as_str()))),
        None => Json::Null,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn done(d: &[&str], shed: usize) -> JobOutcome {
        JobOutcome::Done {
            digests: d.iter().map(|s| s.to_string()).collect(),
            shed,
            events: vec![1; d.len()],
            wall: Duration::ZERO,
        }
    }

    #[test]
    fn session_ms_shares_the_wall_by_events_and_skips_shed_sessions() {
        let fleet = JobOutcome::Done {
            digests: Vec::new(),
            shed: 1,
            events: vec![300, 0, 100],
            wall: Duration::from_millis(40),
        };
        assert_eq!(fleet.session_ms(), vec![30.0, 10.0]);
        let failed = JobOutcome::Failed { reason: "x".into() };
        assert!(failed.session_ms().is_empty());
    }

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(digest_hex(b""), "cbf29ce484222325");
        assert_eq!(digest_hex(b"a"), "af63dc4c8601ec8c");
    }

    #[test]
    fn mismatches_fail_sessions_and_shed_ones_do_not() {
        let outcomes = vec![
            done(&["a"], 0),
            done(&["x", "y", "f"], 1),
            JobOutcome::Failed {
                reason: "boom".into(),
            },
        ];
        let sessions = [1, 2, 4];
        let want: Vec<Option<Vec<String>>> = vec![
            Some(vec!["a".into()]),
            Some(vec!["x".into(), "z".into(), "f".into()]),
            None,
        ];
        let t = tally(&outcomes, &sessions, Some(&want));
        assert_eq!((t.attempted, t.failed, t.shed, t.completed), (7, 5, 1, 2));
        assert_ne!(t.exit_code(), 0);
        // Same sessions, different fleet summary: the whole fleet fails.
        let want2 = vec![
            Some(vec!["a".into()]),
            Some(vec!["x".into(), "y".into(), "g".into()]),
        ];
        let t2 = tally(&outcomes[..2], &sessions[..2], Some(&want2));
        assert_eq!(t2.failed, 2);
        let ok = tally(&outcomes[..1], &sessions[..1], Some(&want[..1]));
        assert!(ok.correct());
        assert_eq!(ok.exit_code(), 0);
    }
}
