//! `mpdash-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--record]`
//!
//! Prints human-readable measurement lines, then as the last line of
//! standard output one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (end-to-end metrics untraced, per-layer metrics traced).
//! Exits nonzero when any output fails its correctness check.
//! `--record` also writes the run's digests, in `reference.json` form, to
//! standard error.

use mpdash_benchmark::catalogue::{for_mode, result_line};
use mpdash_benchmark::run::{traced, untraced, Args};
use mpdash_benchmark::score::reference_entry;
use mpdash_benchmark::workloads::Workload;

const USAGE: &str =
    "usage: mpdash-benchmark --workload <fleet_contended|session_grid|fleet_robust> \
     --seed <n> --seconds <s> --trace <0|1> [--record]";

fn parse(argv: &[String]) -> Result<(Args, bool), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut record = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--record" {
            record = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed '{value}'"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds '{value}'"))?;
                if !s.is_finite() || s <= 0.0 {
                    return Err(format!("seconds must be > 0, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got '{value}'")),
                })
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok((
        Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        },
        record,
    ))
}

fn main() {
    // The simulator reads these to arm tracing, telemetry, the watchdog
    // and the worker count; the workloads set all of that themselves.
    for var in [
        "MPDASH_TRACE",
        "MPDASH_TELEMETRY",
        "MPDASH_WATCHDOG",
        "MPDASH_WORKERS",
    ] {
        std::env::remove_var(var);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (args, record) = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let run = if args.trace {
        traced(args)
    } else {
        untraced(args)
    };
    let outcome = match run {
        Ok(o) => o,
        Err(e) => {
            eprintln!("benchmark error: {e}");
            std::process::exit(1);
        }
    };
    if record {
        eprintln!(
            "reference {} {} {}",
            args.workload.name(),
            args.seed,
            reference_entry(&outcome.digests).to_compact()
        );
    }
    for l in &outcome.lines {
        println!("{l}");
    }
    let t = &outcome.tally;
    match result_line(
        t.correct(),
        t.attempted,
        t.failed,
        for_mode(args.trace),
        &outcome.values,
    ) {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("benchmark error: {e}");
            std::process::exit(1);
        }
    }
    std::process::exit(t.exit_code());
}
