//! The one switch every experiment binary shares, and the host identity
//! every committed `BENCH_*.json` records.
//!
//! `--quick` (or `-q`) on the command line, or `MPDASH_QUICK=1` in the
//! environment, asks for the reduced-size run: experiments that iterate a
//! corpus shrink it, everything else ignores the flag. The environment
//! form exists so `exp_all` and CI wrappers can set it once for a whole
//! pipeline of binaries.

use mpdash_results::Json;

/// Whether the user asked for the reduced quick-mode run.
pub fn quick_requested() -> bool {
    if std::env::args()
        .skip(1)
        .any(|a| a == "--quick" || a == "-q")
    {
        return true;
    }
    quick_env()
}

/// Just the environment half (`MPDASH_QUICK`), for callers without a
/// command line of their own.
pub fn quick_env() -> bool {
    match std::env::var("MPDASH_QUICK") {
        Ok(v) => {
            let v = v.trim();
            !(v.is_empty() || v == "0" || v.eq_ignore_ascii_case("false"))
        }
        Err(_) => false,
    }
}

/// `git rev-parse --short HEAD`, marked `-dirty` when the tree has
/// uncommitted changes; `unknown` outside a git checkout.
pub fn commit() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    match git(&["rev-parse", "--short", "HEAD"]) {
        Some(head)
            if git(&["status", "--porcelain", "--untracked-files=no"])
                .is_some_and(|s| !s.is_empty()) =>
        {
            format!("{head}-dirty")
        }
        Some(head) => head,
        None => "unknown".into(),
    }
}

/// The host a benchmark ran on: OS, architecture, CPU count and model.
pub fn machine() -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    Json::obj([
        ("os", Json::from(std::env::consts::OS)),
        ("arch", Json::from(std::env::consts::ARCH)),
        (
            "nproc",
            Json::from(std::thread::available_parallelism().map_or(0, |n| n.get())),
        ),
        ("cpu_model", Json::from(cpu_model)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_env_is_not_quick() {
        // Test processes have no `--quick` argument and the harness never
        // sets MPDASH_QUICK, so both layers answer "full run".
        assert!(!quick_env());
        assert!(!quick_requested());
    }
}
