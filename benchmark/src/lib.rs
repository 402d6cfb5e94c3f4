//! The repository benchmark: named workloads over the MP-DASH simulator,
//! end-to-end metrics from an untraced run, per-layer metrics from a
//! traced run, and a digest check of every output. See `README.md`.

pub mod catalogue;
pub mod drives;
pub mod run;
pub mod score;
pub mod spans;
pub mod stats;
pub mod workloads;
