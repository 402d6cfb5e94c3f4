//! Every metric the benchmark prints: name, unit and which direction is
//! better. `BENCHMARK.json` lists the same entries in the same order.

use mpdash::results::Json;

/// One metric definition.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit, as printed beside every value.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// Metrics of the untraced run (`--trace 0`), the ones a user sees.
pub const END_TO_END: &[MetricDef] = &[
    def("sessions_per_s", "1/s", "higher"),
    def("session_ms_p50", "ms", "lower"),
    def("session_ms_p90", "ms", "lower"),
    def("peak_rss_mb", "MB", "lower"),
    def("setup_s", "s", "lower"),
];

/// Metrics of the traced run (`--trace 1`), one group per layer.
pub const PER_LAYER: &[MetricDef] = &[
    def("fleet.run_s", "s", "lower"),
    def("fleet.loop_iterations", "count", "lower"),
    def("fleet.session_steps", "count", "lower"),
    def("fleet.departures", "count", "lower"),
    def("fleet.shed", "count", "lower"),
    def("fleet.peek_ns_per_iter", "ns", "lower"),
    def("fleet.pop_ns_per_departure", "ns", "lower"),
    def("fleet.step_ns_per_step", "ns", "lower"),
    def("sim.events", "count", "lower"),
    def("sim.peak_queue_depth", "count", "lower"),
    def("session.start_us", "us", "lower"),
    def("session.step_ns_per_event", "ns", "lower"),
    def("session.report_ms", "ms", "lower"),
    def("session.steps", "count", "lower"),
    def("batch.busy_frac", "frac", "higher"),
    def("mptcp.ns_per_event", "ns", "lower"),
    def("mptcp.retx_frac", "frac", "lower"),
    def("mptcp.subflow_failures", "count", "lower"),
    def("link.fifo_ns_per_pkt", "ns", "lower"),
    def("link.fq_pie_ns_per_pkt", "ns", "lower"),
    def("link.drop_frac", "frac", "lower"),
    def("link.mark_frac", "frac", "lower"),
    def("core.on_progress_ns", "ns", "lower"),
    def("core.toggles", "count", "lower"),
    def("core.missed_deadlines", "count", "lower"),
    def("http.hedges", "count", "lower"),
    def("http.failovers", "count", "lower"),
    def("http.cache_hit_ratio", "frac", "higher"),
    def("http.hedge_waste_frac", "frac", "lower"),
    def("dash.chunks", "count", "higher"),
    def("obs.epoch_add_ns", "ns", "lower"),
    def("obs.telemetry_overhead_frac", "frac", "lower"),
    def("obs.watchdog_checks", "count", "lower"),
    def("scenario.parse_ms", "ms", "lower"),
    def("trace.corpus_ms", "ms", "lower"),
    def("results.serialize_ms", "ms", "lower"),
    def("tracing.overhead_frac", "frac", "lower"),
    def("tracing.uncovered_frac", "frac", "lower"),
];

/// The definitions a run prints: per-layer when traced, else end-to-end.
pub fn for_mode(traced: bool) -> &'static [MetricDef] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Whether `name` is a legal metric name: non-empty, at most 64
/// characters of `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Measured values keyed by metric name, in insertion order.
#[derive(Clone, Debug, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Record `value` for `name`, replacing an earlier value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

/// The result line: `correct`, `attempted`, `failed`, and every metric
/// of `defs` as `{"value": v, "unit": u}`.
///
/// # Errors
/// Names a metric of `defs` that has no value, or a value that is not a
/// finite number.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    values: &Values,
) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(defs.len());
    for d in defs {
        let v = values
            .get(d.name)
            .ok_or_else(|| format!("metric {} was not measured", d.name))?;
        if !v.is_finite() {
            return Err(format!("metric {} is not a finite number: {v}", d.name));
        }
        metrics.push((
            d.name,
            Json::obj([("value", Json::Float(v)), ("unit", Json::from(d.unit))]),
        ));
    }
    Ok(Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        ("metrics", Json::obj(metrics)),
    ])
    .to_compact())
}
