//! The metric catalogue and the printed result.

use std::fmt::Write as _;

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: [(&str, &str); 4] = [
    ("requests_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("rss_bytes_per_request", "bytes"),
];

/// Per-layer metrics (`--trace 1`): name and unit. Layers are named
/// after the program's modules; `declarations.json` says which
/// end-to-end metric each should move, on which workload.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("workload.gen_ms", "ms"),
    ("workload.requests", "count"),
    ("plan.build_ms", "ms"),
    ("plan.index_ms", "ms"),
    ("engine.events_per_request", "events/request"),
    ("engine.peak_agenda", "count"),
    ("engine.heap_ns_per_event", "ns"),
    ("engine.wheel_ns_per_event", "ns"),
    ("engine.compactions", "count"),
    ("client.us_per_session", "us"),
    ("client.receptions_per_session", "count"),
    ("trace.us_per_session", "us"),
    ("sink.us_per_session", "us"),
    ("metrics.ops_per_request", "ops/request"),
    ("metrics.us_per_request", "us"),
    ("metrics.series", "count"),
    ("metrics.snapshot_ms", "ms"),
    ("shard.partition_us_per_session", "us"),
    ("shard.run_ms_max", "ms"),
    ("shard.run_ms_mean", "ms"),
    ("shard.merge_us_per_session", "us"),
    ("shard.sessions_max_over_mean", "ratio"),
    ("control.us_per_request", "us"),
    ("control.events_per_request", "events/request"),
    ("control.peak_agenda", "count"),
    ("serialize.ms", "ms"),
    ("serialize.bytes", "bytes"),
    ("execute.us_per_session", "us"),
    ("execute.unattributed_us_per_session", "us"),
    ("tracing.overhead_frac", "ratio"),
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Declared name.
    pub name: &'static str,
    /// Declared unit.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
}

impl Metric {
    /// A measured value of a catalogued metric.
    ///
    /// # Panics
    /// Panics when `name` is not in the catalogue.
    #[must_use]
    pub fn new(name: &'static str, value: f64) -> Self {
        let unit = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .find(|(n, _)| *n == name)
            .map(|&(_, u)| u)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        Self { name, unit, value }
    }
}

/// What one invocation measured and checked.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Requests offered in checked passes.
    pub attempted: u64,
    /// Requests of passes that errored or failed a check.
    pub failed: u64,
    /// The failed checks.
    pub failures: Vec<String>,
    /// The metrics, in catalogue order.
    pub metrics: Vec<Metric>,
    /// Run-context lines.
    pub context: Vec<String>,
}

impl Outcome {
    /// The share of offered requests in failed passes.
    #[must_use]
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The human-readable block: context, failures, and each metric by
    /// name with its unit.
    #[must_use]
    pub fn render(&self, workload: &str) -> String {
        let mut out = String::new();
        for line in &self.context {
            let _ = writeln!(out, "[{workload}] {line}");
        }
        for f in &self.failures {
            let _ = writeln!(out, "[{workload}] FAILED: {f}");
        }
        let _ = writeln!(
            out,
            "[{workload}] failed_frac {} (ratio): {} of {} requests",
            self.failed_frac(),
            self.failed,
            self.attempted
        );
        for m in &self.metrics {
            let _ = writeln!(out, "[{workload}] {} {} {}", m.name, m.value, m.unit);
        }
        out
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`. A non-finite value makes the run
    /// incorrect and prints as `null`.
    #[must_use]
    pub fn json(&self) -> String {
        let finite = self.metrics.iter().all(|m| m.value.is_finite());
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() {
                    format!("{}", m.value)
                } else {
                    "null".to_string()
                };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct && finite,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
