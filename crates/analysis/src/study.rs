//! The [`Study`] trait and registry: one dispatch surface for every
//! study this crate ships.
//!
//! Before this module existed, `sbcast` and the `sb-bench` binaries
//! each hand-rolled an entry point per study — nine nearly identical
//! flag-parse / run / render / write-artifact stanzas. A [`Study`] now
//! owns all of that behind five methods:
//!
//! * [`Study::name`] — the subcommand spelling (`sweep`, `frontier`, …),
//! * [`Study::keys`] — the flags the study reads, so a front end can
//!   reject any other flag before the study runs,
//! * [`Study::artifact`] — the default `BENCH_*.json` path, when the
//!   study emits one unconditionally,
//! * [`Study::sharded`] — whether `--shards > 1` is meaningful,
//! * [`Study::run`] — flags in ([`StudyCtx`]), results out
//!   ([`StudyOutput`]).
//!
//! The CLI resolves a subcommand with [`find`], runs it, prints
//! [`StudyOutput::rendered`] to stdout and writes
//! [`StudyOutput::report_json`] to the artifact path — so stdout and the
//! JSON stay byte-identical with the pre-registry binaries, flag
//! spellings, defaults and error strings included. Wall-clock rates come
//! from [`StudyOutput::sessions`] / [`StudyOutput::events`] and go to
//! stderr only.
//!
//! Two subcommands keep a non-study half outside the registry: `hybrid`
//! without `--rates` (the single-server report) and `recovery --mode
//! run` (one supervised run under an explicit chaos script). Their study
//! halves (`--rates`, `--mode sweep`) dispatch through here like
//! everything else.

use std::collections::BTreeMap;

use sb_batching::BatchPolicy;
use sb_control::ControlConfig;
use sb_core::series::Width;
use sb_metrics::Snapshot;
use sb_resilience::{ChannelOutage, FaultScript};
use sb_workload::{PlacementPolicy, ScenarioPreset};
use vod_units::{Mbps, Minutes};

use crate::control_study::{render_shift_study, shift_study, ShiftStudyConfig};
use crate::distribution_study::{distribution_study, render_distribution, DistributionStudyConfig};
use crate::frontier::{frontier_report, render_frontier, FrontierConfig};
use crate::lineup::schemes_from;
use crate::recovery_study::{recovery_study, render_recovery, RecoveryConfig};
use crate::render::render_figure;
use crate::resilience_study::{render_resilience_study, resilience_study, ResilienceStudyConfig};
use crate::runner::{run_experiment, Experiment, Runner};
use crate::scale_study::{render_scale, scale_study, ScaleConfig};
use crate::scenario_study::{render_scenario, scenario_study, ScenarioStudyConfig};
use crate::throughput::{render_throughput, throughput_study, ThroughputConfig};
use crate::{figures, hybrid_study};

/// The `--key value` flag map a study parses its configuration from.
///
/// Lookups mirror the CLI's historical parser bit-for-bit: the same
/// defaults-on-absence behaviour and the same error strings
/// (`--{key}: bad number `{v}``, `--{key}: bad integer `{v}``), so
/// moving the parse into the studies changed no user-visible message.
#[derive(Debug, Clone, Default)]
pub struct StudyOpts(BTreeMap<String, String>);

impl StudyOpts {
    /// Build from any `(key, value)` pairs (keys without the `--`).
    pub fn from_pairs<I, K, V>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (K, V)>,
        K: Into<String>,
        V: Into<String>,
    {
        Self(
            pairs
                .into_iter()
                .map(|(k, v)| (k.into(), v.into()))
                .collect(),
        )
    }

    /// Set one flag, replacing any previous value.
    pub fn set(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.0.insert(key.into(), value.into());
    }

    /// The raw value of `--{key}`, if given.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&str> {
        self.0.get(key).map(String::as_str)
    }

    /// `--{key}` as an `f64`, or `default` when absent.
    ///
    /// # Errors
    /// `--{key}: bad number `{v}`` when the value does not parse.
    pub fn get_f64(&self, key: &str, default: f64) -> Result<f64, String> {
        match self.0.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: bad number `{v}`")),
        }
    }

    /// `--{key}` as a `usize`, or `default` when absent.
    ///
    /// # Errors
    /// `--{key}: bad integer `{v}`` when the value does not parse.
    pub fn get_usize(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.0.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: bad integer `{v}`")),
        }
    }

    /// `--{key}` as a string, or `default` when absent.
    #[must_use]
    pub fn get_str(&self, key: &str, default: &str) -> String {
        self.0
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }
}

/// Everything a [`Study`] receives from its caller: the flag map plus
/// the execution knobs the common `--threads` / `--shards` / `--seed`
/// parser already validated.
pub struct StudyCtx<'a> {
    /// Study-specific flags (never the execution knobs).
    pub opts: &'a StudyOpts,
    /// Shard count for sharded studies (validated ≥ 1; 1 otherwise).
    pub shards: usize,
    /// `--seed`, when given; each study applies its own default.
    pub seed: Option<u64>,
    /// The worker pool, already sized to the requested thread count.
    pub runner: &'a Runner,
}

/// What a [`Study`] produced. Everything deterministic lives here;
/// wall-clock is the caller's business.
#[derive(Debug)]
pub struct StudyOutput {
    /// The plain-text report, exactly what goes to stdout.
    pub rendered: String,
    /// The structured report as pretty JSON — the bytes of the
    /// `BENCH_*.json` artifact (or of `--json` for artifact-less
    /// studies).
    pub report_json: String,
    /// The metrics snapshot, for studies instrumented with one
    /// (`--metrics <path>` writes it).
    pub metrics: Option<Snapshot>,
    /// Sessions the study simulated, denominating the stderr wall-clock
    /// rate (0 when a rate would be meaningless).
    pub sessions: usize,
    /// Engine events the study fired, same purpose.
    pub events: u64,
}

impl StudyOutput {
    /// Package a report: render text + serialize JSON in one step.
    fn of<T: serde::Serialize>(rendered: String, report: &T) -> Result<Self, String> {
        Ok(Self {
            rendered,
            report_json: serde_json::to_string_pretty(report).map_err(|e| e.to_string())?,
            metrics: None,
            sessions: 0,
            events: 0,
        })
    }

    /// Attach a metrics snapshot.
    fn with_metrics(mut self, snapshot: Snapshot) -> Self {
        self.metrics = Some(snapshot);
        self
    }

    /// Attach the wall-clock denominators.
    fn with_rates(mut self, sessions: usize, events: u64) -> Self {
        self.sessions = sessions;
        self.events = events;
        self
    }
}

/// One study: a named, self-describing flag-parse / run / render unit
/// every front end (CLI subcommand, bench binary) dispatches through.
pub trait Study: Sync {
    /// The subcommand spelling (`sweep`, `scale`, `distribution`, …).
    fn name(&self) -> &'static str;

    /// The default artifact path when the study always writes one
    /// (`BENCH_*.json`); `None` means JSON only goes where `--json`
    /// points.
    fn artifact(&self) -> Option<&'static str> {
        None
    }

    /// The study-specific flags [`Study::run`] reads (keys without the
    /// `--`). Front ends reject any other key, apart from the common
    /// execution flags, before the study runs.
    fn keys(&self) -> &'static [&'static str];

    /// Whether `--shards > 1` is meaningful for this study. Non-sharded
    /// studies reject the flag instead of silently ignoring it.
    fn sharded(&self) -> bool {
        false
    }

    /// Parse flags from the context and run.
    ///
    /// # Errors
    /// A CLI-facing message: a flag that does not parse, an out-of-range
    /// configuration, or a study failure.
    fn run(&self, ctx: &StudyCtx<'_>) -> Result<StudyOutput, String>;
}

/// Parse a comma-separated list, with the CLI's `bad {what} `{t}``
/// message on the first token that does not parse.
fn parse_csv<T: std::str::FromStr>(spec: &str, what: &str) -> Result<Vec<T>, String> {
    spec.split(',')
        .map(|t| t.trim().parse().map_err(|_| format!("bad {what} `{t}`")))
        .collect()
}

/// Resolve `--profile paper|smoke` into a config via the two
/// constructors, with the shared error message.
fn parse_profile<T>(
    opts: &StudyOpts,
    paper: impl FnOnce() -> T,
    smoke: impl FnOnce() -> T,
) -> Result<T, String> {
    match opts.get_str("profile", "paper").as_str() {
        "paper" => Ok(paper()),
        "smoke" => Ok(smoke()),
        other => Err(format!(
            "--profile: expected `smoke` or `paper`, got `{other}`"
        )),
    }
}

/// Parse the admission-backoff flags shared by `control`, `resilience`
/// and `recovery --mode run`: `--retry <base-minutes>` enables deferral;
/// `--retry-factor` (default 2) and `--retry-attempts` (default 5) shape
/// the exponential schedule.
///
/// # Errors
/// `--retry: bad number `{v}`` (and the usual messages for the other two
/// flags), or the backoff constructor's own validation error.
pub fn parse_backoff(opts: &StudyOpts) -> Result<Option<sb_control::Backoff>, String> {
    let Some(base) = opts.get("retry") else {
        return Ok(None);
    };
    let base: f64 = base
        .parse()
        .map_err(|_| format!("--retry: bad number `{base}`"))?;
    let factor = opts.get_f64("retry-factor", 2.0)?;
    let attempts = opts.get_usize("retry-attempts", 5)? as u32;
    sb_control::Backoff::new(Minutes(base), factor, attempts)
        .map(Some)
        .map_err(|e| e.to_string())
}

/// The bandwidth sweep behind Figures 6/7/8 plus the analytic-vs-simulated
/// crosscheck.
struct SweepStudy;

impl Study for SweepStudy {
    fn name(&self) -> &'static str {
        "sweep"
    }

    fn keys(&self) -> &'static [&'static str] {
        &["from", "to", "step", "samples", "scheme"]
    }

    fn run(&self, ctx: &StudyCtx<'_>) -> Result<StudyOutput, String> {
        let o = ctx.opts;
        let from = o.get_f64("from", 100.0)?;
        let to = o.get_f64("to", 600.0)?;
        let step = o.get_f64("step", 20.0)?;
        let samples = o.get_usize("samples", 24)?;
        let seed = ctx.seed.unwrap_or(0);
        let ids = schemes_from(&o.get_str("scheme", "all"))?;
        if !(step > 0.0 && to >= from) {
            return Err(format!("bad sweep range: from {from} to {to} step {step}"));
        }
        let exp = Experiment::over_range("sweep", ids.clone(), from, to, step).with_seed(seed);
        let report = run_experiment(&exp, Minutes(15.0), samples, ctx.runner);
        let mut rendered = String::new();
        for (fig, name) in [
            (figures::figure7(&report.rows, &ids), "latency"),
            (figures::figure6(&report.rows, &ids), "disk bandwidth"),
            (figures::figure8(&report.rows, &ids), "storage"),
        ] {
            rendered.push_str(&format!("--- {name} ---\n"));
            rendered.push_str(&render_figure(&fig));
            rendered.push('\n');
        }
        if !report.checks.is_empty() {
            let worst_latency = report
                .checks
                .iter()
                .map(crate::crosscheck::CrossCheck::latency_ratio)
                .fold(0.0f64, f64::max);
            let worst_buffer = report
                .checks
                .iter()
                .map(crate::crosscheck::CrossCheck::buffer_ratio)
                .fold(0.0f64, f64::max);
            rendered.push_str(&format!(
                "--- crosscheck: {} (scheme, bandwidth) points × {samples} simulated arrivals (seed {seed}) ---\n",
                report.checks.len()
            ));
            rendered.push_str(&format!(
                "worst simulated/analytic latency ratio: {worst_latency:.4} (must be <= 1)\n"
            ));
            rendered.push_str(&format!(
                "worst simulated/analytic buffer  ratio: {worst_buffer:.4} (must be <= 1)\n"
            ));
        }
        StudyOutput::of(rendered, &report)
    }
}

/// `hybrid --rates …`: hybrid vs pure batching over a list of arrival
/// rates (the flag-less single-server report stays in the CLI).
struct HybridStudy;

impl Study for HybridStudy {
    fn name(&self) -> &'static str {
        "hybrid"
    }

    fn keys(&self) -> &'static [&'static str] {
        &[
            "rates",
            "bandwidth",
            "titles",
            "popular",
            "horizon",
            "width",
        ]
    }

    fn run(&self, ctx: &StudyCtx<'_>) -> Result<StudyOutput, String> {
        let o = ctx.opts;
        let spec = o.get("rates").ok_or_else(|| {
            "hybrid study mode needs --rates r1,r2,… (run without --rates for the single-server report)"
                .to_string()
        })?;
        let rates: Vec<f64> = parse_csv(spec, "rate")?;
        let b = o.get_f64("bandwidth", 600.0)?;
        let titles = o.get_usize("titles", 60)?;
        let popular = o.get_usize("popular", 10)?;
        let horizon = o.get_f64("horizon", 600.0)?;
        let width = o.get_usize("width", 52)? as u64;
        let cfg = hybrid_study::StudyConfig {
            titles,
            popular,
            bandwidth: Mbps(b),
            width,
            broadcast_fraction: 0.5,
            horizon: Minutes(horizon),
            mean_patience: Minutes(8.0),
            seed: ctx.seed.unwrap_or(42),
        };
        let points = hybrid_study::throughput_study_with(cfg, &rates, ctx.runner);
        let mut rendered = format!(
            "hybrid vs pure batching: {titles} titles, {popular} broadcast, B = {b} Mb/s\n"
        );
        rendered.push_str(&format!(
            "{:>8} {:>9} {:>11} {:>12} {:>13} {:>14}\n",
            "rate/min", "requests", "pure served", "pure renege", "hybrid served", "hybrid renege"
        ));
        for p in &points {
            rendered.push_str(&format!(
                "{:>8.1} {:>9} {:>11} {:>11.1}% {:>13} {:>13.1}%\n",
                p.rate_per_minute,
                p.requests,
                p.pure_served,
                p.pure_renege_rate * 100.0,
                p.hybrid_served,
                p.hybrid_renege_rate * 100.0
            ));
        }
        if let Some(first) = points.first() {
            rendered.push_str(&format!(
                "broadcast worst latency (rate-independent): {:.3}\n",
                first.broadcast_worst_latency
            ));
        }
        StudyOutput::of(rendered, &points)
    }
}

/// Static vs dynamic channel control under a popularity shift.
struct ControlStudy;

impl Study for ControlStudy {
    fn name(&self) -> &'static str {
        "control"
    }

    fn keys(&self) -> &'static [&'static str] {
        &[
            "titles",
            "popular",
            "bandwidth",
            "fraction",
            "width",
            "tick",
            "half-life",
            "hysteresis",
            "ceiling",
            "retry",
            "retry-factor",
            "retry-attempts",
            "rate",
            "horizon",
            "shift-at",
            "rotate",
            "patience",
            "seeds",
        ]
    }

    fn run(&self, ctx: &StudyCtx<'_>) -> Result<StudyOutput, String> {
        let o = ctx.opts;
        let titles = o.get_usize("titles", 40)?;
        let control = ControlConfig {
            titles,
            hot_slots: o.get_usize("popular", 8)?,
            total_bandwidth: Mbps(o.get_f64("bandwidth", 300.0)?),
            broadcast_fraction: o.get_f64("fraction", 0.6)?,
            width: Width::capped_lossy(o.get_usize("width", 52)? as u64),
            batch: BatchPolicy::Mql,
            tick: Minutes(o.get_f64("tick", 15.0)?),
            half_life: Minutes(o.get_f64("half-life", 45.0)?),
            hysteresis: o.get_f64("hysteresis", 0.1)?,
            admission_ceiling: o.get_f64("ceiling", 3.0)?,
            admission_retry: parse_backoff(o)?,
        };
        let cfg = ShiftStudyConfig {
            control,
            rate: o.get_f64("rate", 6.0)?,
            horizon: Minutes(o.get_f64("horizon", 600.0)?),
            shift_at: Minutes(o.get_f64("shift-at", 150.0)?),
            rotate: o.get_usize("rotate", titles / 2)?,
            mean_patience: Minutes(o.get_f64("patience", 45.0)?),
            seeds: parse_csv(&o.get_str("seeds", "11,23,47"), "seed")?,
        };
        let (study, snapshot) = shift_study(&cfg, ctx.runner).map_err(|e| e.to_string())?;
        Ok(StudyOutput::of(render_shift_study(&study), &study)?.with_metrics(snapshot))
    }
}

/// The fault study: schemes under bursty loss/outages and the control
/// plane's recovery.
struct ResilienceStudy;

impl Study for ResilienceStudy {
    fn name(&self) -> &'static str {
        "resilience"
    }

    fn keys(&self) -> &'static [&'static str] {
        &[
            "bandwidth",
            "horizon",
            "samples",
            "burst-len",
            "loss-rates",
            "seeds",
            "outage-channel",
            "outage-start",
            "outage-duration",
            "rate",
            "patience",
            "retry",
            "retry-factor",
            "retry-attempts",
        ]
    }

    fn run(&self, ctx: &StudyCtx<'_>) -> Result<StudyOutput, String> {
        let o = ctx.opts;
        let mut cfg = ResilienceStudyConfig::paper_defaults();
        cfg.bandwidth = Mbps(o.get_f64("bandwidth", 320.0)?);
        cfg.horizon = Minutes(o.get_f64("horizon", 200.0)?);
        cfg.samples = o.get_usize("samples", 24)?;
        cfg.burst_len = o.get_f64("burst-len", 4.0)?;
        if let Some(spec) = o.get("loss-rates") {
            cfg.loss_rates = parse_csv(spec, "loss rate")?;
        }
        cfg.seeds = parse_csv(&o.get_str("seeds", "11,23,47"), "seed")?;
        cfg.script = FaultScript {
            outages: vec![ChannelOutage {
                channel: o.get_usize("outage-channel", 0)?,
                start: Minutes(o.get_f64("outage-start", 60.0)?),
                duration: Minutes(o.get_f64("outage-duration", 25.0)?),
            }],
            ..FaultScript::none()
        };
        cfg.rate = o.get_f64("rate", 6.0)?;
        cfg.mean_patience = Minutes(o.get_f64("patience", 45.0)?);
        cfg.control.admission_retry = parse_backoff(o)?;
        let (study, snapshot) = resilience_study(&cfg, ctx.runner).map_err(|e| e.to_string())?;
        Ok(StudyOutput::of(render_resilience_study(&study), &study)?.with_metrics(snapshot))
    }
}

/// Streaming-core throughput plus the agenda-churn compaction stress.
struct ThroughputStudy;

impl Study for ThroughputStudy {
    fn name(&self) -> &'static str {
        "throughput"
    }

    fn keys(&self) -> &'static [&'static str] {
        &["bandwidth", "scheme", "samples", "horizon", "churn-cancels"]
    }

    fn artifact(&self) -> Option<&'static str> {
        Some("BENCH_throughput.json")
    }

    fn run(&self, ctx: &StudyCtx<'_>) -> Result<StudyOutput, String> {
        let o = ctx.opts;
        let mut cfg = ThroughputConfig::paper_defaults();
        cfg.bandwidth = Mbps(o.get_f64("bandwidth", cfg.bandwidth.value())?);
        cfg.schemes = match o.get("scheme") {
            None => cfg.schemes,
            Some(s) => schemes_from(s)?,
        };
        cfg.sessions = o.get_usize("samples", cfg.sessions)?;
        cfg.horizon = Minutes(o.get_f64("horizon", cfg.horizon.value())?);
        cfg.churn_cancels = o.get_usize("churn-cancels", cfg.churn_cancels as usize)? as u64;
        cfg.seed = ctx.seed.unwrap_or(cfg.seed);
        let (report, snapshot) = throughput_study(&cfg, ctx.runner).map_err(|e| e.to_string())?;
        let churn_events = report.churn.engine.fired + report.churn.engine.cancelled;
        let (sessions, events) = (
            report.total_sessions,
            report.total_events_fired + churn_events,
        );
        Ok(StudyOutput::of(render_throughput(&report), &report)?
            .with_metrics(snapshot)
            .with_rates(sessions, events))
    }
}

/// Sharded scale-out: per-shard agenda footprint and sim-time rates.
struct ScaleStudy;

impl Study for ScaleStudy {
    fn name(&self) -> &'static str {
        "scale"
    }

    fn keys(&self) -> &'static [&'static str] {
        &["bandwidth", "sessions", "horizon", "videos"]
    }

    fn artifact(&self) -> Option<&'static str> {
        Some("BENCH_scale.json")
    }

    fn sharded(&self) -> bool {
        true
    }

    fn run(&self, ctx: &StudyCtx<'_>) -> Result<StudyOutput, String> {
        let o = ctx.opts;
        let mut cfg = ScaleConfig::paper_defaults();
        cfg.bandwidth = Mbps(o.get_f64("bandwidth", cfg.bandwidth.value())?);
        cfg.sessions = o.get_usize("sessions", cfg.sessions)?;
        cfg.horizon = Minutes(o.get_f64("horizon", cfg.horizon.value())?);
        cfg.videos = o.get_usize("videos", cfg.videos)?;
        cfg.seed = ctx.seed.unwrap_or(cfg.seed);
        let (report, snapshot) =
            scale_study(&cfg, ctx.shards, ctx.runner).map_err(|e| e.to_string())?;
        // One pass per grid cell plus the flagship: the wall-rate
        // denominator counts what actually streamed.
        let passes = report.cells.len() + 1;
        let (sessions, events) = (
            report.total_sessions * passes,
            report.total_events_fired * passes as u64,
        );
        Ok(StudyOutput::of(render_scale(&report), &report)?
            .with_metrics(snapshot)
            .with_rates(sessions, events))
    }
}

/// The metropolitan scenario pack: regional SB vs baselines, flash
/// crowds, correlated outages.
struct ScenarioStudy;

impl Study for ScenarioStudy {
    fn name(&self) -> &'static str {
        "scenario"
    }

    fn keys(&self) -> &'static [&'static str] {
        &[
            "profile",
            "preset",
            "scheme",
            "rate",
            "horizon",
            "patience",
            "flash-at",
            "flash-boost",
            "outage-start",
            "outage-duration",
        ]
    }

    fn artifact(&self) -> Option<&'static str> {
        Some("BENCH_scenario.json")
    }

    fn sharded(&self) -> bool {
        true
    }

    fn run(&self, ctx: &StudyCtx<'_>) -> Result<StudyOutput, String> {
        let o = ctx.opts;
        let mut cfg = parse_profile(
            o,
            ScenarioStudyConfig::paper_defaults,
            ScenarioStudyConfig::smoke,
        )?;
        cfg.presets = parse_presets(o, cfg.presets)?;
        if let Some(s) = o.get("scheme") {
            cfg.schemes = schemes_from(s)?;
        }
        cfg.rate = o.get_f64("rate", cfg.rate)?;
        cfg.horizon = Minutes(o.get_f64("horizon", cfg.horizon.value())?);
        cfg.mean_patience = Minutes(o.get_f64("patience", cfg.mean_patience.value())?);
        cfg.flash_at = Minutes(o.get_f64("flash-at", cfg.flash_at.value())?);
        cfg.flash_rate_boost = o.get_f64("flash-boost", cfg.flash_rate_boost)?;
        cfg.outage_start = Minutes(o.get_f64("outage-start", cfg.outage_start.value())?);
        cfg.outage_duration = Minutes(o.get_f64("outage-duration", cfg.outage_duration.value())?);
        cfg.seed = ctx.seed.unwrap_or(cfg.seed);
        let (report, snapshot) =
            scenario_study(&cfg, ctx.shards, ctx.runner).map_err(|e| e.to_string())?;
        let (sessions, events) = (report.total_sessions, report.total_events_fired);
        Ok(StudyOutput::of(render_scenario(&report), &report)?
            .with_metrics(snapshot)
            .with_rates(sessions, events))
    }
}

/// Resolve `--preset urban|rural|remote|all` against a profile's default
/// preset list.
fn parse_presets(
    opts: &StudyOpts,
    default: Vec<ScenarioPreset>,
) -> Result<Vec<ScenarioPreset>, String> {
    match opts.get_str("preset", "all").as_str() {
        "all" => Ok(default),
        "urban" => Ok(vec![ScenarioPreset::Urban]),
        "rural" => Ok(vec![ScenarioPreset::Rural]),
        "remote" => Ok(vec![ScenarioPreset::Remote]),
        other => Err(format!(
            "--preset: expected `urban`, `rural`, `remote` or `all`, got `{other}`"
        )),
    }
}

/// `recovery --mode sweep`: the checkpoint-cadence trade under the
/// crash-recovery supervisor (`--mode run` stays in the CLI).
struct RecoveryStudy;

impl Study for RecoveryStudy {
    fn name(&self) -> &'static str {
        "recovery"
    }

    fn keys(&self) -> &'static [&'static str] {
        &[
            "profile",
            "bandwidth",
            "sessions",
            "horizon",
            "titles",
            "kills",
        ]
    }

    fn artifact(&self) -> Option<&'static str> {
        Some("BENCH_recovery.json")
    }

    fn sharded(&self) -> bool {
        true
    }

    fn run(&self, ctx: &StudyCtx<'_>) -> Result<StudyOutput, String> {
        let o = ctx.opts;
        let mut cfg = parse_profile(o, RecoveryConfig::paper_defaults, RecoveryConfig::smoke)?;
        cfg.bandwidth = Mbps(o.get_f64("bandwidth", cfg.bandwidth.value())?);
        cfg.sessions = o.get_usize("sessions", cfg.sessions)?;
        cfg.horizon = Minutes(o.get_f64("horizon", cfg.horizon.value())?);
        cfg.videos = o.get_usize("titles", cfg.videos)?;
        cfg.kills = o.get_usize("kills", cfg.kills)?;
        cfg.seed = ctx.seed.unwrap_or(cfg.seed);
        if ctx.shards > 1 {
            cfg.shards = ctx.shards;
        }
        let report = recovery_study(&cfg, ctx.runner).map_err(|e| e.to_string())?;
        // One baseline pass plus one supervised pass per cadence cell
        // (replays run on top, but they are part of the measurement, not
        // the denominator); events count the sessions chaos replayed.
        let sessions = report.fold.sessions * (report.rows.len() + 1);
        let replayed: u64 = report.rows.iter().map(|r| r.replayed_sessions).sum();
        Ok(StudyOutput::of(render_recovery(&report), &report)?.with_rates(sessions, replayed))
    }
}

/// The scheme-zoo Pareto frontier in latency × client-I/O × buffer.
struct FrontierStudy;

impl Study for FrontierStudy {
    fn name(&self) -> &'static str {
        "frontier"
    }

    fn keys(&self) -> &'static [&'static str] {
        &[
            "profile",
            "bandwidths",
            "catalogs",
            "sessions",
            "horizon",
            "buggy-hb",
        ]
    }

    fn artifact(&self) -> Option<&'static str> {
        Some("BENCH_frontier.json")
    }

    fn sharded(&self) -> bool {
        true
    }

    fn run(&self, ctx: &StudyCtx<'_>) -> Result<StudyOutput, String> {
        let o = ctx.opts;
        let mut cfg = parse_profile(o, FrontierConfig::paper, FrontierConfig::smoke)?;
        if let Some(spec) = o.get("bandwidths") {
            cfg.bandwidths = parse_csv(spec, "bandwidth")?;
        }
        if let Some(spec) = o.get("catalogs") {
            cfg.catalogs = parse_csv(spec, "catalog size")?;
        }
        cfg.sessions = o.get_usize("sessions", cfg.sessions)?;
        cfg.horizon = Minutes(o.get_f64("horizon", cfg.horizon.value())?);
        cfg.include_buggy_hb = o.get_str("buggy-hb", "no") != "no";
        cfg.seed = ctx.seed.unwrap_or(cfg.seed);
        let report = frontier_report(&cfg, ctx.shards, ctx.runner);
        StudyOutput::of(render_frontier(&report), &report)
    }
}

/// The distributed tier: placement policies × peer assist priced against
/// the Viennot source-once bound.
struct DistributionStudy;

impl Study for DistributionStudy {
    fn name(&self) -> &'static str {
        "distribution"
    }

    fn keys(&self) -> &'static [&'static str] {
        &[
            "profile",
            "preset",
            "scheme",
            "policies",
            "rate",
            "horizon",
            "patience",
            "backbone",
            "tail-from",
            "uplink-fraction",
        ]
    }

    fn artifact(&self) -> Option<&'static str> {
        Some("BENCH_distribution.json")
    }

    fn sharded(&self) -> bool {
        true
    }

    fn run(&self, ctx: &StudyCtx<'_>) -> Result<StudyOutput, String> {
        let o = ctx.opts;
        let mut cfg = parse_profile(
            o,
            DistributionStudyConfig::paper_defaults,
            DistributionStudyConfig::smoke,
        )?;
        cfg.presets = parse_presets(o, cfg.presets)?;
        if let Some(s) = o.get("scheme") {
            let ids = schemes_from(s)?;
            if ids.len() != 1 {
                return Err("distribution prices one scheme per run (got `all`)".to_string());
            }
            cfg.scheme = ids[0];
        }
        if let Some(spec) = o.get("policies") {
            cfg.policies = spec
                .split(',')
                .map(|t| {
                    PlacementPolicy::parse(t.trim())
                        .ok_or_else(|| format!("unknown placement policy `{t}`"))
                })
                .collect::<Result<_, _>>()?;
        }
        cfg.rate = o.get_f64("rate", cfg.rate)?;
        cfg.horizon = Minutes(o.get_f64("horizon", cfg.horizon.value())?);
        cfg.mean_patience = Minutes(o.get_f64("patience", cfg.mean_patience.value())?);
        cfg.backbone_mbps = o.get_f64("backbone", cfg.backbone_mbps)?;
        cfg.tail_from = o.get_usize("tail-from", cfg.tail_from)?;
        cfg.uplink_fraction = o.get_f64("uplink-fraction", cfg.uplink_fraction)?;
        cfg.seed = ctx.seed.unwrap_or(cfg.seed);
        let (report, snapshot) =
            distribution_study(&cfg, ctx.shards, ctx.runner).map_err(|e| e.to_string())?;
        let (sessions, events) = (report.total_sessions, report.total_events_fired);
        Ok(StudyOutput::of(render_distribution(&report), &report)?
            .with_metrics(snapshot)
            .with_rates(sessions, events))
    }
}

/// Every registered study, in `sbcast`'s usage order.
#[must_use]
pub fn registry() -> &'static [&'static dyn Study] {
    const REGISTRY: &[&dyn Study] = &[
        &SweepStudy,
        &HybridStudy,
        &ControlStudy,
        &ResilienceStudy,
        &ThroughputStudy,
        &ScaleStudy,
        &ScenarioStudy,
        &RecoveryStudy,
        &FrontierStudy,
        &DistributionStudy,
    ];
    REGISTRY
}

/// Look a study up by its subcommand spelling.
#[must_use]
pub fn find(name: &str) -> Option<&'static dyn Study> {
    registry().iter().copied().find(|s| s.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_artifacts_and_shards() {
        let names: Vec<_> = registry().iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            [
                "sweep",
                "hybrid",
                "control",
                "resilience",
                "throughput",
                "scale",
                "scenario",
                "recovery",
                "frontier",
                "distribution",
            ]
        );
        for s in registry() {
            assert_eq!(find(s.name()).map(Study::name), Some(s.name()));
            if let Some(a) = s.artifact() {
                assert_eq!(a, format!("BENCH_{}.json", s.name()));
            }
        }
        let sharded: Vec<_> = registry()
            .iter()
            .filter(|s| s.sharded())
            .map(|s| s.name())
            .collect();
        assert_eq!(
            sharded,
            ["scale", "scenario", "recovery", "frontier", "distribution"]
        );
        assert!(find("plan").is_none(), "non-study subcommands stay out");
    }

    #[test]
    fn study_keys_are_distinct_and_leave_the_execution_flags_to_the_ctx() {
        for s in registry() {
            let keys = s.keys();
            assert!(!keys.is_empty(), "{}", s.name());
            for (i, k) in keys.iter().enumerate() {
                assert!(!keys[..i].contains(k), "{}: --{k} listed twice", s.name());
                assert!(
                    !["threads", "seed", "shards", "json", "manifest", "metrics"].contains(k),
                    "{}: --{k} arrives through StudyCtx",
                    s.name()
                );
            }
        }
    }

    #[test]
    fn opts_error_strings_match_the_cli() {
        let o = StudyOpts::from_pairs([("rate", "x"), ("samples", "y")]);
        assert_eq!(
            o.get_f64("rate", 1.0).unwrap_err(),
            "--rate: bad number `x`"
        );
        assert_eq!(
            o.get_usize("samples", 1).unwrap_err(),
            "--samples: bad integer `y`"
        );
        assert_eq!(o.get_f64("absent", 2.5).unwrap(), 2.5);
        assert_eq!(o.get_str("absent", "d"), "d");
        assert_eq!(
            parse_csv::<f64>("1,zap", "rate").unwrap_err(),
            "bad rate `zap`"
        );
        assert_eq!(
            parse_profile(&StudyOpts::from_pairs([("profile", "warm")]), || 1, || 2).unwrap_err(),
            "--profile: expected `smoke` or `paper`, got `warm`"
        );
    }

    #[test]
    fn sweep_study_runs_through_the_trait() {
        let opts = StudyOpts::from_pairs([
            ("from", "300"),
            ("to", "300"),
            ("step", "20"),
            ("samples", "2"),
            ("scheme", "SB:W=52"),
        ]);
        let runner = Runner::serial();
        let ctx = StudyCtx {
            opts: &opts,
            shards: 1,
            seed: None,
            runner: &runner,
        };
        let out = find("sweep").unwrap().run(&ctx).unwrap();
        assert!(out.rendered.contains("--- latency ---"));
        assert!(out.rendered.contains("--- crosscheck:"));
        assert!(out.report_json.contains("\"rows\""));
        assert!(out.metrics.is_none());
    }

    #[test]
    fn hybrid_study_requires_rates() {
        let opts = StudyOpts::default();
        let runner = Runner::serial();
        let ctx = StudyCtx {
            opts: &opts,
            shards: 1,
            seed: None,
            runner: &runner,
        };
        let err = find("hybrid").unwrap().run(&ctx).unwrap_err();
        assert!(err.contains("--rates"), "{err}");
    }
}
