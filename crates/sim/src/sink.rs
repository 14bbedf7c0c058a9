//! Streaming aggregation of session traces: the [`TraceSink`] fold.
//!
//! A [`crate::trace::SessionTrace`] is small for one client and enormous
//! for a population: every reception of every session, retained until the
//! end of the run, just to compute a dozen summary numbers. Long-horizon
//! sweeps (the adaptive-harmonic and scalable-VoD scales in `PAPERS.md`)
//! are memory-bound on exactly that retention.
//!
//! [`TraceSink`] decouples *producing* sessions from *retaining* them:
//! the simulation hands each finished trace to a sink and drops it. Two
//! sinks cover the two consumers:
//!
//! * [`StreamingFold`] — incremental aggregation. Keeps scalar
//!   accumulators plus one `f64` latency per session (for exact
//!   percentiles), never a reception list. That buffer is not the run's
//!   whole memory: `SystemSim::execute` also keeps its report's own
//!   latency buffer and, because every arrival is scheduled up front,
//!   one agenda entry per request — about 62 bytes of peak RSS per
//!   request on perfbench's `sb-grid` workload.
//! * [`CollectTraces`] — the materializing path. Retains every trace,
//!   because packet-level [`crate::e2e`] replay and fault re-injection
//!   need the full reception lists.
//!
//! The two must agree **bitwise**: [`CollectTraces::summarize`] performs
//! the same floating-point operations in the same (arrival) order as the
//! fold, so `StreamingFold::finish()` and a post-hoc summary of the
//! collected traces serialize to identical bytes. A test in this module
//! and the cross-model suite in `tests/` pin that equivalence — it is
//! what lets experiments switch to the streaming path without changing a
//! single published number.

use serde::{Deserialize, Serialize};
use vod_units::{Mbits, Minutes};

use crate::faults::StallReport;
use crate::trace::{SessionTrace, SweepScratch};

/// Consumes finished session traces one at a time, in arrival order.
///
/// Implementations must not assume the trace outlives the call — the
/// caller is free to drop it immediately afterwards (that is the point).
pub trait TraceSink {
    /// Accept one finished session.
    fn accept(&mut self, trace: &SessionTrace);

    /// Accept one session replayed under losses. The default folds the
    /// repaired trace and ignores the stall bookkeeping; statistics sinks
    /// override to account stall time and truncation too.
    fn accept_stalls(&mut self, report: &StallReport) {
        self.accept(&report.trace);
    }
}

/// A sink that drops everything — the zero-cost default.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn accept(&mut self, _trace: &SessionTrace) {}
}

/// Aggregate statistics over a population of sessions: the summary both
/// the streaming and the materializing paths produce.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionSummary {
    /// Sessions folded.
    pub sessions: usize,
    /// Mean startup latency.
    pub mean_latency: Minutes,
    /// Median (p50) startup latency.
    pub p50_latency: Minutes,
    /// 95th-percentile startup latency.
    pub p95_latency: Minutes,
    /// Worst startup latency.
    pub worst_latency: Minutes,
    /// Worst per-session peak buffer.
    pub worst_buffer: Mbits,
    /// Total payload received across all sessions (the bandwidth side).
    pub total_received: Mbits,
    /// Total playback minutes delivered.
    pub delivered_minutes: Minutes,
    /// Largest per-session concurrent reception count.
    pub max_streams: usize,
    /// Total stall (frozen playback) minutes, when folded via
    /// [`TraceSink::accept_stalls`].
    pub stall_minutes: Minutes,
    /// Number of individual stalls.
    pub stalls: usize,
    /// Sessions whose loss repair gave up on at least one reception.
    pub truncated_sessions: usize,
}

/// Exact percentile over sorted latencies, the same nearest-rank rule
/// [`crate::system::SystemReport`] uses.
fn percentile(sorted: &[f64], q: f64) -> Minutes {
    if sorted.is_empty() {
        Minutes(0.0)
    } else {
        let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
        Minutes(sorted[idx])
    }
}

/// The streaming fold: constant state per statistic plus one `f64` per
/// session for exact percentiles. Never retains a trace.
#[derive(Debug, Default, Clone)]
pub struct StreamingFold {
    sessions: usize,
    latency_sum: f64,
    latencies: Vec<f64>,
    worst_latency: f64,
    worst_buffer: f64,
    total_received: f64,
    delivered: f64,
    max_streams: usize,
    stall_minutes: f64,
    stalls: usize,
    truncated_sessions: usize,
    /// Buffers [`TraceSink::accept`]'s one-pass measurement reuses; not
    /// part of the fold's state (never frozen).
    scratch: SweepScratch,
}

impl StreamingFold {
    /// An empty fold.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty fold with room for `sessions` latencies, so the
    /// percentile buffer never regrows.
    pub(crate) fn with_capacity(sessions: usize) -> Self {
        Self {
            latencies: Vec::with_capacity(sessions),
            ..Self::default()
        }
    }

    /// Sessions folded so far.
    #[must_use]
    pub fn sessions(&self) -> usize {
        self.sessions
    }

    /// Fold one session from its pre-extracted scalars — exactly the
    /// operations [`TraceSink::accept`] performs, in the same order.
    ///
    /// `SystemSim::execute` feeds its own fold only through here, with
    /// the scalars it measured once per session; the sharded runner
    /// captures the same scalars inside each shard and replays them in
    /// global engine order, which is what makes an `S`-shard fold
    /// bitwise identical to the one-shard fold (see `sim::shard`).
    pub fn fold_scalars(
        &mut self,
        latency: f64,
        peak_buffer: f64,
        total_received: f64,
        delivered: f64,
        max_streams: usize,
    ) {
        self.sessions += 1;
        self.latency_sum += latency;
        self.latencies.push(latency);
        self.worst_latency = self.worst_latency.max(latency);
        self.worst_buffer = self.worst_buffer.max(peak_buffer);
        self.total_received += total_received;
        self.delivered += delivered;
        self.max_streams = self.max_streams.max(max_streams);
    }

    /// Export the fold's accumulators as a [`FoldState`] — the
    /// checkpoint form. `StreamingFold::thaw(fold.freeze())` continues
    /// folding exactly where `fold` stood, bit for bit: the float sums
    /// keep their association, the percentile buffer its order.
    #[must_use]
    pub fn freeze(&self) -> FoldState {
        FoldState {
            sessions: self.sessions,
            latency_sum: self.latency_sum,
            latencies: self.latencies.clone(),
            worst_latency: self.worst_latency,
            worst_buffer: self.worst_buffer,
            total_received: self.total_received,
            delivered: self.delivered,
            max_streams: self.max_streams,
            stall_minutes: self.stall_minutes,
            stalls: self.stalls,
            truncated_sessions: self.truncated_sessions,
        }
    }

    /// Rebuild a fold from a [`FoldState`] (see [`StreamingFold::freeze`]).
    #[must_use]
    pub fn thaw(state: FoldState) -> Self {
        Self {
            sessions: state.sessions,
            latency_sum: state.latency_sum,
            latencies: state.latencies,
            worst_latency: state.worst_latency,
            worst_buffer: state.worst_buffer,
            total_received: state.total_received,
            delivered: state.delivered,
            max_streams: state.max_streams,
            stall_minutes: state.stall_minutes,
            stalls: state.stalls,
            truncated_sessions: state.truncated_sessions,
            scratch: SweepScratch::default(),
        }
    }

    /// Finish the fold into a [`SessionSummary`].
    #[must_use]
    pub fn finish(&self) -> SessionSummary {
        let mut sorted = self.latencies.clone();
        sorted.sort_by(f64::total_cmp);
        self.summary(&sorted)
    }

    /// [`StreamingFold::finish`] for a fold the caller owns: sorts the
    /// latencies in place instead of sorting a copy.
    pub(crate) fn into_summary(mut self) -> SessionSummary {
        let mut sorted = std::mem::take(&mut self.latencies);
        sorted.sort_by(f64::total_cmp);
        self.summary(&sorted)
    }

    /// The summary over `sorted`, this fold's latencies in sorted order.
    fn summary(&self, sorted: &[f64]) -> SessionSummary {
        SessionSummary {
            sessions: self.sessions,
            mean_latency: Minutes(if self.sessions > 0 {
                self.latency_sum / self.sessions as f64
            } else {
                0.0
            }),
            p50_latency: percentile(sorted, 0.5),
            p95_latency: percentile(sorted, 0.95),
            worst_latency: Minutes(self.worst_latency),
            worst_buffer: Mbits(self.worst_buffer),
            total_received: Mbits(self.total_received),
            delivered_minutes: Minutes(self.delivered),
            max_streams: self.max_streams,
            stall_minutes: Minutes(self.stall_minutes),
            stalls: self.stalls,
            truncated_sessions: self.truncated_sessions,
        }
    }
}

/// The exported accumulators of a [`StreamingFold`], as plain public
/// fields so the checkpoint encoder can serialize them bit-exactly (the
/// fold itself keeps its fields private — only freeze/thaw move state in
/// and out wholesale).
#[derive(Debug, Clone, PartialEq)]
pub struct FoldState {
    /// Sessions folded.
    pub sessions: usize,
    /// Running latency sum (association-sensitive: restored verbatim).
    pub latency_sum: f64,
    /// Per-session latencies for exact percentiles, in fold order.
    pub latencies: Vec<f64>,
    /// Worst latency so far.
    pub worst_latency: f64,
    /// Worst per-session peak buffer so far.
    pub worst_buffer: f64,
    /// Running total payload received.
    pub total_received: f64,
    /// Running playback minutes delivered.
    pub delivered: f64,
    /// Largest per-session concurrent reception count so far.
    pub max_streams: usize,
    /// Running stall minutes.
    pub stall_minutes: f64,
    /// Stalls counted.
    pub stalls: usize,
    /// Truncated sessions counted.
    pub truncated_sessions: usize,
}

impl TraceSink for StreamingFold {
    fn accept(&mut self, trace: &SessionTrace) {
        let m = trace.sweep_scalars(&mut self.scratch);
        self.fold_scalars(
            trace.startup_latency().value(),
            m.peak_buffer.value(),
            m.total_received.value(),
            m.playback_end.value() - trace.playback_start.value(),
            m.max_concurrent_receptions,
        );
    }

    fn accept_stalls(&mut self, report: &StallReport) {
        self.accept(&report.trace);
        self.stall_minutes += report.total_stall().value();
        self.stalls += report.stalls.len();
        if report.is_truncated() {
            self.truncated_sessions += 1;
        }
    }
}

/// The materializing sink: retains every trace (and stall report) whole,
/// for consumers that need the full reception lists — packet-level
/// [`crate::e2e`] replay, fault re-injection, trace serialization.
#[derive(Debug, Default, Clone)]
pub struct CollectTraces {
    /// Every accepted trace, in arrival order (repaired traces for
    /// sessions folded via [`TraceSink::accept_stalls`]).
    pub traces: Vec<SessionTrace>,
    /// Stall reports for the sessions that came with one, in arrival
    /// order. `(index into traces, stall minutes, stall count, truncated)`
    /// stays implicit: the report's trace is also in `traces`.
    pub stall_reports: Vec<StallReport>,
}

impl CollectTraces {
    /// An empty collector.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Summarize the retained traces post hoc — the materializing
    /// counterpart of [`StreamingFold::finish`]. Performs the identical
    /// floating-point operations in the identical order, so the result is
    /// **bitwise** equal to the streaming fold over the same sessions.
    #[must_use]
    pub fn summarize(&self) -> SessionSummary {
        let sessions = self.traces.len();
        let latencies: Vec<f64> = self
            .traces
            .iter()
            .map(|t| t.startup_latency().value())
            .collect();
        // Explicit 0.0-seeded folds, not `Iterator::sum` (which seeds
        // with -0.0): the streaming accumulators start at 0.0, and the
        // two paths must match bitwise even on empty input.
        let latency_sum: f64 = latencies.iter().fold(0.0, |a, &l| a + l);
        let mut sorted = latencies.clone();
        sorted.sort_by(f64::total_cmp);
        SessionSummary {
            sessions,
            mean_latency: Minutes(if sessions > 0 {
                latency_sum / sessions as f64
            } else {
                0.0
            }),
            p50_latency: percentile(&sorted, 0.5),
            p95_latency: percentile(&sorted, 0.95),
            worst_latency: Minutes(latencies.iter().fold(0.0f64, |a, &l| a.max(l))),
            worst_buffer: Mbits(
                self.traces
                    .iter()
                    .fold(0.0f64, |a, t| a.max(t.peak_buffer().value())),
            ),
            total_received: Mbits(
                self.traces
                    .iter()
                    .fold(0.0, |a, t| a + t.total_received().value()),
            ),
            delivered_minutes: Minutes(self.traces.iter().fold(0.0, |a, t| {
                a + (t.playback_end().value() - t.playback_start.value())
            })),
            max_streams: self
                .traces
                .iter()
                .fold(0usize, |a, t| a.max(t.max_concurrent_receptions())),
            stall_minutes: Minutes(
                self.stall_reports
                    .iter()
                    .fold(0.0, |a, r| a + r.total_stall().value()),
            ),
            stalls: self.stall_reports.iter().map(|r| r.stalls.len()).sum(),
            truncated_sessions: self
                .stall_reports
                .iter()
                .filter(|r| r.is_truncated())
                .count(),
        }
    }
}

impl TraceSink for CollectTraces {
    fn accept(&mut self, trace: &SessionTrace) {
        self.traces.push(trace.clone());
    }

    fn accept_stalls(&mut self, report: &StallReport) {
        self.traces.push(report.trace.clone());
        self.stall_reports.push(report.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{apply_losses, LossModel};
    use crate::policy::ClientPolicy;
    use crate::trace::ClientModel;
    use sb_core::config::SystemConfig;
    use sb_core::plan::VideoId;
    use sb_core::scheme::BroadcastScheme;
    use sb_core::series::Width;
    use sb_core::Skyscraper;
    use vod_units::Mbps;

    fn traces() -> (sb_core::plan::ChannelPlan, Vec<SessionTrace>) {
        let cfg = SystemConfig::paper_defaults(Mbps(300.0));
        let plan = Skyscraper::with_width(Width::Capped(52))
            .plan(&cfg)
            .unwrap();
        let traces = (0..40)
            .map(|i| {
                ClientPolicy::LatestFeasible
                    .session(
                        &plan,
                        VideoId(0),
                        Minutes(0.37 * i as f64),
                        cfg.display_rate,
                    )
                    .unwrap()
            })
            .collect();
        (plan, traces)
    }

    #[test]
    fn streaming_equals_materializing_bitwise() {
        let (_, ts) = traces();
        let mut fold = StreamingFold::new();
        let mut collect = CollectTraces::new();
        for t in &ts {
            fold.accept(t);
            collect.accept(t);
        }
        let a = fold.finish();
        let b = collect.summarize();
        assert_eq!(a, b);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "summaries must serialize to identical bytes"
        );
        assert_eq!(a.sessions, 40);
        assert!(a.worst_latency.value() > 0.0);
        assert!(a.total_received.value() > 0.0);
    }

    #[test]
    fn stall_accounting_folds_identically() {
        let (plan, ts) = traces();
        let losses = LossModel::new(0.2, 7).unwrap();
        let mut fold = StreamingFold::new();
        let mut collect = CollectTraces::new();
        for t in &ts {
            let report = apply_losses(&plan, t, &losses);
            fold.accept_stalls(&report);
            collect.accept_stalls(&report);
        }
        let a = fold.finish();
        let b = collect.summarize();
        assert_eq!(a, b);
        assert!(a.stalls > 0, "20% loss must stall someone");
        assert!(a.stall_minutes.value() > 0.0);
        assert_eq!(collect.traces.len(), 40);
        assert_eq!(collect.stall_reports.len(), 40);
    }

    #[test]
    fn fold_freeze_thaw_resumes_bit_for_bit() {
        let (plan, ts) = traces();
        let losses = LossModel::new(0.2, 7).unwrap();
        let mut whole = StreamingFold::new();
        let mut prefix = StreamingFold::new();
        for (i, t) in ts.iter().enumerate() {
            let report = apply_losses(&plan, t, &losses);
            whole.accept_stalls(&report);
            if i < 17 {
                prefix.accept_stalls(&report);
            }
        }
        let mut resumed = StreamingFold::thaw(prefix.freeze());
        for t in ts.iter().skip(17) {
            let report = apply_losses(&plan, t, &losses);
            resumed.accept_stalls(&report);
        }
        assert_eq!(whole.finish(), resumed.finish());
        assert_eq!(
            serde_json::to_string(&whole.finish()).unwrap(),
            serde_json::to_string(&resumed.finish()).unwrap()
        );
        assert_eq!(resumed.sessions(), 40);
    }

    #[test]
    fn empty_fold_is_well_defined() {
        let a = StreamingFold::new().finish();
        let b = CollectTraces::new().summarize();
        assert_eq!(a, b);
        assert_eq!(a.sessions, 0);
        assert_eq!(a.mean_latency, Minutes(0.0));
        assert_eq!(a.stalls, 0);
    }

    #[test]
    fn null_sink_accepts_everything() {
        let (_, ts) = traces();
        let mut sink = NullSink;
        for t in &ts {
            sink.accept(t);
        }
    }
}
