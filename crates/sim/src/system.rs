//! Whole-system simulation: many clients against one broadcast plan.
//!
//! Periodic broadcast's selling point (§1) is that server load is
//! *independent of the request rate* — the channels burn the same
//! bandwidth whether one client or a million watch. What varies with load
//! is the client-side picture: how many sessions are active, what startup
//! latencies the population experiences, how much buffer the worst client
//! of the day needed. [`SystemSim`] drives a stream of arrivals through
//! the [`crate::engine`] and aggregates exactly those statistics.
//!
//! The simulation is scheme-agnostic: any [`ClientModel`] — a
//! [`crate::policy::ClientPolicy`] for the tune-at-start schemes, a
//! [`crate::trace::PausingClient`] for PPB's max-saving client, a
//! [`crate::trace::RecordingClient`] for Harmonic Broadcasting — plugs
//! into the same [`SystemSim`], because every model reduces its sessions
//! to the common [`crate::trace::SessionTrace`].

use sb_metrics::{
    HistogramValue, IdLabels, MetricKind, MetricValue, Recorder, Registry, Snapshot,
    DEFAULT_BUCKETS,
};
use serde::{Deserialize, Serialize};
use vod_units::{Mbits, Mbps, Minutes, TickScale, Ticks};

use sb_core::plan::{ChannelPlan, PlanIndex, VideoId};

use crate::agenda::AgendaKind;
use crate::engine::Engine;
use crate::policy::PolicyError;
use crate::shard::SessionScalars;
use crate::sink::{StreamingFold, TraceSink};
use crate::trace::{ClientModel, SweepScratch};

/// One viewer request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Arrival time.
    pub at: Minutes,
    /// Requested video.
    pub video: VideoId,
}

/// Aggregate statistics from a system run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemReport {
    /// Number of sessions served.
    pub sessions: usize,
    /// Mean startup latency over all sessions.
    pub mean_latency: Minutes,
    /// Median (p50) startup latency.
    pub p50_latency: Minutes,
    /// 95th-percentile startup latency.
    pub p95_latency: Minutes,
    /// Worst startup latency over all sessions.
    pub worst_latency: Minutes,
    /// Worst per-client peak buffer over all sessions.
    pub worst_buffer: Mbits,
    /// Largest number of simultaneously active sessions.
    pub peak_active_sessions: usize,
    /// Total client-hours of playback delivered.
    pub delivered_minutes: Minutes,
}

/// Engine events for the system run. `Arrive` carries the request's
/// position in the run's slice so the sharded executor can key captured
/// per-session scalars by a stable index. `Clone`/`Copy` so a pending
/// agenda can be frozen into a checkpoint (see [`crate::checkpoint`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Ev {
    Arrive(usize),
    Finish,
}

/// The mutable accumulators of one simulation core — everything
/// [`SystemSim::handle_event`] updates per event and
/// [`finish_core`] folds into the final [`SystemReport`]. Extracted as a
/// struct (rather than a closure's captured locals) so the checkpointed
/// runner can freeze and restore mid-run state bit-exactly; the
/// statements that mutate it are shared verbatim between the historical
/// `run_core` path and the checkpoint path.
#[derive(Debug, Clone)]
pub(crate) struct CoreState {
    pub(crate) sessions: usize,
    pub(crate) latency_sum: f64,
    pub(crate) latencies: Vec<f64>,
    pub(crate) worst_latency: Minutes,
    pub(crate) worst_buffer: Mbits,
    pub(crate) active: usize,
    pub(crate) peak_active: usize,
    pub(crate) delivered: f64,
    /// The run's `sim_channel_busy_minutes` histograms. A checkpoint
    /// carries them in its metrics snapshot, not in its `core` section.
    pub(crate) busy: ChannelBusy,
    pub(crate) error: Option<PolicyError>,
}

impl CoreState {
    /// Empty accumulators, with room for `sessions` latencies so the
    /// percentile buffer never regrows.
    pub(crate) fn with_capacity(sessions: usize) -> Self {
        Self {
            sessions: 0,
            latency_sum: 0.0,
            latencies: Vec::with_capacity(sessions),
            worst_latency: Minutes(0.0),
            worst_buffer: Mbits::ZERO,
            active: 0,
            peak_active: 0,
            delivered: 0.0,
            busy: ChannelBusy::default(),
            error: None,
        }
    }
}

/// The metric family [`ChannelBusy`] accumulates.
const CHANNEL_BUSY: &str = "sim_channel_busy_minutes";

/// The run's `sim_channel_busy_minutes{channel}` series as one dense
/// histogram per channel id, so a reception costs one indexed
/// [`HistogramValue::observe`] instead of a registry lookup by label.
/// Observed in session order, each histogram holds the very counts and
/// float sum the registry would; [`finish_core`] hands them to the
/// recorder once, through [`Recorder::merge_histogram`]. Slots are
/// boxed: 8 bytes per untouched channel instead of 64, which keeps a
/// receive-all run (5,120 channels on perfbench's `hb-receive-all`) at
/// the registry path's peak RSS.
#[derive(Debug, Clone, Default)]
pub(crate) struct ChannelBusy {
    hists: Vec<Option<Box<HistogramValue>>>,
}

impl ChannelBusy {
    fn observe(&mut self, channel: usize, minutes: f64) {
        if channel >= self.hists.len() {
            self.hists.resize(channel + 1, None);
        }
        self.hists[channel]
            .get_or_insert_with(|| Box::new(HistogramValue::new(&DEFAULT_BUCKETS)))
            .observe(minutes);
    }

    /// Hand each touched channel's histogram to `rec`, in channel order.
    fn record(self, channels: &IdLabels, rec: &mut dyn Recorder) {
        for (id, h) in self.hists.into_iter().enumerate() {
            if let Some(h) = h {
                rec.merge_histogram(CHANNEL_BUSY, &[("channel", channels.get(id))], *h);
            }
        }
    }

    /// `reg`'s snapshot with these series in it — the snapshot an
    /// observe-per-reception registry would hold at this point.
    pub(crate) fn snapshot_with(&self, reg: &Registry, channels: &IdLabels) -> Snapshot {
        let mut snap = reg.snapshot();
        let mut busy = Registry::new();
        self.clone().record(channels, &mut busy);
        snap.merge(&busy.snapshot());
        snap
    }

    /// Move the series out of a decoded checkpoint snapshot, the
    /// inverse of [`ChannelBusy::snapshot_with`]. The bytes are
    /// untrusted: a label that is not a channel of the run's plan in
    /// canonical form, a repeated label, or a histogram whose shape is
    /// not [`DEFAULT_BUCKETS`]' is an error, never a panic later.
    pub(crate) fn take_from(snap: &mut Snapshot, channels: &IdLabels) -> Result<Self, String> {
        let Some(pos) = snap.families.iter().position(|f| f.name == CHANNEL_BUSY) else {
            return Ok(Self::default());
        };
        let family = snap.families.remove(pos);
        if family.kind != MetricKind::Histogram {
            return Err(format!("{CHANNEL_BUSY} is not a histogram family"));
        }
        let mut busy = Self {
            hists: vec![None; channels.len()],
        };
        for s in family.series {
            let id = s
                .labels
                .strip_prefix("channel=")
                .and_then(|text| {
                    let id = text.parse::<usize>().ok()?;
                    (id < channels.len() && channels.get(id) == text).then_some(id)
                })
                .ok_or_else(|| format!("{CHANNEL_BUSY}{{{}}} names no channel", s.labels))?;
            let MetricValue::Histogram(h) = s.value else {
                return Err(format!("{CHANNEL_BUSY}{{{}}} is not a histogram", s.labels));
            };
            let counted = h.counts.iter().try_fold(0u64, |n, &c| n.checked_add(c));
            if h.bounds != DEFAULT_BUCKETS
                || h.counts.len() != DEFAULT_BUCKETS.len() + 1
                || counted != Some(h.count)
            {
                return Err(format!(
                    "{CHANNEL_BUSY}{{{}}} is not a default-bucket histogram",
                    s.labels
                ));
            }
            if busy.hists[id].replace(Box::new(h)).is_some() {
                return Err(format!("{CHANNEL_BUSY}{{{}}} appears twice", s.labels));
            }
        }
        Ok(busy)
    }
}

/// What one run reads for every session besides the event itself: the
/// plan index, the request slice, and the label tables its metric
/// series are keyed by — plus the scratch buffers every session's
/// one-pass measurement reuses, so a warm run allocates none.
pub(crate) struct RunCtx<'a> {
    index: PlanIndex<'a>,
    requests: &'a [Request],
    videos: IdLabels,
    channels: IdLabels,
    scratch: SweepScratch,
}

impl<'a> RunCtx<'a> {
    pub(crate) fn new(plan: &'a ChannelPlan, requests: &'a [Request]) -> Self {
        Self {
            index: plan.index(),
            requests,
            videos: IdLabels::new(plan.num_videos()),
            channels: IdLabels::new(plan.channels.len()),
            scratch: SweepScratch::default(),
        }
    }
}

/// Where a served session goes besides the report and the recorder:
/// the run's own fold (fed the session's scalars), the caller's trace
/// sink (fed the whole trace), and the shard capture.
pub(crate) struct SessionOut<'o> {
    pub(crate) fold: Option<&'o mut StreamingFold>,
    pub(crate) sink: Option<&'o mut dyn TraceSink>,
    pub(crate) capture: Option<&'o mut Vec<SessionScalars>>,
}

/// Close out a run: hand the per-channel busy histograms to the
/// recorder, emit the end-of-run metric events and fold the
/// accumulators into a [`SystemReport`] — the exact statements (and
/// float order) of the historical `run_core` epilogue.
pub(crate) fn finish_core(
    mut state: CoreState,
    stats: crate::engine::EngineStats,
    ctx: &RunCtx<'_>,
    rec: &mut dyn Recorder,
) -> Result<(SystemReport, crate::engine::EngineStats), PolicyError> {
    std::mem::take(&mut state.busy).record(&ctx.channels, rec);
    if let Some(e) = state.error {
        return Err(e);
    }
    rec.gauge_max("sim_peak_active_sessions", &[], state.peak_active as f64);
    for (kind, n) in [
        ("scheduled", stats.scheduled),
        ("fired", stats.fired),
        ("cancelled", stats.cancelled),
    ] {
        rec.incr("engine_events_total", &[("kind", kind)], n);
    }
    state.latencies.sort_by(f64::total_cmp);
    let percentile = |q: f64| -> Minutes {
        if state.latencies.is_empty() {
            Minutes(0.0)
        } else {
            let idx = ((state.latencies.len() as f64 - 1.0) * q).round() as usize;
            Minutes(state.latencies[idx])
        }
    };
    Ok((
        SystemReport {
            sessions: state.sessions,
            mean_latency: Minutes(if state.sessions > 0 {
                state.latency_sum / state.sessions as f64
            } else {
                0.0
            }),
            p50_latency: percentile(0.5),
            p95_latency: percentile(0.95),
            worst_latency: state.worst_latency,
            worst_buffer: state.worst_buffer,
            peak_active_sessions: state.peak_active,
            delivered_minutes: Minutes(state.delivered),
        },
        stats,
    ))
}

/// A many-client simulation over a fixed broadcast plan.
pub struct SystemSim<'a> {
    plan: &'a ChannelPlan,
    display_rate: Mbps,
    model: Box<dyn ClientModel + 'a>,
    scale: TickScale,
}

impl<'a> SystemSim<'a> {
    /// Create a simulation against `plan`, driving clients through any
    /// [`ClientModel`].
    #[must_use]
    pub fn new(plan: &'a ChannelPlan, display_rate: Mbps, model: impl ClientModel + 'a) -> Self {
        Self {
            plan,
            display_rate,
            model: Box::new(model),
            scale: TickScale::default(),
        }
    }

    /// Use a non-default tick resolution.
    #[must_use]
    pub fn with_scale(mut self, scale: TickScale) -> Self {
        self.scale = scale;
        self
    }

    /// The one simulation core every public entry point funnels into.
    ///
    /// Drives `requests` through an engine on the binary-heap agenda,
    /// metric events into `rec` and each served session into `out`: its
    /// [`SessionScalars`] into the fold and the capture (in engine pop
    /// order, the sharded executor's raw material), its whole trace into
    /// the caller's sink. The scalars are the very values that feed the
    /// report, so a later replay repeats bit-identical operations.
    pub(crate) fn run_core(
        &self,
        requests: &[Request],
        rec: &mut dyn Recorder,
        mut out: SessionOut<'_>,
    ) -> Result<(SystemReport, crate::engine::EngineStats), PolicyError> {
        let mut engine: Engine<Ev> = Engine::new();
        self.schedule_arrivals(&mut engine, requests);
        let mut ctx = RunCtx::new(self.plan, requests);
        let mut state = CoreState::with_capacity(requests.len());
        engine.run(|eng, at, ev| {
            self.handle_event(&mut state, eng, at, ev, &mut ctx, rec, &mut out);
        });
        let stats = engine.stats();
        finish_core(state, stats, &ctx, rec)
    }

    /// Schedule every request's `Arrive` event, in slice order — the
    /// FIFO sequence numbers this assigns are part of the deterministic
    /// pop order a checkpoint must preserve.
    pub(crate) fn schedule_arrivals(&self, engine: &mut Engine<Ev>, requests: &[Request]) {
        for (pos, r) in requests.iter().enumerate() {
            engine.schedule_at(
                Ticks::ZERO + self.scale.duration_from_minutes(r.at),
                Ev::Arrive(pos),
            );
        }
    }

    /// Handle one engine event — the exact per-session statements (and
    /// float order) every execution path shares; bitwise identity between
    /// serial, sharded and checkpoint-resumed runs rests on this being
    /// the *only* copy of them. A served session's trace analytics run
    /// once, into one [`SessionScalars`] that the report, the fold, the
    /// metrics and the capture all read. Returns `true` when a session
    /// was served (the checkpoint cadence counts served sessions).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn handle_event(
        &self,
        state: &mut CoreState,
        eng: &mut Engine<Ev>,
        at: Ticks,
        ev: Ev,
        ctx: &mut RunCtx<'_>,
        rec: &mut dyn Recorder,
        out: &mut SessionOut<'_>,
    ) -> bool {
        match ev {
            Ev::Arrive(pos) => {
                if state.error.is_some() {
                    return false;
                }
                let r = ctx.requests[pos];
                match self
                    .model
                    .session_indexed(&ctx.index, r.video, r.at, self.display_rate)
                {
                    Ok(s) => {
                        let sc = SessionScalars::measure(&s, at, pos, self.scale, &mut ctx.scratch);
                        if let Some(sink) = out.sink.as_deref_mut() {
                            sink.accept(&s);
                        }
                        if let Some(fold) = out.fold.as_deref_mut() {
                            fold.fold_scalars(
                                sc.latency,
                                sc.peak_buffer,
                                sc.total_received,
                                sc.delivered,
                                sc.max_streams,
                            );
                        }
                        state.sessions += 1;
                        state.active += 1;
                        state.peak_active = state.peak_active.max(state.active);
                        state.latency_sum += sc.latency;
                        state.latencies.push(sc.latency);
                        state.worst_latency = state.worst_latency.max(Minutes(sc.latency));
                        state.worst_buffer = state.worst_buffer.max(Mbits(sc.peak_buffer));
                        state.delivered += sc.delivered;
                        let vl: &[(&str, &str)] = &[("video", ctx.videos.get(r.video.0))];
                        rec.incr("sim_sessions_total", vl, 1);
                        rec.observe("sim_latency_minutes", vl, sc.latency);
                        rec.observe("sim_peak_buffer_mbits", vl, sc.peak_buffer);
                        for rx in &s.receptions {
                            state.busy.observe(rx.channel, rx.duration.value());
                        }
                        if let Some(cap) = out.capture.as_deref_mut() {
                            cap.push(sc);
                        }
                        eng.schedule_at(Ticks(sc.end_tick), Ev::Finish);
                        true
                    }
                    Err(e) => {
                        state.error = Some(e);
                        false
                    }
                }
            }
            Ev::Finish => {
                state.active = state.active.saturating_sub(1);
                false
            }
        }
    }

    /// The checkpoint-aware shard core: the same event loop as
    /// [`SystemSim::run_core`] (sharing [`SystemSim::handle_event`]
    /// statement for statement), plus three hooks — resume from a decoded
    /// [`crate::checkpoint::CheckpointState`], take a checkpoint every
    /// `checkpoint_every` served sessions, and consult `probe` before
    /// each event and after each checkpoint so a supervisor can inject
    /// deterministic crashes.
    ///
    /// Always runs with a live [`StreamingFold`] *and* a
    /// [`SessionScalars`] capture: the fold serves the single-shard
    /// (serial-identical) outcome, the capture feeds the cross-shard
    /// ordered-replay merge.
    pub(crate) fn run_core_checkpointed(
        &self,
        requests: &[Request],
        agenda: AgendaKind,
        checkpoint_every: u64,
        resume: Option<crate::checkpoint::CheckpointState>,
        probe: &mut dyn FnMut(crate::checkpoint::Probe<'_>) -> crate::checkpoint::Verdict,
    ) -> Result<CoreRunOut, crate::checkpoint::ShardCrash> {
        use crate::checkpoint::{encode_state, Probe, ShardCrash, Verdict};
        assert!(checkpoint_every > 0, "validated by the supervisor");
        let mut ctx = RunCtx::new(self.plan, requests);
        let (mut engine, mut state, mut fold, mut scalars, mut reg, mut sessions_done) =
            match resume {
                Some(mut cp) => {
                    cp.core.busy = ChannelBusy::take_from(&mut cp.snapshot, &ctx.channels)
                        .map_err(|what| {
                            ShardCrash::Corrupt(crate::checkpoint::CheckpointError::Malformed(what))
                        })?;
                    (
                        Engine::thaw(cp.frozen, agenda),
                        cp.core,
                        StreamingFold::thaw(cp.fold),
                        cp.scalars,
                        Registry::from_snapshot(&cp.snapshot),
                        cp.sessions_done,
                    )
                }
                None => {
                    let mut engine: Engine<Ev> = Engine::with_agenda(agenda);
                    self.schedule_arrivals(&mut engine, requests);
                    (
                        engine,
                        CoreState::with_capacity(requests.len()),
                        StreamingFold::with_capacity(requests.len()),
                        Vec::with_capacity(requests.len()),
                        Registry::new(),
                        0u64,
                    )
                }
            };
        let mut checkpoints_taken = 0u64;
        while let Some((at, ev)) = engine.next() {
            if let Verdict::Kill = probe(Probe::Event { tick: at.0 }) {
                return Err(ShardCrash::killed(at.0, sessions_done, checkpoints_taken));
            }
            let mut out = SessionOut {
                fold: Some(&mut fold),
                sink: None,
                capture: Some(&mut scalars),
            };
            let served = self.handle_event(
                &mut state,
                &mut engine,
                at,
                ev,
                &mut ctx,
                &mut reg,
                &mut out,
            );
            if let Some(e) = state.error.take() {
                return Err(ShardCrash::Policy(e));
            }
            if served {
                sessions_done += 1;
                if sessions_done % checkpoint_every == 0 {
                    let cp = crate::checkpoint::CheckpointState {
                        frozen: engine.freeze(),
                        core: state.clone(),
                        fold: fold.freeze(),
                        scalars: scalars.clone(),
                        snapshot: state.busy.snapshot_with(&reg, &ctx.channels),
                        sessions_done,
                    };
                    let encoded = encode_state(&cp);
                    checkpoints_taken += 1;
                    let index = sessions_done / checkpoint_every;
                    if let Verdict::Kill = probe(Probe::Checkpoint {
                        index,
                        encoded: &encoded,
                    }) {
                        return Err(ShardCrash::killed(at.0, sessions_done, checkpoints_taken));
                    }
                }
            }
        }
        let stats = engine.stats();
        let (report, stats) =
            finish_core(state, stats, &ctx, &mut reg).map_err(ShardCrash::Policy)?;
        drop(fold); // the merge re-replays the fold from the scalar stream
        Ok(CoreRunOut {
            report,
            stats,
            scalars,
            snapshot: reg.snapshot(),
            checkpoints_taken,
        })
    }
}

/// What [`SystemSim::run_core_checkpointed`] returns on completion.
pub(crate) struct CoreRunOut {
    pub(crate) report: SystemReport,
    pub(crate) stats: crate::engine::EngineStats,
    pub(crate) scalars: Vec<SessionScalars>,
    pub(crate) snapshot: sb_metrics::Snapshot,
    pub(crate) checkpoints_taken: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ClientPolicy;
    use crate::run::RunConfig;
    use sb_core::config::SystemConfig;
    use sb_core::scheme::BroadcastScheme;
    use sb_core::series::Width;
    use sb_core::Skyscraper;

    fn requests_grid(n: usize, videos: usize, span: f64) -> Vec<Request> {
        (0..n)
            .map(|i| Request {
                at: Minutes(span * i as f64 / n as f64),
                video: VideoId(i % videos),
            })
            .collect()
    }

    #[test]
    fn hundred_clients_all_bounded() {
        let cfg = SystemConfig::paper_defaults(Mbps(300.0));
        let scheme = Skyscraper::with_width(Width::Capped(52));
        let plan = scheme.plan(&cfg).unwrap();
        let metrics = scheme.metrics(&cfg).unwrap();
        let sim = SystemSim::new(&plan, cfg.display_rate, ClientPolicy::LatestFeasible);
        let requests = requests_grid(100, 10, 30.0);
        let report = sim.execute(RunConfig::new(&requests)).unwrap().summary;
        assert_eq!(report.sessions, 100);
        assert!(report.worst_latency.value() <= metrics.access_latency.value() + 1e-9);
        assert!(report.worst_buffer.value() <= metrics.buffer_requirement.value() * (1.0 + 1e-9));
        assert!(report.mean_latency.value() <= report.worst_latency.value());
        assert!(report.p50_latency <= report.p95_latency);
        assert!(report.p95_latency <= report.worst_latency);
        // All 100 two-hour sessions overlap within the 30-minute window.
        assert!(report.peak_active_sessions >= 90);
        assert!(report.delivered_minutes.value() > 100.0 * 119.0);
    }

    #[test]
    fn mean_latency_is_about_half_worst() {
        // Uniform arrivals against a periodic first fragment: the mean wait
        // approaches half the period.
        let cfg = SystemConfig::paper_defaults(Mbps(300.0));
        let scheme = Skyscraper::with_width(Width::Capped(2));
        let plan = scheme.plan(&cfg).unwrap();
        let d1 = scheme.metrics(&cfg).unwrap().access_latency.value();
        let sim = SystemSim::new(&plan, cfg.display_rate, ClientPolicy::LatestFeasible);
        let requests = requests_grid(500, 1, 50.0);
        let report = sim.execute(RunConfig::new(&requests)).unwrap().summary;
        let ratio = report.mean_latency.value() / d1;
        assert!((ratio - 0.5).abs() < 0.05, "mean/worst = {ratio:.3}");
    }

    #[test]
    fn recorded_run_matches_bare_run_and_fills_registry() {
        let cfg = SystemConfig::paper_defaults(Mbps(300.0));
        let scheme = Skyscraper::with_width(Width::Capped(52));
        let plan = scheme.plan(&cfg).unwrap();
        let sim = SystemSim::new(&plan, cfg.display_rate, ClientPolicy::LatestFeasible);
        let requests = requests_grid(60, 10, 30.0);
        let bare = sim.execute(RunConfig::new(&requests)).unwrap().summary;
        let mut reg = sb_metrics::Registry::new();
        let recorded = sim
            .execute(RunConfig::new(&requests).recorder(&mut reg))
            .unwrap()
            .summary;
        assert_eq!(bare, recorded, "recording must not steer the simulation");
        let snap = reg.snapshot();
        assert_eq!(snap.counter_total("sim_sessions_total"), 60);
        // 60 sessions over 10 videos → 10 per-video latency series.
        assert_eq!(snap.family("sim_latency_minutes").unwrap().series.len(), 10);
        // Every session's reception time lands on some channel series.
        assert!(snap.family("sim_channel_busy_minutes").is_some());
        assert_eq!(
            snap.counter("engine_events_total", "kind=fired"),
            Some(120),
            "one Arrive and one Finish per session"
        );
        let lat = snap.histogram("sim_latency_minutes", "video=0").unwrap();
        assert!(lat.count > 0 && lat.mean() <= bare.worst_latency.value());
    }

    #[test]
    fn sink_observes_without_steering_and_paths_agree_bitwise() {
        let cfg = SystemConfig::paper_defaults(Mbps(300.0));
        let plan = Skyscraper::with_width(Width::Capped(52))
            .plan(&cfg)
            .unwrap();
        let sim = SystemSim::new(&plan, cfg.display_rate, ClientPolicy::LatestFeasible);
        let requests = requests_grid(60, 10, 30.0);
        let bare = sim.execute(RunConfig::new(&requests)).unwrap().summary;

        let mut fold = crate::sink::StreamingFold::new();
        let folded = sim
            .execute(RunConfig::new(&requests).sink(&mut fold))
            .unwrap()
            .summary;
        assert_eq!(bare, folded, "a sink must not steer the simulation");

        let mut collect = crate::sink::CollectTraces::new();
        let collected = sim
            .execute(RunConfig::new(&requests).sink(&mut collect))
            .unwrap()
            .summary;
        assert_eq!(bare, collected);
        assert_eq!(collect.traces.len(), 60);

        // The streaming fold and the materializing summary agree bitwise.
        let a = fold.finish();
        let b = collect.summarize();
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
        // And they agree with the engine-side report where they overlap.
        assert_eq!(a.sessions, bare.sessions);
        assert_eq!(a.mean_latency, bare.mean_latency);
        assert_eq!(a.p50_latency, bare.p50_latency);
        assert_eq!(a.p95_latency, bare.p95_latency);
        assert_eq!(a.worst_latency, bare.worst_latency);
        assert_eq!(a.worst_buffer, bare.worst_buffer);
        assert_eq!(a.delivered_minutes, bare.delivered_minutes);

        // The materializing path still feeds the packet-level replay.
        let e2e = crate::e2e::replay(&collect.traces[0], crate::e2e::PacketConfig::default());
        assert!(e2e.underruns.is_empty());
    }

    #[test]
    fn empty_request_stream() {
        let cfg = SystemConfig::paper_defaults(Mbps(300.0));
        let plan = Skyscraper::unbounded().plan(&cfg).unwrap();
        let sim = SystemSim::new(&plan, cfg.display_rate, ClientPolicy::LatestFeasible);
        let report = sim.execute(RunConfig::new(&[])).unwrap().summary;
        assert_eq!(report.sessions, 0);
        assert_eq!(report.peak_active_sessions, 0);
    }

    #[test]
    fn unknown_video_propagates() {
        let cfg = SystemConfig::paper_defaults(Mbps(300.0));
        let plan = Skyscraper::unbounded().plan(&cfg).unwrap();
        let sim = SystemSim::new(&plan, cfg.display_rate, ClientPolicy::LatestFeasible);
        let requests = [Request {
            at: Minutes(0.0),
            video: VideoId(77),
        }];
        let err = sim.execute(RunConfig::new(&requests)).unwrap_err();
        assert_eq!(err, PolicyError::UnknownVideo(VideoId(77)));
    }

    /// The heap and wheel backends must produce the same bytes end to
    /// end: report, streamed fold, snapshot and (serialized) stats. Runs
    /// always use the heap; the wheel is reachable through `run_shard`.
    #[test]
    fn heap_and_wheel_backends_match_bitwise() {
        use crate::checkpoint::Verdict;
        use crate::shard::{merge_shard_runs, plan_shards};
        let cfg = SystemConfig::paper_defaults(Mbps(300.0));
        let plan = Skyscraper::with_width(Width::Capped(52))
            .plan(&cfg)
            .unwrap();
        let sim = SystemSim::new(&plan, cfg.display_rate, ClientPolicy::LatestFeasible);
        let requests = requests_grid(48, 10, 20.0);
        let heap = sim.execute(RunConfig::new(&requests)).unwrap();
        let slices = plan_shards(&requests, 1, 0, None);
        let run = sim
            .run_shard(&slices[0], AgendaKind::Wheel, u64::MAX, None, &mut |_| {
                Verdict::Continue
            })
            .unwrap();
        assert!(
            run.stats.wheel.peak_bucket > 0,
            "wheel counters live in memory only"
        );
        let wheel = merge_shard_runs(vec![(0, run)], "wheel").unwrap();
        assert_eq!(heap.summary, wheel.summary);
        assert_eq!(heap.fold, wheel.fold);
        assert_eq!(
            serde_json::to_string(&heap.snapshot).unwrap(),
            serde_json::to_string(&wheel.snapshot).unwrap()
        );
        assert_eq!(
            serde_json::to_string(&heap.stats).unwrap(),
            serde_json::to_string(&wheel.stats).unwrap(),
            "serialized stats must hide the backend"
        );
        assert!(heap.stats.wheel.cascades == 0 && heap.stats.wheel.peak_bucket == 0);
    }
}
