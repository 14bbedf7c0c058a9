//! Sharded scale-out execution: partition one metropolitan system
//! across `S` server shards, byte-identically.
//!
//! The paper sizes Skyscraper Broadcasting for a single server; the
//! scalable-VoD line of work in `PAPERS.md` partitions the catalog
//! across many. This module is that partitioned regime for
//! [`SystemSim::execute`] and for the crash-recovery supervisor that
//! drives [`SystemSim::run_shard`] and [`merge_shard_runs`]: the catalog
//! (and with it the arrival stream) is split by a seeded, stable hash of
//! the video id, each shard runs its own engine + [`StreamingFold`] +
//! metrics registry on the deterministic scoped pool, and the per-shard
//! results are merged **in a canonical order**, through one merge tail,
//! so that the outcome is bitwise identical for any shard count and any
//! thread count. The control plane (`sb_control::ControlledSim`) also
//! takes a [`RunConfig`] but partitions its own title space with
//! [`shard_of`], as a partitioned system model whose report depends on
//! the shard count by design.
//!
//! The determinism argument, in three parts (pinned by the
//! `shard_invariance` proptest and `scripts/verify.sh`):
//!
//! 1. **Partition is a function of (video, seed) only.** A video's
//!    shard never depends on the request stream, the thread schedule,
//!    or the shard count of a previous run, so each `…{video}` metric
//!    series lives on exactly one shard. A `…{channel}` series does too
//!    when each channel carries one video, as SB's do. PB:a and PB:b
//!    channels interleave every title, so their channel series span
//!    shards (see the caveat below).
//! 2. **Per-shard runs replay a subsequence of the global engine
//!    order.** The engine pops by `(tick, schedule-seq)` and arrivals
//!    are scheduled in slice order, so two requests on the same shard
//!    fire in the same relative order as in the unsharded run.
//! 3. **Merge = ordered replay.** Each shard captures one
//!    `SessionScalars` per session — the exact floats the fold and
//!    report consume, keyed by `(arrival tick, global request index)`.
//!    A k-way merge over those keys reconstructs the global engine
//!    order; replaying the scalars through [`StreamingFold::fold_scalars`]
//!    and the report accumulators repeats the identical floating-point
//!    operations in the identical order as `shards(1)`. Snapshots merge
//!    in shard order (sums of disjoint series plus integer counters),
//!    and the one global quantity a shard cannot see — peak
//!    simultaneously-active sessions — is recomputed exactly from the
//!    merged `(arrival, end)` intervals and patched in last (gauges
//!    merge by `max`, and the global peak dominates every shard's).
//!
//! **Caveat: channels that span shards.** When a channel's series lives
//! on several shards, the merge adds per-shard histogram sums instead of
//! repeating the serial run's additions in engine order. A sharded PB
//! run's `sim_channel_busy_minutes{channel}` sums can therefore differ
//! from a serial run's in the last bits. Its summary and fold still
//! match, because both come from the ordered replay. perfbench's
//! `metro_sharded_passes_its_checks_at_smoke_size` pins this divergence
//! until the shard merge is fixed.

use sb_metrics::{OpLog, Recorder, Registry, Snapshot, TeeRecorder};
use vod_units::{Mbits, Minutes, TickScale, Ticks};

use crate::agenda::MinQueue;
use crate::checkpoint::ShardRun;
use crate::engine::EngineStats;
use crate::policy::PolicyError;
use crate::pool::parallel_map;
use crate::run::{RunConfig, RunOutcome};
use crate::sink::{CollectTraces, StreamingFold, TraceSink};
use crate::system::{Request, SessionOut, SystemReport, SystemSim};
use crate::trace::SessionTrace;

/// The shard owning `key` (a video id) under `seed`, for `shards`
/// servers: a full-avalanche splitmix64 finalizer, so consecutive video
/// ids spread evenly and the assignment is stable across runs,
/// platforms and request streams.
///
/// # Panics
/// Panics if `shards` is zero.
#[must_use]
pub fn shard_of(key: u64, seed: u64, shards: usize) -> usize {
    assert!(shards > 0, "no zero-shard systems");
    let mut x = key ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x % shards as u64) as usize
}

/// Per-session scalars: everything the fold, the report and the metrics
/// read from a trace, plus the `(tick, idx)` merge key and the session's
/// end tick for the global peak-active sweep. Every served session is
/// measured into one of these exactly once ([`SessionScalars::measure`]).
/// The serial path keeps none of them; a sharded run buffers one per
/// session (64 bytes) until the merge, on top of the serial path's two
/// 8-byte latencies and one agenda entry per request.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SessionScalars {
    /// Arrival tick (engine time the session fired).
    pub tick: u64,
    /// Request index. Local to the shard slice inside `run_core`;
    /// rewritten to the global index before merging.
    pub idx: usize,
    /// Tick at which playback ends (the `Finish` event's time).
    pub end_tick: u64,
    /// Startup latency, minutes.
    pub latency: f64,
    /// Peak client buffer, Mbits.
    pub peak_buffer: f64,
    /// Total payload received, Mbits.
    pub total_received: f64,
    /// Playback minutes delivered.
    pub delivered: f64,
    /// Peak concurrent receptions within the session.
    pub max_streams: usize,
}

impl SessionScalars {
    /// Measure a served session: the one pass of trace analytics a
    /// session gets. `tick` is its arrival tick, `idx` its request
    /// index, `scale` the run's tick resolution for the end tick.
    pub(crate) fn measure(trace: &SessionTrace, tick: Ticks, idx: usize, scale: TickScale) -> Self {
        let end = trace.playback_end();
        Self {
            tick: tick.0,
            idx,
            end_tick: (Ticks::ZERO + scale.duration_from_minutes(end)).0,
            latency: trace.startup_latency().value(),
            peak_buffer: trace.peak_buffer().value(),
            total_received: trace.total_received().value(),
            delivered: end.value() - trace.playback_start.value(),
            max_streams: trace.max_concurrent_receptions(),
        }
    }
}

/// One shard's slice of the request stream: the requests it owns, in
/// global arrival order, plus each request's index in the global slice
/// (the merge key that lets the ordered replay reconstruct the
/// unsharded engine order).
#[derive(Debug, Clone)]
pub struct ShardSlice {
    requests: Vec<Request>,
    global_idx: Vec<usize>,
}

impl ShardSlice {
    /// The shard's requests, in global arrival order.
    #[must_use]
    pub fn requests(&self) -> &[Request] {
        &self.requests
    }

    /// For each request, its index in the run's global request slice.
    #[must_use]
    pub(crate) fn global_idx(&self) -> &[usize] {
        &self.global_idx
    }

    /// Number of requests on this shard.
    #[must_use]
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the shard owns no requests.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }
}

/// Partition `requests` into per-shard slices — the single partition
/// function behind both `execute` and the crash-recovery supervisor, so
/// a supervised run splits the stream byte-identically to a plain one.
///
/// The scenario `partition` table wins when it covers the video (a
/// region's catalog slice stays on the region's shard, wrapped into
/// range by `% shards`); anything beyond the table — and every run
/// without one — takes the seeded [`shard_of`] hash. Either way the
/// shard is a pure function of `(video, seed)`, which is leg one of the
/// module's determinism argument.
///
/// # Panics
/// Panics if `shards` is zero.
#[must_use]
pub fn plan_shards(
    requests: &[Request],
    shards: usize,
    seed: u64,
    partition: Option<&[usize]>,
) -> Vec<ShardSlice> {
    assert!(shards > 0, "no zero-shard systems");
    let mut slices = vec![
        ShardSlice {
            requests: Vec::new(),
            global_idx: Vec::new(),
        };
        shards
    ];
    for (i, r) in requests.iter().enumerate() {
        let s = match partition.and_then(|map| map.get(r.video.0)) {
            Some(&owner) => owner % shards,
            None => shard_of(r.video.0 as u64, seed, shards),
        };
        slices[s].requests.push(*r);
        slices[s].global_idx.push(i);
    }
    slices
}

/// Attribute a merge inconsistency to its shard and run label.
fn merge_err(shard: usize, label: &str, what: impl Into<String>) -> PolicyError {
    PolicyError::ShardMerge {
        shard,
        label: label.to_string(),
        what: what.into(),
    }
}

/// The canonical ordered-replay merge: a k-way merge of per-shard scalar
/// streams by `(arrival tick, global index)`, replaying the identical
/// floating-point statements `run_core` executes per session. Returns
/// the recomputed global report plus the replayed fold. `on_session` is
/// called once per merged session (stream position, cursor) *before* its
/// scalars are folded — the executor feeds user sinks through it.
///
/// Inconsistent streams surface as [`PolicyError::ShardMerge`] carrying
/// the shard index and `label`, never as a panic mid-merge.
fn replay_merge(
    streams: &[(usize, &[SessionScalars])],
    label: &str,
    mut on_session: impl FnMut(usize, usize) -> Result<(), PolicyError>,
) -> Result<(SystemReport, StreamingFold), PolicyError> {
    let total: usize = streams.iter().map(|(_, scalars)| scalars.len()).sum();
    let mut fold = StreamingFold::with_capacity(total);
    let mut sessions = 0usize;
    let mut latency_sum = 0.0f64;
    let mut latencies: Vec<f64> = Vec::with_capacity(total);
    let mut worst_latency = Minutes(0.0);
    let mut worst_buffer = Mbits::ZERO;
    let mut delivered = 0.0f64;
    let mut peak_active = 0usize;
    let mut ends: MinQueue<u64> = MinQueue::new();
    let mut cursors = vec![0usize; streams.len()];
    loop {
        let mut best: Option<(u64, usize, usize)> = None;
        for (pos, (_, scalars)) in streams.iter().enumerate() {
            if let Some(sc) = scalars.get(cursors[pos]) {
                let key = (sc.tick, sc.idx, pos);
                if best.is_none_or(|b| (key.0, key.1) < (b.0, b.1)) {
                    best = Some(key);
                }
            }
        }
        let Some((tick, idx, pos)) = best else { break };
        let (shard, scalars) = streams[pos];
        let Some(&sc) = scalars.get(cursors[pos]) else {
            return Err(merge_err(
                shard,
                label,
                format!("scalar stream ended under cursor {}", cursors[pos]),
            ));
        };
        debug_assert_eq!((sc.tick, sc.idx), (tick, idx));
        on_session(pos, cursors[pos])?;
        // Global active-session sweep. A `Finish` at tick T fires
        // after every arrival at T (arrivals are scheduled first and
        // the engine breaks ties by schedule order), so only ends
        // *strictly* before this arrival leave the active set.
        while ends.peek().is_some_and(|&e| e < tick) {
            ends.pop();
        }
        ends.push(sc.end_tick);
        peak_active = peak_active.max(ends.len());
        // The identical statements `run_core` executes per session.
        fold.fold_scalars(
            sc.latency,
            sc.peak_buffer,
            sc.total_received,
            sc.delivered,
            sc.max_streams,
        );
        sessions += 1;
        latency_sum += sc.latency;
        latencies.push(sc.latency);
        worst_latency = worst_latency.max(Minutes(sc.latency));
        worst_buffer = worst_buffer.max(Mbits(sc.peak_buffer));
        delivered += sc.delivered;
        cursors[pos] += 1;
    }

    latencies.sort_by(f64::total_cmp);
    let percentile = |q: f64| -> Minutes {
        if latencies.is_empty() {
            Minutes(0.0)
        } else {
            let idx = ((latencies.len() as f64 - 1.0) * q).round() as usize;
            Minutes(latencies[idx])
        }
    };
    let summary = SystemReport {
        sessions,
        mean_latency: Minutes(if sessions > 0 {
            latency_sum / sessions as f64
        } else {
            0.0
        }),
        p50_latency: percentile(0.5),
        p95_latency: percentile(0.95),
        worst_latency,
        worst_buffer,
        peak_active_sessions: peak_active,
        delivered_minutes: Minutes(delivered),
    };
    Ok((summary, fold))
}

/// Check that `incoming` can merge into `acc` without tripping
/// [`Snapshot::merge`]'s panics: shared families must agree on kind,
/// shared series on value kind, shared histograms on bucket bounds.
fn check_mergeable(acc: &Snapshot, incoming: &Snapshot) -> Result<(), String> {
    use sb_metrics::MetricValue;
    for of in &incoming.families {
        let Some(f) = acc.family(&of.name) else {
            continue;
        };
        if f.kind != of.kind {
            return Err(format!("metric family {} has two kinds", of.name));
        }
        for os in &of.series {
            let Ok(pos) = f.series.binary_search_by(|s| s.labels.cmp(&os.labels)) else {
                continue;
            };
            match (&f.series[pos].value, &os.value) {
                (MetricValue::Counter(_), MetricValue::Counter(_))
                | (MetricValue::Gauge(_), MetricValue::Gauge(_)) => {}
                (MetricValue::Histogram(a), MetricValue::Histogram(b)) => {
                    if a.bounds != b.bounds {
                        return Err(format!(
                            "histogram {}{{{}}} has mismatched bucket bounds",
                            of.name, os.labels
                        ));
                    }
                }
                _ => return Err(format!("series {}{{{}}} has two kinds", of.name, os.labels)),
            }
        }
    }
    Ok(())
}

/// Merge per-shard snapshots in shard order, patching in the one global
/// quantity no shard can see (the peak simultaneously-active sessions),
/// with shape mismatches propagated as [`PolicyError::ShardMerge`].
fn merge_snapshots<'a>(
    snaps: impl Iterator<Item = (usize, &'a Snapshot)>,
    peak_active: usize,
    label: &str,
) -> Result<Snapshot, PolicyError> {
    let mut snapshot = Snapshot::default();
    for (shard, snap) in snaps {
        check_mergeable(&snapshot, snap).map_err(|what| merge_err(shard, label, what))?;
        snapshot.merge(snap);
    }
    // Shards only saw their own peak; patch in the global one (gauge
    // merge is `max`, and global ≥ every shard).
    let mut extras = Registry::new();
    extras.gauge_max("sim_peak_active_sessions", &[], peak_active as f64);
    snapshot.merge(&extras.snapshot());
    Ok(snapshot)
}

/// Merge completed [`ShardRun`]s — from the crash-recovery supervisor or
/// any other caller of [`SystemSim::run_shard`] — into a [`RunOutcome`],
/// through the same merge tail a sharded `execute` uses, so a supervised
/// (killed, resumed, retried) run's outcome is byte-identical to an
/// uninterrupted `execute` of the same `RunConfig`.
///
/// `runs` pairs each [`ShardRun`] with its shard index; any subset of a
/// run's shards may be merged (the supervisor's graceful-degradation
/// path merges the survivors), in any order — merging is canonicalized
/// by shard index internally. `label` names the experiment for error
/// attribution.
///
/// # Errors
/// [`PolicyError::ShardMerge`] when the per-shard streams are
/// inconsistent; never panics on untrusted shard output.
pub fn merge_shard_runs(
    mut runs: Vec<(usize, ShardRun)>,
    label: &str,
) -> Result<RunOutcome, PolicyError> {
    runs.sort_by_key(|&(s, _)| s);
    for pair in runs.windows(2) {
        if pair[0].0 == pair[1].0 {
            return Err(merge_err(
                pair[1].0,
                label,
                "the same shard appears twice in the merge set",
            ));
        }
    }
    merge_runs(&runs, label, |_, _| Ok(()))
}

/// The merge tail every sharded path shares: the ordered replay, then the
/// engine statistics and snapshots in shard order. `runs` is sorted by
/// shard index; `on_session` is [`replay_merge`]'s per-session hook.
fn merge_runs(
    runs: &[(usize, ShardRun)],
    label: &str,
    on_session: impl FnMut(usize, usize) -> Result<(), PolicyError>,
) -> Result<RunOutcome, PolicyError> {
    let streams: Vec<(usize, &[SessionScalars])> = runs
        .iter()
        .map(|(s, r)| (*s, r.scalars.as_slice()))
        .collect();
    let (summary, fold) = replay_merge(&streams, label, on_session)?;

    let mut stats = EngineStats::default();
    let mut shard_peak_agenda = Vec::with_capacity(runs.len());
    let mut shard_sessions = Vec::with_capacity(runs.len());
    for (_, r) in runs {
        stats.absorb(&r.stats);
        shard_peak_agenda.push(r.stats.peak_agenda);
        shard_sessions.push(r.scalars.len());
    }
    let snapshot = merge_snapshots(
        runs.iter().map(|(s, r)| (*s, &r.snapshot)),
        summary.peak_active_sessions,
        label,
    )?;
    Ok(RunOutcome {
        summary,
        fold: fold.into_summary(),
        stats,
        shard_peak_agenda,
        shard_sessions,
        snapshot,
    })
}

impl SystemSim<'_> {
    /// Execute `cfg` — the single entry point subsuming the deprecated
    /// `run` / `run_recorded` / `run_with_sink` / `run_instrumented`
    /// variants and adding partitioned scale-out.
    ///
    /// The outcome (report, streamed fold, merged snapshot) is
    /// byte-identical for every `shards(S)` and `threads(N)`; only
    /// `stats.peak_agenda` (and the per-shard breakdown next to it)
    /// legitimately shrinks as shards grow, which is the point of
    /// sharding. With `shards(1)` this is exactly the historical serial
    /// run, bit for bit.
    ///
    /// # Errors
    /// Propagates the first [`PolicyError`] (in shard order) from any
    /// shard, e.g. a request naming a video the plan does not carry.
    pub fn execute(&self, cfg: RunConfig<'_, Request>) -> Result<RunOutcome, PolicyError> {
        let parts = cfg.into_parts();
        if parts.shards == 1 {
            return self.execute_serial(parts.requests, parts.recorder, parts.sink);
        }
        self.execute_sharded(parts)
    }

    /// The unsharded fast path: one engine, traces streamed straight
    /// through to the caller's sink and dropped. What it does hold per
    /// request is two pre-sized `f64` latency buffers (the report's and
    /// the fold's, for exact percentiles; the fold's is sorted in place
    /// at the end) and one agenda entry, since every arrival is
    /// scheduled up front (`peak_agenda` = N). perfbench's `sb-grid`
    /// workload measures about 62 bytes of peak RSS per request.
    fn execute_serial(
        &self,
        requests: &[Request],
        recorder: Option<&mut dyn Recorder>,
        sink: Option<&mut dyn TraceSink>,
    ) -> Result<RunOutcome, PolicyError> {
        let mut reg = Registry::new();
        let mut fold = StreamingFold::with_capacity(requests.len());
        let out = SessionOut {
            fold: Some(&mut fold),
            // Shortens the caller's trait-object lifetime to the fold's.
            sink: sink.map(|s| s as &mut dyn TraceSink),
            capture: None,
        };
        let (summary, stats) = match recorder {
            None => self.run_core(requests, &mut reg, out),
            Some(user) => {
                let mut tee = TeeRecorder {
                    a: &mut reg,
                    b: user,
                };
                self.run_core(requests, &mut tee, out)
            }
        }?;
        Ok(RunOutcome {
            summary,
            fold: fold.into_summary(),
            shard_peak_agenda: vec![stats.peak_agenda],
            shard_sessions: vec![requests.len()],
            stats,
            snapshot: reg.snapshot(),
        })
    }

    /// The partitioned path: one engine per shard on the deterministic
    /// pool, each packaged as a [`ShardRun`], then the ordered-replay
    /// merge tail [`merge_shard_runs`] uses. On top of it come the user
    /// slots: the trace sink is fed each session during the replay, and
    /// the recorder gets each shard's buffered metric stream afterwards.
    fn execute_sharded(
        &self,
        parts: crate::run::RunParts<'_, Request, ()>,
    ) -> Result<RunOutcome, PolicyError> {
        const LABEL: &str = "sim-shards";
        let slices = plan_shards(parts.requests, parts.shards, parts.seed, parts.partition);

        let want_ops = parts.recorder.is_some();
        let want_traces = parts.sink.is_some();
        let outs = parallel_map(parts.threads, LABEL, &slices, |s, slice| {
            let mut reg = Registry::new();
            let mut ops = want_ops.then(OpLog::new);
            let mut collect = want_traces.then(CollectTraces::new);
            let mut scalars: Vec<SessionScalars> = Vec::with_capacity(slice.len());
            let out = SessionOut {
                fold: None,
                sink: collect.as_mut().map(|c| c as &mut dyn TraceSink),
                capture: Some(&mut scalars),
            };
            let reqs = slice.requests();
            let (report, stats) = match ops.as_mut() {
                Some(log) => {
                    let mut tee = TeeRecorder {
                        a: &mut reg,
                        b: log,
                    };
                    self.run_core(reqs, &mut tee, out)
                }
                None => self.run_core(reqs, &mut reg, out),
            }?;
            for sc in &mut scalars {
                sc.idx = slice.global_idx()[sc.idx];
            }
            let run = ShardRun {
                report,
                stats,
                scalars,
                snapshot: reg.snapshot(),
                checkpoints_taken: 0,
            };
            Ok(((s, run), (ops, collect.map(|c| c.traces))))
        });
        let (runs, extras): (Vec<_>, Vec<_>) = outs
            .into_iter()
            .collect::<Result<Vec<_>, PolicyError>>()?
            .into_iter()
            .unzip();

        // Ordered replay: k-way merge by (arrival tick, global index)
        // reconstructs the unsharded engine order exactly, feeding the
        // user's trace sink one session at a time along the way.
        let mut user_sink = parts.sink;
        let out = merge_runs(&runs, LABEL, |s, cursor| {
            if let (Some(sink), Some(traces)) = (user_sink.as_deref_mut(), &extras[s].1) {
                let trace = traces.get(cursor).ok_or_else(|| {
                    merge_err(s, LABEL, "trace stream shorter than scalar stream")
                })?;
                sink.accept(trace);
            }
            Ok(())
        })?;

        if let Some(rec) = parts.recorder {
            for log in extras.iter().filter_map(|(ops, _)| ops.as_ref()) {
                log.replay(rec);
            }
            rec.gauge_max(
                "sim_peak_active_sessions",
                &[],
                out.summary.peak_active_sessions as f64,
            );
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agenda::AgendaKind;
    use crate::policy::ClientPolicy;
    use crate::sink::SessionSummary;
    use sb_core::config::SystemConfig;
    use sb_core::plan::VideoId;
    use sb_core::scheme::BroadcastScheme;
    use sb_core::series::Width;
    use sb_core::Skyscraper;
    use vod_units::Mbps;

    #[test]
    fn shard_of_is_stable_in_range_and_seed_sensitive() {
        for shards in [1, 2, 4, 8] {
            for v in 0..64u64 {
                let a = shard_of(v, 17, shards);
                assert_eq!(a, shard_of(v, 17, shards), "stable");
                assert!(a < shards);
            }
        }
        // A different seed shuffles at least one assignment.
        assert!((0..64u64).any(|v| shard_of(v, 1, 8) != shard_of(v, 2, 8)));
    }

    fn lineup() -> (SystemConfig, sb_core::plan::ChannelPlan, Vec<Request>) {
        let cfg = SystemConfig::paper_defaults(Mbps(300.0));
        let plan = Skyscraper::with_width(Width::Capped(52))
            .plan(&cfg)
            .unwrap();
        let requests: Vec<Request> = (0..240)
            .map(|i| Request {
                at: Minutes(45.0 * (i as f64 + 0.31) / 240.0),
                video: VideoId(i % 10),
            })
            .collect();
        (cfg, plan, requests)
    }

    fn outcome_key(o: &RunOutcome) -> (String, String, String, SessionSummary) {
        (
            serde_json::to_string(&o.summary).unwrap(),
            serde_json::to_string(&o.fold).unwrap(),
            serde_json::to_string(&o.snapshot).unwrap(),
            o.fold.clone(),
        )
    }

    #[test]
    fn sharded_outcomes_are_bitwise_shard_and_thread_invariant() {
        let (cfg, plan, requests) = lineup();
        let sim = SystemSim::new(&plan, cfg.display_rate, ClientPolicy::LatestFeasible);
        let base = sim.execute(RunConfig::new(&requests)).unwrap();
        assert_eq!(base.summary.sessions, 240);
        for shards in [2, 4, 8] {
            for threads in [1, 4] {
                let out = sim
                    .execute(RunConfig::new(&requests).shards(shards).threads(threads))
                    .unwrap();
                assert_eq!(
                    outcome_key(&base),
                    outcome_key(&out),
                    "S={shards} T={threads} diverged"
                );
                assert_eq!(out.shard_peak_agenda.len(), shards);
                assert_eq!(
                    out.stats.scheduled, base.stats.scheduled,
                    "event totals are shard-invariant"
                );
            }
        }
    }

    #[test]
    fn agenda_backend_is_bitwise_invariant_across_shards() {
        // Runs always use the heap; shards driven on the wheel through
        // `run_shard` and merged must still collapse to the serial bytes.
        use crate::checkpoint::Verdict;
        let (cfg, plan, requests) = lineup();
        let sim = SystemSim::new(&plan, cfg.display_rate, ClientPolicy::LatestFeasible);
        let base = sim.execute(RunConfig::new(&requests)).unwrap();
        for agenda in [AgendaKind::Heap, AgendaKind::Wheel] {
            for shards in [1, 2, 4] {
                let runs = plan_shards(&requests, shards, 0, None)
                    .iter()
                    .enumerate()
                    .map(|(s, slice)| {
                        let run = sim
                            .run_shard(slice, agenda, u64::MAX, None, &mut |_| Verdict::Continue);
                        (s, run.unwrap())
                    })
                    .collect();
                let out = merge_shard_runs(runs, "test").unwrap();
                assert_eq!(
                    outcome_key(&base),
                    outcome_key(&out),
                    "{agenda:?} S={shards} diverged"
                );
            }
        }
    }

    #[test]
    fn partition_map_routes_without_changing_a_single_byte() {
        // A region-style owning-shard table (videos 0..10 → 3 "regions")
        // produces the same outcome as the hash partition and the serial
        // run — the scenario slot only decides *where* a session runs.
        let (cfg, plan, requests) = lineup();
        let sim = SystemSim::new(&plan, cfg.display_rate, ClientPolicy::LatestFeasible);
        let base = sim.execute(RunConfig::new(&requests)).unwrap();
        let map: Vec<usize> = (0..10).map(|v| v % 3).collect();
        let short_map: Vec<usize> = vec![0; 4]; // videos 4..10 fall back to the hash
        for shards in [2, 3, 4] {
            for threads in [1, 4] {
                for table in [&map, &short_map] {
                    let out = sim
                        .execute(
                            RunConfig::new(&requests)
                                .shards(shards)
                                .threads(threads)
                                .partition(table),
                        )
                        .unwrap();
                    assert_eq!(
                        outcome_key(&base),
                        outcome_key(&out),
                        "partitioned S={shards} T={threads} diverged"
                    );
                }
            }
        }
        // And the table genuinely moves load: with 3 shards, the mapped
        // run's per-shard agenda peaks differ from the hash run's.
        let mapped = sim
            .execute(RunConfig::new(&requests).shards(3).partition(&map))
            .unwrap();
        let hashed = sim.execute(RunConfig::new(&requests).shards(3)).unwrap();
        assert_eq!(outcome_key(&mapped), outcome_key(&hashed));
        assert_ne!(
            mapped.shard_peak_agenda, hashed.shard_peak_agenda,
            "the scenario slot should actually re-route sessions"
        );
    }

    #[test]
    fn sharded_recorder_and_sink_slots_match_serial() {
        let (cfg, plan, requests) = lineup();
        let sim = SystemSim::new(&plan, cfg.display_rate, ClientPolicy::LatestFeasible);
        let drive = |shards: usize| {
            let mut reg = Registry::new();
            let mut collect = CollectTraces::new();
            let out = sim
                .execute(
                    RunConfig::new(&requests)
                        .shards(shards)
                        .threads(2)
                        .recorder(&mut reg)
                        .sink(&mut collect),
                )
                .unwrap();
            (
                serde_json::to_string(&reg.snapshot()).unwrap(),
                serde_json::to_string(&collect.summarize()).unwrap(),
                serde_json::to_string(&out.fold).unwrap(),
            )
        };
        let serial = drive(1);
        let sharded = drive(4);
        assert_eq!(serial.0, sharded.0, "user recorder state diverged");
        assert_eq!(serial.1, sharded.1, "user sink replay diverged");
        // The traces the user sink saw summarize to the fold itself.
        assert_eq!(serial.1, serial.2);
    }

    #[test]
    fn unknown_video_errors_deterministically_when_sharded() {
        let (cfg, plan, _) = lineup();
        let sim = SystemSim::new(&plan, cfg.display_rate, ClientPolicy::LatestFeasible);
        let requests = vec![
            Request {
                at: Minutes(0.0),
                video: VideoId(3),
            },
            Request {
                at: Minutes(1.0),
                video: VideoId(99),
            },
        ];
        let err = sim
            .execute(RunConfig::new(&requests).shards(4))
            .unwrap_err();
        assert_eq!(err, PolicyError::UnknownVideo(VideoId(99)));
    }
}
