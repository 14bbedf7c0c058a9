//! The traced run: the same inputs re-driven one layer at a time through
//! each layer's public functions, with spans around every call.
//!
//! Pipeline order: generation and planning (in set-up); the session
//! layers one request at a time (`session_indexed`, trace analytics,
//! `accept`); the engine on the same arrival and finish ticks with an
//! empty handler; metrics as one `OpLog` capture and a timed replay; the
//! shard partition, `run_shard` per shard and the merge; the control
//! plane; serialization. Each re-driven layer must reproduce
//! `execute`'s bytes, or the run is incorrect. The timed `execute` calls
//! here use one worker thread, so `execute` time and the sum of the
//! layer times measure the same serial work.

use std::time::{Duration, Instant};

use skyscraper_broadcasting::control::ControlOutcome;
use skyscraper_broadcasting::metrics::{OpLog, Registry, Snapshot};
use skyscraper_broadcasting::sim::{
    merge_shard_runs, plan_shards, AgendaKind, ClientModel, Engine, EngineStats, RunOutcome,
    StreamingFold, TraceSink, Verdict,
};
use skyscraper_broadcasting::units::{TickScale, Ticks};

use crate::checks;
use crate::end_to_end::{median, set_up};
use crate::report::{Metric, Outcome};
use crate::tracing::{Busy, SpanId, Tracer};
use crate::workloads::{self, Scale, SimCell, Workload};

/// Engine events of the re-drive, mirroring the simulator's own.
#[derive(Debug, Clone, Copy)]
enum Ev {
    Arrive(usize),
    Finish,
}

/// One decomposed pass over a cell.
pub struct Decomposed {
    /// The fold the session layers produced, as JSON.
    pub fold: String,
    /// Receptions over every session.
    pub receptions: usize,
    /// Engine statistics of the heap re-drive.
    pub heap: EngineStats,
    /// Engine statistics of the wheel re-drive.
    pub wheel: EngineStats,
}

/// Sum per-shard engine statistics the way `execute` merges them.
fn merge_stats(parts: &[EngineStats]) -> EngineStats {
    let mut s = EngineStats::default();
    for p in parts {
        s.scheduled += p.scheduled;
        s.fired += p.fired;
        s.cancelled += p.cancelled;
        s.compactions += p.compactions;
        s.peak_agenda = s.peak_agenda.max(p.peak_agenda);
    }
    s
}

/// Whether two engine runs scheduled, fired and held the same events.
#[must_use]
pub fn same_counts(a: &EngineStats, b: &EngineStats) -> bool {
    (
        a.scheduled,
        a.fired,
        a.cancelled,
        a.peak_agenda,
        a.compactions,
    ) == (
        b.scheduled,
        b.fired,
        b.cancelled,
        b.peak_agenda,
        b.compactions,
    )
}

/// Re-drive one cell's session layers and engine under `parent`.
///
/// # Errors
/// The client model's error, as text.
pub fn decompose(
    cell: &SimCell,
    tr: &mut Tracer,
    parent: Option<SpanId>,
) -> Result<Decomposed, String> {
    let scale = TickScale::default();
    let index = cell.plan.index();
    let mut fold = StreamingFold::new();
    let mut finish = Vec::with_capacity(cell.requests.len());
    let mut receptions = 0usize;
    for (i, r) in cell.requests.iter().enumerate() {
        let trace = tr
            .session("client", parent, i, || {
                cell.model
                    .session_indexed(&index, r.video, r.at, cell.display_rate)
            })
            .map_err(|e| format!("{}: {e}", cell.label))?;
        let end = tr.session("trace", parent, i, || {
            std::hint::black_box(trace.peak_buffer());
            std::hint::black_box(trace.max_concurrent_receptions());
            std::hint::black_box(trace.total_received());
            trace.playback_end()
        });
        finish.push(Ticks::ZERO + scale.duration_from_minutes(end));
        tr.session("sink", parent, i, || fold.accept(&trace));
        receptions += trace.receptions.len();
    }

    // The engine per shard, fed the arrivals in slice order as `execute`
    // schedules them; each arrival schedules its session's finish.
    let owner = cell.shard_of_each();
    let arrivals: Vec<Vec<(Ticks, usize)>> = (0..cell.shards)
        .map(|s| {
            cell.requests
                .iter()
                .enumerate()
                .filter(|&(i, _)| owner[i] == s)
                .map(|(i, r)| (Ticks::ZERO + scale.duration_from_minutes(r.at), i))
                .collect()
        })
        .collect();
    let mut redrive = |kind: AgendaKind, name: &'static str| {
        let span = tr.begin(name, parent);
        let stats: Vec<EngineStats> = arrivals
            .iter()
            .map(|shard| {
                let mut eng: Engine<Ev> = Engine::with_agenda(kind);
                for &(at, i) in shard {
                    eng.schedule_at(at, Ev::Arrive(i));
                }
                eng.run(|e, _, ev| {
                    if let Ev::Arrive(i) = ev {
                        e.schedule_at(finish[i], Ev::Finish);
                    }
                });
                eng.stats()
            })
            .collect();
        tr.end(span);
        merge_stats(&stats)
    };
    let heap = redrive(AgendaKind::Heap, "engine.heap");
    let wheel = redrive(AgendaKind::Wheel, "engine.wheel");
    Ok(Decomposed {
        fold: serde_json::to_string(&fold.finish()).expect("summaries serialize"),
        receptions,
        heap,
        wheel,
    })
}

/// Per-iteration layer times, seconds, summed over cells.
#[derive(Default)]
struct Iteration {
    execute: f64,
    decomposed: f64,
    client: f64,
    trace: f64,
    sink: f64,
    heap: f64,
    wheel: f64,
}

fn per(value: f64, count: f64) -> f64 {
    value / count.max(1.0)
}

/// The traced run.
///
/// # Errors
/// A set-up error, as text; layer errors and mismatches count as
/// failures.
#[allow(clippy::too_many_lines)]
pub(crate) fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    scale: Scale,
    tr: &mut Tracer,
) -> Result<Outcome, String> {
    // 1. Generation and planning, set up as often as in the untraced run.
    let (setup, setup_times) = set_up(workload, seed, scale, tr)?;
    let per_setup = |b: Busy| b.seconds / setup_times.len() as f64;
    let gen = per_setup(tr.busy("workload.gen"));
    let mut build = per_setup(tr.busy("plan.build"));
    let mut index = per_setup(tr.busy("plan.index"));
    tr.reset_busy();
    let companion = workloads::companion(&setup, tr)?;
    build += tr.busy("plan.build").seconds;
    index += tr.busy("plan.index").seconds;
    let cells: Vec<&SimCell> = setup.sim.iter().chain(&companion.sim).collect();
    let control = setup
        .control
        .as_ref()
        .or(companion.control.as_ref())
        .ok_or("every workload has a control run")?;
    let sessions: usize = cells.iter().map(|c| c.requests.len()).sum();
    let generated = setup
        .sim
        .first()
        .map_or_else(|| control.requests.len(), |c| c.requests.len());

    let mut failures = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut account = |n: usize, bad: Vec<String>| {
        attempted += n as u64;
        if !bad.is_empty() {
            failed += n as u64;
            failures.extend(bad);
        }
    };

    // Warm-up: the untraced outcomes every re-driven layer must match.
    let mut outcomes: Vec<RunOutcome> = Vec::with_capacity(cells.len());
    for cell in &cells {
        let out = cell.execute()?;
        account(cell.requests.len(), checks::sim(cell, &out));
        outcomes.push(out);
    }
    let expected: Vec<String> = outcomes
        .iter()
        .map(|o| serde_json::to_string(&o.fold).expect("summaries serialize"))
        .collect();

    // 2–3. Session layers and engine, alternating with untraced
    // `execute` passes, for `--seconds`.
    let mut iters: Vec<Iteration> = Vec::new();
    let mut receptions = 0usize;
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    while iters.is_empty() || started.elapsed() < budget {
        let mut it = Iteration::default();
        for (k, cell) in cells.iter().enumerate() {
            // One worker thread, so execute's time and the serial layer
            // times add up on the sharded cells too.
            let span = tr.begin("execute", None);
            let out = cell
                .sim()
                .execute(cell.config().threads(1))
                .map_err(|e| e.to_string());
            it.execute += tr.end(span);
            match out {
                Ok(out) => {
                    let mut bad = checks::sim(cell, &out);
                    if checks::sim_bytes(&out) != checks::sim_bytes(&outcomes[k]) {
                        bad.push(format!("{}: execute is not deterministic", cell.label));
                    }
                    account(cell.requests.len(), bad);
                }
                Err(e) => account(cell.requests.len(), vec![e]),
            }

            tr.reset_busy();
            let root = tr.begin("decomposed", None);
            let d = decompose(cell, tr, root.id());
            let total = tr.end(root);
            it.client += tr.busy("client").seconds;
            it.trace += tr.busy("trace").seconds;
            it.sink += tr.busy("sink").seconds;
            let wheel = tr.busy("engine.wheel").seconds;
            it.heap += tr.busy("engine.heap").seconds;
            it.wheel += wheel;
            // The traced pipeline: every layer `execute` runs, without
            // the wheel re-drive (an alternative backend).
            it.decomposed += total - wheel;
            let mut bad = Vec::new();
            match d {
                Ok(d) => {
                    if d.fold != expected[k] {
                        bad.push(format!(
                            "{}: decomposed fold differs from execute",
                            cell.label
                        ));
                    }
                    let stats = &outcomes[k].stats;
                    if !same_counts(&d.heap, stats) || !same_counts(&d.wheel, stats) {
                        bad.push(format!(
                            "{}: engine re-drive differs from execute's statistics",
                            cell.label
                        ));
                    }
                    if iters.is_empty() {
                        receptions += d.receptions;
                    }
                }
                Err(e) => bad.push(e),
            }
            account(cell.requests.len(), bad);
        }
        iters.push(it);
    }
    let iter_median = |f: fn(&Iteration) -> f64| median(&iters.iter().map(f).collect::<Vec<_>>());
    let n = sessions as f64;
    let events: u64 = outcomes.iter().map(|o| o.stats.fired).sum();

    // 4. Metrics: one `OpLog` capture per cell, then a timed replay into
    // a fresh registry, its snapshot, and one merge over the cells.
    let (mut ops, mut series, mut replay_s, mut snapshot_s) = (0usize, 0usize, 0.0, 0.0);
    let mut snaps = Vec::with_capacity(cells.len());
    // The logs live to the end of the run, so no later span pays the
    // allocator for freeing their millions of label strings.
    let mut logs = Vec::with_capacity(cells.len());
    for (k, cell) in cells.iter().enumerate() {
        let mut log = OpLog::new();
        let span = tr.begin("metrics.capture", None);
        let captured = cell.sim().execute(cell.config().recorder(&mut log));
        tr.end(span);
        if let Err(e) = captured {
            account(cell.requests.len(), vec![e.to_string()]);
        }
        ops += log.len();
        let span = tr.begin("metrics.replay", None);
        let mut reg = Registry::new();
        log.replay(&mut reg);
        replay_s += tr.end(span);
        let span = tr.begin("metrics.snapshot", None);
        let snap = reg.snapshot();
        snapshot_s += tr.end(span);
        series += snap.families.iter().map(|f| f.series.len()).sum::<usize>();
        let same =
            serde_json::to_string(&snap).ok() == serde_json::to_string(&outcomes[k].snapshot).ok();
        account(
            cell.requests.len(),
            if same {
                Vec::new()
            } else {
                vec![format!(
                    "{}: replayed metrics differ from execute's snapshot",
                    cell.label
                )]
            },
        );
        snaps.push(snap);
        logs.push(log);
    }
    let span = tr.begin("metrics.merge", None);
    let _merged = Snapshot::merged(snaps);
    snapshot_s += tr.end(span);

    // 5. Shards: partition, `run_shard` per shard, merge.
    let (mut partition_s, mut merge_s) = (0.0, 0.0);
    let (mut run_ms, mut skew) = (Vec::new(), Vec::new());
    for (k, cell) in cells.iter().enumerate() {
        let span = tr.begin("shard.partition", None);
        let slices = plan_shards(&cell.requests, cell.shards, 0, cell.partition.as_deref());
        partition_s += tr.end(span);
        let sim = cell.sim();
        let mut runs = Vec::with_capacity(slices.len());
        let mut bad = Vec::new();
        for (s, slice) in slices.iter().enumerate() {
            let span = tr.begin("shard.run", None);
            let run = sim.run_shard(slice, AgendaKind::Heap, u64::MAX, None, &mut |_| {
                Verdict::Continue
            });
            run_ms.push(tr.end(span) * 1e3);
            match run {
                Ok(run) => runs.push((s, run)),
                Err(e) => bad.push(format!("{} shard {s}: {e}", cell.label)),
            }
        }
        let lens: Vec<f64> = slices.iter().map(|s| s.len() as f64).collect();
        let mean = lens.iter().sum::<f64>() / lens.len() as f64;
        skew.push(lens.iter().copied().fold(0.0, f64::max) / mean);
        let span = tr.begin("shard.merge", None);
        let merged = merge_shard_runs(runs, "perfbench");
        merge_s += tr.end(span);
        match merged {
            Ok(m) if checks::sim_bytes(&m) == checks::sim_bytes(&outcomes[k]) => {}
            Ok(_) => bad.push(format!(
                "{}: merged shard runs differ from execute",
                cell.label
            )),
            Err(e) => bad.push(format!("{}: {e}", cell.label)),
        }
        account(cell.requests.len(), bad);
    }

    // The control plane, one span per policy.
    let (mut control_s, mut control_events, mut control_peak) = (0.0, 0u64, 0u64);
    let mut control_out: Vec<ControlOutcome> = Vec::new();
    for &policy in &control.policies {
        let span = tr.begin("control.execute", None);
        let out = control.execute(policy);
        control_s += tr.end(span);
        match out {
            Ok(out) => {
                account(control.requests.len(), checks::control(control, &out));
                control_events += out.stats.fired;
                control_peak = control_peak.max(out.stats.peak_agenda);
                control_out.push(out);
            }
            Err(e) => account(control.requests.len(), vec![e]),
        }
    }
    let control_requests = (control.requests.len() * control.policies.len()) as f64;

    // Serialization of every outcome's deterministic parts.
    let span = tr.begin("serialize", None);
    let bytes: usize = outcomes
        .iter()
        .map(|o| checks::sim_bytes(o).len())
        .chain(control_out.iter().map(|o| checks::control_bytes(o).len()))
        .sum();
    let serialize_s = tr.end(span);

    let execute_us = per(iter_median(|i| i.execute), n) * 1e6;
    let client_us = per(iter_median(|i| i.client), n) * 1e6;
    let trace_us = per(iter_median(|i| i.trace), n) * 1e6;
    let sink_us = per(iter_median(|i| i.sink), n) * 1e6;
    let heap_s = iter_median(|i| i.heap);
    let metrics_us = per(replay_s, n) * 1e6;
    let engine_us = per(heap_s, n) * 1e6;
    let traced_s = iter_median(|i| i.decomposed) + replay_s;
    let metrics = vec![
        Metric::new("workload.gen_ms", gen * 1e3),
        Metric::new("workload.requests", generated as f64),
        Metric::new("plan.build_ms", build * 1e3),
        Metric::new("plan.index_ms", index * 1e3),
        Metric::new("engine.events_per_request", per(events as f64, n)),
        Metric::new(
            "engine.peak_agenda",
            outcomes
                .iter()
                .map(|o| o.stats.peak_agenda)
                .max()
                .unwrap_or(0) as f64,
        ),
        Metric::new("engine.heap_ns_per_event", per(heap_s, events as f64) * 1e9),
        Metric::new(
            "engine.wheel_ns_per_event",
            per(iter_median(|i| i.wheel), events as f64) * 1e9,
        ),
        Metric::new(
            "engine.compactions",
            outcomes.iter().map(|o| o.stats.compactions).sum::<u64>() as f64,
        ),
        Metric::new("client.us_per_session", client_us),
        Metric::new("client.receptions_per_session", per(receptions as f64, n)),
        Metric::new("trace.us_per_session", trace_us),
        Metric::new("sink.us_per_session", sink_us),
        Metric::new("metrics.ops_per_request", per(ops as f64, n)),
        Metric::new("metrics.us_per_request", metrics_us),
        Metric::new("metrics.series", series as f64),
        Metric::new("metrics.snapshot_ms", snapshot_s * 1e3),
        Metric::new("shard.partition_us_per_session", per(partition_s, n) * 1e6),
        Metric::new(
            "shard.run_ms_max",
            run_ms.iter().copied().fold(0.0, f64::max),
        ),
        Metric::new(
            "shard.run_ms_mean",
            run_ms.iter().sum::<f64>() / run_ms.len() as f64,
        ),
        Metric::new("shard.merge_us_per_session", per(merge_s, n) * 1e6),
        Metric::new(
            "shard.sessions_max_over_mean",
            skew.iter().copied().fold(0.0, f64::max),
        ),
        Metric::new(
            "control.us_per_request",
            per(control_s, control_requests) * 1e6,
        ),
        Metric::new(
            "control.events_per_request",
            per(control_events as f64, control_requests),
        ),
        Metric::new("control.peak_agenda", control_peak as f64),
        Metric::new("serialize.ms", serialize_s * 1e3),
        Metric::new("serialize.bytes", bytes as f64),
        Metric::new("execute.us_per_session", execute_us),
        Metric::new(
            "execute.unattributed_us_per_session",
            execute_us - (client_us + trace_us + sink_us + metrics_us + engine_us),
        ),
        Metric::new(
            "tracing.overhead_frac",
            traced_s / iter_median(|i| i.execute) - 1.0,
        ),
    ];
    let labels: Vec<&str> = cells.iter().map(|c| c.label.as_str()).collect();
    Ok(Outcome {
        correct: failures.is_empty(),
        attempted,
        failed,
        failures,
        metrics,
        context: vec![
            format!("sizes: {}", workloads::describe(&setup)),
            format!(
                "traced: session layers on [{}] ({sessions} sessions), control plane over \
                 {} requests; {} iterations after 1 warm-up; {} spans kept",
                labels.join(", "),
                control.requests.len(),
                iters.len(),
                tr.spans().len()
            ),
        ],
    })
}
