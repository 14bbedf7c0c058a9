//! Throughput benchmark of the streaming simulation core.
//!
//! Two halves, both deterministic:
//!
//! * **System half** — for every scheme in the lineup, a fixed arrival
//!   grid is driven through [`SystemSim`] on the streaming
//!   ([`sb_sim::StreamingFold`]) path, and the engine's lifetime
//!   [`EngineStats`] are captured: events scheduled / fired /
//!   cancelled, the agenda's high-water mark, and how many compactions
//!   the lazy-cancellation purge performed. Rates are reported per
//!   *simulated* minute, so the cells are byte-identical across thread
//!   counts and machines.
//! * **Churn half** — a pure engine stress: a ring of live events is
//!   rolled through tens of thousands of cancellations, pinning the
//!   compaction invariant that the agenda stays within `2 × live +
//!   compaction floor` no matter how many events die. This is the
//!   regression harness for the unbounded-agenda bug the compaction
//!   fix removed.
//!
//! Wall-clock throughput (sessions/sec, events/sec) is inherently
//! machine- and thread-dependent, so it never enters the report: the
//! binaries time the study themselves and print wall rates to stderr,
//! keeping `BENCH_throughput.json` diffable across `--threads` counts
//! (the determinism gate `scripts/verify.sh` enforces).

use serde::{Deserialize, Serialize};
use vod_units::{Mbps, Minutes, Ticks};

use sb_core::config::SystemConfig;
use sb_core::error::Result;
use sb_core::plan::VideoId;
use sb_metrics::Snapshot;
use sb_sim::policy::ClientPolicy;
use sb_sim::system::{Request, SystemSim};
use sb_sim::trace::{ClientModel, PausingClient, RecordingClient};
use sb_sim::{Engine, EngineStats, RunConfig, SessionSummary};

use crate::lineup::SchemeId;
use crate::runner::Runner;

/// Parameters of the throughput study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThroughputConfig {
    /// Server bandwidth the plans are built against.
    pub bandwidth: Mbps,
    /// Schemes under study; infeasible (scheme, bandwidth) cells are
    /// skipped, not errors.
    pub schemes: Vec<SchemeId>,
    /// Arrival-grid size per cell.
    pub sessions: usize,
    /// Arrivals are spread over `[0, horizon)`.
    pub horizon: Minutes,
    /// Videos the requests cycle through (must not exceed the catalog).
    pub videos: usize,
    /// Arrival-phase seed (same splitmix scramble as the crosscheck).
    pub seed: u64,
    /// Live-event ring size of the churn half.
    pub churn_live: usize,
    /// Cancellations the churn half performs (the issue floor is 10⁴).
    pub churn_cancels: u64,
}

impl ThroughputConfig {
    /// The default grid: the paper lineup's simulable schemes at the
    /// flagship bandwidth, and a churn half well past the 10⁴-cancel
    /// regression floor.
    #[must_use]
    pub fn paper_defaults() -> Self {
        Self {
            bandwidth: Mbps(320.0),
            schemes: vec![
                SchemeId::Sb(Some(52)),
                SchemeId::PbA,
                SchemeId::PpbA,
                SchemeId::Staggered,
            ],
            sessions: 300,
            horizon: Minutes(200.0),
            videos: 10,
            seed: 17,
            churn_live: 128,
            churn_cancels: 40_000,
        }
    }

    /// A tiny grid for smoke tests and CI: two schemes, few sessions,
    /// churn still past the 10⁴ floor.
    #[must_use]
    pub fn smoke() -> Self {
        Self {
            schemes: vec![SchemeId::Sb(Some(52)), SchemeId::Staggered],
            sessions: 60,
            horizon: Minutes(90.0),
            churn_cancels: 12_000,
            ..Self::paper_defaults()
        }
    }
}

/// One scheme's cell: streaming-path population statistics plus the
/// engine's agenda accounting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThroughputCell {
    /// Scheme label.
    pub scheme: String,
    /// Sessions driven through the simulator.
    pub sessions: usize,
    /// The engine's lifetime agenda counters for this run.
    pub engine: EngineStats,
    /// Simulated span the rates below are normalized by: the arrival
    /// horizon plus one video length (every session has finished by
    /// then).
    pub sim_minutes: f64,
    /// Sessions served per simulated minute.
    pub sessions_per_sim_minute: f64,
    /// Engine events fired per simulated minute.
    pub events_per_sim_minute: f64,
    /// The streaming fold's population summary.
    pub summary: SessionSummary,
}

/// The churn half's outcome: the compaction invariant, measured.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChurnReport {
    /// Live events kept in flight throughout.
    pub live_target: usize,
    /// Cancellations performed.
    pub cancellations: u64,
    /// The engine's lifetime counters after the drain.
    pub engine: EngineStats,
    /// The bound the agenda must stay within: `2 × live_target +
    /// compaction floor` (see `sb_sim::engine`).
    pub agenda_bound: u64,
}

impl ChurnReport {
    /// Did the agenda stay within its bound? (Also pinned by tests; the
    /// field lets the JSON artifact carry its own verdict.)
    #[must_use]
    pub fn bounded(&self) -> bool {
        self.engine.peak_agenda <= self.agenda_bound
    }
}

/// The whole study: per-scheme cells plus the engine churn stress.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThroughputReport {
    /// The configuration that produced this report.
    pub config: ThroughputConfig,
    /// One cell per feasible scheme, in config order.
    pub cells: Vec<ThroughputCell>,
    /// The churn half.
    pub churn: ChurnReport,
    /// Sessions across all cells.
    pub total_sessions: usize,
    /// Engine events fired across all cells (excluding the churn half).
    pub total_events_fired: u64,
}

/// The client model each scheme's receivers follow (the same mapping the
/// fault study uses).
fn model_for(id: SchemeId) -> Box<dyn ClientModel> {
    match id {
        SchemeId::PbA | SchemeId::PbB => Box::new(ClientPolicy::PbEarliest),
        SchemeId::PpbA | SchemeId::PpbB => Box::new(PausingClient),
        SchemeId::Harmonic => Box::new(RecordingClient::default()),
        _ => Box::new(ClientPolicy::LatestFeasible),
    }
}

/// Deterministic arrival-phase fraction in `(0, 1)` from a seed
/// (splitmix-style scramble; the same rule the crosscheck uses).
fn phase_of(seed: u64) -> f64 {
    if seed == 0 {
        return 0.31;
    }
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    (x >> 11) as f64 / (1u64 << 53) as f64
}

fn run_cell(cfg: &ThroughputConfig, id: SchemeId) -> Option<(ThroughputCell, Snapshot)> {
    let sys = SystemConfig::paper_defaults(cfg.bandwidth);
    let plan = id.build().plan(&sys).ok()?;
    let videos = cfg.videos.min(plan.num_videos().max(1));
    let phase = phase_of(cfg.seed);
    let requests: Vec<Request> = (0..cfg.sessions)
        .map(|i| Request {
            at: Minutes(cfg.horizon.value() * (i as f64 + phase) / cfg.sessions as f64),
            video: VideoId(i % videos),
        })
        .collect();

    let sim = SystemSim::new(&plan, sys.display_rate, model_for(id));
    let out = sim.execute(RunConfig::new(&requests)).ok()?;
    let summary = out.fold;
    let engine = out.stats;

    let sim_minutes = cfg.horizon.value() + sys.video_length.value();
    Some((
        ThroughputCell {
            scheme: id.label(),
            sessions: summary.sessions,
            engine,
            sim_minutes,
            sessions_per_sim_minute: summary.sessions as f64 / sim_minutes,
            events_per_sim_minute: engine.fired as f64 / sim_minutes,
            summary,
        },
        out.snapshot,
    ))
}

/// The churn half: keep `live_target` events in flight, cancel-and-
/// replace `cancellations` times, then drain. Deterministic; its
/// [`EngineStats`] land in the JSON artifact so the agenda bound is
/// visible outside the test suite.
#[must_use]
pub fn agenda_churn(live_target: usize, cancellations: u64) -> ChurnReport {
    // The compaction floor below which the engine never purges; keep in
    // sync with `sb_sim::engine::COMPACT_FLOOR` (the churn test there
    // pins the same bound).
    const COMPACT_FLOOR: u64 = 32;
    let mut eng: Engine<u64> = Engine::new();
    let far = 1_000_000_000u64;
    let mut ring: std::collections::VecDeque<_> = (0..live_target as u64)
        .map(|i| eng.schedule_at(Ticks(far + i), i))
        .collect();
    for i in 0..cancellations {
        if let Some(id) = ring.pop_front() {
            eng.cancel(id);
        }
        ring.push_back(eng.schedule_at(Ticks(far + live_target as u64 + i), i));
    }
    eng.run(|_, _, _| {});
    ChurnReport {
        live_target,
        cancellations,
        engine: eng.stats(),
        agenda_bound: 2 * live_target as u64 + COMPACT_FLOOR,
    }
}

/// Run the study. Cells run in parallel on `runner` and merge in grid
/// order, so report and snapshot are byte-identical for every thread
/// count.
///
/// # Errors
/// Currently infallible in practice (infeasible cells are skipped); the
/// `Result` mirrors the other studies so callers treat it uniformly.
pub fn throughput_study(
    cfg: &ThroughputConfig,
    runner: &Runner,
) -> Result<(ThroughputReport, Snapshot)> {
    let cells: Vec<Option<(ThroughputCell, Snapshot)>> =
        runner.timed_map("throughput-grid", &cfg.schemes, |&id| run_cell(cfg, id));

    let churn = agenda_churn(cfg.churn_live, cfg.churn_cancels);

    let mut snapshot = Snapshot::default();
    let mut out = Vec::new();
    for cell in cells.into_iter().flatten() {
        snapshot.merge(&cell.1);
        out.push(cell.0);
    }
    let total_sessions = out.iter().map(|c| c.sessions).sum();
    let total_events_fired = out.iter().map(|c| c.engine.fired).sum();
    Ok((
        ThroughputReport {
            config: cfg.clone(),
            cells: out,
            churn,
            total_sessions,
            total_events_fired,
        },
        snapshot,
    ))
}

/// Plain-text rendering of a [`ThroughputReport`] for the CLI.
#[must_use]
pub fn render_throughput(report: &ThroughputReport) -> String {
    let cfg = &report.config;
    let mut out = String::new();
    out.push_str(&format!(
        "throughput study: {} Mb/s, {} sessions/cell over {} min, {} videos\n",
        cfg.bandwidth.value(),
        cfg.sessions,
        cfg.horizon.value(),
        cfg.videos,
    ));
    out.push_str(
        "scheme     sessions  scheduled     fired  cancelled  peak-agenda  compact  sess/sim-min\n",
    );
    for c in &report.cells {
        out.push_str(&format!(
            "{:<10} {:>8} {:>10} {:>9} {:>10} {:>12} {:>8} {:>13.4}\n",
            c.scheme,
            c.sessions,
            c.engine.scheduled,
            c.engine.fired,
            c.engine.cancelled,
            c.engine.peak_agenda,
            c.engine.compactions,
            c.sessions_per_sim_minute,
        ));
    }
    let ch = &report.churn;
    out.push_str(&format!(
        "\nagenda churn: {} live, {} cancellations -> peak agenda {} (bound {}, {}), \
         {} compactions\n",
        ch.live_target,
        ch.cancellations,
        ch.engine.peak_agenda,
        ch.agenda_bound,
        if ch.bounded() { "bounded" } else { "EXCEEDED" },
        ch.engine.compactions,
    ));
    out.push_str(&format!(
        "totals: {} sessions, {} events fired\n",
        report.total_sessions, report.total_events_fired,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_study_runs_and_is_conserved() {
        let (report, snap) = throughput_study(&ThroughputConfig::smoke(), &Runner::serial())
            .expect("smoke study runs");
        assert_eq!(report.cells.len(), 2);
        for c in &report.cells {
            assert_eq!(c.sessions, 60);
            // The engine's conservation law, visible from the outside:
            // every scheduled event either fired or was cancelled (the
            // drain leaves nothing pending).
            assert_eq!(c.engine.scheduled, c.engine.fired + c.engine.cancelled);
            assert!(c.sessions_per_sim_minute > 0.0);
            assert!(c.events_per_sim_minute > 0.0);
        }
        assert_eq!(report.total_sessions, 120);
        assert!(snap.counter_total("engine_events_total") > 0);
        let txt = render_throughput(&report);
        assert!(txt.contains("agenda churn"));
    }

    #[test]
    fn churn_half_stays_bounded_past_the_regression_floor() {
        let report = agenda_churn(128, 40_000);
        assert!(report.cancellations >= 10_000, "issue floor");
        assert_eq!(report.engine.cancelled, 40_000);
        assert!(
            report.bounded(),
            "peak agenda {} exceeded bound {}",
            report.engine.peak_agenda,
            report.agenda_bound
        );
        assert!(report.engine.compactions > 0, "the purge must have run");
        assert_eq!(
            report.engine.scheduled,
            report.engine.fired + report.engine.cancelled
        );
    }

    #[test]
    fn parallel_study_is_bit_identical_to_serial() {
        let cfg = ThroughputConfig::smoke();
        let (serial, s_snap) = throughput_study(&cfg, &Runner::serial()).unwrap();
        let (par, p_snap) = throughput_study(&cfg, &Runner::new(4)).unwrap();
        assert_eq!(serial, par);
        assert_eq!(s_snap, p_snap);
        assert_eq!(
            serde_json::to_string(&serial).unwrap(),
            serde_json::to_string(&par).unwrap()
        );
    }
}
