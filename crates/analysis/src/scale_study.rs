//! Shard scale-out study of the streaming simulation core.
//!
//! The metropolitan question behind `sim::shard`: what does partitioning
//! one big SB server into `S` shards buy, and what does it cost? This
//! study drives one deterministic million-session arrival grid
//! ([`GridArrivals`]) through [`SystemSim::execute`] at every shard
//! count in the grid and reports, per `S`:
//!
//! * **agenda footprint** — each shard's agenda high-water mark, and the
//!   largest anywhere (`max_shard_peak_agenda`). This is the per-server
//!   memory story: `S` servers each hold roughly `1/S` of the pending
//!   events.
//! * **simulated rates** — sessions and engine events per *simulated*
//!   second, normalized by the arrival horizon plus one video length.
//!   Sim-time rates are pure functions of the workload, so every cell is
//!   byte-identical across machines and thread counts.
//!
//! The population summary ([`SessionSummary`]) is *shard-invariant* by
//! the merge-as-ordered-replay construction (see `DESIGN.md` §11); the
//! study asserts all cells fold to identical bytes and stores the shared
//! summary once. A **flagship** pass then re-runs the same grid at a
//! caller-chosen shard count (the CLI's `--shards`) and contributes only
//! shard-invariant fields, so `BENCH_scale.json` is byte-identical
//! whatever `--shards` and `--threads` the invocation used. Wall-clock
//! rates are machine truth, not simulation truth: binaries print them to
//! stderr and keep them out of the artifact.

use serde::{Deserialize, Serialize};
use vod_units::{Mbps, Minutes};

use sb_core::config::SystemConfig;
use sb_core::error::Result;
use sb_core::plan::VideoId;
use sb_metrics::Snapshot;
use sb_sim::policy::ClientPolicy;
use sb_sim::system::{Request, SystemSim};
use sb_sim::{EngineStats, RunConfig, SessionSummary};
use sb_workload::{GridArrivals, Patience};

use crate::lineup::SchemeId;
use crate::runner::Runner;

/// Parameters of the scale-out study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScaleConfig {
    /// Server bandwidth the plan is built against.
    pub bandwidth: Mbps,
    /// The scheme under scale-out (SB at the flagship width by default).
    pub scheme: SchemeId,
    /// Sessions in the arrival grid (the paper-scale default is ≥ 10⁶).
    pub sessions: usize,
    /// Arrivals are spread over `[0, horizon)`.
    pub horizon: Minutes,
    /// Videos the requests cycle through (must not exceed the catalog).
    pub videos: usize,
    /// Seed for the arrival-grid phase and the catalog-to-shard hash.
    pub seed: u64,
    /// Shard counts measured, in report order.
    pub shard_grid: Vec<usize>,
}

impl ScaleConfig {
    /// The paper-scale grid: ≥ 10⁶ sessions through the flagship SB
    /// width at `S ∈ {1, 2, 4, 8}`.
    #[must_use]
    pub fn paper_defaults() -> Self {
        Self {
            bandwidth: Mbps(320.0),
            scheme: SchemeId::Sb(Some(52)),
            sessions: 1_100_000,
            horizon: Minutes(50_000.0),
            videos: 10,
            seed: 17,
            shard_grid: vec![1, 2, 4, 8],
        }
    }

    /// A tiny grid for smoke tests and CI: same shape, thousands of
    /// sessions instead of millions.
    #[must_use]
    pub fn smoke() -> Self {
        Self {
            sessions: 4_000,
            horizon: Minutes(400.0),
            ..Self::paper_defaults()
        }
    }
}

/// One shard count's cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScaleCell {
    /// Shard count of this cell.
    pub shards: usize,
    /// Engine statistics summed across the cell's shards
    /// (`peak_agenda` is the maximum anywhere).
    pub stats: EngineStats,
    /// Each shard's agenda high-water mark, in shard order.
    pub shard_peak_agenda: Vec<u64>,
    /// The largest per-shard agenda — the memory a single server needs.
    pub max_shard_peak_agenda: u64,
    /// Simulated span the rates below are normalized by, in seconds.
    pub sim_seconds: f64,
    /// Sessions served per simulated second.
    pub sessions_per_sim_second: f64,
    /// Engine events fired per simulated second (summed over shards).
    pub events_per_sim_second: f64,
}

/// The whole study. Every field is shard- and thread-invariant except
/// the per-cell agenda columns, which vary with the *cell's* shard count
/// (that variation is the measurement) but never with how the study was
/// invoked.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScaleReport {
    /// The configuration that produced this report.
    pub config: ScaleConfig,
    /// One cell per grid shard count, in grid order.
    pub cells: Vec<ScaleCell>,
    /// The population summary every cell folded to — identical across
    /// shard counts by construction, stored once.
    pub fold: SessionSummary,
    /// Sessions in the flagship pass (equals `config.sessions` when the
    /// plan covers every requested title).
    pub total_sessions: usize,
    /// Events fired in the flagship pass, summed across its shards
    /// (shard-invariant: each session fires the same events wherever it
    /// lives).
    pub total_events_fired: u64,
}

fn grid_requests(cfg: &ScaleConfig, videos: usize) -> Vec<Request> {
    GridArrivals {
        sessions: cfg.sessions,
        horizon: cfg.horizon,
        titles: videos,
        patience: Patience::Infinite,
        seed: cfg.seed,
    }
    .generate()
    .into_iter()
    .map(|w| Request {
        at: w.at,
        video: VideoId(w.video),
    })
    .collect()
}

/// Run the study: one cell per grid shard count (in parallel on
/// `runner`, serial inside each cell), then the flagship pass at
/// `flagship_shards` with the runner's full thread pool. The report and
/// snapshot are byte-identical for every `flagship_shards` and every
/// thread count.
///
/// # Errors
/// Returns the scheme's planning error when `config.bandwidth` cannot
/// sustain the scheme.
///
/// # Panics
/// Panics if any two shard counts fold to different population
/// summaries — a determinism violation in `sim::shard`, never a
/// configuration problem.
pub fn scale_study(
    cfg: &ScaleConfig,
    flagship_shards: usize,
    runner: &Runner,
) -> Result<(ScaleReport, Snapshot)> {
    let sys = SystemConfig::paper_defaults(cfg.bandwidth);
    let plan = cfg.scheme.build().plan(&sys)?;
    let videos = cfg.videos.min(plan.num_videos().max(1));
    let requests = grid_requests(cfg, videos);
    let sim_seconds = (cfg.horizon.value() + sys.video_length.value()) * 60.0;

    let cells: Vec<(ScaleCell, SessionSummary)> =
        runner.timed_map("scale-grid", &cfg.shard_grid, |&shards| {
            let sim = SystemSim::new(&plan, sys.display_rate, ClientPolicy::LatestFeasible);
            let out = sim
                .execute(RunConfig::new(&requests).shards(shards).seed(cfg.seed))
                .expect("the grid run has no faults to reject");
            let max_peak = out.shard_peak_agenda.iter().copied().max().unwrap_or(0);
            (
                ScaleCell {
                    shards,
                    stats: out.stats,
                    max_shard_peak_agenda: max_peak,
                    shard_peak_agenda: out.shard_peak_agenda,
                    sim_seconds,
                    sessions_per_sim_second: out.fold.sessions as f64 / sim_seconds,
                    events_per_sim_second: out.stats.fired as f64 / sim_seconds,
                },
                out.fold,
            )
        });

    // The flagship pass: same workload, caller's shard count, full
    // thread pool. Only shard-invariant fields of it enter the report.
    let sim = SystemSim::new(&plan, sys.display_rate, ClientPolicy::LatestFeasible);
    let flagship = sim
        .execute(
            RunConfig::new(&requests)
                .shards(flagship_shards)
                .threads(runner.threads())
                .seed(cfg.seed),
        )
        .expect("the flagship run has no faults to reject");

    let mut out = Vec::with_capacity(cells.len());
    let mut fold = flagship.fold.clone();
    for (cell, cell_fold) in cells {
        assert_eq!(
            serde_json::to_string(&cell_fold).expect("summaries serialize"),
            serde_json::to_string(&fold).expect("summaries serialize"),
            "shard count {} folded a different population than the flagship — \
             sim::shard determinism is broken",
            cell.shards,
        );
        fold = cell_fold;
        out.push(cell);
    }

    let report = ScaleReport {
        config: cfg.clone(),
        cells: out,
        total_sessions: fold.sessions,
        total_events_fired: flagship.stats.fired,
        fold,
    };
    Ok((report, flagship.snapshot))
}

/// Plain-text rendering of a [`ScaleReport`] for the CLI.
#[must_use]
pub fn render_scale(report: &ScaleReport) -> String {
    let cfg = &report.config;
    let mut out = String::new();
    out.push_str(&format!(
        "scale study: {} at {} Mb/s, {} sessions over {} min, {} videos\n",
        cfg.scheme.label(),
        cfg.bandwidth.value(),
        cfg.sessions,
        cfg.horizon.value(),
        cfg.videos,
    ));
    out.push_str(
        "shards  scheduled      fired  max-shard-agenda  per-shard-agenda       sess/sim-s\n",
    );
    for c in &report.cells {
        let per_shard = c
            .shard_peak_agenda
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(",");
        out.push_str(&format!(
            "{:<7} {:>9} {:>10} {:>17} {:<22} {:>10.4}\n",
            c.shards,
            c.stats.scheduled,
            c.stats.fired,
            c.max_shard_peak_agenda,
            per_shard,
            c.sessions_per_sim_second,
        ));
    }
    out.push_str(&format!(
        "population: {} sessions, {} events fired, mean latency {:.4} min\n",
        report.total_sessions,
        report.total_events_fired,
        report.fold.mean_latency.value(),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_study_scales_down_the_agenda() {
        let (report, snap) =
            scale_study(&ScaleConfig::smoke(), 2, &Runner::serial()).expect("smoke study runs");
        assert_eq!(report.cells.len(), 4);
        assert_eq!(report.total_sessions, 4_000);
        for c in &report.cells {
            assert_eq!(c.shard_peak_agenda.len(), c.shards);
            assert_eq!(
                c.max_shard_peak_agenda,
                c.shard_peak_agenda.iter().copied().max().unwrap()
            );
            // Conservation: every scheduled event fired or was cancelled.
            assert_eq!(c.stats.scheduled, c.stats.fired + c.stats.cancelled);
            assert!(c.sessions_per_sim_second > 0.0);
        }
        // Sharding shrinks the largest single agenda: 8 servers each
        // hold well under what the monolith held.
        let one = report.cells[0].max_shard_peak_agenda;
        let eight = report.cells[3].max_shard_peak_agenda;
        assert!(eight < one, "8-shard peak {eight} vs monolith {one}");
        assert!(snap.counter_total("engine_events_total") > 0);
        let txt = render_scale(&report);
        assert!(txt.contains("scale study"));
        assert!(txt.contains("sess/sim-s"));
    }

    #[test]
    fn report_is_invariant_to_flagship_shards_and_threads() {
        let cfg = ScaleConfig::smoke();
        let (base, base_snap) = scale_study(&cfg, 1, &Runner::serial()).unwrap();
        for (shards, threads) in [(2, 1), (4, 4), (8, 3)] {
            let (r, s) = scale_study(&cfg, shards, &Runner::new(threads)).unwrap();
            assert_eq!(r, base, "flagship shards {shards}, threads {threads}");
            assert_eq!(s, base_snap);
            assert_eq!(
                serde_json::to_string(&r).unwrap(),
                serde_json::to_string(&base).unwrap()
            );
        }
    }
}
