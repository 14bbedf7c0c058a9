//! The crash-recovery study: what a checkpoint cadence costs and buys.
//!
//! The supervisor (`sb_resilience::recovery`) makes one promise — a
//! killed-and-resumed run is bitwise identical to an uninterrupted one —
//! and charges one price: replayed sessions. A shard killed between
//! checkpoints re-executes everything since the last one, so the cadence
//! sets the trade: checkpoint often and pay serialization every few
//! sessions, or rarely and re-run long stretches after every crash.
//!
//! This study drives one deterministic arrival grid through the
//! [`Supervisor`] under one seeded [`CrashScript`] at every cadence in
//! the grid and reports, per cadence: checkpoints written, sessions
//! replayed, restores, corruption rejections, and the *modeled* recovery
//! delay (the backoff schedule summed, never slept). Every cell also
//! re-verifies the flagship invariant — `identical` is the byte
//! comparison of the supervised outcome against a plain
//! [`SystemSim::execute`] of the same configuration, and the study
//! panics if it ever reads `false` (a determinism violation, not a
//! configuration problem).
//!
//! Cells run in parallel on the [`Runner`]; results are assembled in
//! grid order, so `BENCH_recovery.json` is byte-identical for every
//! `--threads` choice.

use serde::{Deserialize, Serialize};
use vod_units::{Mbps, Minutes};

use sb_core::config::SystemConfig;
use sb_core::error::{Result, SchemeError};
use sb_core::plan::VideoId;
use sb_resilience::{Backoff, CrashScript, Recovered, RunSpec, Supervisor};
use sb_sim::policy::ClientPolicy;
use sb_sim::system::{Request, SystemSim};
use sb_sim::{RunConfig, RunOutcome, SessionSummary};
use sb_workload::{GridArrivals, Patience};

use crate::lineup::SchemeId;
use crate::runner::Runner;

/// Parameters of the recovery study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveryConfig {
    /// Server bandwidth the plan is built against.
    pub bandwidth: Mbps,
    /// The scheme under supervision (SB at the flagship width).
    pub scheme: SchemeId,
    /// Sessions in the arrival grid.
    pub sessions: usize,
    /// Arrivals are spread over `[0, horizon)`.
    pub horizon: Minutes,
    /// Videos the requests cycle through (clamped to the catalog).
    pub videos: usize,
    /// Seed for the arrival grid, the shard hash, and the chaos script.
    pub seed: u64,
    /// Shard count of every supervised run.
    pub shards: usize,
    /// Kill events the seeded chaos script injects per cell.
    pub kills: usize,
    /// Checkpoint cadences measured, in report order (sessions between
    /// checkpoints; every entry must be ≥ 1).
    pub cadence_grid: Vec<u64>,
    /// Base delay of the restart backoff schedule.
    pub backoff_base: Minutes,
    /// Multiplier of the restart backoff schedule.
    pub backoff_factor: f64,
    /// Restart budget per shard.
    pub max_restarts: u32,
}

impl RecoveryConfig {
    /// The full study: tens of thousands of sessions over four shards,
    /// six seeded kills, cadences from eager to lazy.
    #[must_use]
    pub fn paper_defaults() -> Self {
        Self {
            bandwidth: Mbps(320.0),
            scheme: SchemeId::Sb(Some(52)),
            sessions: 40_000,
            horizon: Minutes(2_000.0),
            videos: 10,
            seed: 17,
            shards: 4,
            kills: 6,
            cadence_grid: vec![10, 50, 250, 1_000],
            backoff_base: Minutes(1.0),
            backoff_factor: 2.0,
            max_restarts: 8,
        }
    }

    /// A tiny grid for smoke tests and CI: same shape, thousands of
    /// sessions instead of tens of thousands.
    #[must_use]
    pub fn smoke() -> Self {
        Self {
            sessions: 2_000,
            horizon: Minutes(200.0),
            cadence_grid: vec![10, 50, 200],
            ..Self::paper_defaults()
        }
    }
}

/// One cadence's cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveryRow {
    /// Sessions between checkpoints in this cell.
    pub cadence: u64,
    /// Checkpoints written across all shards and attempts.
    pub checkpoints: u64,
    /// Scripted kills that fired.
    pub crashes_injected: u64,
    /// Restarts that resumed from an intact checkpoint.
    pub restores: u64,
    /// Checkpoints rejected by their checksum on restore.
    pub corrupt_rejected: u64,
    /// Sessions re-executed because they post-dated the restored
    /// checkpoint — the cost of the cadence.
    pub replayed_sessions: u64,
    /// Modeled backoff delay summed over every restart.
    pub recovery_delay: Minutes,
    /// Whether every shard completed inside the restart budget.
    pub complete: bool,
    /// The flagship invariant, re-verified: supervised bytes equal an
    /// uninterrupted `execute` of the same configuration.
    pub identical: bool,
}

/// The whole study. Byte-identical for every thread count (the
/// determinism gate in `scripts/verify.sh` diffs it).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveryReport {
    /// The configuration that produced this report.
    pub config: RecoveryConfig,
    /// One row per grid cadence, in grid order.
    pub rows: Vec<RecoveryRow>,
    /// The population summary of the uninterrupted baseline (and, by the
    /// `identical` invariant, of every complete supervised cell).
    pub fold: SessionSummary,
}

fn grid_requests(cfg: &RecoveryConfig, videos: usize) -> Vec<Request> {
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

fn outcome_bytes(o: &RunOutcome) -> String {
    serde_json::to_string(&(&o.summary, &o.fold, &o.snapshot)).expect("outcomes serialize")
}

/// Run the study: one uninterrupted baseline, then one supervised cell
/// per grid cadence (cells in parallel on `runner`), every cell under
/// the same seeded chaos script.
///
/// # Errors
/// Returns the scheme's planning error when `config.bandwidth` cannot
/// sustain the scheme, and [`SchemeError::InvalidConfig`] for a
/// non-positive backoff or a zero cadence in the grid.
///
/// # Panics
/// Panics if any complete supervised cell diverges from the baseline
/// bytes — a determinism violation in the supervisor, never a
/// configuration problem.
pub fn recovery_study(cfg: &RecoveryConfig, runner: &Runner) -> Result<RecoveryReport> {
    let backoff = Backoff::new(cfg.backoff_base, cfg.backoff_factor, cfg.max_restarts)?;
    if cfg.cadence_grid.contains(&0) {
        return Err(SchemeError::InvalidConfig {
            what: "recovery cadence grid contains 0 (a checkpoint cadence must be ≥ 1 session)",
        });
    }
    let sys = SystemConfig::paper_defaults(cfg.bandwidth);
    let plan = cfg.scheme.build().plan(&sys)?;
    let videos = cfg.videos.min(plan.num_videos().max(1));
    let requests = grid_requests(cfg, videos);
    let chaos = CrashScript::seeded(cfg.seed, cfg.shards, cfg.kills);

    let sim = SystemSim::new(&plan, sys.display_rate, ClientPolicy::LatestFeasible);
    let baseline = sim
        .execute(RunConfig::new(&requests).shards(cfg.shards).seed(cfg.seed))
        .expect("the grid run has no faults to reject");
    let baseline_bytes = outcome_bytes(&baseline);

    let rows = runner.timed_map("recovery-cadence", &cfg.cadence_grid, |&cadence| {
        let supervisor =
            Supervisor::new(backoff, cadence).expect("zero cadences were rejected above");
        let sim = SystemSim::new(&plan, sys.display_rate, ClientPolicy::LatestFeasible);
        let spec = RunSpec {
            shards: cfg.shards,
            threads: 1, // the runner parallelizes across cells
            seed: cfg.seed,
            partition: None,
        };
        let recovered = supervisor
            .run(&sim, &requests, &spec, &chaos)
            .expect("the seeded script targets only existing shards");
        let stats = *recovered.stats();
        let complete = matches!(recovered, Recovered::Complete { .. });
        let identical = complete && outcome_bytes(recovered.outcome()) == baseline_bytes;
        assert!(
            identical || !complete,
            "cadence {cadence}: a complete supervised run diverged from the \
             uninterrupted baseline — supervisor determinism is broken",
        );
        RecoveryRow {
            cadence,
            checkpoints: stats.checkpoints_taken,
            crashes_injected: stats.crashes_injected,
            restores: stats.restores,
            corrupt_rejected: stats.corrupt_rejected,
            replayed_sessions: stats.replayed_sessions,
            recovery_delay: stats.recovery_delay,
            complete,
            identical,
        }
    });

    Ok(RecoveryReport {
        config: cfg.clone(),
        rows,
        fold: baseline.fold,
    })
}

/// Plain-text rendering of a [`RecoveryReport`] for the CLI.
#[must_use]
pub fn render_recovery(report: &RecoveryReport) -> String {
    let cfg = &report.config;
    let mut out = String::new();
    out.push_str(&format!(
        "recovery study: {} at {} Mb/s, {} sessions on {} shard(s), {} seeded kill(s)\n",
        cfg.scheme.label(),
        cfg.bandwidth.value(),
        cfg.sessions,
        cfg.shards,
        cfg.kills,
    ));
    out.push_str(
        "cadence  checkpoints  crashes  restores  corrupt  replayed  delay(min)  identical\n",
    );
    for r in &report.rows {
        out.push_str(&format!(
            "{:<8} {:>11} {:>8} {:>9} {:>8} {:>9} {:>11.1}  {}\n",
            r.cadence,
            r.checkpoints,
            r.crashes_injected,
            r.restores,
            r.corrupt_rejected,
            r.replayed_sessions,
            r.recovery_delay.value(),
            if r.identical {
                "yes"
            } else if r.complete {
                "NO"
            } else {
                "partial"
            },
        ));
    }
    out.push_str(&format!(
        "baseline: {} sessions, mean latency {:.4} min\n",
        report.fold.sessions,
        report.fold.mean_latency.value(),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_study_trades_checkpoints_for_replay() {
        let report =
            recovery_study(&RecoveryConfig::smoke(), &Runner::serial()).expect("smoke study runs");
        assert_eq!(report.rows.len(), 3);
        assert_eq!(report.fold.sessions, 2_000);
        for r in &report.rows {
            assert!(r.complete, "cadence {}: shards within budget", r.cadence);
            assert!(r.identical, "cadence {}: the flagship invariant", r.cadence);
            assert!(r.crashes_injected > 0, "the seeded script fires");
            assert!(r.checkpoints > 0);
        }
        // The trade the study exists to show: an eager cadence writes
        // more checkpoints and replays fewer sessions than a lazy one.
        let eager = &report.rows[0];
        let lazy = report.rows.last().unwrap();
        assert!(eager.checkpoints > lazy.checkpoints);
        assert!(eager.replayed_sessions <= lazy.replayed_sessions);
        let txt = render_recovery(&report);
        assert!(txt.contains("recovery study"));
        assert!(txt.contains("identical"));
    }

    #[test]
    fn report_is_invariant_to_threads() {
        let cfg = RecoveryConfig::smoke();
        let base = recovery_study(&cfg, &Runner::serial()).unwrap();
        for threads in [2usize, 4] {
            let r = recovery_study(&cfg, &Runner::new(threads)).unwrap();
            assert_eq!(r, base, "threads {threads}");
            assert_eq!(
                serde_json::to_string(&r).unwrap(),
                serde_json::to_string(&base).unwrap()
            );
        }
    }

    #[test]
    fn zero_cadence_is_a_typed_error() {
        let cfg = RecoveryConfig {
            cadence_grid: vec![10, 0],
            ..RecoveryConfig::smoke()
        };
        let err = recovery_study(&cfg, &Runner::serial()).unwrap_err();
        assert!(matches!(err, SchemeError::InvalidConfig { .. }));
        assert!(err.to_string().contains("cadence"));
    }
}
