//! The distributed-tier study: catalog placement, cross-server routing
//! and peer-assisted delivery, priced against the Viennot et al. bound.
//!
//! Viennot et al., *Scalable Distributed Video-on-Demand* (PAPERS.md),
//! bounds the server bandwidth a distributed VoD system needs once
//! clients contribute upload capacity: in the scalable regime the
//! servers only have to *inject* each title once, everything else can
//! travel client-to-client. The sharded core plus the metro scenario
//! pack simulate exactly that regime, so this study measures how close
//! practical placement policies get:
//!
//! 1. Each preset's scenario stream runs through the broadcast
//!    simulator **once**, region-sharded (`shards = regions` with the
//!    scenario's owning-shard table), lifting every session into a
//!    [`SessionRecord`] — the placement never changes the broadcast
//!    schedule, only who pays for it.
//! 2. Every [`PlacementPolicy`] × peer-assist combination is then priced
//!    by the pure [`route_catalog`] accounting pass: standing broadcast
//!    per hosting server, shared backbone relays for remote fetches
//!    (per-link capacity, whole-session rejection), and — with peer
//!    assist on — head-only server broadcast with trailing segments
//!    served peer-to-peer out of per-region uplink budgets.
//! 3. Savings are reported against the naive fully-replicated metro
//!    (`servers × Σ full(t)`) next to the source-once bound
//!    (`Σ display(t)`), so every cell carries both "what we saved" and
//!    "how far from the theoretical floor we stopped".
//!
//! Determinism contract, like every study here: the report and snapshot
//! are byte-identical for every `--shards × --threads`. The
//! record pass fixes its own shard count (the region count); a flagship
//! pass re-runs the first preset at the caller's knobs and asserts the
//! lifted records are identical bytes.

use serde::{Deserialize, Serialize};
use vod_units::{Mbps, Minutes};

use sb_core::config::SystemConfig;
use sb_core::error::Result;
use sb_core::plan::VideoId;
use sb_metrics::Snapshot;
use sb_sim::distribution::{route_catalog, DistributionConfig, RouteOutcome, SessionRecord};
use sb_sim::system::{Request, SystemSim};
use sb_sim::trace::ClientModel;
use sb_sim::{RunConfig, TraceSink};
use sb_workload::placement::{Placement, PlacementPolicy};
use sb_workload::{MetroScenario, ScenarioPreset, ScenarioWorkload};

use crate::lineup::SchemeId;
use crate::runner::Runner;
use crate::scenario_study::model_for;

/// Parameters of the distribution study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DistributionStudyConfig {
    /// The geometry presets measured, in report order.
    pub presets: Vec<ScenarioPreset>,
    /// The broadcast scheme whose reception schedule is priced.
    pub scheme: SchemeId,
    /// Placement policies in report order.
    pub policies: Vec<PlacementPolicy>,
    /// Broadcast bandwidth per catalog title, Mb/s (the scenario-study
    /// sizing convention).
    pub per_video_mbps: f64,
    /// Metro-wide arrival rate, requests per minute.
    pub rate: f64,
    /// Workload horizon.
    pub horizon: Minutes,
    /// Mean exponential viewer patience.
    pub mean_patience: Minutes,
    /// Capacity of each directed metro backbone link, Mb/s.
    pub backbone_mbps: f64,
    /// First trailing segment index (peer-assist hands segments
    /// `>= tail_from` to peers).
    pub tail_from: usize,
    /// Fraction of a region's access-class downlink its peers may spend
    /// uploading.
    pub uplink_fraction: f64,
    /// Seed for geometry, demand and arrival draws.
    pub seed: u64,
}

impl DistributionStudyConfig {
    /// The full metro grid: all three presets, SB at the flagship
    /// width, all four placement policies over a 600-minute evening.
    #[must_use]
    pub fn paper_defaults() -> Self {
        Self {
            presets: vec![
                ScenarioPreset::Urban,
                ScenarioPreset::Rural,
                ScenarioPreset::Remote,
            ],
            scheme: SchemeId::Sb(Some(52)),
            policies: PlacementPolicy::all(),
            per_video_mbps: 30.0,
            rate: 6.0,
            horizon: Minutes(600.0),
            mean_patience: Minutes(45.0),
            backbone_mbps: 120.0,
            tail_from: 2,
            uplink_fraction: 0.5,
            seed: 17,
        }
    }

    /// The same shape at smoke scale for CI.
    #[must_use]
    pub fn smoke() -> Self {
        Self {
            rate: 4.0,
            horizon: Minutes(240.0),
            ..Self::paper_defaults()
        }
    }
}

/// One placement × peer-assist price tag.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyCell {
    /// Placement policy label (`full` / `partitioned` / `hothead` /
    /// `proportional`).
    pub policy: String,
    /// Whether peers served trailing segments.
    pub peer_assist: bool,
    /// Titles stored per server under this placement.
    pub storage: Vec<usize>,
    /// The raw routing outcome.
    pub outcome: RouteOutcome,
    /// Total server bandwidth (standing broadcast + peak fallback),
    /// Mb/s.
    pub server_mbps: f64,
    /// Server bandwidth plus peak backbone, Mb/s.
    pub footprint_mbps: f64,
    /// Server-bandwidth savings vs the naive fully-replicated metro
    /// (`1 − server/naive`).
    pub savings_vs_naive: f64,
    /// Footprint savings vs the naive metro (`1 − footprint/naive`).
    pub footprint_savings: f64,
    /// How many multiples of the source-once bound the servers spend
    /// (`server / bound`; 1.0 would meet Viennot's floor).
    pub bound_multiple: f64,
}

/// Everything measured for one preset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DistributionPreset {
    /// Preset label.
    pub preset: String,
    /// Catalog size.
    pub titles: usize,
    /// Region (and server) count: one server shard per region.
    pub servers: usize,
    /// Sessions offered to every cell.
    pub sessions: usize,
    /// The naive fully-replicated broadcast metro, Mb/s.
    pub naive_mbps: f64,
    /// The source-once bound, Mb/s.
    pub bound_mbps: f64,
    /// Savings the bound itself promises (`1 − bound/naive`).
    pub bound_savings: f64,
    /// One cell per policy × peer-assist, policies outer, peer-off
    /// first.
    pub cells: Vec<PolicyCell>,
}

/// The whole study. Byte-identical for every `--shards` and `--threads`
/// the invocation used.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DistributionReport {
    /// The configuration that produced this report.
    pub config: DistributionStudyConfig,
    /// One report per preset, in config order.
    pub presets: Vec<DistributionPreset>,
    /// Sessions in the flagship pass (the first preset's record run).
    pub total_sessions: usize,
    /// Events fired in the flagship pass, summed across its shards.
    pub total_events_fired: u64,
}

/// Streaming record lift: zips the trace stream (global engine order)
/// against the request metadata by cursor, exactly like the scenario
/// study's defection fold.
struct RecordFold<'a> {
    /// `(title, region)` per request, in slice order.
    meta: &'a [(usize, usize)],
    cursor: usize,
    records: Vec<SessionRecord>,
}

impl TraceSink for RecordFold<'_> {
    fn accept(&mut self, trace: &sb_sim::trace::SessionTrace) {
        let (title, region) = self.meta[self.cursor];
        self.cursor += 1;
        self.records
            .push(SessionRecord::from_trace(trace, title, region));
    }
}

/// Run one preset's scenario stream through the simulator and lift the
/// session records, at the given shard/thread knobs.
fn lift_records(
    cfg: &DistributionStudyConfig,
    scenario: &MetroScenario,
    knobs: (usize, usize),
) -> Result<(Vec<SessionRecord>, usize, u64, Snapshot)> {
    let (shards, threads) = knobs;
    let titles = scenario.titles();
    let sys = SystemConfig {
        num_videos: titles,
        ..SystemConfig::paper_defaults(Mbps(cfg.per_video_mbps * titles as f64))
    };
    let plan = cfg.scheme.build().plan(&sys)?;
    let reqs = ScenarioWorkload {
        rate_per_minute: cfg.rate,
        horizon: cfg.horizon,
        mean_patience: cfg.mean_patience,
        diurnal: false,
        flash: None,
        seed: cfg.seed,
    }
    .generate(scenario);
    let meta: Vec<(usize, usize)> = reqs.iter().map(|r| (r.video, r.region)).collect();
    let sim_reqs: Vec<Request> = reqs
        .iter()
        .map(|r| Request {
            at: r.at,
            video: VideoId(r.video),
        })
        .collect();
    let map = scenario.shard_map(shards);
    let mut fold = RecordFold {
        meta: &meta,
        cursor: 0,
        records: Vec::with_capacity(sim_reqs.len()),
    };
    let model: Box<dyn ClientModel> = model_for(cfg.scheme);
    let sim = SystemSim::new(&plan, sys.display_rate, &*model);
    let out = sim
        .execute(
            RunConfig::new(&sim_reqs)
                .shards(shards)
                .threads(threads)
                .partition(&map)
                .sink(&mut fold),
        )
        .expect("the scenario stream names only catalog titles");
    Ok((
        fold.records,
        out.fold.sessions,
        out.stats.fired,
        out.snapshot,
    ))
}

/// Price every policy × peer-assist combination over one preset's
/// records.
fn preset_cells(
    cfg: &DistributionStudyConfig,
    scenario: &MetroScenario,
    records: &[SessionRecord],
) -> DistributionPreset {
    let servers = scenario.regions.len();
    let uplinks: Vec<f64> = scenario
        .regions
        .iter()
        .map(|r| r.access.downlink().value() * cfg.uplink_fraction)
        .collect();
    let mut cells = Vec::with_capacity(cfg.policies.len() * 2);
    let mut naive = 0.0f64;
    let mut bound = 0.0f64;
    for &policy in &cfg.policies {
        let placement = Placement::build(policy, scenario, servers);
        for peer_assist in [false, true] {
            let dist = DistributionConfig {
                backbone_mbps: cfg.backbone_mbps,
                peer_assist,
                tail_from: cfg.tail_from,
                peer_uplink_mbps: uplinks.clone(),
            };
            let outcome = route_catalog(&dist, &placement, records);
            assert!(
                outcome.conservation_holds(),
                "peer-upload conservation violated: {} peer + {} server != {} consumed \
                 ({policy:?}, peer_assist {peer_assist})",
                outcome.peer_windows,
                outcome.server_windows(),
                outcome.consumed_windows,
            );
            naive = servers as f64 * outcome.sum_full_mbps;
            bound = outcome.bound_mbps;
            let server = outcome.server_mbps();
            let footprint = outcome.footprint_mbps();
            cells.push(PolicyCell {
                policy: policy.name().to_string(),
                peer_assist,
                storage: placement.storage_per_server(),
                server_mbps: server,
                footprint_mbps: footprint,
                savings_vs_naive: 1.0 - server / naive,
                footprint_savings: 1.0 - footprint / naive,
                bound_multiple: server / bound,
                outcome,
            });
        }
    }
    DistributionPreset {
        preset: scenario.config.preset.name().to_string(),
        titles: scenario.titles(),
        servers,
        sessions: records.len(),
        naive_mbps: naive,
        bound_mbps: bound,
        bound_savings: 1.0 - bound / naive,
        cells,
    }
}

/// Run the study. Presets run in parallel on `runner`; each record pass
/// fixes its shard count to the region count, and a flagship pass
/// re-lifts the first preset's records at `flagship_shards` with the
/// runner's thread pool, asserting identical bytes.
///
/// # Errors
/// Returns a planning error when `per_video_mbps` cannot sustain the
/// scheme.
///
/// # Panics
/// Panics when the flagship pass lifts different records than its
/// region-sharded cell (a `sim::shard` determinism violation) or when a
/// cell breaks the peer-upload conservation invariant.
pub fn distribution_study(
    cfg: &DistributionStudyConfig,
    flagship_shards: usize,
    runner: &Runner,
) -> Result<(DistributionReport, Snapshot)> {
    let mut scenarios = Vec::with_capacity(cfg.presets.len());
    for (pi, &preset) in cfg.presets.iter().enumerate() {
        let scenario = MetroScenario::generate(&preset.config(cfg.seed ^ (pi as u64) << 32));
        // Validate the plan once per preset before the parallel pass.
        let sys = SystemConfig {
            num_videos: scenario.titles(),
            ..SystemConfig::paper_defaults(Mbps(cfg.per_video_mbps * scenario.titles() as f64))
        };
        cfg.scheme.build().plan(&sys)?;
        scenarios.push(scenario);
    }

    let cells: Vec<(DistributionPreset, Vec<SessionRecord>)> =
        runner.timed_map("distribution-presets", &scenarios, |scenario| {
            let regions = scenario.regions.len();
            let (records, _, _, _) = lift_records(cfg, scenario, (regions, 1))
                .expect("plans validated before the parallel pass");
            let preset = preset_cells(cfg, scenario, &records);
            (preset, records)
        });

    // Flagship pass: the first preset again, at the caller's knobs. The
    // lifted records — not just an aggregate — must match bytes.
    let (flag_records, flag_sessions, flag_fired, snapshot) =
        lift_records(cfg, &scenarios[0], (flagship_shards, runner.threads()))?;
    assert_eq!(
        cells[0].1, flag_records,
        "the flagship pass lifted different session records than its region-sharded \
         cell — sim::shard determinism is broken",
    );

    let report = DistributionReport {
        config: cfg.clone(),
        presets: cells.into_iter().map(|(p, _)| p).collect(),
        total_sessions: flag_sessions,
        total_events_fired: flag_fired,
    };
    Ok((report, snapshot))
}

/// Plain-text rendering of a [`DistributionReport`] for the CLI.
#[must_use]
pub fn render_distribution(report: &DistributionReport) -> String {
    let cfg = &report.config;
    let mut out = String::new();
    out.push_str(&format!(
        "distribution study: rate {}/min over {} min, backbone {} Mb/s per link, \
         tail from segment {}, uplink fraction {}\n",
        cfg.rate,
        cfg.horizon.value(),
        cfg.backbone_mbps,
        cfg.tail_from,
        cfg.uplink_fraction,
    ));
    for p in &report.presets {
        out.push_str(&format!(
            "\npreset {} ({} titles, {} servers, {} sessions): naive {:.1} Mb/s, \
             source-once bound {:.1} Mb/s ({:.1}% savings at the floor)\n",
            p.preset,
            p.titles,
            p.servers,
            p.sessions,
            p.naive_mbps,
            p.bound_mbps,
            p.bound_savings * 100.0,
        ));
        out.push_str(
            "placement     peers  server   footprint  savings  backbone  rejected  peer-share\n",
        );
        for c in &p.cells {
            let peer_share = if c.outcome.consumed_windows > 0 {
                c.outcome.peer_windows as f64 / c.outcome.consumed_windows as f64
            } else {
                0.0
            };
            out.push_str(&format!(
                "{:<13} {:<6} {:>7.1} {:>9.1} {:>7.1}% {:>8.1} {:>9} {:>10.3}\n",
                c.policy,
                if c.peer_assist { "on" } else { "off" },
                c.server_mbps,
                c.footprint_mbps,
                c.savings_vs_naive * 100.0,
                c.outcome.backbone_peak_mbps,
                c.outcome.rejected,
                peer_share,
            ));
        }
    }
    out.push_str(&format!(
        "flagship: {} sessions, {} events fired\n",
        report.total_sessions, report.total_events_fired,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Unit-test scale: the record pass is the expensive part in debug
    /// builds, so tests shrink the stream; `smoke()` stays the
    /// release-build CI configuration.
    fn tiny() -> DistributionStudyConfig {
        DistributionStudyConfig {
            rate: 1.5,
            horizon: Minutes(120.0),
            ..DistributionStudyConfig::paper_defaults()
        }
    }

    #[test]
    fn study_prices_every_policy_and_conserves_bandwidth() {
        let cfg = tiny();
        let (report, snap) = distribution_study(&cfg, 2, &Runner::serial()).expect("study runs");
        assert_eq!(report.presets.len(), 3);
        for p in &report.presets {
            assert_eq!(p.cells.len(), cfg.policies.len() * 2);
            assert!(p.sessions > 0);
            for c in &p.cells {
                assert!(c.outcome.conservation_holds());
                assert!(c.server_mbps > 0.0);
                assert!(c.footprint_mbps >= c.server_mbps);
                // Nobody beats the source-once floor.
                assert!(c.bound_multiple >= 1.0, "{} {}", c.policy, c.bound_multiple);
            }
            // Full replication without peers IS the naive metro.
            let full = &p.cells[0];
            assert_eq!(full.policy, "full");
            assert!(!full.peer_assist);
            assert!(full.savings_vs_naive.abs() < 1e-9);
            assert_eq!(full.outcome.remote_fetches, 0);
        }
        assert!(snap.counter_total("engine_events_total") > 0);
        let txt = render_distribution(&report);
        assert!(txt.contains("preset urban"));
        assert!(txt.contains("source-once bound"));
    }

    #[test]
    fn peer_assisted_hot_head_strictly_beats_full_partitioning() {
        // The acceptance pin: on the metro scenario pack, replicating
        // the hot head and letting peers carry trailing segments costs
        // strictly less server bandwidth *and* metro footprint than
        // partitioning every title.
        let cfg = tiny();
        let (report, _) = distribution_study(&cfg, 1, &Runner::serial()).unwrap();
        for p in &report.presets {
            let find = |policy: &str, peers: bool| {
                p.cells
                    .iter()
                    .find(|c| c.policy == policy && c.peer_assist == peers)
                    .expect("cell present")
            };
            let hothead_peer = find("hothead", true);
            let partitioned = find("partitioned", false);
            assert!(
                hothead_peer.server_mbps < partitioned.server_mbps,
                "preset {}: hothead+peer server {} vs partitioned {}",
                p.preset,
                hothead_peer.server_mbps,
                partitioned.server_mbps,
            );
            assert!(
                hothead_peer.footprint_mbps < partitioned.footprint_mbps,
                "preset {}: hothead+peer footprint {} vs partitioned {}",
                p.preset,
                hothead_peer.footprint_mbps,
                partitioned.footprint_mbps,
            );
        }
    }

    #[test]
    fn report_is_invariant_to_flagship_knobs() {
        let cfg = DistributionStudyConfig {
            presets: vec![ScenarioPreset::Urban],
            ..tiny()
        };
        let (base, base_snap) = distribution_study(&cfg, 1, &Runner::serial()).unwrap();
        for (shards, threads) in [(2, 4), (4, 2)] {
            let (r, s) = distribution_study(&cfg, shards, &Runner::new(threads)).unwrap();
            assert_eq!(r, base, "flagship shards {shards}, threads {threads}");
            assert_eq!(s, base_snap);
            assert_eq!(
                serde_json::to_string(&r).unwrap(),
                serde_json::to_string(&base).unwrap()
            );
        }
    }
}
