//! The metropolitan scenario study: spatial density, regional shards,
//! and temporal stress, measured per region class.
//!
//! The paper pitches Skyscraper Broadcasting for *metropolitan* VoD, yet
//! every other study here drives a spatially uniform workload — one Zipf
//! catalog, one Poisson stream, shards split by a hash with no
//! geography. This study runs the [`sb_workload::scenario`] geometry
//! end-to-end instead: each preset (urban/rural/remote) generates a
//! [`MetroScenario`] — clustered users on a km grid, per-region demand
//! shares, access classes, region-local catalogs with a shared hot
//! head — and the study measures, per preset:
//!
//! * **scheme cells** — SB vs the baselines (PB, staggered, HB) over the
//!   scenario stream, executed region-sharded: `shards =
//!   regions`, with the scenario's owning-shard table in the
//!   [`RunConfig::partition`] slot so each shard owns a region's catalog
//!   slice and arrival stream. Latency and *would-be defection* (startup
//!   latency exceeding the viewer's drawn patience — broadcast delivery
//!   never actually queues) are tabulated per access class, and the
//!   per-shard agenda peaks expose the asymmetric regional load.
//! * **a flash-crowd cell** — the scenario's premiere stream (a cold
//!   local title jumps to Zipf rank 1 mid-run via the
//!   [`sb_workload::PopularityShift`] rotation) through the control
//!   plane, static vs dynamic allocation. Dynamic swaps the premiere
//!   into a broadcast slot; static leaves it to the batching pool.
//! * **an outage cell** — a correlated regional outage
//!   ([`FaultScript::correlated_outages`] over the busiest region's
//!   broadcast slots) against the same stream, quiet vs faulted.
//! * **a diurnal cell** — the diurnal × density cross product: the same
//!   scenario under the evening-surge profile vs the flat profile.
//!
//! Determinism contract (pinned by tests and `scripts/verify.sh`): the
//! report and snapshot are byte-identical for every `--shards` and
//! `--threads` the study is invoked with. Scheme cells
//! fix their own shard count (the region count — a property of the
//! scenario, never of the invocation); control cells run unsharded; a
//! flagship pass re-runs the first scheme cell at the *caller's* shard
//! and thread knobs and asserts it folds to the identical bytes,
//! contributing only shard-invariant totals.

use serde::{Deserialize, Serialize};
use vod_units::{Mbps, Minutes};

use sb_control::{ControlConfig, ControlFaults, ControlPolicy, ControlReport, ControlledSim};
use sb_core::config::SystemConfig;
use sb_core::error::Result;
use sb_core::plan::{ChannelPlan, VideoId};
use sb_metrics::Snapshot;
use sb_resilience::{Degradation, FaultScript};
use sb_sim::policy::ClientPolicy;
use sb_sim::system::{Request, SystemSim};
use sb_sim::trace::{ClientModel, PausingClient, RecordingClient};
use sb_sim::{RunConfig, SessionSummary, TraceSink};
use sb_workload::{
    to_workload, AccessClass, Catalog, FlashCrowd, MetroScenario, ScenarioPreset, ScenarioRequest,
    ScenarioWorkload,
};

use crate::lineup::SchemeId;
use crate::runner::Runner;

/// The client model each scheme's receivers follow (the same map the
/// resilience and throughput studies use).
pub(crate) fn model_for(id: SchemeId) -> Box<dyn ClientModel> {
    match id {
        SchemeId::PbA | SchemeId::PbB => Box::new(ClientPolicy::PbEarliest),
        SchemeId::PpbA | SchemeId::PpbB => Box::new(PausingClient),
        SchemeId::Harmonic => Box::new(RecordingClient::default()),
        _ => Box::new(ClientPolicy::LatestFeasible),
    }
}

/// Parameters of the scenario study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioStudyConfig {
    /// The geometry presets measured, in report order.
    pub presets: Vec<ScenarioPreset>,
    /// The scheme lineup per preset (SB first: the diurnal cell and the
    /// flagship pass reuse the first entry).
    pub schemes: Vec<SchemeId>,
    /// Broadcast bandwidth *per catalog title*, Mb/s. The server is
    /// sized `per_video_mbps × titles`, so every preset's catalog gets
    /// the same per-title budget whatever its region count.
    pub per_video_mbps: f64,
    /// Metro-wide arrival rate, requests per minute, split across
    /// regions by demand share.
    pub rate: f64,
    /// Workload horizon.
    pub horizon: Minutes,
    /// Mean exponential viewer patience.
    pub mean_patience: Minutes,
    /// Server bandwidth of the control-plane cells (flash, outage).
    pub control_bandwidth: Mbps,
    /// When the premiere drops in the flash-crowd cell.
    pub flash_at: Minutes,
    /// Rate multiplier of the premiere evening relative to `rate`.
    pub flash_rate_boost: f64,
    /// When the correlated regional outage begins.
    pub outage_start: Minutes,
    /// How long the outage lasts.
    pub outage_duration: Minutes,
    /// Seed for placement, demand and arrival draws.
    pub seed: u64,
}

impl ScenarioStudyConfig {
    /// The full metro grid: all three presets, SB at the flagship width
    /// against PB:b, staggered and HB over a 600-minute evening.
    #[must_use]
    pub fn paper_defaults() -> Self {
        Self {
            presets: vec![
                ScenarioPreset::Urban,
                ScenarioPreset::Rural,
                ScenarioPreset::Remote,
            ],
            schemes: vec![
                SchemeId::Sb(Some(52)),
                SchemeId::PbB,
                SchemeId::Staggered,
                SchemeId::Harmonic,
            ],
            per_video_mbps: 30.0,
            rate: 6.0,
            horizon: Minutes(600.0),
            mean_patience: Minutes(45.0),
            control_bandwidth: Mbps(300.0),
            flash_at: Minutes(150.0),
            flash_rate_boost: 2.0,
            outage_start: Minutes(200.0),
            outage_duration: Minutes(60.0),
            seed: 17,
        }
    }

    /// The same shape at smoke scale for CI: shorter horizon, fewer
    /// arrivals, premiere and outage pulled forward proportionally.
    #[must_use]
    pub fn smoke() -> Self {
        Self {
            rate: 4.0,
            horizon: Minutes(240.0),
            flash_at: Minutes(80.0),
            outage_start: Minutes(90.0),
            outage_duration: Minutes(40.0),
            ..Self::paper_defaults()
        }
    }
}

/// One region's row of a preset's geometry table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegionRow {
    /// Region id.
    pub id: usize,
    /// Users attached (cluster + background).
    pub users: usize,
    /// Normalized demand share.
    pub demand_share: f64,
    /// Access-class label (`fiber` / `cable` / `dsl`).
    pub access: String,
    /// Downlink of the class, Mb/s.
    pub downlink_mbps: f64,
}

/// Latency/defection aggregates for one access class under one scheme.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassRow {
    /// Access-class label.
    pub access: String,
    /// Regions of this class in the preset.
    pub regions: usize,
    /// Sessions originating from the class's regions.
    pub sessions: usize,
    /// Sessions whose startup latency exceeded the viewer's patience.
    pub defected: usize,
    /// Mean startup latency over the class's sessions.
    pub mean_latency: Minutes,
    /// 95th-percentile startup latency (nearest rank).
    pub p95_latency: Minutes,
}

/// One scheme's region-sharded run over the scenario stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchemeCell {
    /// The scheme.
    pub scheme: SchemeId,
    /// Its display label.
    pub label: String,
    /// The population fold (shard-invariant by construction).
    pub overall: SessionSummary,
    /// Would-be defections over the whole metro.
    pub defected: usize,
    /// Per-access-class latency/defection table, in first-appearance
    /// region order.
    pub classes: Vec<ClassRow>,
    /// Each region shard's agenda high-water mark, in region order —
    /// asymmetric exactly as the demand shares are.
    pub shard_peak_agenda: Vec<u64>,
}

/// The flash-crowd cell: static vs dynamic allocation over the premiere
/// stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlashCell {
    /// The region hosting the premiere (the busiest by demand share).
    pub region: usize,
    /// Metro arrival rate of the premiere evening.
    pub rate: f64,
    /// The static-allocation run.
    pub static_report: ControlReport,
    /// The dynamic-allocation run.
    pub dynamic_report: ControlReport,
}

/// The correlated-outage cell: the busiest region's broadcast slots go
/// dark mid-run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OutageCell {
    /// The region whose slots fail.
    pub region: usize,
    /// The broadcast slots taken out (the region's round-robin share).
    pub slots: Vec<usize>,
    /// Dynamic allocation with no faults, for reference.
    pub quiet_report: ControlReport,
    /// Dynamic allocation under the outage script.
    pub faulted_report: ControlReport,
}

/// The diurnal × density cell: the first scheme under the evening-surge
/// profile vs the flat profile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiurnalCell {
    /// Sessions of the diurnal stream (its own Poisson counts).
    pub sessions: usize,
    /// Would-be defections under the diurnal profile.
    pub defected: usize,
    /// Mean startup latency under the diurnal profile.
    pub mean_latency: Minutes,
    /// 95th-percentile startup latency under the diurnal profile.
    pub p95_latency: Minutes,
}

/// Everything measured for one preset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PresetReport {
    /// Preset label (`urban` / `rural` / `remote`).
    pub preset: String,
    /// Catalog size: shared hot head plus every region slice.
    pub titles: usize,
    /// The geometry table, in region order.
    pub regions: Vec<RegionRow>,
    /// One region-sharded cell per scheme, in lineup order.
    pub schemes: Vec<SchemeCell>,
    /// The premiere flash crowd, static vs dynamic.
    pub flash: FlashCell,
    /// The correlated regional outage, quiet vs faulted.
    pub outage: OutageCell,
    /// The diurnal × density cross product.
    pub diurnal: DiurnalCell,
}

/// The whole study. Byte-identical for every `--shards` and `--threads`
/// the invocation used.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioReport {
    /// The configuration that produced this report.
    pub config: ScenarioStudyConfig,
    /// One report per preset, in config order.
    pub presets: Vec<PresetReport>,
    /// Sessions in the flagship pass (the first preset's first scheme).
    pub total_sessions: usize,
    /// Events fired in the flagship pass, summed across its shards.
    pub total_events_fired: u64,
}

/// Streaming per-class latency/defection fold over the trace stream.
///
/// Traces arrive in global engine order, which for a time-sorted request
/// slice equals slice order on both the serial and the sharded path (the
/// ordered-replay merge reconstructs it) — so the `cursor`-indexed zip
/// against the request metadata is shard- and thread-invariant.
struct DefectionFold<'a> {
    /// `(class index, patience minutes)` per request, in slice order.
    meta: &'a [(usize, f64)],
    cursor: usize,
    sessions: Vec<usize>,
    defected: Vec<usize>,
    latency_sum: Vec<f64>,
    latencies: Vec<Vec<f64>>,
}

impl<'a> DefectionFold<'a> {
    fn new(meta: &'a [(usize, f64)], classes: usize) -> Self {
        Self {
            meta,
            cursor: 0,
            sessions: vec![0; classes],
            defected: vec![0; classes],
            latency_sum: vec![0.0; classes],
            latencies: vec![Vec::new(); classes],
        }
    }

    fn rows(&self, class_labels: &[(AccessClass, usize)]) -> Vec<ClassRow> {
        class_labels
            .iter()
            .enumerate()
            .map(|(c, &(access, regions))| {
                let mut sorted = self.latencies[c].clone();
                sorted.sort_by(f64::total_cmp);
                let p95 = if sorted.is_empty() {
                    0.0
                } else {
                    sorted[((sorted.len() as f64 - 1.0) * 0.95).round() as usize]
                };
                ClassRow {
                    access: access.name().to_string(),
                    regions,
                    sessions: self.sessions[c],
                    defected: self.defected[c],
                    mean_latency: Minutes(if self.sessions[c] > 0 {
                        self.latency_sum[c] / self.sessions[c] as f64
                    } else {
                        0.0
                    }),
                    p95_latency: Minutes(p95),
                }
            })
            .collect()
    }

    fn total_defected(&self) -> usize {
        self.defected.iter().sum()
    }
}

impl TraceSink for DefectionFold<'_> {
    fn accept(&mut self, trace: &sb_sim::trace::SessionTrace) {
        let (class, patience) = self.meta[self.cursor];
        self.cursor += 1;
        let latency = trace.startup_latency().value();
        self.sessions[class] += 1;
        self.latency_sum[class] += latency;
        self.latencies[class].push(latency);
        if latency > patience {
            self.defected[class] += 1;
        }
    }
}

/// Per-preset inputs prepared (and validated) before the parallel pass.
struct PresetPrep {
    scenario: MetroScenario,
    sys: SystemConfig,
    plans: Vec<(SchemeId, ChannelPlan)>,
}

/// Distinct access classes of a scenario in first-appearance region
/// order, each with its region count, plus the region → class index map.
fn class_layout(scenario: &MetroScenario) -> (Vec<(AccessClass, usize)>, Vec<usize>) {
    let mut classes: Vec<(AccessClass, usize)> = Vec::new();
    let mut of_region = Vec::with_capacity(scenario.regions.len());
    for r in &scenario.regions {
        let idx = match classes.iter().position(|&(c, _)| c == r.access) {
            Some(i) => {
                classes[i].1 += 1;
                i
            }
            None => {
                classes.push((r.access, 1));
                classes.len() - 1
            }
        };
        of_region.push(idx);
    }
    (classes, of_region)
}

/// The busiest region: greatest demand share, lowest id on ties.
fn busiest_region(scenario: &MetroScenario) -> usize {
    let mut best = 0usize;
    for r in &scenario.regions {
        if r.demand_share > scenario.regions[best].demand_share {
            best = r.id;
        }
    }
    best
}

/// One region-sharded scheme run: execute the scenario stream with the
/// owning-shard table, folding per-class latency/defection.
fn scheme_cell(
    (scheme, plan): (SchemeId, &ChannelPlan),
    sys: &SystemConfig,
    scenario: &MetroScenario,
    reqs: &[ScenarioRequest],
    meta: &[(usize, f64)],
    classes: &[(AccessClass, usize)],
    knobs: (usize, usize),
) -> (SchemeCell, SessionSummary) {
    let (shards, threads) = knobs;
    let sim_reqs: Vec<Request> = reqs
        .iter()
        .map(|r| Request {
            at: r.at,
            video: VideoId(r.video),
        })
        .collect();
    let map = scenario.shard_map(shards);
    let mut fold = DefectionFold::new(meta, classes.len());
    let model = model_for(scheme);
    let sim = SystemSim::new(plan, sys.display_rate, &*model);
    let out = sim
        .execute(
            RunConfig::new(&sim_reqs)
                .shards(shards)
                .threads(threads)
                .partition(&map)
                .sink(&mut fold),
        )
        .expect("the scenario stream names only catalog titles");
    let cell = SchemeCell {
        scheme,
        label: scheme.label(),
        overall: out.fold.clone(),
        defected: fold.total_defected(),
        classes: fold.rows(classes),
        shard_peak_agenda: out.shard_peak_agenda,
    };
    (cell, out.fold)
}

/// Run the study. Presets run in parallel on `runner`; every scheme cell
/// fixes its shard count to the scenario's region count, and a flagship
/// pass re-runs the first cell at `flagship_shards` with the runner's
/// thread pool, asserting it folds to identical bytes. The report and
/// snapshot are byte-identical for every `flagship_shards` and thread
/// count.
///
/// # Errors
/// Returns a planning error when `per_video_mbps` cannot sustain a
/// scheme in the lineup, or a control-sizing error for the flash/outage
/// cells.
///
/// # Panics
/// Panics if the flagship pass folds different bytes than its preset
/// cell — a determinism violation in `sim::shard`, never a
/// configuration problem.
pub fn scenario_study(
    cfg: &ScenarioStudyConfig,
    flagship_shards: usize,
    runner: &Runner,
) -> Result<(ScenarioReport, Snapshot)> {
    // Validate everything fallible up front, outside the parallel pass.
    let mut preps = Vec::with_capacity(cfg.presets.len());
    for (pi, &preset) in cfg.presets.iter().enumerate() {
        let scenario = MetroScenario::generate(&preset.config(cfg.seed ^ (pi as u64) << 32));
        let titles = scenario.titles();
        let sys = SystemConfig {
            num_videos: titles,
            ..SystemConfig::paper_defaults(Mbps(cfg.per_video_mbps * titles as f64))
        };
        let mut plans = Vec::with_capacity(cfg.schemes.len());
        for &scheme in &cfg.schemes {
            plans.push((scheme, scheme.build().plan(&sys)?));
        }
        preps.push(PresetPrep {
            scenario,
            sys,
            plans,
        });
    }
    let control = ControlConfig::paper_defaults(cfg.control_bandwidth);
    let catalog = Catalog::paper_defaults(control.titles);
    let csim = ControlledSim::new(control, &catalog)?;

    let cells: Vec<(PresetReport, SessionSummary)> =
        runner.timed_map("scenario-presets", &preps, |prep| {
            let scenario = &prep.scenario;
            let regions = scenario.regions.len();
            let (classes, class_of_region) = class_layout(scenario);
            let flat = ScenarioWorkload {
                rate_per_minute: cfg.rate,
                horizon: cfg.horizon,
                mean_patience: cfg.mean_patience,
                diurnal: false,
                flash: None,
                seed: cfg.seed,
            };
            let reqs = flat.generate(scenario);
            let meta: Vec<(usize, f64)> = reqs
                .iter()
                .map(|r| (class_of_region[r.region], r.patience.value()))
                .collect();

            // Scheme cells, region-sharded: shards = regions, serial
            // inside the cell (the runner parallelizes across presets).
            let mut scheme_cells = Vec::with_capacity(prep.plans.len());
            let mut first_fold = None;
            for (scheme, plan) in &prep.plans {
                let (cell, fold) = scheme_cell(
                    (*scheme, plan),
                    &prep.sys,
                    scenario,
                    &reqs,
                    &meta,
                    &classes,
                    (regions, 1),
                );
                if first_fold.is_none() {
                    first_fold = Some(fold);
                }
                scheme_cells.push(cell);
            }

            // Flash crowd: the premiere evening through the control
            // plane, static vs dynamic over the identical stream.
            let hot = busiest_region(scenario);
            let premiere = ScenarioWorkload {
                rate_per_minute: cfg.rate * cfg.flash_rate_boost,
                flash: Some(FlashCrowd {
                    at: cfg.flash_at,
                    region: hot,
                }),
                ..flat
            };
            let flash_reqs = to_workload(&premiere.generate(scenario));
            let run_control = |policy, faults: Option<&FaultScript>, reqs| {
                let base = RunConfig::new(reqs);
                match faults {
                    Some(script) => csim
                        .execute(
                            policy,
                            base.faults(ControlFaults {
                                script,
                                degradation: Degradation::Stall,
                            }),
                        )
                        .expect("validated control cell"),
                    None => csim.execute(policy, base).expect("validated control cell"),
                }
                .summary
            };
            let flash = FlashCell {
                region: hot,
                rate: cfg.rate * cfg.flash_rate_boost,
                static_report: run_control(ControlPolicy::Static, None, &flash_reqs),
                dynamic_report: run_control(ControlPolicy::Dynamic, None, &flash_reqs),
            };

            // Correlated regional outage: the busiest region's broadcast
            // slots go dark; dynamic allocation quiet vs faulted.
            let slots = scenario.region_slots(hot, control.hot_slots);
            let script =
                FaultScript::correlated_outages(&slots, cfg.outage_start, cfg.outage_duration);
            let plain_reqs = to_workload(&reqs);
            let outage = OutageCell {
                region: hot,
                slots,
                quiet_report: run_control(ControlPolicy::Dynamic, None, &plain_reqs),
                faulted_report: run_control(ControlPolicy::Dynamic, Some(&script), &plain_reqs),
            };

            // Diurnal × density: the first scheme under the evening
            // surge, same geometry.
            let surge = ScenarioWorkload {
                diurnal: true,
                ..flat
            };
            let surge_reqs = surge.generate(scenario);
            let surge_meta: Vec<(usize, f64)> = surge_reqs
                .iter()
                .map(|r| (class_of_region[r.region], r.patience.value()))
                .collect();
            let (surge_cell, _) = scheme_cell(
                (prep.plans[0].0, &prep.plans[0].1),
                &prep.sys,
                scenario,
                &surge_reqs,
                &surge_meta,
                &classes,
                (regions, 1),
            );
            let diurnal = DiurnalCell {
                sessions: surge_cell.overall.sessions,
                defected: surge_cell.defected,
                mean_latency: surge_cell.overall.mean_latency,
                p95_latency: surge_cell.overall.p95_latency,
            };

            let report = PresetReport {
                preset: scenario.config.preset.name().to_string(),
                titles: scenario.titles(),
                regions: scenario
                    .regions
                    .iter()
                    .map(|r| RegionRow {
                        id: r.id,
                        users: r.users,
                        demand_share: r.demand_share,
                        access: r.access.name().to_string(),
                        downlink_mbps: r.access.downlink().value(),
                    })
                    .collect(),
                schemes: scheme_cells,
                flash,
                outage,
                diurnal,
            };
            (report, first_fold.expect("the lineup is non-empty"))
        });

    // The flagship pass: the first preset's first scheme again, at the
    // caller's shard count and thread pool. Only shard-invariant
    // totals enter the report; the fold must match the cell's bytes.
    let prep = &preps[0];
    let (classes, class_of_region) = class_layout(&prep.scenario);
    let reqs = ScenarioWorkload {
        rate_per_minute: cfg.rate,
        horizon: cfg.horizon,
        mean_patience: cfg.mean_patience,
        diurnal: false,
        flash: None,
        seed: cfg.seed,
    }
    .generate(&prep.scenario);
    let meta: Vec<(usize, f64)> = reqs
        .iter()
        .map(|r| (class_of_region[r.region], r.patience.value()))
        .collect();
    let sim_reqs: Vec<Request> = reqs
        .iter()
        .map(|r| Request {
            at: r.at,
            video: VideoId(r.video),
        })
        .collect();
    let map = prep.scenario.shard_map(flagship_shards);
    let mut fold = DefectionFold::new(&meta, classes.len());
    let model = model_for(prep.plans[0].0);
    let sim = SystemSim::new(&prep.plans[0].1, prep.sys.display_rate, &*model);
    let flagship = sim
        .execute(
            RunConfig::new(&sim_reqs)
                .shards(flagship_shards)
                .threads(runner.threads())
                .partition(&map)
                .sink(&mut fold),
        )
        .expect("the scenario stream names only catalog titles");

    let mut out = Vec::with_capacity(cells.len());
    let mut first_fold = None;
    for (report, cell_fold) in cells {
        if first_fold.is_none() {
            first_fold = Some(cell_fold);
        }
        out.push(report);
    }
    let cell_fold = first_fold.expect("the preset list is non-empty");
    assert_eq!(
        serde_json::to_string(&cell_fold).expect("summaries serialize"),
        serde_json::to_string(&flagship.fold).expect("summaries serialize"),
        "the flagship pass folded a different population than its region-sharded \
         cell — sim::shard determinism is broken",
    );
    assert_eq!(
        out[0].schemes[0].classes,
        fold.rows(&classes),
        "the flagship pass tabulated different class rows than its cell",
    );

    let report = ScenarioReport {
        config: cfg.clone(),
        presets: out,
        total_sessions: flagship.fold.sessions,
        total_events_fired: flagship.stats.fired,
    };
    Ok((report, flagship.snapshot))
}

/// Plain-text rendering of a [`ScenarioReport`] for the CLI.
#[must_use]
pub fn render_scenario(report: &ScenarioReport) -> String {
    let cfg = &report.config;
    let mut out = String::new();
    out.push_str(&format!(
        "scenario study: rate {}/min over {} min, patience {} min, {} Mb/s per title\n",
        cfg.rate,
        cfg.horizon.value(),
        cfg.mean_patience.value(),
        cfg.per_video_mbps,
    ));
    for p in &report.presets {
        out.push_str(&format!(
            "\npreset {} ({} titles, {} regions)\n",
            p.preset,
            p.titles,
            p.regions.len()
        ));
        out.push_str("region  users  share   access  downlink\n");
        for r in &p.regions {
            out.push_str(&format!(
                "r{:<6} {:>5} {:>6.3} {:>8} {:>6} Mb/s\n",
                r.id, r.users, r.demand_share, r.access, r.downlink_mbps,
            ));
        }
        out.push_str("scheme        class  regions  sessions  defected  mean-lat  p95-lat\n");
        for s in &p.schemes {
            for c in &s.classes {
                out.push_str(&format!(
                    "{:<13} {:<6} {:>7} {:>9} {:>9} {:>9.3} {:>8.3}\n",
                    s.label,
                    c.access,
                    c.regions,
                    c.sessions,
                    c.defected,
                    c.mean_latency.value(),
                    c.p95_latency.value(),
                ));
            }
            let agenda = s
                .shard_peak_agenda
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(",");
            out.push_str(&format!(
                "{:<13} per-region agenda peaks: {agenda}\n",
                s.label
            ));
        }
        out.push_str(&format!(
            "flash crowd (region {} at rate {}/min): static {:.3} min / {} defected, \
             dynamic {:.3} min / {} defected\n",
            p.flash.region,
            p.flash.rate,
            p.flash.static_report.mean_latency.value(),
            p.flash.static_report.defected,
            p.flash.dynamic_report.mean_latency.value(),
            p.flash.dynamic_report.defected,
        ));
        out.push_str(&format!(
            "regional outage (region {}, slots {:?}): quiet {:.3} min, faulted {:.3} min, \
             {} reallocations, {} redirected\n",
            p.outage.region,
            p.outage.slots,
            p.outage.quiet_report.mean_latency.value(),
            p.outage.faulted_report.mean_latency.value(),
            p.outage.faulted_report.resilience.reallocations,
            p.outage.faulted_report.resilience.redirected,
        ));
        out.push_str(&format!(
            "diurnal surge: {} sessions, {} defected, mean {:.3} min, p95 {:.3} min\n",
            p.diurnal.sessions,
            p.diurnal.defected,
            p.diurnal.mean_latency.value(),
            p.diurnal.p95_latency.value(),
        ));
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

    /// Unit-test scale: the full preset × scheme grid is expensive in
    /// debug builds (HB alone schedules ~512 receptions per session), so
    /// tests shrink the stream; `smoke()` stays the release-build CI
    /// configuration.
    fn tiny() -> ScenarioStudyConfig {
        ScenarioStudyConfig {
            rate: 1.5,
            horizon: Minutes(120.0),
            flash_at: Minutes(40.0),
            outage_start: Minutes(45.0),
            outage_duration: Minutes(30.0),
            ..ScenarioStudyConfig::paper_defaults()
        }
    }

    #[test]
    fn smoke_study_measures_every_cell() {
        let cfg = tiny();
        let (report, snap) = scenario_study(&cfg, 2, &Runner::serial()).expect("smoke study runs");
        assert_eq!(report.presets.len(), 3);
        for p in &report.presets {
            assert_eq!(p.schemes.len(), 4);
            let regions = p.regions.len();
            for s in &p.schemes {
                assert_eq!(s.shard_peak_agenda.len(), regions);
                let class_sessions: usize = s.classes.iter().map(|c| c.sessions).sum();
                assert_eq!(class_sessions, s.overall.sessions, "classes partition");
                assert!(s.overall.sessions > 0);
            }
            assert!(p.flash.static_report.accounted() > 0);
            assert!(p.outage.faulted_report.resilience.reallocations > 0);
            assert!(p.diurnal.sessions > 0);
        }
        // Asymmetric load by design: urban region shards peak apart.
        let sb = &report.presets[0].schemes[0];
        assert!(
            sb.shard_peak_agenda
                .iter()
                .any(|&a| a != sb.shard_peak_agenda[0]),
            "region shards should carry asymmetric load: {:?}",
            sb.shard_peak_agenda
        );
        assert!(snap.counter_total("engine_events_total") > 0);
        let txt = render_scenario(&report);
        assert!(txt.contains("preset urban"));
        assert!(txt.contains("flash crowd"));
    }

    #[test]
    fn flash_crowd_dynamic_strictly_beats_static() {
        // The acceptance pin: under the urban premiere, online
        // reallocation strictly beats the frozen hot set. Urban only and
        // SB only — the control cells don't depend on the scheme lineup,
        // and the full smoke grid is a release-build job.
        let cfg = ScenarioStudyConfig {
            presets: vec![ScenarioPreset::Urban],
            schemes: vec![SchemeId::Sb(Some(52))],
            ..ScenarioStudyConfig::smoke()
        };
        let (report, _) = scenario_study(&cfg, 1, &Runner::serial()).unwrap();
        let flash = &report.presets[0].flash;
        assert!(
            flash.dynamic_report.mean_latency < flash.static_report.mean_latency,
            "dynamic {} vs static {}",
            flash.dynamic_report.mean_latency,
            flash.static_report.mean_latency,
        );
    }

    #[test]
    fn report_is_invariant_to_flagship_knobs() {
        let cfg = tiny();
        let (base, base_snap) = scenario_study(&cfg, 1, &Runner::serial()).unwrap();
        for (shards, threads) in [(2, 4), (4, 2)] {
            let (r, s) = scenario_study(&cfg, shards, &Runner::new(threads)).unwrap();
            assert_eq!(r, base, "flagship shards {shards}, threads {threads}");
            assert_eq!(s, base_snap);
            assert_eq!(
                serde_json::to_string(&r).unwrap(),
                serde_json::to_string(&base).unwrap()
            );
        }
    }
}
