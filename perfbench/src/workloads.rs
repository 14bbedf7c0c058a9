//! The four workloads: each turns `--seed` into a request stream plus
//! the plans or control plane it runs against, before any timing starts.
//!
//! A workload's *cells* are the `execute` calls one timed pass makes.
//! The traced run also measures every layer on every workload, so each
//! workload has a *companion* built only in traced mode: the control
//! plane over the same stream for the `SystemSim` workloads, and the
//! broadcast half's SB sessions through `SystemSim` for `control-outage`
//! (the control plane produces no session traces of its own).

use std::time::Instant;

use skyscraper_broadcasting::control::{
    ControlConfig, ControlFaults, ControlOutcome, ControlPolicy, ControlledSim,
};
use skyscraper_broadcasting::core::{
    BroadcastScheme, ChannelPlan, SchemeMetrics, Skyscraper, SystemConfig, VideoId, Width,
};
use skyscraper_broadcasting::pyramid::{HarmonicBroadcasting, PyramidBroadcasting};
use skyscraper_broadcasting::resilience::{Degradation, FaultScript};
use skyscraper_broadcasting::sim::{
    ClientModel, ClientPolicy, RecordingClient, Request, RunConfig, RunOutcome, SystemSim,
};
use skyscraper_broadcasting::units::{Mbps, Minutes};
use skyscraper_broadcasting::workload::{
    to_workload, Catalog, FlashCrowd, GridArrivals, MetroScenario, Patience, ScenarioPreset,
    ScenarioWorkload, WorkloadRequest,
};

use crate::tracing::Tracer;

/// The benchmark's workloads, in `BENCHMARK.json` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// SB W=52 at metro scale on a deterministic arrival grid.
    SbGrid,
    /// Delayed Harmonic Broadcasting's receive-all client.
    HbReceiveAll,
    /// The urban scenario through the region-sharded path.
    MetroSharded,
    /// A premiere evening through the control plane with an outage.
    ControlOutage,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::SbGrid,
        Workload::HbReceiveAll,
        Workload::MetroSharded,
        Workload::ControlOutage,
    ];

    /// The `--workload` spelling.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::SbGrid => "sb-grid",
            Workload::HbReceiveAll => "hb-receive-all",
            Workload::MetroSharded => "metro-sharded",
            Workload::ControlOutage => "control-outage",
        }
    }

    /// Parse a `--workload` spelling.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input size: `Full` is what the benchmark measures, `Smoke` keeps the
/// benchmark's own tests fast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured size.
    Full,
    /// A few hundred requests per cell.
    Smoke,
}

/// Server bandwidth of the grid workloads, Mb/s.
const GRID_BANDWIDTH: f64 = 320.0;
/// Titles on the grid workloads.
const GRID_TITLES: usize = 10;
/// Broadcast bandwidth per scenario title, Mb/s.
const METRO_PER_TITLE_MBPS: f64 = 30.0;
/// Shards of the sharded workloads: one per urban region.
const METRO_SHARDS: usize = 4;
/// Worker threads of the sharded workloads (`nproc` on the reference
/// container is 2).
const METRO_THREADS: usize = 2;
/// Server bandwidth of the control plane, Mb/s.
const CONTROL_BANDWIDTH: f64 = 300.0;
/// Evening length of the scenario streams.
const EVENING: Minutes = Minutes(600.0);
/// Mean viewer patience of the scenario streams.
const MEAN_PATIENCE: Minutes = Minutes(45.0);
/// When the premiere drops on `control-outage`.
const PREMIERE_AT: Minutes = Minutes(150.0);
/// The busiest region's correlated outage on `control-outage`.
const OUTAGE_START: Minutes = Minutes(200.0);
/// How long the outage lasts.
const OUTAGE_LENGTH: Minutes = Minutes(60.0);

/// Requests per pass (grid sessions, or scenario arrivals per minute).
fn size(workload: Workload, scale: Scale) -> f64 {
    match (workload, scale) {
        (Workload::SbGrid, Scale::Full) => 100_000.0,
        (Workload::HbReceiveAll, Scale::Full) => 1_000.0,
        // Arrivals per minute over the 600-minute evening.
        (Workload::MetroSharded, Scale::Full) => 80.0,
        (Workload::ControlOutage, Scale::Full) => 800.0,
        (Workload::SbGrid | Workload::HbReceiveAll, Scale::Smoke) => 300.0,
        (Workload::MetroSharded | Workload::ControlOutage, Scale::Smoke) => 0.5,
    }
}

/// One `SystemSim::execute` call of a pass, with everything its output
/// checks need.
pub struct SimCell {
    /// Scheme label, e.g. `SB:W=52`.
    pub label: String,
    /// The broadcast plan.
    pub plan: ChannelPlan,
    /// Title display rate.
    pub display_rate: Mbps,
    /// The scheme's client model.
    pub model: Box<dyn ClientModel>,
    /// The scheme's closed-form Table-1 metrics.
    pub bounds: SchemeMetrics,
    /// Most concurrent receptions a client of this scheme may hold.
    pub max_streams: usize,
    /// The request stream, sorted by arrival.
    pub requests: Vec<Request>,
    /// Shard count.
    pub shards: usize,
    /// Worker threads.
    pub threads: usize,
    /// Per-title owning shard, when the run is region-sharded.
    pub partition: Option<Vec<usize>>,
}

impl SimCell {
    /// The simulator over this cell's plan and client model.
    #[must_use]
    pub fn sim(&self) -> SystemSim<'_> {
        SystemSim::new(&self.plan, self.display_rate, &*self.model)
    }

    /// The cell's run configuration.
    #[must_use]
    pub fn config(&self) -> RunConfig<'_, Request> {
        let cfg = RunConfig::new(&self.requests)
            .shards(self.shards)
            .threads(self.threads);
        match &self.partition {
            Some(map) => cfg.partition(map),
            None => cfg,
        }
    }

    /// The owning shard of each request (what `plan_shards` computes,
    /// given a partition table that covers every requested title).
    #[must_use]
    pub fn shard_of_each(&self) -> Vec<usize> {
        self.requests
            .iter()
            .map(|r| match &self.partition {
                Some(map) => map[r.video.0] % self.shards,
                None => 0,
            })
            .collect()
    }

    /// Execute the cell through the public entry point.
    ///
    /// # Errors
    /// The simulator's error, as text.
    pub fn execute(&self) -> Result<RunOutcome, String> {
        self.sim().execute(self.config()).map_err(|e| e.to_string())
    }
}

/// The control-plane runs of a pass: one `ControlledSim::execute` per
/// policy over one request stream.
pub struct ControlRun {
    /// The sized controlled server.
    pub sim: ControlledSim,
    /// The request stream, sorted by arrival.
    pub requests: Vec<WorkloadRequest>,
    /// Policies run, in order.
    pub policies: Vec<ControlPolicy>,
    /// The fault script replayed with stall repair, if any.
    pub script: Option<FaultScript>,
    /// Shard count.
    pub shards: usize,
    /// Worker threads.
    pub threads: usize,
    /// Per-title owning shard for the cold titles.
    pub partition: Option<Vec<usize>>,
}

impl ControlRun {
    /// Execute one policy through the public entry point.
    ///
    /// # Errors
    /// The control plane's error, as text.
    pub fn execute(&self, policy: ControlPolicy) -> Result<ControlOutcome, String> {
        let mut cfg = RunConfig::new(&self.requests)
            .shards(self.shards)
            .threads(self.threads);
        if let Some(map) = &self.partition {
            cfg = cfg.partition(map);
        }
        let out = match &self.script {
            Some(script) => self.sim.execute(
                policy,
                cfg.faults(ControlFaults {
                    script,
                    degradation: Degradation::Stall,
                }),
            ),
            None => self.sim.execute(policy, cfg),
        };
        out.map_err(|e| e.to_string())
    }
}

/// Everything one pass runs, generated before timing.
pub struct Setup {
    /// The `SystemSim` cells.
    pub sim: Vec<SimCell>,
    /// The control-plane runs.
    pub control: Option<ControlRun>,
}

impl Setup {
    /// Requests offered per pass, over every cell and policy.
    #[must_use]
    pub fn offered(&self) -> usize {
        let sim: usize = self.sim.iter().map(|c| c.requests.len()).sum();
        let control = self
            .control
            .as_ref()
            .map_or(0, |c| c.requests.len() * c.policies.len());
        sim + control
    }
}

/// Sizes of a setup, for the run context line.
#[must_use]
pub(crate) fn describe(setup: &Setup) -> String {
    let mut parts: Vec<String> = setup
        .sim
        .iter()
        .map(|c| {
            format!(
                "{} {} requests, shards {}, threads {}",
                c.label,
                c.requests.len(),
                c.shards,
                c.threads
            )
        })
        .collect();
    if let Some(c) = &setup.control {
        let policies: Vec<String> = c.policies.iter().map(ToString::to_string).collect();
        parts.push(format!(
            "control [{}] {} requests, shards {}, threads {}, {} outages",
            policies.join(","),
            c.requests.len(),
            c.shards,
            c.threads,
            c.script.as_ref().map_or(0, |s| s.outages.len())
        ));
    }
    parts.join("; ")
}

fn grid(sessions: usize, seed: u64) -> Vec<WorkloadRequest> {
    GridArrivals {
        sessions,
        horizon: EVENING,
        titles: GRID_TITLES,
        patience: Patience::Infinite,
        seed,
    }
    .generate()
}

fn sim_requests(reqs: &[WorkloadRequest]) -> Vec<Request> {
    reqs.iter()
        .map(|r| Request {
            at: r.at,
            video: VideoId(r.video),
        })
        .collect()
}

/// Build a plan inside a `plan.build` span, then time `ChannelPlan::index`
/// (which `execute` rebuilds per run) inside a `plan.index` span.
fn plan(
    tr: &mut Tracer,
    scheme: &dyn BroadcastScheme,
    cfg: &SystemConfig,
) -> Result<(ChannelPlan, SchemeMetrics), String> {
    let s = tr.begin("plan.build", None);
    let plan = scheme.plan(cfg).map_err(|e| e.to_string())?;
    let bounds = scheme.metrics(cfg).map_err(|e| e.to_string())?;
    tr.end(s);
    let s = tr.begin("plan.index", None);
    std::hint::black_box(plan.index());
    tr.end(s);
    Ok((plan, bounds))
}

/// SB's closed-form loader count: the client I/O bandwidth is the
/// loaders plus the player, in display-rate streams.
fn sb_loaders(bounds: &SchemeMetrics, display_rate: Mbps) -> usize {
    (bounds.client_io_bandwidth.value() / display_rate.value()).round() as usize - 1
}

/// Most channels carrying any one title: the receive-all bound.
fn channels_per_title(plan: &ChannelPlan) -> usize {
    let mut per = vec![0usize; plan.num_videos()];
    for ch in &plan.channels {
        let mut titles: Vec<usize> = ch.cycle.iter().map(|s| s.item.video.0).collect();
        titles.sort_unstable();
        titles.dedup();
        for v in titles {
            per[v] += 1;
        }
    }
    per.into_iter().max().unwrap_or(0)
}

/// The urban scenario every metro workload shares, and its busiest
/// region (greatest demand share, lowest id on ties).
fn urban(seed: u64) -> (MetroScenario, usize) {
    let scenario = MetroScenario::generate(&ScenarioPreset::Urban.config(seed));
    let mut hot = 0usize;
    for r in &scenario.regions {
        if r.demand_share > scenario.regions[hot].demand_share {
            hot = r.id;
        }
    }
    (scenario, hot)
}

fn control_sim() -> Result<ControlledSim, String> {
    let cfg = ControlConfig::paper_defaults(Mbps(CONTROL_BANDWIDTH));
    ControlledSim::new(cfg, &Catalog::paper_defaults(cfg.titles)).map_err(|e| e.to_string())
}

/// Generate the workload's inputs from `seed`. Spans: `workload.gen`
/// around generation, `plan.build` and `plan.index` around planning.
///
/// # Errors
/// A planning or sizing error, as text; none occurs at either scale.
pub fn setup(
    workload: Workload,
    seed: u64,
    scale: Scale,
    tr: &mut Tracer,
) -> Result<Setup, String> {
    let n = size(workload, scale);
    match workload {
        Workload::SbGrid | Workload::HbReceiveAll => {
            let s = tr.begin("workload.gen", None);
            let requests = sim_requests(&grid(n as usize, seed));
            tr.end(s);
            let cfg = SystemConfig::paper_defaults(Mbps(GRID_BANDWIDTH));
            let cell = if workload == Workload::SbGrid {
                let scheme = Skyscraper::with_width(Width::Capped(52));
                let (plan, bounds) = plan(tr, &scheme, &cfg)?;
                SimCell {
                    label: scheme.name(),
                    max_streams: sb_loaders(&bounds, cfg.display_rate),
                    plan,
                    display_rate: cfg.display_rate,
                    model: Box::new(ClientPolicy::LatestFeasible),
                    bounds,
                    requests,
                    shards: 1,
                    threads: 1,
                    partition: None,
                }
            } else {
                let scheme = HarmonicBroadcasting::delayed();
                let (plan, bounds) = plan(tr, &scheme, &cfg)?;
                let delay = scheme.slot(&cfg).map_err(|e| e.to_string())?;
                SimCell {
                    label: scheme.name(),
                    max_streams: channels_per_title(&plan),
                    plan,
                    display_rate: cfg.display_rate,
                    model: Box::new(RecordingClient {
                        playback_delay: delay,
                    }),
                    bounds,
                    requests,
                    shards: 1,
                    threads: 1,
                    partition: None,
                }
            };
            Ok(Setup {
                sim: vec![cell],
                control: None,
            })
        }
        Workload::MetroSharded => {
            let s = tr.begin("workload.gen", None);
            let (scenario, _) = urban(seed);
            let reqs = ScenarioWorkload {
                rate_per_minute: n,
                horizon: EVENING,
                mean_patience: MEAN_PATIENCE,
                diurnal: false,
                flash: None,
                seed,
            }
            .generate(&scenario);
            let requests = sim_requests(&to_workload(&reqs));
            let partition = scenario.shard_map(METRO_SHARDS);
            tr.end(s);
            let titles = scenario.titles();
            let cfg = SystemConfig {
                num_videos: titles,
                ..SystemConfig::paper_defaults(Mbps(METRO_PER_TITLE_MBPS * titles as f64))
            };
            let sb = Skyscraper::with_width(Width::Capped(52));
            let pb = PyramidBroadcasting::b();
            let (sb_plan, sb_bounds) = plan(tr, &sb, &cfg)?;
            let (pb_plan, pb_bounds) = plan(tr, &pb, &cfg)?;
            let cell = |label: String,
                        plan: ChannelPlan,
                        bounds: SchemeMetrics,
                        max_streams: usize,
                        model: Box<dyn ClientModel>| SimCell {
                label,
                plan,
                display_rate: cfg.display_rate,
                model,
                bounds,
                max_streams,
                requests: requests.clone(),
                shards: METRO_SHARDS,
                threads: METRO_THREADS,
                partition: Some(partition.clone()),
            };
            let pb_streams = channels_per_title(&pb_plan);
            Ok(Setup {
                sim: vec![
                    cell(
                        sb.name(),
                        sb_plan,
                        sb_bounds,
                        sb_loaders(&sb_bounds, cfg.display_rate),
                        Box::new(ClientPolicy::LatestFeasible),
                    ),
                    cell(
                        pb.name(),
                        pb_plan,
                        pb_bounds,
                        pb_streams,
                        Box::new(ClientPolicy::PbEarliest),
                    ),
                ],
                control: None,
            })
        }
        Workload::ControlOutage => {
            let s = tr.begin("workload.gen", None);
            let (scenario, hot) = urban(seed);
            let requests = to_workload(
                &ScenarioWorkload {
                    rate_per_minute: n,
                    horizon: EVENING,
                    mean_patience: MEAN_PATIENCE,
                    diurnal: false,
                    flash: Some(FlashCrowd {
                        at: PREMIERE_AT,
                        region: hot,
                    }),
                    seed,
                }
                .generate(&scenario),
            );
            let partition = scenario.shard_map(METRO_SHARDS);
            tr.end(s);
            // The control plane sizes its SB broadcast half itself.
            let s = tr.begin("plan.build", None);
            let sim = control_sim()?;
            tr.end(s);
            let hot_slots = ControlConfig::paper_defaults(Mbps(CONTROL_BANDWIDTH)).hot_slots;
            let slots = scenario.region_slots(hot, hot_slots);
            Ok(Setup {
                sim: Vec::new(),
                control: Some(ControlRun {
                    sim,
                    requests,
                    policies: vec![ControlPolicy::Static, ControlPolicy::Dynamic],
                    script: Some(FaultScript::correlated_outages(
                        &slots,
                        OUTAGE_START,
                        OUTAGE_LENGTH,
                    )),
                    shards: METRO_SHARDS,
                    threads: METRO_THREADS,
                    partition: Some(partition),
                }),
            })
        }
    }
}

/// The traced run's companion cells for `setup` (see the module docs),
/// planned inside `plan.build` and `plan.index` spans.
///
/// # Errors
/// A planning or sizing error, as text.
pub(crate) fn companion(setup: &Setup, tr: &mut Tracer) -> Result<Setup, String> {
    if let Some(first) = setup.sim.first() {
        let requests = first
            .requests
            .iter()
            .map(|r| WorkloadRequest {
                at: r.at,
                video: r.video.0,
                patience: Minutes(f64::INFINITY),
            })
            .collect();
        let s = tr.begin("plan.build", None);
        let sim = control_sim()?;
        tr.end(s);
        return Ok(Setup {
            sim: Vec::new(),
            control: Some(ControlRun {
                sim,
                requests,
                policies: vec![ControlPolicy::Dynamic],
                script: None,
                shards: first.shards,
                threads: first.threads,
                partition: first.partition.clone(),
            }),
        });
    }
    let control = setup.control.as_ref().ok_or("a setup runs something")?;
    // The broadcast half: SB at the control plane's width over the
    // initial hot set, on the bandwidth share the control plane gives it,
    // with hot slot `i` on shard `i % S` as in the sharded control plane.
    let cc = ControlConfig::paper_defaults(Mbps(CONTROL_BANDWIDTH));
    let cfg = SystemConfig {
        num_videos: cc.hot_slots,
        ..SystemConfig::paper_defaults(Mbps(CONTROL_BANDWIDTH * cc.broadcast_fraction))
    };
    let scheme = Skyscraper::with_width(cc.width);
    let (plan, bounds) = plan(tr, &scheme, &cfg)?;
    let requests = control
        .requests
        .iter()
        .filter(|r| r.video < cc.hot_slots)
        .map(|r| Request {
            at: r.at,
            video: VideoId(r.video),
        })
        .collect();
    Ok(Setup {
        sim: vec![SimCell {
            label: format!("{} broadcast half", scheme.name()),
            max_streams: sb_loaders(&bounds, cfg.display_rate),
            plan,
            display_rate: cfg.display_rate,
            model: Box::new(ClientPolicy::LatestFeasible),
            bounds,
            requests,
            shards: control.shards,
            threads: control.threads,
            partition: Some((0..cc.hot_slots).map(|i| i % control.shards).collect()),
        }],
        control: None,
    })
}

/// Time `f` on the host clock, in seconds.
pub(crate) fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}
